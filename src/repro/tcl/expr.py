"""Tcl arithmetic expression evaluator (used by ``expr``, ``if``, ``for``,
``while``).

Expressions support integer and floating-point arithmetic, relational,
logical, and bitwise operators, the ternary ``?:``, parentheses, and the
usual C precedence.  Variable (``$``) and command (``[]``) substitutions
are performed eagerly in lexical order, so ``if $i<2 {...}`` (paper
Figure 3) works; ``&&``, ``||`` and ``?:`` apply their *operators*
lazily, so coercion errors (divide by zero, non-numeric operands) on
the unevaluated side are suppressed.

Because expression strings are immutable, the expression text is
parsed **once** into a small AST keyed by the string (bounded LRU) and
re-evaluated on each use; ``$``/``[]`` substitution stays a
per-evaluation step so the cached AST is pure structure.  The hot
paths — ``while {$i<$n} {...}``, ``if`` conditions, widget geometry
arithmetic — therefore skip lexing entirely after the first
evaluation.  ``Interp(compile_enabled=False)`` bypasses the cache and
uses the original interpret-while-lexing evaluator, for the ablation
benchmarks.

Values are Python ints, floats, or strings internally; relational
operators fall back to string comparison when an operand is not numeric
(so ``$a == "yes"`` works), while arithmetic on a non-numeric string is
an error, matching Tcl's diagnostics.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import List, Optional, Tuple, Union

from .errors import TclError, TclParseError
from .parser import CmdSub, Literal, VarSub, Word, _Scanner
from .value import cached_number, format_number

Number = Union[int, float]
Value = Union[int, float, str]

# Operator tokens, longest match first.
_OPERATORS = [
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "<", ">", "+", "-", "*", "/", "%", "!", "~", "&", "^", "|",
    "(", ")", "?", ":", ",",
]


def coerce_number(value: Value) -> Optional[Number]:
    """Return the numeric interpretation of a value, or None.

    Delegates to the dual-rep machinery (:mod:`repro.tcl.value`): a
    :class:`~repro.tcl.value.Value` carrying a cached numeric rep skips
    the parse entirely, and the parse itself applies Tcl's coercion
    rules (invalid octals such as ``"08"`` are strings, not floats).
    """
    return cached_number(value)


def require_number(value: Value) -> Number:
    number = coerce_number(value)
    if number is None:
        raise TclError(
            'can\'t use non-numeric string "%s" as operand of expression'
            % value)
    return number


def require_int(value: Value) -> int:
    number = require_number(value)
    if isinstance(number, float):
        raise TclError(
            "can't use floating-point value as operand of integer operator")
    return number


def truth(value: Value) -> bool:
    return require_number(value) != 0


def format_value(value: Value) -> str:
    """Format an expression result the way Tcl prints it."""
    if isinstance(value, (bool, int, float)):
        return format_number(value)
    return value


class _ExprLexer(_Scanner):
    """Tokenizer for expressions; substitutions call back into the interp."""

    def __init__(self, text: str, interp):
        super().__init__(text)
        self.interp = interp

    def next_token(self) -> Optional[Tuple[str, Value]]:
        """Return (kind, payload); kind is 'op' or 'value'."""
        while not self.eof() and self.peek() in " \t\n\r":
            self.pos += 1
        if self.eof():
            return None
        ch = self.peek()
        if ch.isdigit() or (ch == "." and self._digit_follows()):
            return ("value", self._scan_number())
        if ch == "$":
            var = self.scan_variable()
            if var is None:
                raise TclParseError("syntax error in expression: lone $")
            return ("value", self.interp.value_of(var))
        if ch == "[":
            script = self.scan_bracketed()
            return ("value", self.interp.eval(script))
        if ch == '"':
            return ("value", self._scan_quoted_string())
        if ch == "{":
            return ("value", self._scan_braced_string())
        if ch == "=" and self.text[self.pos:self.pos + 2] != "==":
            raise TclParseError("syntax error in expression: single =")
        for op in _OPERATORS:
            if self.text.startswith(op, self.pos):
                self.pos += len(op)
                return ("op", op)
        # A bare word: in classic Tcl this is a syntax error unless it is
        # a recognized function; we support a few math functions.
        if ch.isalpha():
            start = self.pos
            while not self.eof() and (self.peek().isalnum() or
                                      self.peek() == "_"):
                self.pos += 1
            return ("func", self.text[start:self.pos])
        raise TclParseError(
            "syntax error in expression near \"%s\"" % self.text[self.pos:])

    def _digit_follows(self) -> bool:
        return self.pos + 1 < self.end and self.text[self.pos + 1].isdigit()

    def _scan_number(self) -> Number:
        start = self.pos
        text = self.text
        if text.startswith("0x", self.pos) or text.startswith("0X", self.pos):
            self.pos += 2
            while not self.eof() and self.peek() in "0123456789abcdefABCDEF":
                self.pos += 1
            return int(text[start:self.pos], 16)
        is_float = False
        while not self.eof() and self.peek().isdigit():
            self.pos += 1
        if self.peek() == ".":
            is_float = True
            self.pos += 1
            while not self.eof() and self.peek().isdigit():
                self.pos += 1
        if not self.eof() and self.peek() in "eE":
            mark = self.pos
            self.pos += 1
            if not self.eof() and self.peek() in "+-":
                self.pos += 1
            if self.peek().isdigit():
                is_float = True
                while not self.eof() and self.peek().isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        literal = text[start:self.pos]
        if is_float:
            return float(literal)
        if len(literal) > 1 and literal[0] == "0":
            try:
                return int(literal, 8)
            except ValueError:
                raise TclParseError(
                    'invalid octal number "%s" in expression' % literal)
        return int(literal)

    def _scan_quoted_string(self) -> str:
        self.pos += 1
        out: List[str] = []
        while not self.eof():
            ch = self.peek()
            if ch == '"':
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                out.append(self.scan_backslash())
            elif ch == "$":
                var = self.scan_variable()
                if var is None:
                    out.append(self.advance())
                else:
                    out.append(self.interp.value_of(var))
            elif ch == "[":
                out.append(self.interp.eval(self.scan_bracketed()))
            else:
                out.append(self.advance())
        raise TclParseError("missing close-quote in expression")

    def _scan_braced_string(self) -> str:
        depth = 0
        self.pos += 1
        start = self.pos
        depth = 1
        while not self.eof():
            ch = self.advance()
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return self.text[start:self.pos - 1]
        raise TclParseError("missing close-brace in expression")


class _ExprParser:
    """Recursive-descent evaluator with lazy &&, ||, and ?:.

    Laziness is implemented by threading an ``evaluate`` flag: the
    unevaluated side is still parsed and tokenized (so syntax errors are
    always reported), but no operators are applied there, so coercion
    errors such as divide-by-zero are suppressed.  As in classic Tcl,
    ``$``/``[]`` substitution of the expression text is a separate,
    eager phase performed during lexing.
    """

    def __init__(self, text: str, interp):
        self.lexer = _ExprLexer(text, interp)
        self.token: Optional[Tuple[str, Value]] = None
        self._advance()

    def _advance(self) -> None:
        self.token = self.lexer.next_token()

    def _expect_op(self, op: str) -> None:
        if self.token != ("op", op):
            raise TclParseError(
                'expected "%s" in expression' % op)
        self._advance()

    def parse(self) -> Value:
        value = self.ternary(True)
        if self.token is not None:
            raise TclParseError(
                "syntax error in expression: unexpected trailing tokens")
        return value

    def ternary(self, evaluate: bool) -> Value:
        condition = self.lor(evaluate)
        if self.token == ("op", "?"):
            self._advance()
            take_first = evaluate and truth(condition)
            first = self.ternary(evaluate and take_first)
            self._expect_op(":")
            second = self.ternary(evaluate and not take_first)
            if not evaluate:
                return 0
            return first if take_first else second
        return condition

    def lor(self, evaluate: bool) -> Value:
        value = self.land(evaluate)
        while self.token == ("op", "||"):
            self._advance()
            left_true = evaluate and truth(value)
            right = self.land(evaluate and not left_true)
            if evaluate:
                value = 1 if (left_true or truth(right)) else 0
        return value

    def land(self, evaluate: bool) -> Value:
        value = self.bitor(evaluate)
        while self.token == ("op", "&&"):
            self._advance()
            left_true = evaluate and truth(value)
            right = self.bitor(evaluate and left_true)
            if evaluate:
                value = 1 if (left_true and truth(right)) else 0
        return value

    def bitor(self, evaluate: bool) -> Value:
        value = self.bitxor(evaluate)
        while self.token == ("op", "|"):
            self._advance()
            right = self.bitxor(evaluate)
            if evaluate:
                value = require_int(value) | require_int(right)
        return value

    def bitxor(self, evaluate: bool) -> Value:
        value = self.bitand(evaluate)
        while self.token == ("op", "^"):
            self._advance()
            right = self.bitand(evaluate)
            if evaluate:
                value = require_int(value) ^ require_int(right)
        return value

    def bitand(self, evaluate: bool) -> Value:
        value = self.equality(evaluate)
        while self.token == ("op", "&"):
            self._advance()
            right = self.equality(evaluate)
            if evaluate:
                value = require_int(value) & require_int(right)
        return value

    def equality(self, evaluate: bool) -> Value:
        value = self.relational(evaluate)
        while self.token in (("op", "=="), ("op", "!=")):
            op = self.token[1]
            self._advance()
            right = self.relational(evaluate)
            if evaluate:
                equal = _compare(value, right) == 0
                value = int(equal if op == "==" else not equal)
        return value

    def relational(self, evaluate: bool) -> Value:
        value = self.shift(evaluate)
        while self.token in (("op", "<"), ("op", ">"),
                             ("op", "<="), ("op", ">=")):
            op = self.token[1]
            self._advance()
            right = self.shift(evaluate)
            if evaluate:
                cmp = _compare(value, right)
                value = int({"<": cmp < 0, ">": cmp > 0,
                             "<=": cmp <= 0, ">=": cmp >= 0}[op])
        return value

    def shift(self, evaluate: bool) -> Value:
        value = self.additive(evaluate)
        while self.token in (("op", "<<"), ("op", ">>")):
            op = self.token[1]
            self._advance()
            right = self.additive(evaluate)
            if evaluate:
                left_int, right_int = require_int(value), require_int(right)
                value = (left_int << right_int if op == "<<"
                         else left_int >> right_int)
        return value

    def additive(self, evaluate: bool) -> Value:
        value = self.multiplicative(evaluate)
        while self.token in (("op", "+"), ("op", "-")):
            op = self.token[1]
            self._advance()
            right = self.multiplicative(evaluate)
            if evaluate:
                left_num, right_num = require_number(value), \
                    require_number(right)
                value = (left_num + right_num if op == "+"
                         else left_num - right_num)
        return value

    def multiplicative(self, evaluate: bool) -> Value:
        value = self.unary(evaluate)
        while self.token in (("op", "*"), ("op", "/"), ("op", "%")):
            op = self.token[1]
            self._advance()
            right = self.unary(evaluate)
            if evaluate:
                value = _multiplicative(op, value, right)
        return value

    def unary(self, evaluate: bool) -> Value:
        if self.token is None:
            raise TclParseError("premature end of expression")
        kind, payload = self.token
        if kind == "op" and payload in ("-", "+", "!", "~"):
            self._advance()
            operand = self.unary(evaluate)
            if not evaluate:
                return 0
            if payload == "-":
                return -require_number(operand)
            if payload == "+":
                return +require_number(operand)
            if payload == "!":
                return int(not truth(operand))
            return ~require_int(operand)
        return self.primary(evaluate)

    def primary(self, evaluate: bool) -> Value:
        if self.token is None:
            raise TclParseError("premature end of expression")
        kind, payload = self.token
        if kind == "value":
            self._advance()
            return payload
        if kind == "op" and payload == "(":
            self._advance()
            value = self.ternary(evaluate)
            self._expect_op(")")
            return value
        if kind == "func":
            return self._function(payload, evaluate)
        raise TclParseError(
            'syntax error in expression near "%s"' % str(payload))

    def _function(self, name: str, evaluate: bool) -> Value:
        self._advance()
        if self.token != ("op", "("):
            raise TclError(
                'can\'t use non-numeric string "%s" as operand of '
                'expression' % name)
        self._advance()
        arguments = [self.ternary(evaluate)]
        while self.token == ("op", ","):
            self._advance()
            arguments.append(self.ternary(evaluate))
        self._expect_op(")")
        if not evaluate:
            return 0
        return _call_math_function(name, arguments)


#: Math functions of one float argument, dispatched through ``math``.
_UNARY_MATH = {
    "acos": math.acos, "asin": math.asin, "atan": math.atan,
    "ceil": math.ceil, "cos": math.cos, "cosh": math.cosh,
    "exp": math.exp, "floor": math.floor, "log": math.log,
    "log10": math.log10, "sin": math.sin, "sinh": math.sinh,
    "sqrt": math.sqrt, "tan": math.tan, "tanh": math.tanh,
}

_BINARY_MATH = {
    "atan2": math.atan2, "fmod": math.fmod, "hypot": math.hypot,
    "pow": math.pow,
}


def _call_math_function(name: str, arguments: List[Value]) -> Value:
    def arg(index: int) -> Number:
        if index >= len(arguments):
            raise TclError(
                'too few arguments for math function "%s"' % name)
        return require_number(arguments[index])

    if name == "abs":
        return abs(arg(0))
    if name == "int":
        return int(arg(0))
    if name == "double":
        return float(arg(0))
    if name == "round":
        number = arg(0)
        return int(number + 0.5) if number >= 0 else -int(-number + 0.5)
    if name in _UNARY_MATH:
        if len(arguments) != 1:
            raise TclError(
                'wrong # arguments for math function "%s"' % name)
        try:
            result = _UNARY_MATH[name](float(arg(0)))
        except (ValueError, OverflowError):
            raise TclError("domain error: argument not in valid range")
        if name in ("ceil", "floor"):
            return float(result)
        return result
    if name in _BINARY_MATH:
        if len(arguments) != 2:
            raise TclError(
                'wrong # arguments for math function "%s"' % name)
        try:
            return _BINARY_MATH[name](float(arg(0)), float(arg(1)))
        except (ValueError, OverflowError):
            raise TclError("domain error: argument not in valid range")
    raise TclError('unknown math function "%s"' % name)


def _compare(left: Value, right: Value) -> int:
    """Three-way comparison with numeric preference, string fallback."""
    left_num = coerce_number(left)
    right_num = coerce_number(right)
    if left_num is not None and right_num is not None:
        return (left_num > right_num) - (left_num < right_num)
    left_str = format_value(left)
    right_str = format_value(right)
    return (left_str > right_str) - (left_str < right_str)


def _multiplicative(op: str, left: Value, right: Value) -> Number:
    left_num = require_number(left)
    right_num = require_number(right)
    if op == "*":
        return left_num * right_num
    if right_num == 0:
        raise TclError("divide by zero")
    if op == "/":
        if isinstance(left_num, int) and isinstance(right_num, int):
            return left_num // right_num
        return left_num / right_num
    if isinstance(left_num, float) or isinstance(right_num, float):
        raise TclError(
            "can't use floating-point value as operand of %")
    return left_num % right_num


# ----------------------------------------------------------------------
# Compiled expressions: parse once into an AST, evaluate many times.
#
# The AST reproduces the reference evaluator exactly:
#
# * substitution nodes (``$var``, ``[cmd]``, quoted strings) resolve
#   on *every* evaluation, in lexical order, regardless of which side
#   of a lazy operator they sit on — just as the reference lexer pulls
#   every token;
# * operator nodes thread an ``evaluate`` flag and apply nothing on an
#   unevaluated side, so ``expr {0 && 1/0}`` is 0, not an error.
# ----------------------------------------------------------------------


class _Node:
    """Base of the AST nodes.  ``fn`` (unset until first use) is the
    closure the bytecode VM lowers a root node to; it is cached on the
    shared AST, so every interpreter reuses it."""

    __slots__ = ("fn",)


class _ConstNode(_Node):
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value

    def eval(self, interp, evaluate: bool) -> Value:
        return self.value


class _VarNode(_Node):
    __slots__ = ("var",)

    def __init__(self, var: VarSub):
        self.var = var

    def eval(self, interp, evaluate: bool) -> Value:
        return interp.value_of(self.var)


class _CmdNode(_Node):
    __slots__ = ("script",)

    def __init__(self, script: str):
        self.script = script

    def eval(self, interp, evaluate: bool) -> Value:
        return interp.eval(self.script)


class _QuotedNode(_Node):
    """A double-quoted string with embedded substitutions."""

    __slots__ = ("word",)

    def __init__(self, word: Word):
        self.word = word

    def eval(self, interp, evaluate: bool) -> Value:
        return interp.substitute_word(self.word)


class _UnaryNode(_Node):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand):
        self.op = op
        self.operand = operand

    def eval(self, interp, evaluate: bool) -> Value:
        operand = self.operand.eval(interp, evaluate)
        if not evaluate:
            return 0
        op = self.op
        if op == "-":
            return -require_number(operand)
        if op == "+":
            return +require_number(operand)
        if op == "!":
            return int(not truth(operand))
        return ~require_int(operand)


def _apply_shift(op: str, left: Value, right: Value) -> int:
    left_int, right_int = require_int(left), require_int(right)
    return left_int << right_int if op == "<<" else left_int >> right_int


def _apply_relational(op: str, left: Value, right: Value) -> int:
    cmp = _compare(left, right)
    if op == "<":
        return int(cmp < 0)
    if op == ">":
        return int(cmp > 0)
    if op == "<=":
        return int(cmp <= 0)
    return int(cmp >= 0)


#: Eager binary operators: op -> applier(left, right).
_BINARY_APPLY = {
    "|": lambda l, r: require_int(l) | require_int(r),
    "^": lambda l, r: require_int(l) ^ require_int(r),
    "&": lambda l, r: require_int(l) & require_int(r),
    "==": lambda l, r: int(_compare(l, r) == 0),
    "!=": lambda l, r: int(_compare(l, r) != 0),
    "<": lambda l, r: _apply_relational("<", l, r),
    ">": lambda l, r: _apply_relational(">", l, r),
    "<=": lambda l, r: _apply_relational("<=", l, r),
    ">=": lambda l, r: _apply_relational(">=", l, r),
    "<<": lambda l, r: _apply_shift("<<", l, r),
    ">>": lambda l, r: _apply_shift(">>", l, r),
    "+": lambda l, r: require_number(l) + require_number(r),
    "-": lambda l, r: require_number(l) - require_number(r),
    "*": lambda l, r: _multiplicative("*", l, r),
    "/": lambda l, r: _multiplicative("/", l, r),
    "%": lambda l, r: _multiplicative("%", l, r),
}


class _BinaryNode(_Node):
    # ``op`` is kept alongside the bound applier so the bytecode VM
    # can pick its all-numeric fast path when it lowers the node.
    __slots__ = ("op", "apply", "left", "right")

    def __init__(self, op: str, left, right):
        self.op = op
        self.apply = _BINARY_APPLY[op]
        self.left = left
        self.right = right

    def eval(self, interp, evaluate: bool) -> Value:
        left = self.left.eval(interp, evaluate)
        right = self.right.eval(interp, evaluate)
        if not evaluate:
            return 0
        return self.apply(left, right)


class _AndNode(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def eval(self, interp, evaluate: bool) -> Value:
        left = self.left.eval(interp, evaluate)
        left_true = evaluate and truth(left)
        right = self.right.eval(interp, evaluate and left_true)
        if not evaluate:
            return 0
        return 1 if (left_true and truth(right)) else 0


class _OrNode(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def eval(self, interp, evaluate: bool) -> Value:
        left = self.left.eval(interp, evaluate)
        left_true = evaluate and truth(left)
        right = self.right.eval(interp, evaluate and not left_true)
        if not evaluate:
            return 0
        return 1 if (left_true or truth(right)) else 0


class _TernaryNode(_Node):
    __slots__ = ("condition", "first", "second")

    def __init__(self, condition, first, second):
        self.condition = condition
        self.first = first
        self.second = second

    def eval(self, interp, evaluate: bool) -> Value:
        condition = self.condition.eval(interp, evaluate)
        take_first = evaluate and truth(condition)
        first = self.first.eval(interp, evaluate and take_first)
        second = self.second.eval(interp, evaluate and not take_first)
        if not evaluate:
            return 0
        return first if take_first else second


class _FuncNode(_Node):
    __slots__ = ("name", "arguments")

    def __init__(self, name: str, arguments: List):
        self.name = name
        self.arguments = arguments

    def eval(self, interp, evaluate: bool) -> Value:
        values = [argument.eval(interp, evaluate)
                  for argument in self.arguments]
        if not evaluate:
            return 0
        return _call_math_function(self.name, values)


class _ExprCompiler(_ExprLexer):
    """Tokenizer that defers substitutions into AST nodes."""

    def __init__(self, text: str):
        super().__init__(text, None)

    def next_token(self) -> Optional[Tuple[str, object]]:
        while not self.eof() and self.peek() in " \t\n\r":
            self.pos += 1
        if self.eof():
            return None
        ch = self.peek()
        if ch.isdigit() or (ch == "." and self._digit_follows()):
            return ("value", _ConstNode(self._scan_number()))
        if ch == "$":
            var = self.scan_variable()
            if var is None:
                raise TclParseError("syntax error in expression: lone $")
            return ("value", _VarNode(var))
        if ch == "[":
            return ("value", _CmdNode(self.scan_bracketed()))
        if ch == '"':
            return ("value", self._scan_quoted_fragments())
        if ch == "{":
            return ("value", _ConstNode(self._scan_braced_string()))
        if ch == "=" and self.text[self.pos:self.pos + 2] != "==":
            raise TclParseError("syntax error in expression: single =")
        for op in _OPERATORS:
            if self.text.startswith(op, self.pos):
                self.pos += len(op)
                return ("op", op)
        if ch.isalpha():
            start = self.pos
            while not self.eof() and (self.peek().isalnum() or
                                      self.peek() == "_"):
                self.pos += 1
            return ("func", self.text[start:self.pos])
        raise TclParseError(
            "syntax error in expression near \"%s\"" % self.text[self.pos:])

    def _scan_quoted_fragments(self):
        """Scan ``"..."`` collecting fragments instead of resolving them."""
        self.pos += 1
        parts: List = []
        buf: List[str] = []

        def flush() -> None:
            if buf:
                parts.append(Literal("".join(buf)))
                del buf[:]

        while not self.eof():
            ch = self.peek()
            if ch == '"':
                self.pos += 1
                flush()
                if not parts:
                    return _ConstNode("")
                if len(parts) == 1 and type(parts[0]) is Literal:
                    return _ConstNode(parts[0].text)
                return _QuotedNode(Word(tuple(parts)))
            if ch == "\\":
                buf.append(self.scan_backslash())
            elif ch == "$":
                var = self.scan_variable()
                if var is None:
                    buf.append(self.advance())
                else:
                    flush()
                    parts.append(var)
            elif ch == "[":
                flush()
                parts.append(CmdSub(self.scan_bracketed()))
            else:
                buf.append(self.advance())
        raise TclParseError("missing close-quote in expression")


class _AstBuilder:
    """Recursive-descent parser producing the compiled AST.

    Mirrors :class:`_ExprParser` level for level, so precedence and
    associativity are identical between the compiled and interpreted
    evaluators.
    """

    def __init__(self, text: str):
        self.lexer = _ExprCompiler(text)
        self.token: Optional[Tuple[str, object]] = None
        self._advance()

    def _advance(self) -> None:
        self.token = self.lexer.next_token()

    def _expect_op(self, op: str) -> None:
        if self.token != ("op", op):
            raise TclParseError('expected "%s" in expression' % op)
        self._advance()

    def parse(self):
        node = self.ternary()
        if self.token is not None:
            raise TclParseError(
                "syntax error in expression: unexpected trailing tokens")
        return node

    def ternary(self):
        condition = self.lor()
        if self.token == ("op", "?"):
            self._advance()
            first = self.ternary()
            self._expect_op(":")
            second = self.ternary()
            return _TernaryNode(condition, first, second)
        return condition

    def _chain(self, operand, operators, node_for):
        node = operand()
        while self.token is not None and self.token[0] == "op" and \
                self.token[1] in operators:
            op = self.token[1]
            self._advance()
            node = node_for(op, node, operand())
        return node

    def lor(self):
        return self._chain(self.land, ("||",),
                           lambda op, l, r: _OrNode(l, r))

    def land(self):
        return self._chain(self.bitor, ("&&",),
                           lambda op, l, r: _AndNode(l, r))

    def bitor(self):
        return self._chain(self.bitxor, ("|",), _BinaryNode)

    def bitxor(self):
        return self._chain(self.bitand, ("^",), _BinaryNode)

    def bitand(self):
        return self._chain(self.equality, ("&",), _BinaryNode)

    def equality(self):
        return self._chain(self.relational, ("==", "!="), _BinaryNode)

    def relational(self):
        return self._chain(self.shift, ("<", ">", "<=", ">="),
                           _BinaryNode)

    def shift(self):
        return self._chain(self.additive, ("<<", ">>"), _BinaryNode)

    def additive(self):
        return self._chain(self.multiplicative, ("+", "-"), _BinaryNode)

    def multiplicative(self):
        return self._chain(self.unary, ("*", "/", "%"), _BinaryNode)

    def unary(self):
        if self.token is None:
            raise TclParseError("premature end of expression")
        kind, payload = self.token
        if kind == "op" and payload in ("-", "+", "!", "~"):
            self._advance()
            return _UnaryNode(payload, self.unary())
        return self.primary()

    def primary(self):
        if self.token is None:
            raise TclParseError("premature end of expression")
        kind, payload = self.token
        if kind == "value":
            self._advance()
            return payload
        if kind == "op" and payload == "(":
            self._advance()
            node = self.ternary()
            self._expect_op(")")
            return node
        if kind == "func":
            return self._function(payload)
        raise TclParseError(
            'syntax error in expression near "%s"' % str(payload))

    def _function(self, name: str):
        self._advance()
        if self.token != ("op", "("):
            raise TclError(
                'can\'t use non-numeric string "%s" as operand of '
                'expression' % name)
        self._advance()
        arguments = [self.ternary()]
        while self.token == ("op", ","):
            self._advance()
            arguments.append(self.ternary())
        self._expect_op(")")
        return _FuncNode(name, arguments)


#: Bounded LRU of expression text -> compiled AST.  Shared between
#: interpreters — the AST holds structure only, never interpreter
#: state, so sharing is safe.
_AST_CACHE: "OrderedDict[str, object]" = OrderedDict()
_AST_CACHE_LIMIT = 1024


def compile_expr(text: str):
    """Parse an expression into its cached AST (compiling on miss)."""
    node = _AST_CACHE.get(text)
    if node is None:
        node = _AstBuilder(text).parse()
        if len(_AST_CACHE) >= _AST_CACHE_LIMIT:
            _AST_CACHE.popitem(last=False)
        _AST_CACHE[text] = node
    else:
        _AST_CACHE.move_to_end(text)
    return node


def eval_expr(interp, text: str) -> Value:
    """Evaluate an expression; returns an int, float, or string."""
    if getattr(interp, "compile_enabled", True):
        return compile_expr(text).eval(interp, True)
    return _ExprParser(text, interp).parse()


def expr_as_string(interp, text: str) -> str:
    """Evaluate an expression and format the result as Tcl would."""
    return format_value(eval_expr(interp, text))


def expr_as_bool(interp, text: str) -> bool:
    """Evaluate an expression as a condition (for if/while/for)."""
    value = eval_expr(interp, text)
    number = coerce_number(value)
    if number is None:
        raise TclError(
            'expression "%s" didn\'t produce a numeric result' % text)
    return number != 0
