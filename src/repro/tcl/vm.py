"""Bytecode VM for the Tcl core (the Tcl 8.0 move, scaled to this repo).

The compile-once front end (src/repro/tcl/compile.py) parses each
script once into ``CompiledCommand`` word plans.  Invoking those
plans command by command would still re-split every ``incr``'s
variable name, re-enter the generic command machinery on every
``while`` iteration, and turn every value crossing a command boundary
into a string.  This module compiles the plans one step further, into
a flat tuple of *opcodes* executed by a single dispatch loop — the
only executor of compiled scripts:

* dedicated opcodes for the hot shapes — ``set``/``incr`` (with the
  variable name pre-split, a literal or ``$var`` array index planned,
  and, inside procedures, formals pre-resolved to a local slot index),
  ``expr``, structured ``if``/``while``/``for``/``foreach`` ops whose
  bodies are nested code objects — no command dispatch per iteration —
  and a one-word ``eval`` (``OP_EVAL``) that runs its script's cached
  code on the current frame without re-entering ``Interp.eval``;
* expressions lowered once into a tree of plain Python closures
  ``fn(interp, frame)`` (see :func:`_expr_fn`), cached on the shared
  expression AST; ``&&``/``||``/``?:``, math functions, ``[cmd]`` and
  quoted strings stay lazy and delegate to the AST node's own ``eval``;
* inline command substitution: a word that is one ``[script]`` is
  compiled by the same builder as its command (sharing the slot map
  and the ``specialized`` set) and runs as nested code under the depth
  guard; a lone ``[expr {...}]`` is a direct closure call that still
  counts one command and still appends its ``while executing`` line;
* an inline cache per call site for command resolution, keyed on the
  interpreter's ``commands_epoch``, so ``rename``, ``proc``
  redefinition and command deletion take effect immediately;
* indexed local-variable slots: a procedure's formals are resolved to
  slot numbers at compile time, so reads and writes inside the body
  are list indexing instead of dict lookups.

Deoptimization discipline
-------------------------

Each dedicated opcode embeds builtin semantics (the ``while`` loop
above *is* ``cmd_while``), which is only sound while the builtin it
replaces is still the registered command procedure.  A code object
therefore records the builtin names it specialized on; ``_usable``
revalidates that set against the live command table whenever the
epoch moves.  When validation fails — someone renamed ``set``, or the
span tracer started collecting — every opcode takes the generic path
(:func:`_generic`): the words of its embedded
:class:`~repro.tcl.compile.CompiledCommand` are substituted and the
command is invoked by name through ``Interp._invoke``, which opens the
``cmd`` trace span and handles ``unknown``.  Traced runs therefore
execute this same dispatch loop, one generic op per command, and
substitute ``[script]`` words through ``Interp.eval`` as the
parse-per-eval path does.

Value discipline
----------------

Inside the VM, results and scalar variable cells may be *raw* Python
ints (``incr``/``expr`` never round-trip through strings); a raw float
or bool never reaches a variable, because substituted words keep only
ints raw.  Array elements always hold strings: every element store
converts with :func:`repro.tcl.value.to_str`.  The string rep of a
scalar is materialized lazily by ``Interp.get_var``/``to_str`` the
first time string-level code looks, and every boundary out of the VM
(command argv, proc results, ``interp.eval``) converts via ``to_str``,
whose ``%.12g``-based formatting makes the raw path observationally
identical to the string path.

Variable access (:func:`_load_var`, :func:`_store_var`) follows
``global``/``upvar`` links one name at a time, for at most
``_MAX_HOPS`` hops, and reads or writes the owning slot, dict entry or
array element directly.  Whenever variable traces are installed
(``Interp._vm_direct`` is False), a variable or element is missing, a
chain is longer, or anything would raise, it falls back to
``Interp.get_var``/``set_var``, which fire traces and raise the
diagnostics.  That equivalence is what lets ``examples/golden.journal``
replay byte-identically on the VM and on the parse-per-eval path
(``compile_off`` replay mode) — the correctness oracle for this whole
module.
"""

from __future__ import annotations

import operator
from typing import List, Optional

from .compile import (CompiledScript, CompiledWord, _append_error_info,
                      _CmdStep, _VarStep, compile_script, compile_word)
from .errors import TclBreak, TclContinue, TclError, TclReturn
from .expr import (_BinaryNode, _ConstNode, _UnaryNode, _VarNode,
                   _multiplicative, compile_expr, require_int,
                   require_number, truth)
from .lists import parse_list
from .strings import _to_int
from .value import (SlotLink as _SlotLink, Value as _Value, cached_number,
                    literal, to_str)

# ---------------------------------------------------------------------------
# opcodes
# ---------------------------------------------------------------------------

OP_GENERIC = 0        # (op, cmd)
OP_CALL = 1           # (op, name, const_argv, plans, cache, cmd)
# Ops up to OP_EVAL substitute words of their own.
OP_SET_SLOT = 2       # (op, slot, name, plan, cmd)
OP_SET_NAME = 3       # (op, name, index, plan, cmd)
OP_INCR_SLOT = 4      # (op, slot, name, amount, cmd)
OP_INCR_NAME = 5      # (op, name, index, amount, cmd)
OP_FOREACH = 6        # (op, targets, plan, body, cmd)
OP_RETURN = 7         # (op, plan, cmd)
OP_EVAL = 8           # (op, plan, cmd)
OP_EXPR = 9           # (op, fn, text, cmd)
OP_IF = 10            # (op, branches, else_code, cmd)
OP_WHILE = 11         # (op, fn, text, body, cmd)
OP_FOR = 12           # (op, start, fn, text, next, body, cmd)
OP_BREAK = 13         # (op, cmd)
OP_CONTINUE = 14      # (op, cmd)

_MNEMONICS = {
    OP_GENERIC: "GENERIC", OP_CALL: "CALL", OP_SET_SLOT: "SET_SLOT",
    OP_SET_NAME: "SET_NAME", OP_INCR_SLOT: "INCR_SLOT",
    OP_INCR_NAME: "INCR_NAME", OP_EXPR: "EXPR", OP_IF: "IF",
    OP_WHILE: "WHILE", OP_FOR: "FOR", OP_FOREACH: "FOREACH",
    OP_RETURN: "RETURN", OP_BREAK: "BREAK", OP_CONTINUE: "CONTINUE",
    OP_EVAL: "EVAL",
}

# Word-plan kinds (see _Builder.plan): literal strings are stored as
# Value objects directly; dynamic words become small tagged tuples.  An
# array index (``index`` below, and in SET_NAME/INCR_NAME ops) is None,
# a literal Value, or a plan.
_P_VAR = 1            # (kind, name, index)
_P_CMD = 2            # (kind, Code)        inline ``[script]``
_P_WORD = 3           # (kind, CompiledWord)
_P_EXPR = 4           # (kind, Code)        inline lone ``[expr {...}]``

#: Longest ``global``/``upvar`` chain the direct variable access
#: follows before handing the name to ``Interp.get_var``/``set_var``.
_MAX_HOPS = 8

# Lazily bound (vm is imported by interp at module load, so importing
# interp/commands back at top level would cycle through a
# partially-initialized module).
_Proc = None
_MAX_DEPTH = 1000
_BUILTINS: Optional[dict] = None


def _lazy_init() -> None:
    global _Proc, _MAX_DEPTH, _BUILTINS
    from .interp import Proc, _MAX_NESTING_DEPTH
    from .commands import control, variables
    from .commands import strings as strcmds
    _Proc = Proc
    _MAX_DEPTH = _MAX_NESTING_DEPTH
    _BUILTINS = {
        "set": variables.cmd_set,
        "incr": variables.cmd_incr,
        "expr": strcmds.cmd_expr,
        "if": control.cmd_if,
        "while": control.cmd_while,
        "for": control.cmd_for,
        "foreach": control.cmd_foreach,
        "return": control.cmd_return,
        "break": control.cmd_break,
        "continue": control.cmd_continue,
        "eval": control.cmd_eval,
    }


class Code:
    """A compiled opcode sequence.

    ``slot_map`` maps formal names to slot indexes for procedure
    bodies (None for script-level code).  ``specialized`` is the set
    of builtin names whose semantics are baked into dedicated opcodes;
    it is shared by a top-level code object and all its nested bodies
    and inline ``[script]`` plans, so one revalidation covers the whole
    unit.  ``valid`` caches the last successful validation as
    ``(interp, epoch)``.
    """

    __slots__ = ("ops", "slot_map", "specialized", "valid", "source",
                 "simple_arity")

    def __init__(self, ops: tuple, slot_map, specialized, source: str):
        self.ops = ops
        self.slot_map = slot_map
        self.specialized = specialized
        self.valid = None
        self.source = source
        #: For procedure bodies whose formals have no defaults and no
        #: trailing ``args``: the exact argument count, letting the
        #: caller bind slots with one list slice.  None otherwise.
        self.simple_arity: Optional[int] = None


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------

def _revalidate(interp, code: Code) -> bool:
    commands = interp.commands
    builtins = _BUILTINS
    for name in code.specialized:
        if commands.get(name) is not builtins[name]:
            return False
    code.valid = (interp, interp.commands_epoch)
    return True


def _usable(interp, code: Code) -> bool:
    """May dedicated opcodes run?  False while the tracer collects or
    any specialized builtin is no longer the registered command."""
    if interp._trace_on:
        return False
    v = code.valid
    if v is not None and v[0] is interp and v[1] == interp.commands_epoch:
        return True
    return _revalidate(interp, code)


# ---------------------------------------------------------------------------
# word plans
# ---------------------------------------------------------------------------

def _plan(word):
    """A per-word resolution plan: a literal Value or a tagged tuple.

    ``[script]`` words stay ``_P_WORD`` here; :meth:`_Builder.plan`
    inlines them."""
    if type(word) is str:
        return literal(word)
    steps = word.steps
    if len(steps) == 1 and type(steps[0]) is _VarStep:
        step = steps[0]
        index = step.index
        return (_P_VAR, step.name, None if index is None else _plan(index))
    return (_P_WORD, word)


def _resolve(interp, frame, plan) -> str:
    """Resolve a plan to its string value (command-argv discipline)."""
    if type(plan) is _Value:
        return plan
    return to_str(_resolve_raw(interp, frame, plan))


def _resolve_raw(interp, frame, plan):
    """Like :func:`_resolve`, but a variable read or an inline command
    may give a raw int (``set``/``incr``/``expr`` value positions)."""
    if type(plan) is _Value:
        return plan
    kind = plan[0]
    if kind == _P_VAR:
        index = plan[2]
        if index is not None and type(index) is not _Value:
            index = _resolve(interp, frame, index)
        return _load_var(interp, frame, plan[1], index)
    if kind == _P_WORD:
        return plan[1].substitute(interp)
    code = plan[1]
    v = code.valid
    if kind == _P_EXPR and v is not None and v[0] is interp and \
            v[1] == interp.commands_epoch and not interp._trace_on and \
            interp.depth < _MAX_DEPTH:
        # ``[expr {...}]``: the one EXPR op, without a run() prologue.
        op = code.ops[0]
        interp._m_vm_dispatches.value += 1
        interp._m_commands.value += 1
        interp.depth += 1
        try:
            value = op[1](interp, frame)
        except TclError as error:
            _append_error_info(error, op[3].source)
            raise
        except interp.native_error_types as error:
            converted = TclError(str(error))
            _append_error_info(converted, op[3].source)
            raise converted from error
        finally:
            interp.depth -= 1
    else:
        value = _exec_body(interp, code, frame)
    # A substituted word is a string; ints stay raw (their string rep
    # is exact), floats and bools take their Tcl formatting now.
    return value if type(value) is int else to_str(value)


def _load_var(interp, frame, name, index=None):
    """Raw read of ``name`` (or its element ``index``) as seen from
    ``frame``: links followed, no string materialization."""
    if interp._vm_direct:
        owner, key, hops = frame, name, 0
        while True:
            slot_map = owner.slot_map
            ix = None if slot_map is None else slot_map.get(key)
            if ix is None:
                cell = owner.variables.get(key)
                if cell is None:
                    link = owner.links.get(key)
                    if link is None:
                        break
                    owner, key = link
                    hops += 1
                    if hops > _MAX_HOPS:
                        break
                    continue
            else:
                cell = owner.slots[ix]
                if type(cell) is _SlotLink:
                    owner, key = cell.frame, cell.name
                    hops += 1
                    if hops > _MAX_HOPS:
                        break
                    continue
            t = type(cell)
            if index is None:
                if t is str or t is _Value or t is int:
                    return cell
            elif t is dict:
                value = cell.get(index)
                if value is not None:
                    return value
            break
    return interp.get_var(name, index)


def _store_var(interp, frame, name, index, value):
    """Write ``value`` to ``name`` (or its element ``index``) as seen
    from ``frame``, following links like :func:`_load_var`.  Array
    elements are always stored as strings."""
    if index is not None:
        value = to_str(value)
    if interp._vm_direct:
        owner, key, hops = frame, name, 0
        while hops <= _MAX_HOPS:
            slot_map = owner.slot_map
            ix = None if slot_map is None else slot_map.get(key)
            if ix is not None:
                cell = owner.slots[ix]
                t = type(cell)
                if t is _SlotLink:
                    owner, key = cell.frame, cell.name
                    hops += 1
                    continue
                if index is None:
                    if t is not dict:
                        owner.slots[ix] = value
                        return value
                elif t is dict:
                    cell[index] = value
                    return value
                break
            variables = owner.variables
            cell = variables.get(key)
            if cell is None:
                link = owner.links.get(key)
                if link is not None:
                    owner, key = link
                    hops += 1
                    continue
                if index is not None:
                    break                   # set_var creates the array
            elif index is not None:
                if type(cell) is dict:
                    cell[index] = value
                    return value
                break
            elif type(cell) is dict:
                break
            variables[key] = value
            return value
    return interp.set_var(name, value, index)


def _as_int(value) -> int:
    t = type(value)
    if t is int:
        return value
    if t is str or t is _Value:
        return _to_int(value)
    return _to_int(to_str(value))


# ---------------------------------------------------------------------------
# expressions lowered to closures
# ---------------------------------------------------------------------------

def _div(a, b):
    if type(a) is int and type(b) is int and b:
        return a // b
    return _multiplicative("/", a, b)


def _mod(a, b):
    if type(a) is int and type(b) is int and b:
        return a % b
    return _multiplicative("%", a, b)


#: All-numeric fast paths, same results as the appliers.  Comparisons
#: follow the appliers' three-way compare, under which NaN is "equal"
#: to everything: ``<=`` is "not greater", ``==`` "neither less nor
#: greater".  They return bools; the caller's unary ``+`` makes ints.
_FAST = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _div, "%": _mod, "<": operator.lt, ">": operator.gt,
    "<=": lambda a, b: not a > b, ">=": lambda a, b: not a < b,
    "==": lambda a, b: not (a < b or a > b),
    "!=": lambda a, b: a < b or a > b,
}

def _expr_fn(text: str):
    """The closure form ``fn(interp, frame)`` of an expression, built on
    first use and cached on its (shared, bounded-LRU) AST."""
    node = compile_expr(text)
    try:
        return node.fn
    except AttributeError:
        fn = node.fn = _lower(node)
        return fn


def _lower(node):
    """Lower an AST node to a closure equal to ``node.eval(interp,
    True)``, except that variable reads may return raw ints.

    Each closure is made by a small factory of its own, so it holds
    only the cells it reads (the closures live as long as the AST)."""
    t = type(node)
    if t is _ConstNode:
        return _const_fn(node.value)
    if t is _VarNode:
        name, index = _static_var(node)
        if name is not None:
            return _var_fn(name, index)
        return _dynamic_var_fn(node.var.name,
                               _plan(compile_word(node.var.index)))
    if t is _BinaryNode:
        return _lower_binary(node)
    if t is _UnaryNode:
        return _unary_fn(node.op, _lower(node.operand))
    # Lazy operators, math functions, [cmd] and quoted strings.
    return _delegate_fn(node.eval)


def _static_var(node):
    """``(name, index)`` of a ``$name`` or ``$name(literal)`` operand,
    which a binary closure reads without a closure call of its own;
    ``(None, None)`` for anything else."""
    if type(node) is _VarNode:
        var = node.var
        if var.index is None:
            return var.name, None
        index = compile_word(var.index)
        if type(index) is str:
            return var.name, literal(index)
    return None, None


def _const_fn(value):
    return lambda interp, frame: value


def _var_fn(name, index):
    return lambda interp, frame: _load_var(interp, frame, name, index)


def _dynamic_var_fn(name, index):
    return lambda interp, frame: _load_var(
        interp, frame, name, _resolve(interp, frame, index))


def _delegate_fn(evaluate):
    return lambda interp, frame: evaluate(interp, True)


def _unary_fn(op, operand):
    if op == "-":
        return lambda interp, frame: -require_number(operand(interp, frame))
    if op == "+":
        return lambda interp, frame: +require_number(operand(interp, frame))
    if op == "!":
        return lambda interp, frame: int(not truth(operand(interp, frame)))
    return lambda interp, frame: ~require_int(operand(interp, frame))


def _lower_binary(node):
    apply = node.apply
    fast = _FAST.get(node.op)
    if fast is None:
        return _applied_fn(apply, _lower(node.left), _lower(node.right))
    lname, lindex = _static_var(node.left)
    left = _lower(node.left) if lname is None else None
    rnum = node.right.value if type(node.right) is _ConstNode else None
    if type(rnum) is int or type(rnum) is float:
        # A numeric literal: the applier sees exactly this number too.
        if lname is None:
            return _numeric_const_fn(fast, apply, left, rnum)
        return _var_const_fn(fast, apply, lname, lindex, rnum)
    rname, rindex = _static_var(node.right)
    right = _lower(node.right) if rname is None else None
    return _numeric_fn(fast, apply, left, lname, lindex,
                       right, rname, rindex)


def _applied_fn(apply, left, right):
    return lambda interp, frame: apply(left(interp, frame),
                                       right(interp, frame))


# The binary closures below take their parameters as default
# arguments rather than closure cells: one closure lives per AST node
# for as long as the expression cache keeps the AST, and a cell per
# parameter would cost about 40 more bytes each.

def _numeric_const_fn(fast, apply, left, rnum):
    def numeric_const(interp, frame, fast=fast, apply=apply, left=left,
                      rnum=rnum):
        l = left(interp, frame)
        t = type(l)
        n = l if t is int or t is float else cached_number(l)
        if n is None:
            return apply(l, rnum)
        return +fast(n, rnum)
    return numeric_const


def _var_const_fn(fast, apply, name, index, rnum):
    """``$name OP number``: the variable is read without a closure."""
    def var_const(interp, frame, fast=fast, apply=apply, name=name,
                  index=index, rnum=rnum):
        l = _load_var(interp, frame, name, index)
        t = type(l)
        n = l if t is int or t is float else cached_number(l)
        if n is None:
            return apply(l, rnum)
        return +fast(n, rnum)
    return var_const


def _numeric_fn(fast, apply, left, lname, lindex, right, rname, rindex):
    """``left OP right``; an operand that is a plain variable (``lname``,
    ``rname``) is read by name, any other by its closure."""
    def numeric(interp, frame, fast=fast, apply=apply, left=left,
                lname=lname, lindex=lindex, right=right, rname=rname,
                rindex=rindex):
        if lname is None:
            l = left(interp, frame)
        else:
            l = _load_var(interp, frame, lname, lindex)
        if rname is None:
            r = right(interp, frame)
        else:
            r = _load_var(interp, frame, rname, rindex)
        t = type(l)
        ln = l if t is int or t is float else cached_number(l)
        if ln is not None:
            t = type(r)
            rn = r if t is int or t is float else cached_number(r)
            if rn is not None:
                return +fast(ln, rn)
        return apply(l, r)
    return numeric


def _cond(interp, frame, fn, text: str) -> bool:
    number = cached_number(fn(interp, frame))
    if number is None:
        raise TclError(
            'expression "%s" didn\'t produce a numeric result' % text)
    return number != 0


# ---------------------------------------------------------------------------
# dispatch loop
# ---------------------------------------------------------------------------

def _exec_body(interp, code: Code, frame):
    """Run a nested body with the same depth guard ``interp.eval``
    applies, so runaway recursion through loop/if bodies raises the
    Tcl diagnostic instead of exhausting the Python stack."""
    if interp.depth >= _MAX_DEPTH:
        raise TclError("too many nested calls to Tcl_Eval (infinite loop?)")
    interp.depth += 1
    try:
        return run(interp, code, frame)
    finally:
        interp.depth -= 1


def _generic(interp, cmd):
    """Substitute a command's words and invoke it by name."""
    argv = [word if type(word) is str else word.substitute(interp)
            for word in cmd.words]
    return interp._invoke(argv, cmd.source)


def run(interp, code: Code, frame):
    """Execute a code object against ``frame``; may return a raw value.

    Error-info accumulation matches the generic path exactly: word
    *resolution* errors propagate unwrapped (substitution happens
    before the command is invoked), while errors from the operation
    itself are wrapped with the command source.
    """
    ops = code.ops
    interp._m_vm_dispatches.value += len(ops)
    valid = True
    result = ""
    for op in ops:
        # An earlier op may have run arbitrary Tcl (redefining a
        # builtin or starting the tracer): recheck cheaply via the
        # cached (interp, epoch) stamp before each dedicated op.
        if valid:
            v = code.valid
            if v is None or v[0] is not interp or \
                    v[1] != interp.commands_epoch or interp._trace_on:
                valid = _usable(interp, code)
        if not valid:
            result = _generic(interp, op[-1])
            valid = _usable(interp, code)
            continue
        kind = op[0]
        if kind > OP_EVAL:
            # Every dedicated opcode stands in for one command
            # invocation; keep ``info cmdcount`` exact.  The generic
            # path counts a command once its words are substituted, so
            # ops that substitute words count after that (and CALL and
            # GENERIC on their own paths).
            interp._m_commands.value += 1
        if kind == OP_CALL:
            cache = op[4]
            if cache[0] is interp and cache[1] == interp.commands_epoch:
                target = cache[2]
                interp._m_vm_cache_hits.value += 1
            else:
                target = interp.commands.get(op[1])
                if target is not None:
                    cache[0] = interp
                    cache[1] = interp.commands_epoch
                    cache[2] = target
            const = op[2]
            if const is not None:
                argv = const[:]
            else:
                argv = [_resolve(interp, frame, plan) for plan in op[3]]
            if target is None:
                # Unknown-command handling, never cached (the handler
                # may define the command).
                result = interp._invoke(argv, op[5].source)
                continue
            interp._m_commands.value += 1
            try:
                if type(target) is _Proc:
                    result = interp._call_proc_vm(target, argv)
                else:
                    r = target(interp, argv)
                    result = r if r is not None else ""
            except TclError as error:
                _append_error_info(error, op[5].source)
                raise
            except interp.native_error_types as error:
                converted = TclError(str(error))
                _append_error_info(converted, op[5].source)
                raise converted from error
        elif kind == OP_SET_SLOT:
            value = _resolve_raw(interp, frame, op[3])
            interp._m_commands.value += 1
            if interp._vm_direct:
                slots = frame.slots
                cell = slots[op[1]]
                if type(cell) is not dict and type(cell) is not _SlotLink:
                    slots[op[1]] = value
                    result = value
                    continue
            try:
                result = _store_var(interp, frame, op[2], None, value)
            except TclError as error:
                _append_error_info(error, op[4].source)
                raise
        elif kind == OP_SET_NAME:
            # The name word (and so its index) is substituted before
            # the value word, as on the generic path.
            index = op[2]
            if index is not None and type(index) is not _Value:
                index = _resolve(interp, frame, index)
            value = _resolve_raw(interp, frame, op[3])
            interp._m_commands.value += 1
            try:
                result = _store_var(interp, frame, op[1], index, value)
            except TclError as error:
                _append_error_info(error, op[4].source)
                raise
        elif kind == OP_INCR_SLOT:
            amount = op[3]
            if type(amount) is not int:
                amount = _resolve_raw(interp, frame, amount)
            interp._m_commands.value += 1
            try:
                if interp._vm_direct:
                    slots = frame.slots
                    cell = slots[op[1]]
                    t = type(cell)
                    if t is int:
                        result = cell + _as_int(amount)
                        slots[op[1]] = result
                        continue
                    if t is str or t is _Value:
                        result = _as_int(cell) + _as_int(amount)
                        slots[op[1]] = result
                        continue
                result = _incr(interp, frame, op[2], None, amount)
            except TclError as error:
                _append_error_info(error, op[4].source)
                raise
        elif kind == OP_INCR_NAME:
            index = op[2]
            if index is not None and type(index) is not _Value:
                index = _resolve(interp, frame, index)
            amount = op[3]
            if type(amount) is not int:
                amount = _resolve_raw(interp, frame, amount)
            interp._m_commands.value += 1
            name = op[1]
            try:
                if index is None and interp._vm_direct:
                    # A local scalar needs no link walk: a frame holds a
                    # name as a slot, a variable or a link, never two.
                    variables = frame.variables
                    cell = variables.get(name)
                    t = type(cell)
                    if t is int or t is str or t is _Value:
                        result = _as_int(cell) + _as_int(amount)
                        variables[name] = result
                        continue
                result = _incr(interp, frame, name, index, amount)
            except TclError as error:
                _append_error_info(error, op[4].source)
                raise
        elif kind == OP_EXPR:
            try:
                result = op[1](interp, frame)
            except TclError as error:
                _append_error_info(error, op[3].source)
                raise
            except interp.native_error_types as error:
                converted = TclError(str(error))
                _append_error_info(converted, op[3].source)
                raise converted from error
        elif kind == OP_EVAL:
            result = _op_eval(interp, frame, op)
        elif kind == OP_IF:
            result = _op_if(interp, frame, op)
        elif kind == OP_WHILE:
            result = _op_while(interp, frame, op)
        elif kind == OP_FOREACH:
            result = _op_foreach(interp, frame, op)
        elif kind == OP_FOR:
            result = _op_for(interp, frame, op)
        elif kind == OP_GENERIC:
            result = _generic(interp, op[1])
        elif kind == OP_RETURN:
            plan = op[1]
            value = "" if plan is None else _resolve(interp, frame, plan)
            interp._m_commands.value += 1
            raise TclReturn(value)
        elif kind == OP_BREAK:
            raise TclBreak()
        else:
            raise TclContinue()
    return result


def _incr(interp, frame, name, index, amount):
    current = _as_int(_load_var(interp, frame, name, index))
    return _store_var(interp, frame, name, index, current + _as_int(amount))


def _op_eval(interp, frame, op):
    """One-word ``eval``: the script's cached code, run on this frame
    (``cmd_eval`` without the ``Interp.eval`` re-entry)."""
    # Substitution of the script word precedes the command proper on
    # the generic path, so its errors stay unwrapped.
    script = _resolve(interp, frame, op[1])
    interp._m_commands.value += 1
    try:
        if not interp.compile_enabled:
            return interp.eval(script)
        compiled = interp._compiled(script)
        code = compiled.vm_code
        if code is None:
            code = code_for_script(interp, compiled)
        return _exec_body(interp, code, frame)
    except TclError as error:
        _append_error_info(error, op[2].source)
        raise
    except interp.native_error_types as error:
        converted = TclError(str(error))
        _append_error_info(converted, op[2].source)
        raise converted from error


def _op_if(interp, frame, op):
    try:
        for fn, text, branch in op[1]:
            if _cond(interp, frame, fn, text):
                return _exec_body(interp, branch, frame)
        else_code = op[2]
        if else_code is not None:
            return _exec_body(interp, else_code, frame)
        return ""
    except TclError as error:
        _append_error_info(error, op[3].source)
        raise
    except interp.native_error_types as error:
        converted = TclError(str(error))
        _append_error_info(converted, op[3].source)
        raise converted from error


def _op_while(interp, frame, op):
    fn, text, body = op[1], op[2], op[3]
    try:
        while _cond(interp, frame, fn, text):
            try:
                _exec_body(interp, body, frame)
            except TclBreak:
                break
            except TclContinue:
                continue
        return ""
    except TclError as error:
        _append_error_info(error, op[4].source)
        raise
    except interp.native_error_types as error:
        converted = TclError(str(error))
        _append_error_info(converted, op[4].source)
        raise converted from error


def _op_for(interp, frame, op):
    start, fn, text, nxt, body = op[1], op[2], op[3], op[4], op[5]
    try:
        _exec_body(interp, start, frame)
        while _cond(interp, frame, fn, text):
            try:
                _exec_body(interp, body, frame)
            except TclBreak:
                break
            except TclContinue:
                pass
            _exec_body(interp, nxt, frame)
        return ""
    except TclError as error:
        _append_error_info(error, op[6].source)
        raise
    except interp.native_error_types as error:
        converted = TclError(str(error))
        _append_error_info(converted, op[6].source)
        raise converted from error


def _op_foreach(interp, frame, op):
    targets, body = op[1], op[3]
    # Substitution of the list word precedes the command proper on the
    # generic path, so its errors stay unwrapped.
    list_text = _resolve(interp, frame, op[2])
    interp._m_commands.value += 1
    try:
        values = parse_list(list_text)
        n_names = len(targets)
        n_values = len(values)
        direct = interp._vm_direct
        for chunk_start in range(0, n_values, n_names):
            for offset in range(n_names):
                ix, name = targets[offset]
                position = chunk_start + offset
                value = values[position] if position < n_values else ""
                if ix is not None and direct:
                    slots = frame.slots
                    cell = slots[ix]
                    if type(cell) is not dict and \
                            type(cell) is not _SlotLink:
                        slots[ix] = value
                        continue
                _store_var(interp, frame, name, None, value)
                direct = interp._vm_direct
            try:
                _exec_body(interp, body, frame)
            except TclBreak:
                break
            except TclContinue:
                continue
            direct = interp._vm_direct
        return ""
    except TclError as error:
        _append_error_info(error, op[4].source)
        raise
    except interp.native_error_types as error:
        converted = TclError(str(error))
        _append_error_info(converted, op[4].source)
        raise converted from error


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

class _Builder:
    """Compiles CompiledScript trees into Code objects.

    One builder per top-level unit: nested bodies and inline
    ``[script]`` words share the builder's slot map and
    ``specialized`` set, so the whole unit validates as one."""

    def __init__(self, slot_map):
        self.slot_map = slot_map
        self.specialized = set()
        self.count = 0

    def build(self, compiled: CompiledScript) -> Code:
        self.count += 1
        ops = tuple(self._command(cmd) for cmd in compiled.commands)
        return Code(ops, self.slot_map, self.specialized, compiled.source)

    def sub(self, text: str) -> Code:
        return self.build(compile_script(text))

    def plan(self, word):
        """:func:`_plan`, with a one-``[script]`` word compiled inline."""
        if type(word) is not str and len(word.steps) == 1 and \
                type(word.steps[0]) is _CmdStep:
            step = word.steps[0]
            compiled = step.compiled
            if compiled is None:
                try:
                    compiled = step.compiled = compile_script(step.script)
                except TclError:
                    # Unparsable: the generic substitution raises it
                    # at run time, as the parse-per-eval path does.
                    return (_P_WORD, word)
            code = self.build(compiled)
            if len(code.ops) == 1 and code.ops[0][0] == OP_EXPR:
                return (_P_EXPR, code)
            return (_P_CMD, code)
        return _plan(word)

    def _target(self, word):
        """``(name, index)`` of a variable-name word: a literal name,
        or ``name(...)`` whose index is substituted (``cell($i)``).
        None when the name itself is dynamic."""
        if type(word) is str:
            name, index = _split_var_name(word)
            return name, None if index is None else literal(index)
        steps = word.steps
        first, last = steps[0], steps[-1]
        if len(steps) >= 3 and type(first) is str and last == ")" and \
                0 < first.find("(") == len(first) - 1:
            # The generic path splits the substituted name at its first
            # "(", which is the last character of ``first``.
            return first[:-1], self.plan(CompiledWord(steps[1:-1]))
        return None

    def _command(self, cmd):
        words = cmd.words
        if not words or type(words[0]) is not str:
            return (OP_GENERIC, cmd)
        name = words[0]
        handler = _SPECIALIZERS.get(name)
        if handler is not None:
            try:
                op = handler(self, cmd)
            except TclError:
                # Anything statically malformed (bad expr syntax,
                # unparsable sub-script, non-integer increment) takes
                # the generic call path so the error is raised at run
                # time, by the builtin, exactly as the generic path does.
                op = None
            if op is not None:
                self.specialized.add(name)
                return op
        if cmd.argv is not None:
            const = [literal(arg) for arg in cmd.argv]
            plans = None
        else:
            const = None
            plans = tuple(self.plan(word) for word in words)
        return (OP_CALL, name, const, plans, [None, -1, None], cmd)

    def _slot(self, name: str) -> Optional[int]:
        slot_map = self.slot_map
        return slot_map.get(name) if slot_map is not None else None

    def _spec_set(self, cmd):
        words = cmd.words
        if len(words) != 3:
            return None
        target = self._target(words[1])
        if target is None:
            return None
        name, index = target
        plan = self.plan(words[2])
        if index is None:
            ix = self._slot(name)
            if ix is not None:
                return (OP_SET_SLOT, ix, name, plan, cmd)
        return (OP_SET_NAME, name, index, plan, cmd)

    def _spec_incr(self, cmd):
        words = cmd.words
        if len(words) not in (2, 3):
            return None
        target = self._target(words[1])
        if target is None:
            return None
        name, index = target
        if len(words) == 2:
            amount = 1
        elif type(words[2]) is str:
            amount = _to_int(words[2])      # TclError -> generic path
        else:
            amount = self.plan(words[2])
        if index is None:
            ix = self._slot(name)
            if ix is not None:
                return (OP_INCR_SLOT, ix, name, amount, cmd)
        return (OP_INCR_NAME, name, index, amount, cmd)

    def _spec_expr(self, cmd):
        words = cmd.words
        if len(words) < 2:
            return None
        for word in words[1:]:
            if type(word) is not str:
                return None
        text = " ".join(words[1:])
        return (OP_EXPR, _expr_fn(text), text, cmd)

    def _spec_eval(self, cmd):
        words = cmd.words
        if len(words) != 2:
            return None
        return (OP_EVAL, self.plan(words[1]), cmd)

    def _spec_if(self, cmd):
        argv = cmd.words
        for word in argv:
            if type(word) is not str:
                return None
        i = 1
        branches = []
        else_code = None
        while True:
            if i >= len(argv):
                return None
            condition = argv[i]
            i += 1
            if i < len(argv) and argv[i] == "then":
                i += 1
            if i >= len(argv):
                return None
            body = argv[i]
            i += 1
            branches.append((_expr_fn(condition), condition,
                             self.sub(body)))
            if i >= len(argv):
                break
            if argv[i] == "elseif":
                i += 1
                continue
            if argv[i] == "else":
                i += 1
            if i >= len(argv) or i != len(argv) - 1:
                return None
            else_code = self.sub(argv[i])
            break
        return (OP_IF, tuple(branches), else_code, cmd)

    def _spec_while(self, cmd):
        words = cmd.words
        if len(words) != 3 or type(words[1]) is not str or \
                type(words[2]) is not str:
            return None
        return (OP_WHILE, _expr_fn(words[1]), words[1],
                self.sub(words[2]), cmd)

    def _spec_for(self, cmd):
        words = cmd.words
        if len(words) != 5:
            return None
        for word in words[1:]:
            if type(word) is not str:
                return None
        return (OP_FOR, self.sub(words[1]), _expr_fn(words[2]),
                words[2], self.sub(words[3]), self.sub(words[4]), cmd)

    def _spec_foreach(self, cmd):
        words = cmd.words
        if len(words) != 4 or type(words[1]) is not str or \
                type(words[3]) is not str:
            return None
        names = parse_list(words[1])
        if not names:
            return None
        targets = tuple((self._slot(name), name) for name in names)
        return (OP_FOREACH, targets, self.plan(words[2]),
                self.sub(words[3]), cmd)

    def _spec_return(self, cmd):
        words = cmd.words
        if len(words) == 1:
            return (OP_RETURN, None, cmd)
        if len(words) == 2:
            return (OP_RETURN, self.plan(words[1]), cmd)
        return None

    def _spec_break(self, cmd):
        return (OP_BREAK, cmd) if len(cmd.words) == 1 else None

    def _spec_continue(self, cmd):
        return (OP_CONTINUE, cmd) if len(cmd.words) == 1 else None


_SPECIALIZERS = {
    "set": _Builder._spec_set,
    "incr": _Builder._spec_incr,
    "expr": _Builder._spec_expr,
    "if": _Builder._spec_if,
    "while": _Builder._spec_while,
    "for": _Builder._spec_for,
    "foreach": _Builder._spec_foreach,
    "return": _Builder._spec_return,
    "break": _Builder._spec_break,
    "continue": _Builder._spec_continue,
    "eval": _Builder._spec_eval,
}


def _split_var_name(name: str):
    if name.endswith(")"):
        open_paren = name.find("(")
        if open_paren > 0:
            return name[:open_paren], name[open_paren + 1:-1]
    return name, None


def code_for_script(interp, compiled: CompiledScript) -> Code:
    """Compile a script-level unit (no local slots)."""
    if _BUILTINS is None:
        _lazy_init()
    builder = _Builder(None)
    code = builder.build(compiled)
    interp._m_vm_compiles.value += builder.count
    compiled.vm_code = code
    return code


def code_for_proc(interp, compiled: CompiledScript, proc) -> Code:
    """Compile a procedure body with formals mapped to slot indexes."""
    if _BUILTINS is None:
        _lazy_init()
    slot_map = {}
    for position, formal in enumerate(proc.formals):
        # A duplicated formal maps to its last position, matching the
        # dict-binding path where later positions overwrite earlier.
        slot_map[formal[0]] = position
    builder = _Builder(slot_map)
    code = builder.build(compiled)
    formals = proc.formals
    if all(len(formal) == 1 for formal in formals) and \
            (not formals or formals[-1][0] != "args"):
        code.simple_arity = len(formals)
    interp._m_vm_compiles.value += builder.count
    return code


# ---------------------------------------------------------------------------
# disassembly (info disassemble)
# ---------------------------------------------------------------------------

def disassemble(code: Code) -> str:
    """Human-readable bytecode listing for ``info disassemble``."""
    lines: List[str] = []
    if code.slot_map:
        ordered = sorted(code.slot_map.items(), key=lambda item: item[1])
        lines.append("slots: " + " ".join(
            "%d=%s" % (ix, name) for name, ix in ordered))
    _dis(code, lines, 0)
    return "\n".join(lines)


def _brief(text: str, limit: int = 40) -> str:
    text = " ".join(str(text).split())
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _dis(code: Code, lines: List[str], depth: int) -> None:
    pad = "  " * depth
    for position, op in enumerate(code.ops):
        kind = op[0]
        name = _MNEMONICS[kind]
        prefix = "%s%3d %-10s" % (pad, position, name)
        plans = ()
        if kind == OP_CALL:
            arity = len(op[2]) if op[2] is not None else len(op[3])
            lines.append("%s %s/%d  {%s}" % (prefix, op[1], arity - 1,
                                             _brief(op[5].source)))
            plans = op[3] or ()
        elif kind == OP_SET_SLOT:
            lines.append("%s slot%d (%s) <- %s"
                         % (prefix, op[1], op[2], _brief_plan(op[3])))
            plans = (op[3],)
        elif kind == OP_SET_NAME:
            lines.append("%s %s <- %s" % (
                prefix, _display(op[1], op[2]), _brief_plan(op[3])))
            plans = (op[2], op[3])
        elif kind == OP_INCR_SLOT:
            lines.append("%s slot%d (%s) += %s"
                         % (prefix, op[1], op[2], _brief_plan(op[3])))
            plans = (op[3],)
        elif kind == OP_INCR_NAME:
            lines.append("%s %s += %s" % (
                prefix, _display(op[1], op[2]), _brief_plan(op[3])))
            plans = (op[2], op[3])
        elif kind == OP_EXPR:
            lines.append("%s {%s}" % (prefix, _brief(op[2])))
        elif kind == OP_EVAL:
            lines.append("%s %s" % (prefix, _brief_plan(op[1])))
            plans = (op[1],)
        elif kind == OP_IF:
            lines.append(prefix.rstrip())
            for branch, (_fn, text, body) in enumerate(op[1]):
                lines.append("%s    cond[%d] {%s}"
                             % (pad, branch, _brief(text)))
                _dis(body, lines, depth + 1)
            if op[2] is not None:
                lines.append("%s    else" % pad)
                _dis(op[2], lines, depth + 1)
        elif kind == OP_WHILE:
            lines.append("%s {%s}" % (prefix, _brief(op[2])))
            _dis(op[3], lines, depth + 1)
        elif kind == OP_FOR:
            lines.append("%s {%s}" % (prefix, _brief(op[3])))
            lines.append("%s    start" % pad)
            _dis(op[1], lines, depth + 1)
            lines.append("%s    next" % pad)
            _dis(op[4], lines, depth + 1)
            lines.append("%s    body" % pad)
            _dis(op[5], lines, depth + 1)
        elif kind == OP_FOREACH:
            names = " ".join(name for _ix, name in op[1])
            lines.append("%s {%s} in %s"
                         % (prefix, names, _brief_plan(op[2])))
            plans = (op[2],)
            _dis(op[3], lines, depth + 1)
        elif kind == OP_RETURN:
            lines.append("%s %s" % (
                prefix, "" if op[1] is None else _brief_plan(op[1])))
            plans = (op[1],)
        elif kind == OP_GENERIC:
            lines.append("%s {%s}" % (prefix, _brief(op[1].source)))
        else:
            lines.append(prefix.rstrip())
        # Inline ``[script]`` words list their nested code under the op.
        for plan in plans:
            if type(plan) is tuple and plan[0] in (_P_CMD, _P_EXPR):
                lines.append("%s    inline [%s]"
                             % (pad, _brief(plan[1].source)))
                _dis(plan[1], lines, depth + 1)


def _display(name: str, index) -> str:
    return name if index is None else "%s(%s)" % (name, _brief_index(index))


def _brief_index(index) -> str:
    if type(index) is _Value:
        return index
    return _brief_plan(index)


def _brief_plan(plan) -> str:
    t = type(plan)
    if t is int:
        return str(plan)
    if t is str or t is _Value:
        return "{%s}" % _brief(plan)
    kind = plan[0]
    if kind == _P_VAR:
        index = plan[2]
        if index is None:
            return "$%s" % plan[1]
        return "$%s(%s)" % (plan[1], _brief_index(index))
    if kind in (_P_CMD, _P_EXPR):
        return "[%s]" % _brief(plan[1].source)
    return "<word>"
