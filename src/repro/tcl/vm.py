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
  variable name pre-split and, inside procedures, pre-resolved to a
  local slot index), ``expr`` evaluated straight off the cached AST
  with raw ints/floats on the (implicit) stack, and structured
  ``if``/``while``/``for``/``foreach`` ops whose bodies are nested
  code objects — no command dispatch per iteration;
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
execute this same dispatch loop, one generic op per command.

Value discipline
----------------

Inside the VM, results and variable cells may be *raw* Python ints
and floats (``incr``/``expr`` never round-trip through strings).  The
string rep is materialized lazily by ``Interp.get_var``/``to_str`` the
first time string-level code looks, and every boundary out of the VM
(command argv, proc results, ``interp.eval``) converts via
:func:`repro.tcl.value.to_str`, whose ``%.12g``-based formatting makes
the raw path observationally identical to the string path.  That
equivalence is what lets ``examples/golden.journal`` replay
byte-identically on the VM and on the parse-per-eval path
(``compile_off`` replay mode) — the correctness oracle for this whole
module.
"""

from __future__ import annotations

from typing import List, Optional

from .compile import (CompiledScript, _append_error_info, _CmdStep,
                      _VarStep, compile_script)
from .errors import TclBreak, TclContinue, TclError, TclReturn
from .expr import (_BinaryNode, _ConstNode, _UnaryNode, _VarNode,
                   compile_expr, require_int, require_number, truth)
from .lists import parse_list
from .strings import _to_int
from .value import (SlotLink as _SlotLink, Value as _Value, cached_number,
                    literal, to_str)

# ---------------------------------------------------------------------------
# opcodes
# ---------------------------------------------------------------------------

OP_GENERIC = 0        # (op, cmd)
OP_CALL = 1           # (op, name, const_argv, plans, cache, cmd)
OP_SET_SLOT = 2       # (op, slot, name, plan, cmd)
OP_SET_NAME = 3       # (op, name, index, plan, cmd)
OP_INCR_SLOT = 4      # (op, slot, name, amount, cmd)
OP_INCR_NAME = 5      # (op, name, index, amount, cmd)
OP_EXPR = 6           # (op, ast, text, cmd)
OP_IF = 7             # (op, branches, else_code, cmd)
OP_WHILE = 8          # (op, ast, text, body, cmd)
OP_FOR = 9            # (op, start, ast, text, next, body, cmd)
OP_FOREACH = 10       # (op, targets, plan, body, cmd)
OP_RETURN = 11        # (op, plan, cmd)
OP_BREAK = 12         # (op, cmd)
OP_CONTINUE = 13      # (op, cmd)

_MNEMONICS = {
    OP_GENERIC: "GENERIC", OP_CALL: "CALL", OP_SET_SLOT: "SET_SLOT",
    OP_SET_NAME: "SET_NAME", OP_INCR_SLOT: "INCR_SLOT",
    OP_INCR_NAME: "INCR_NAME", OP_EXPR: "EXPR", OP_IF: "IF",
    OP_WHILE: "WHILE", OP_FOR: "FOR", OP_FOREACH: "FOREACH",
    OP_RETURN: "RETURN", OP_BREAK: "BREAK", OP_CONTINUE: "CONTINUE",
}

# Word-plan kinds (see _plan): literal strings are stored as Value
# objects directly; dynamic words become small tagged tuples.
_P_VAR = 1            # (kind, name, index)   index: None | str | CompiledWord
_P_CMD = 2            # (kind, _CmdStep)
_P_WORD = 3           # (kind, CompiledWord)

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
    }


class Code:
    """A compiled opcode sequence.

    ``slot_map`` maps formal names to slot indexes for procedure
    bodies (None for script-level code).  ``specialized`` is the set
    of builtin names whose semantics are baked into dedicated opcodes;
    it is shared by a top-level code object and all its nested bodies,
    so one revalidation covers the whole unit.  ``valid`` caches the
    last successful validation as ``(interp, epoch)``.
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
    """A per-word resolution plan: a literal Value or a tagged tuple."""
    if type(word) is str:
        return literal(word)
    steps = word.steps
    if len(steps) == 1:
        step = steps[0]
        if type(step) is _VarStep:
            return (_P_VAR, step.name, step.index)
        if type(step) is _CmdStep:
            return (_P_CMD, step)
    return (_P_WORD, word)


def _resolve(interp, frame, plan) -> str:
    """Resolve a plan to its string value (command-argv discipline)."""
    t = type(plan)
    if t is _Value or t is str:
        return plan
    kind = plan[0]
    if kind == _P_VAR:
        index = plan[2]
        if index is not None and type(index) is not str:
            index = index.substitute(interp)
        return interp.get_var(plan[1], index)
    if kind == _P_CMD:
        return plan[1].resolve(interp)
    return plan[1].substitute(interp)


def _resolve_raw(interp, frame, plan):
    """Like :func:`_resolve` but a plain variable read may return the
    raw numeric cell (``set``/``incr``/``expr`` value positions)."""
    t = type(plan)
    if t is _Value or t is str:
        return plan
    kind = plan[0]
    if kind == _P_VAR:
        index = plan[2]
        if index is None:
            return _load_var(interp, frame, plan[1])
        if type(index) is not str:
            index = index.substitute(interp)
        return interp.get_var(plan[1], index)
    if kind == _P_CMD:
        return plan[1].resolve(interp)
    return plan[1].substitute(interp)


def _load_var(interp, frame, name):
    """Raw scalar read: slot/dict cell without string materialization.

    Falls back to ``interp.get_var`` (which may be hooked by variable
    traces) for links, arrays, unset names, and whenever direct access
    is disabled.
    """
    if interp._vm_direct and not frame.links:
        slot_map = frame.slot_map
        if slot_map is not None:
            ix = slot_map.get(name)
            cell = frame.slots[ix] if ix is not None \
                else frame.variables.get(name)
        else:
            cell = frame.variables.get(name)
        t = type(cell)
        if t is str or t is _Value or t is int or t is float:
            return cell
    return interp.get_var(name)


def _as_int(value) -> int:
    t = type(value)
    if t is int:
        return value
    if t is str or t is _Value:
        return _to_int(value)
    return _to_int(to_str(value))


# ---------------------------------------------------------------------------
# raw expression evaluation (off the cached AST)
# ---------------------------------------------------------------------------

def _expr_eval(interp, frame, node):
    """Evaluate an expression AST with raw variable reads.

    Only the nodes that dominate hot expressions are special-cased;
    anything lazy (``&&``/``||``/``?:``), function calls, command and
    quoted substitutions delegate to the node's own ``eval``, which is
    exactly what the ``expr`` command does.
    """
    t = type(node)
    if t is _BinaryNode:
        # Operand fetch is inlined for the two leaf shapes ($var and
        # constants) so a binary op over leaves costs no extra frames.
        slot_map = frame.slot_map if interp._vm_direct \
            and not frame.links else None
        operand = node.left
        to = type(operand)
        if to is _VarNode and operand.var.index is None:
            if slot_map is not None:
                ix = slot_map.get(operand.var.name)
                left = frame.slots[ix] if ix is not None else None
                tc = type(left)
                if tc is not str and tc is not _Value and \
                        tc is not int and tc is not float:
                    left = _load_var(interp, frame, operand.var.name)
            else:
                left = _load_var(interp, frame, operand.var.name)
        elif to is _ConstNode:
            left = operand.value
        else:
            left = _expr_eval(interp, frame, operand)
        operand = node.right
        to = type(operand)
        if to is _VarNode and operand.var.index is None:
            if slot_map is not None:
                ix = slot_map.get(operand.var.name)
                right = frame.slots[ix] if ix is not None else None
                tc = type(right)
                if tc is not str and tc is not _Value and \
                        tc is not int and tc is not float:
                    right = _load_var(interp, frame, operand.var.name)
            else:
                right = _load_var(interp, frame, operand.var.name)
        elif to is _ConstNode:
            right = operand.value
        else:
            right = _expr_eval(interp, frame, operand)
        # All-numeric fast path: same result as the appliers (which
        # would re-derive these numbers through require_number or
        # _compare), minus the coercion calls.  A non-numeric operand
        # (cached_number None) falls back to the applier, which does
        # string comparison or raises with the original operand text.
        # Division/modulo keep their truncation and zero-check
        # semantics in the applier too.
        tl = type(left)
        ln = left if tl is int or tl is float else cached_number(left)
        if ln is not None:
            tr = type(right)
            rn = right if tr is int or tr is float \
                else cached_number(right)
            if rn is not None:
                op = node.op
                if op == "+":
                    return ln + rn
                if op == "<":
                    return 1 if ln < rn else 0
                if op == "-":
                    return ln - rn
                if op == "*":
                    return ln * rn
                if op == ">":
                    return 1 if ln > rn else 0
                if op == "<=":
                    return 1 if ln <= rn else 0
                if op == ">=":
                    return 1 if ln >= rn else 0
                if op == "==":
                    return 1 if ln == rn else 0
                if op == "!=":
                    return 1 if ln != rn else 0
        return node.apply(left, right)
    if t is _ConstNode:
        return node.value
    if t is _VarNode:
        var = node.var
        if var.index is None:
            return _load_var(interp, frame, var.name)
        return interp.value_of(var)
    if t is _UnaryNode:
        operand = _expr_eval(interp, frame, node.operand)
        op = node.op
        if op == "-":
            return -require_number(operand)
        if op == "+":
            return +require_number(operand)
        if op == "!":
            return int(not truth(operand))
        return ~require_int(operand)
    return node.eval(interp, True)


def _cond(interp, frame, ast, text: str) -> bool:
    value = _expr_eval(interp, frame, ast)
    number = cached_number(value)
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
    v = code.valid
    if v is not None and v[0] is interp and \
            v[1] == interp.commands_epoch and not interp._trace_on:
        valid = True
    else:
        valid = _usable(interp, code)
    result = ""
    for op in ops:
        # An earlier op may have run arbitrary Tcl (redefining a
        # builtin or starting the tracer): recheck cheaply via the
        # cached (interp, epoch) stamp before each dedicated op.
        if valid:
            v = code.valid
            if v[0] is not interp or v[1] != interp.commands_epoch or \
                    interp._trace_on:
                valid = _usable(interp, code)
        if not valid:
            result = _generic(interp, op[-1])
            valid = _usable(interp, code)
            continue
        kind = op[0]
        if kind > OP_CALL:
            # Every dedicated opcode stands in for one command
            # invocation; keep ``info cmdcount`` exact.  (CALL and
            # GENERIC count on their own paths.)
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
            if interp._vm_direct:
                slots = frame.slots
                cell = slots[op[1]]
                if type(cell) is not dict and type(cell) is not _SlotLink:
                    slots[op[1]] = value
                    result = value
                    continue
            try:
                result = interp.set_var(op[2], value)
            except TclError as error:
                _append_error_info(error, op[4].source)
                raise
        elif kind == OP_SET_NAME:
            value = _resolve_raw(interp, frame, op[3])
            name = op[1]
            if op[2] is None and interp._vm_direct and not frame.links:
                # The compiler guarantees ``name`` is not a formal of
                # this code's slot_map; a *different* frame (uplevel)
                # may still map it, hence the runtime check.
                slot_map = frame.slot_map
                if slot_map is None or name not in slot_map:
                    variables = frame.variables
                    if type(variables.get(name)) is not dict:
                        variables[name] = value
                        result = value
                        continue
            try:
                result = interp.set_var(name, value, op[2])
            except TclError as error:
                _append_error_info(error, op[4].source)
                raise
        elif kind == OP_INCR_SLOT:
            amount = op[3]
            if type(amount) is not int:
                amount = _resolve_raw(interp, frame, amount)
            try:
                if interp._vm_direct:
                    slots = frame.slots
                    cell = slots[op[1]]
                    t = type(cell)
                    if t is int:
                        result = cell + _as_int(amount)
                        slots[op[1]] = result
                        continue
                    if t is str or t is _Value or t is float:
                        result = _as_int(cell) + _as_int(amount)
                        slots[op[1]] = result
                        continue
                current = _as_int(interp.get_var(op[2]))
                result = interp.set_var(op[2], str(current + _as_int(amount)))
            except TclError as error:
                _append_error_info(error, op[4].source)
                raise
        elif kind == OP_INCR_NAME:
            amount = op[3]
            if type(amount) is not int:
                amount = _resolve_raw(interp, frame, amount)
            name = op[1]
            try:
                if op[2] is None and interp._vm_direct and not frame.links:
                    slot_map = frame.slot_map
                    if slot_map is None or name not in slot_map:
                        variables = frame.variables
                        cell = variables.get(name)
                        t = type(cell)
                        if t is int:
                            result = cell + _as_int(amount)
                            variables[name] = result
                            continue
                        if t is str or t is _Value or t is float:
                            result = _as_int(cell) + _as_int(amount)
                            variables[name] = result
                            continue
                current = _as_int(interp.get_var(name, op[2]))
                result = interp.set_var(name, str(current + _as_int(amount)),
                                        op[2])
            except TclError as error:
                _append_error_info(error, op[4].source)
                raise
        elif kind == OP_EXPR:
            try:
                result = _expr_eval(interp, frame, op[1])
            except TclError as error:
                _append_error_info(error, op[3].source)
                raise
            except interp.native_error_types as error:
                converted = TclError(str(error))
                _append_error_info(converted, op[3].source)
                raise converted from error
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
            raise TclReturn(
                "" if plan is None else _resolve(interp, frame, plan))
        elif kind == OP_BREAK:
            raise TclBreak()
        else:
            raise TclContinue()
    return result


def _op_if(interp, frame, op):
    try:
        for ast, text, branch in op[1]:
            if _cond(interp, frame, ast, text):
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
    ast, text, body = op[1], op[2], op[3]
    try:
        while _cond(interp, frame, ast, text):
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
    start, ast, text, nxt, body = op[1], op[2], op[3], op[4], op[5]
    try:
        _exec_body(interp, start, frame)
        while _cond(interp, frame, ast, text):
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
                interp.set_var(name, value)
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

    One builder per top-level unit: nested bodies share the builder's
    ``specialized`` set so the whole unit validates as one."""

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
            plans = tuple(_plan(word) for word in words)
        return (OP_CALL, name, const, plans, [None, -1, None], cmd)

    def _slot(self, name: str) -> Optional[int]:
        slot_map = self.slot_map
        return slot_map.get(name) if slot_map is not None else None

    def _spec_set(self, cmd):
        words = cmd.words
        if len(words) != 3 or type(words[1]) is not str:
            return None
        name, index = _split_var_name(words[1])
        plan = _plan(words[2])
        if index is None:
            ix = self._slot(name)
            if ix is not None:
                return (OP_SET_SLOT, ix, name, plan, cmd)
        return (OP_SET_NAME, name, index, plan, cmd)

    def _spec_incr(self, cmd):
        words = cmd.words
        if len(words) not in (2, 3) or type(words[1]) is not str:
            return None
        name, index = _split_var_name(words[1])
        if len(words) == 2:
            amount = 1
        elif type(words[2]) is str:
            amount = _to_int(words[2])      # TclError -> generic path
        else:
            amount = _plan(words[2])
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
        return (OP_EXPR, compile_expr(text), text, cmd)

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
            branches.append((compile_expr(condition), condition,
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
        return (OP_WHILE, compile_expr(words[1]), words[1],
                self.sub(words[2]), cmd)

    def _spec_for(self, cmd):
        words = cmd.words
        if len(words) != 5:
            return None
        for word in words[1:]:
            if type(word) is not str:
                return None
        return (OP_FOR, self.sub(words[1]), compile_expr(words[2]),
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
        return (OP_FOREACH, targets, _plan(words[2]),
                self.sub(words[3]), cmd)

    def _spec_return(self, cmd):
        words = cmd.words
        if len(words) == 1:
            return (OP_RETURN, None, cmd)
        if len(words) == 2:
            return (OP_RETURN, _plan(words[1]), cmd)
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
        if kind == OP_CALL:
            arity = len(op[2]) if op[2] is not None else len(op[3])
            lines.append("%s %s/%d  {%s}" % (prefix, op[1], arity - 1,
                                             _brief(op[5].source)))
        elif kind == OP_SET_SLOT:
            lines.append("%s slot%d (%s) <- %s"
                         % (prefix, op[1], op[2], _brief_plan(op[3])))
        elif kind == OP_SET_NAME:
            lines.append("%s %s <- %s" % (
                prefix, _display(op[1], op[2]), _brief_plan(op[3])))
        elif kind == OP_INCR_SLOT:
            lines.append("%s slot%d (%s) += %s"
                         % (prefix, op[1], op[2], _brief_plan(op[3])))
        elif kind == OP_INCR_NAME:
            lines.append("%s %s += %s" % (
                prefix, _display(op[1], op[2]), _brief_plan(op[3])))
        elif kind == OP_EXPR:
            lines.append("%s {%s}" % (prefix, _brief(op[2])))
        elif kind == OP_IF:
            lines.append(prefix.rstrip())
            for branch, (ast, text, body) in enumerate(op[1]):
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
            _dis(op[3], lines, depth + 1)
        elif kind == OP_RETURN:
            lines.append("%s %s" % (
                prefix, "" if op[1] is None else _brief_plan(op[1])))
        elif kind == OP_GENERIC:
            lines.append("%s {%s}" % (prefix, _brief(op[1].source)))
        else:
            lines.append(prefix.rstrip())


def _display(name: str, index) -> str:
    return name if index is None else "%s(%s)" % (name, index)


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
        if type(index) is str:
            return "$%s(%s)" % (plan[1], index)
        return "$%s(...)" % plan[1]
    if kind == _P_CMD:
        return "[%s]" % _brief(plan[1].script)
    return "<word>"
