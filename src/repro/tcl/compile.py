"""Compile-once evaluation structures for the Tcl core.

The paper's performance argument (section 2, Table II) rests on Tcl
values being immutable strings: the parse result of a script can be
cached and re-evaluated cheaply.  This module is the front half of
that pipeline: a script is parsed *once* into structures that
pre-resolve everything that cannot change between evaluations, and
the bytecode VM (:mod:`repro.tcl.vm`) compiles those structures into
the opcodes it executes.

* Words made only of literal fragments are pre-joined into plain
  strings at compile time.
* Commands whose words are all literal carry a precomputed ``argv``.
* Words that do need substitution become :class:`CompiledWord` plans
  whose steps are plain strings (adjacent literals merged), variable
  reads (:class:`_VarStep`), or nested compiled scripts
  (:class:`_CmdStep`) — no per-evaluation ``isinstance`` dispatch over
  parser fragments.

Compiled objects hold no variable values and no call-frame state, so a
:class:`CompiledScript` is safely re-entrant: the same compiled proc
body can be executing at several stack depths at once.
"""

from __future__ import annotations

from typing import List, Optional, Union

from . import parser
from .errors import TclError


class _VarStep:
    """A ``$name`` / ``$name(index)`` plan step."""

    __slots__ = ("name", "index")

    def __init__(self, name: str, index: Optional[object]):
        self.name = name
        #: None, a literal index string, or a CompiledWord plan.
        self.index = index

    def resolve(self, interp) -> str:
        index = self.index
        if index is not None and type(index) is not str:
            index = index.substitute(interp)
        return interp.get_var(self.name, index)


class _CmdStep:
    """A ``[script]`` plan step; the inner script compiles on first use
    and stays attached to the step (it never touches the interpreter's
    bounded cache)."""

    __slots__ = ("script", "compiled")

    def __init__(self, script: str):
        self.script = script
        self.compiled: Optional[CompiledScript] = None

    def resolve(self, interp) -> str:
        compiled = self.compiled
        if compiled is None:
            compiled = self.compiled = compile_script(self.script)
        return interp.eval(compiled)


class CompiledWord:
    """Substitution plan for one word that mixes literal and dynamic
    fragments."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple):
        self.steps = steps

    def substitute(self, interp) -> str:
        pieces: List[str] = []
        for step in self.steps:
            if type(step) is str:
                pieces.append(step)
            else:
                pieces.append(step.resolve(interp))
        return "".join(pieces)


class CompiledCommand:
    """One compiled command: a plan per word.

    ``argv`` is the precomputed word list when every word is a pure
    literal (the overwhelmingly common case: ``set a 1``, ``incr i``).
    The bytecode VM (:mod:`repro.tcl.vm`) turns each command into one
    opcode and executes it; ``words`` and ``source`` are what its
    generic path substitutes and reports in ``errorInfo``.
    """

    __slots__ = ("source", "words", "argv")

    def __init__(self, source: str, words: List[Union[str, CompiledWord]]):
        self.source = source
        self.words = words
        all_literal = all(type(word) is str for word in words)
        self.argv: Optional[List[str]] = list(words) if all_literal else None


class CompiledScript:
    """A script compiled to a sequence of :class:`CompiledCommand`."""

    __slots__ = ("source", "commands", "vm_code")

    def __init__(self, source: str, commands: List[CompiledCommand]):
        self.source = source
        self.commands = commands
        #: Bytecode form, built lazily by the VM on first execution.
        self.vm_code = None


def compile_word(word: parser.Word) -> Union[str, CompiledWord]:
    """Compile one parsed word into a string or a substitution plan."""
    parts = word.parts
    if all(type(part) is parser.Literal for part in parts):
        if len(parts) == 1:
            return parts[0].text
        return "".join(part.text for part in parts)
    steps: List[object] = []
    buffered: List[str] = []
    for part in parts:
        if type(part) is parser.Literal:
            buffered.append(part.text)
            continue
        if buffered:
            steps.append("".join(buffered))
            del buffered[:]
        if type(part) is parser.VarSub:
            index = None
            if part.index is not None:
                index = compile_word(part.index)
            steps.append(_VarStep(part.name, index))
        else:
            steps.append(_CmdStep(part.script))
    if buffered:
        steps.append("".join(buffered))
    return CompiledWord(tuple(steps))


def compile_command(command: parser.Command) -> CompiledCommand:
    return CompiledCommand(command.source,
                           [compile_word(word) for word in command.words])


def compile_script(script: str) -> CompiledScript:
    """Compile a script string into a :class:`CompiledScript`."""
    return CompiledScript(
        script, [compile_command(command)
                 for command in parser.parse_script(script)])


def _append_error_info(error: TclError, source: str) -> None:
    """Accumulate a human-readable trace as the error propagates.

    Shared by the VM and the parse-per-eval path so both produce the
    same ``errorInfo``.
    """
    info = getattr(error, "info", None)
    if info is None:
        error.info = [error.message]
        info = error.info
    if len(info) >= 40:
        return
    shown = source if len(source) <= 150 else source[:147] + "..."
    info.append('    while executing\n"%s"' % shown)
