"""Seeded scenario generation for the adversarial session fuzzer.

A :class:`Scenario` is a complete, self-contained session description:
a step list (each step is exactly one journal *input* — see
:data:`repro.obs.journal.INPUT_KINDS`), the setup script, the ablation
flags, an optional serialized fault plan, and the name of any armed
planted bug.  Because steps are journal inputs, the journal a run
records *is* the scenario's durable form: a checked-in regression
artifact needs no side files, and ``python -m repro.fuzz --repro``
rebuilds the scenario straight from a journal's header and inputs.

The generator (:func:`generate_scenario`) draws everything from one
``random.Random(seed)``: widget trees across every widget class,
random bindings and ``-command`` scripts (including scripts that
``destroy`` their own widget or an ancestor mid-dispatch), selection
ownership, multi-interpreter ``send`` traffic (sync and ``-async``),
timers, raw device input, event-loop pumps, clock advances, extra
applications on the shared server, ablation-flag choices, and a
randomized :class:`~repro.x11.faults.FaultPlan` spec layered over
roughly half of all sessions.  The same seed always yields the same
scenario, so a fuzzing campaign is reproducible from its seed list
alone.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..obs.journal import Flags
from ..widgets import WIDGET_TYPES

#: Setup script evaluated in every application (main and extra): a
#: ``bgerror`` that counts instead of printing, plus the counters the
#: generated scripts increment.
SETUP_SCRIPT = (
    "set errs 0\n"
    "set hits 0\n"
    "proc bgerror msg {global errs; incr errs}\n")

#: Every widget class the toolkit registers; menus are created but not
#: packed (they are not children of the packer in real Tk either).
ALL_CLASSES: Tuple[str, ...] = tuple(sorted(WIDGET_TYPES))

#: Classes that take a ``-text`` option in this toolkit.
TEXT_CLASSES = frozenset((
    "label", "button", "checkbutton", "radiobutton", "message",
    "menubutton"))

#: Classes whose instances accept ``-command`` scripts.
COMMAND_CLASSES = frozenset(("button", "checkbutton", "radiobutton"))

#: Event sequences the generated bindings use.
BIND_SEQUENCES = ("<ButtonPress-1>", "<ButtonRelease-1>", "<Enter>",
                  "<Leave>", "<Key>", "<Double-Button-1>", "<Destroy>")

#: Keysyms for generated key input.
KEYSYMS = ("a", "b", "x", "space", "Return", "Escape")

#: Most applications one scenario connects to the shared server.
MAX_APPS = 3

#: Default number of steps per generated scenario.
DEFAULT_LENGTH = 40


class Scenario:
    """One fuzz session: seeded steps plus the journal-header config."""

    def __init__(self, seed: int, steps: List[Tuple[str, list]],
                 setup_script: str = SETUP_SCRIPT,
                 flags: Flags = Flags(),
                 fault_spec: Optional[dict] = None,
                 planted: Optional[str] = None,
                 name: str = "fuzz"):
        self.seed = seed
        self.steps = [(kind, list(args)) for kind, args in steps]
        self.setup_script = setup_script
        self.flags = flags
        self.fault_spec = fault_spec
        self.planted = planted
        self.name = name

    def with_steps(self, steps: List[Tuple[str, list]]) -> "Scenario":
        """The same session configuration over a different step list
        (the shrinker's candidate constructor)."""
        return Scenario(self.seed, steps, self.setup_script, self.flags,
                        self.fault_spec, self.planted, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Scenario seed=%d steps=%d faults=%s planted=%s>" % (
            self.seed, len(self.steps),
            "yes" if self.fault_spec else "no", self.planted)


def _fault_spec(rng: random.Random) -> Optional[dict]:
    """A randomized FaultPlan spec for roughly half of all sessions.

    Rates are kept low and ``max_faults`` bounded so faulted sessions
    stay mostly alive — a server that kills every client in ten
    requests exercises nothing.
    """
    if rng.random() < 0.5:
        return None
    spec: dict = {"seed": rng.randrange(1 << 16)}
    # Spare application startup (~25 requests): an injected error
    # inside TkApp construction is fatal — legitimate, but a session
    # that dies before its first step exercises nothing.
    spec["warmup"] = rng.randrange(30, 80)
    if rng.random() < 0.6:
        spec["error_rate"] = rng.choice((0.002, 0.005, 0.02))
    if rng.random() < 0.3:
        spec["drop_rate"] = rng.choice((0.002, 0.01))
    if rng.random() < 0.3:
        spec["delay_rate"] = rng.choice((0.005, 0.02))
        spec["delay_ms"] = rng.choice((5, 25, 60))
    if rng.random() < 0.15:
        spec["disconnect_rate"] = 0.0005
    if rng.random() < 0.35:
        triggers = []
        for _ in range(rng.randrange(1, 3)):
            if rng.random() < 0.6:
                triggers.append({
                    "kind": "error",
                    "error": rng.choice(("BadWindow", "BadAtom",
                                         "BadProperty")),
                    "after": rng.randrange(40, 400),
                    "count": rng.randrange(1, 3)})
            else:
                triggers.append({
                    "kind": "disconnect",
                    "client": rng.randrange(1, MAX_APPS + 1),
                    "after": rng.randrange(50, 600),
                    "count": 1})
        spec["request_triggers"] = triggers
    spec["max_faults"] = rng.randrange(2, 10)
    return spec


def _flags(rng: random.Random) -> Flags:
    flags = Flags(cache_enabled=rng.random() >= 0.2,
                  compile_enabled=rng.random() >= 0.2,
                  buffering_enabled=rng.random() >= 0.1)
    # A removed flag's draw, kept so each seed keeps its scenario.
    rng.random()
    return flags


class _Generator:
    """Stateful step generation: tracks the widget paths and apps it
    has created so later steps can reference (and destroy) them."""

    def __init__(self, rng: random.Random, name: str):
        self.rng = rng
        self.name = name
        #: app name -> every widget path ever created there (paths may
        #: be dead by the time a later step references them — a
        #: TclError from a stale path is a legitimate outcome)
        self.paths = {name: []}
        self.counter = 0
        self.clock = 0
        self.steps: List[Tuple[str, list]] = []

    def app(self) -> str:
        return self.rng.choice(sorted(self.paths))

    def other_app(self, not_name: str) -> Optional[str]:
        candidates = [name for name in sorted(self.paths)
                      if name != not_name]
        return self.rng.choice(candidates) if candidates else None

    def path(self, app: str) -> Optional[str]:
        paths = self.paths.get(app)
        return self.rng.choice(paths) if paths else None

    def script(self, app: str, percent: bool = False,
               depth: int = 0) -> str:
        """One binding/-command/after/send payload."""
        rng = self.rng
        choices = ["incr hits", "incr hits", "set last fuzz",
                   "error {fuzz boom}"]
        target = self.path(app)
        if target is not None:
            choices.append("destroy %s" % target)
            choices.append("catch {%s configure -text {zap}}" % target)
        if percent:
            choices.append("set last %W")
            choices.append("destroy %W")
        if depth < 1:
            peer = self.other_app(app)
            if peer is not None:
                inner = self.script(peer, percent=False, depth=depth + 1)
                choices.append("send -async {%s} {%s}" % (peer, inner))
                if rng.random() < 0.5:
                    choices.append("send {%s} {%s}" % (peer, inner))
            inner = self.script(app, percent=False, depth=depth + 1)
            choices.append("after %d {%s}"
                           % (rng.randrange(5, 80), inner))
        return rng.choice(choices)

    # -- step makers ----------------------------------------------------

    def make_widget(self) -> None:
        rng = self.rng
        app = self.app()
        cls = rng.choice(ALL_CLASSES)
        parent = ""
        if self.paths[app] and rng.random() < 0.3:
            parent = rng.choice(self.paths[app])
        self.counter += 1
        path = "%s.w%d" % (parent, self.counter)
        lines = []
        options = ""
        if cls in TEXT_CLASSES:
            options += " -text {fz %d}" % self.counter
        if cls in COMMAND_CLASSES and rng.random() < 0.7:
            options += " -command {%s}" % self.script(app)
        lines.append("%s %s%s" % (cls, path, options))
        if cls == "listbox":
            lines.append("%s insert end alpha beta gamma" % path)
        if cls != "menu":
            lines.append("pack append %s %s {top}"
                         % (parent or ".", path))
        self.paths[app].append(path)
        self.steps.append(("eval", ["\n".join(lines), app]))

    def make_bind(self) -> None:
        app = self.app()
        path = self.path(app)
        if path is None:
            return self.make_widget()
        sequence = self.rng.choice(BIND_SEQUENCES)
        script = self.script(app, percent=True)
        self.steps.append(("eval", [
            "bind %s %s {%s}" % (path, sequence, script), app]))

    def make_action(self) -> None:
        rng = self.rng
        app = self.app()
        path = self.path(app)
        choices = []
        if path is not None:
            choices.extend([
                "catch {%s configure -text {poke %d}}"
                % (path, rng.randrange(100)),
                "focus %s" % path,
                "winfo exists %s" % path,
            ])
        peer = self.other_app(app)
        if peer is not None:
            inner = self.script(peer, depth=1)
            choices.append("send -async {%s} {%s}" % (peer, inner))
            choices.append("send {%s} {%s}" % (peer, inner))
            choices.append("winfo interps")
        choices.append("after %d {%s}"
                       % (rng.randrange(5, 120), self.script(app, depth=1)))
        choices.append("error {fuzz boom}")
        self.steps.append(("eval", [rng.choice(choices), app]))

    def make_selection(self) -> None:
        app = self.app()
        path = self.path(app)
        if path is None:
            return self.make_widget()
        pick = self.rng.random()
        if pick < 0.35:
            self.steps.append(("eval", [
                "selection handle %s {concat fuzzdata}" % path, app]))
        elif pick < 0.85:
            # Owning without a handler claims nothing server-side, so
            # pair them — that is how real clients export data anyway.
            self.steps.append(("eval", [
                "selection handle %s {concat fuzzdata}\n"
                "selection own %s" % (path, path), app]))
        else:
            self.steps.append(("eval", [
                "catch {selection get}", app]))

    def make_destroy(self) -> None:
        app = self.app()
        if self.rng.random() < 0.06:
            self.steps.append(("eval", ["destroy .", app]))
            return
        path = self.path(app)
        if path is None:
            return self.make_widget()
        self.steps.append(("eval", ["destroy %s" % path, app]))

    def make_input(self) -> None:
        rng = self.rng
        pick = rng.random()
        if pick < 0.4:
            self.steps.append(("warp_pointer",
                               [rng.randrange(0, 420),
                                rng.randrange(0, 360), 0]))
        elif pick < 0.7:
            button = rng.choice((1, 2, 3))
            self.steps.append(("press_button", [button, 0]))
            self.steps.append(("release_button", [button, 0]))
        else:
            key = rng.choice(KEYSYMS)
            self.steps.append(("press_key", [key, 0, None]))
            self.steps.append(("release_key", [key, 0, None]))

    def make_update(self) -> None:
        self.steps.append(("update", [self.app()]))

    def make_advance(self) -> None:
        self.clock += self.rng.randrange(40, 600)
        self.steps.append(("advance", [self.clock, self.app()]))

    def make_new_app(self) -> None:
        if len(self.paths) >= MAX_APPS:
            return self.make_widget()
        name = "fz%d" % len(self.paths)
        self.paths[name] = []
        self.steps.append(("new_app", [name, SETUP_SCRIPT]))


#: (maker name, weight) — the step mix of one generated session.
_STEP_MIX = (
    ("make_widget", 22),
    ("make_bind", 10),
    ("make_input", 16),
    ("make_update", 12),
    ("make_advance", 6),
    ("make_action", 14),
    ("make_selection", 6),
    ("make_destroy", 8),
    ("make_new_app", 4),
)


def generate_scenario(seed: int, length: int = DEFAULT_LENGTH,
                      name: str = "fuzz",
                      planted: Optional[str] = None) -> Scenario:
    """The scenario for ``seed``: same seed, same scenario, always."""
    rng = random.Random(seed)
    fault_spec = _fault_spec(rng)
    flags = _flags(rng)
    generator = _Generator(rng, name)
    makers = [maker for maker, weight in _STEP_MIX for _ in range(weight)]
    # Always open with a widget so early input steps land on something.
    generator.make_widget()
    while len(generator.steps) < length:
        getattr(generator, rng.choice(makers))()
    # A closing pump lets pending timers/sends settle on the record.
    generator.steps.append(("update", [name]))
    return Scenario(seed, generator.steps[:length + 1],
                    setup_script=SETUP_SCRIPT, flags=flags,
                    fault_spec=fault_spec, planted=planted, name=name)


__all__ = ["Scenario", "generate_scenario", "SETUP_SCRIPT",
           "ALL_CLASSES", "BIND_SEQUENCES", "MAX_APPS", "DEFAULT_LENGTH"]
