"""Deterministic replay of recorded sessions, with wire diffing.

A journal recorded by :mod:`repro.obs.journal` contains two things a
replay needs: the session *inputs* (injected pointer/key events, event
-loop pumps, clock advances, top-level script evaluations) and the
resulting *wire stream* (every request that reached the server, in
order).  :func:`replay_journal` rebuilds the application from the
journal header — fresh :class:`~repro.x11.xserver.XServer`, fresh
:class:`~repro.tk.TkApp`, the recorded setup script — re-injects the
recorded inputs, and diffs the wire stream of the replay against the
recording.  Because every clock in the simulator is virtual, a faithful
implementation replays with **zero divergence**, which turns any
captured session (a bug report, a perf regression, the checked-in
golden session under ``examples/``) into a regression test.

One executor, :class:`Session`, runs journal inputs everywhere: the
recorder (:func:`record_session`), the replay, the fuzz runner and the
fleet's sessions all drive their inputs through :meth:`Session.apply`,
so they journal, target applications and swallow errors identically.
A journal header's ablation switches travel as one
:class:`~repro.obs.journal.Flags` value.

Ablation modes: the wire is *expected* to be invariant under the
compile-once ablation (``compile_enabled`` trades CPU, not traffic),
expected to differ only in resource-allocation requests under the
resource-cache ablation (§3.3: the cache exists precisely to remove
those), and expected to differ in batching/coalescing shape under the
output-buffer ablation.  Each mode in :data:`MODES` encodes that
expectation: requests attributable to the ablation are reported as an
*expected delta*; anything else diverges the replay.

Faulted sessions replay too: a journal whose header embeds a
serialized :class:`~repro.x11.faults.FaultPlan` (see
:meth:`FaultPlan.to_spec`) gets the same plan re-installed on the
fresh server before the application is rebuilt, so seeded and
scripted faults fire at the same request ticks and the wire — errors,
disconnects and all — replays deterministically.  Journals recorded
without a plan stay fault-free on replay.
"""

from __future__ import annotations

import io
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from .journal import Flags, Journal

#: Request types the resource cache (§3.3) exists to eliminate — the
#: expected wire delta of replaying a capture with ``cache_enabled``
#: off (or on, against a cache-off capture).
CACHE_REQUESTS = frozenset((
    "alloc_named_color", "load_font", "create_cursor", "create_bitmap",
    "create_gc", "free_resource", "sync",
))

#: Request types whose count/shape the output buffer changes: the
#: batch write itself, plus every coalescible one-way request.
BUFFER_REQUESTS = frozenset((
    "batch", "configure_window", "select_input", "change_property",
    "clear_window", "fill_rectangle", "draw_rectangle", "draw_line",
    "draw_string", "sync",
))

#: mode -> (the flag the mode switches off, comparison policy, the
#: request types the ablation is allowed to perturb).
#:
#: * ``exact``    — request streams must match element for element;
#: * ``filtered`` — streams must match after removing the allowed
#:   types (whose counts become the expected delta);
#: * ``counts``   — per-type totals must match outside the allowed
#:   types (ordering is the ablation's to change).
MODES: Dict[str, dict] = {
    "default":       {"off": None, "compare": "exact",
                      "allowed": frozenset()},
    "compile_off":   {"off": "compile_enabled",
                      "compare": "exact", "allowed": frozenset()},
    # Cache misses are reply-bearing requests, and every reply-bearing
    # request is an auto-flush point: turning the cache off therefore
    # also moves batch boundaries and defeats some coalescing, so the
    # allowed set is the union of both ablations' request types and the
    # comparison is per-type counts.
    "cache_off":     {"off": "cache_enabled",
                      "compare": "counts",
                      "allowed": CACHE_REQUESTS | BUFFER_REQUESTS},
    "buffering_off": {"off": "buffering_enabled",
                      "compare": "counts", "allowed": BUFFER_REQUESTS},
}


class ReplayResult:
    """The outcome of one replay: divergence report + expected delta."""

    def __init__(self, mode: str, recorded: List[Tuple],
                 replayed: List[Tuple], compare: str,
                 allowed: frozenset, truncated: bool = False):
        self.mode = mode
        self.compare = compare
        self.recorded_requests = len(recorded)
        self.replayed_requests = len(replayed)
        self.truncated = truncated
        #: per-type (recorded, replayed) counts where they differ
        self.type_delta: Dict[str, Tuple[int, int]] = _type_delta(
            recorded, replayed)
        #: the slice of the delta the ablation mode predicts
        self.expected_delta = {name: delta for name, delta
                               in self.type_delta.items()
                               if name in allowed}
        self.unexpected_delta = {name: delta for name, delta
                                 in self.type_delta.items()
                                 if name not in allowed}
        self.first_divergence: Optional[int] = None
        self.context: List[dict] = []
        #: the replay's own Journal (byte-identity oracle input) and
        #: the exceptions the executor swallowed; filled by
        #: :func:`replay_journal`.
        self.replay_log: Optional[Journal] = None
        self.swallowed: List[Tuple[str, BaseException]] = []
        if compare == "counts":
            self.matched = not self.unexpected_delta and not truncated
        else:
            if compare == "filtered":
                recorded = [op for op in recorded
                            if op[0] not in allowed]
                replayed = [op for op in replayed
                            if op[0] not in allowed]
            self.first_divergence = _first_divergence(recorded, replayed)
            self.matched = self.first_divergence is None and not truncated
            if self.first_divergence is not None:
                self.context = _context(recorded, replayed,
                                        self.first_divergence)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "matched": self.matched,
            "compare": self.compare,
            "recorded_requests": self.recorded_requests,
            "replayed_requests": self.replayed_requests,
            "first_divergence": self.first_divergence,
            "context": self.context,
            "expected_delta": {name: list(delta) for name, delta
                               in sorted(self.expected_delta.items())},
            "unexpected_delta": {name: list(delta) for name, delta
                                 in sorted(
                                     self.unexpected_delta.items())},
            "truncated": self.truncated,
        }

    def report(self) -> str:
        lines = ["REPLAY mode=%s: %s  (%d recorded / %d replayed "
                 "requests)"
                 % (self.mode,
                    "MATCH" if self.matched else "DIVERGED",
                    self.recorded_requests, self.replayed_requests)]
        if self.truncated:
            lines.append("  journal ring wrapped during recording: "
                         "wire stream incomplete, diff unreliable")
        for name, (rec, rep) in sorted(self.expected_delta.items()):
            lines.append("  expected delta (%s ablation)  %-24s "
                         "%d -> %d" % (self.mode, name, rec, rep))
        for name, (rec, rep) in sorted(self.unexpected_delta.items()):
            lines.append("  UNEXPECTED delta              %-24s "
                         "%d -> %d" % (name, rec, rep))
        if self.first_divergence is not None:
            lines.append("  first divergence at wire index %d:"
                         % self.first_divergence)
            for row in self.context:
                marker = ">>" if row["index"] == \
                    self.first_divergence else "  "
                lines.append("  %s %6d  recorded %-28s replayed %s"
                             % (marker, row["index"],
                                _op_str(row["recorded"]),
                                _op_str(row["replayed"])))
        return "\n".join(lines)


def _op_str(op) -> str:
    if op is None:
        return "-"
    name, window = op[0], op[1]
    detail = op[2] if len(op) > 2 else None
    text = "%s(w=%s)" % (name, window) if window is not None else name
    if detail:
        text += " {%s}" % detail
    return text


def _type_delta(recorded: List[Tuple],
                replayed: List[Tuple]) -> Dict[str, Tuple[int, int]]:
    counts: Dict[str, List[int]] = {}
    for side, ops in enumerate((recorded, replayed)):
        for op in ops:
            counts.setdefault(op[0], [0, 0])[side] += 1
    return {name: (rec, rep) for name, (rec, rep)
            in counts.items() if rec != rep}


def _first_divergence(recorded: List[Tuple],
                      replayed: List[Tuple]) -> Optional[int]:
    for index in range(min(len(recorded), len(replayed))):
        if tuple(recorded[index]) != tuple(replayed[index]):
            return index
    if len(recorded) != len(replayed):
        return min(len(recorded), len(replayed))
    return None


def _context(recorded: List[Tuple], replayed: List[Tuple],
             index: int, width: int = 3) -> List[dict]:
    rows = []
    for position in range(max(0, index - width), index + width + 1):
        rec = recorded[position] if position < len(recorded) else None
        rep = replayed[position] if position < len(replayed) else None
        if rec is None and rep is None:
            break
        rows.append({"index": position, "recorded": rec,
                     "replayed": rep})
    return rows


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------

def start_recording(server, name: str = "session", script: str = "",
                    flags: Flags = Flags(),
                    sink: Optional[str] = None,
                    maxlen: Optional[int] = None,
                    fault_plan=None,
                    planted: Optional[str] = None) -> Journal:
    """Attach a fresh recording journal to ``server`` and return it.

    ``fault_plan`` may be a live :class:`~repro.x11.faults.FaultPlan`
    (installed on the server and serialized into the header) or an
    already-serialized spec dict (embedded verbatim; the caller
    installed the plan).  ``planted`` names the active test-only
    planted bug, if any, so regression journals know what to arm.
    """
    from .journal import JOURNAL_RING
    fault_spec = None
    if fault_plan is not None:
        if isinstance(fault_plan, dict):
            fault_spec = fault_plan
        else:
            fault_spec = fault_plan.to_spec()
            server.install_fault_plan(fault_plan)
    journal = Journal(clock=lambda: server.time_ms,
                      maxlen=maxlen if maxlen is not None
                      else JOURNAL_RING, sink=sink)
    journal.set_header(name=name, script=script, flags=flags,
                       fault_plan=fault_spec, planted=planted)
    journal.open_sink()
    server.attach_journal(journal)
    return journal


def record_session(script: str, steps: List[Tuple],
                   name: str = "session",
                   flags: Flags = Flags(),
                   sink: Optional[str] = None,
                   fault_plan=None,
                   planted: Optional[str] = None) -> Journal:
    """Record one scripted session from scratch and return its journal.

    Builds a fresh server and application, evaluates ``script`` (the
    setup: widgets, bindings, procs), pumps once, then drives ``steps``
    — tuples like ``("warp_pointer", x, y)``, ``("press_button", 1)``,
    ``("press_key", "a")``, ``("update",)``, ``("eval", tclscript)``,
    ``("new_app", name, setupscript)`` — recording everything.  The
    steps run through the :class:`Session` executor that replays the
    journal (:func:`replay_journal`), so record and replay are
    symmetric by construction.

    A failing ``new_app`` step is part of the recorded session; any
    other failing step (or setup script) raises, since a recording of
    a broken script is a bug in the caller, not a session.
    """
    from ..x11.xserver import XProtocolError, XServer

    server = XServer()
    journal = start_recording(server, name=name, script=script,
                              flags=flags, sink=sink,
                              fault_plan=fault_plan, planted=planted)
    session = Session(server, flags, journal=journal)
    try:
        session.launch(name, script)
        for _, error in session.swallowed:
            # A header fault plan can kill construction itself; the
            # journal (and its replay) must survive that, so record
            # the session as one with no application.
            if fault_plan is None or not isinstance(error,
                                                    XProtocolError):
                raise error
        for step in steps:
            session.swallowed.clear()
            session.apply(*_step_input(step, name))
            for stage, error in session.swallowed:
                if stage != "new_app":
                    raise error
    finally:
        session.close()
    return journal


def _step_input(step: Tuple, name: str) -> Tuple[str, list]:
    """A :func:`record_session` step as a journal input: loop-level
    steps address the main application ``name``."""
    kind, args = step[0], list(step[1:])
    if kind == "update":
        args = [name]
    elif kind in ("advance", "eval"):
        args = [args[0], name]
    return kind, args


#: Input kinds the session executor handles itself (and journals);
#: every other input kind is a raw device input for the server.
_LOOP_INPUTS = frozenset(("update", "advance", "eval", "new_app"))


class Session:
    """The one executor of journal inputs.

    Recording, replay, the fuzz runner and every fleet session drive
    their inputs through :meth:`apply`, which writes loop-level inputs
    to :attr:`journal` (raw device inputs journal themselves in the
    server).  :attr:`apps` is every application that registered on the
    server while one of this session's builds ran, even one whose
    constructor or setup script then raised; on a private server it
    equals ``server.apps``, on a shared fleet cell it holds this
    session's applications only.  Inputs find their target by name in
    it, and :meth:`close` destroys all of it.  Exceptions from builds,
    top-level evals, injections, pumps and teardown land in
    :attr:`swallowed` as ``(stage, exception)``; the caller decides
    what they mean.  With a ``pump_budget`` a pump handles at most that
    many events and leaves an unfinished application in
    :attr:`pending_pump`, owed another :meth:`pump`.
    """

    def __init__(self, server, flags: Flags = Flags(), transport=None,
                 journal: Optional[Journal] = None,
                 pump_budget: int = 0):
        self.server = server
        self.flags = flags
        #: how built applications reach the server (see
        #: :func:`repro.x11.transport.resolve_transport`)
        self.transport = transport
        self.journal = journal
        self.pump_budget = pump_budget
        self.apps: List = []
        self.main_app = None
        self.swallowed: List[Tuple[str, BaseException]] = []
        self.pending_pump = None

    def build_app(self, name: str, script: str = "",
                  setup: Optional[Callable] = None):
        """Build one application from :attr:`flags` and ``script``, or
        with ``setup(session)``; returns it, or None if it raised."""
        known = list(getattr(self.server, "apps", ()))
        try:
            if setup is not None:
                return setup(self)
            return _build_app(self.server, name, script, self.flags,
                              transport=self.transport)
        except Exception as error:
            self.swallowed.append(("new_app", error))
            return None
        finally:
            self.apps += [app for app in getattr(self.server, "apps", ())
                          if app not in known]

    def launch(self, name: str, script: str = "",
               setup: Optional[Callable] = None):
        """Build the main application (the target of inputs that name
        no application of this session)."""
        self.main_app = self.build_app(name, script, setup)
        return self.main_app

    def apply(self, kind: str, args: list) -> int:
        """Execute one journal input; returns the events pumped."""
        if kind not in _LOOP_INPUTS:
            self._inject(kind, args)
            return 0
        if self.journal is not None:
            self.journal.input(kind, args)
        if kind == "new_app":
            self.build_app(args[0], args[1] if len(args) > 1 else "")
            return 0
        if kind == "update":
            return self.pump(self._target(args, 0))
        app = self._target(args, 1)
        if kind == "advance":
            if args[0] > self.server.time_ms:
                self.server.time_ms = args[0]
        elif app is not None:
            try:
                app.interp.eval_top(args[0])
            except Exception as error:
                self.swallowed.append(("eval", error))
        return self.pump(app)

    def pump(self, app) -> int:
        """Run ``app``'s event loop; returns the events processed."""
        if app is None or app.destroyed:
            return 0
        try:
            if not self.pump_budget:
                return app.update()
            processed = app.dispatcher.do_events(self.pump_budget)
        except Exception as error:
            self.swallowed.append(("pump", error))
            return 0
        if processed == self.pump_budget:
            self.pending_pump = app
        return processed

    def close(self) -> None:
        """Stop journaling, then destroy every application this
        session owns."""
        if self.journal is not None:
            self.server.detach_journal()
            self.journal.close_sink()
        for app in self.apps:
            if not app.destroyed:
                try:
                    app.destroy()
                except Exception as error:
                    # A still-armed fault plan may inject into the
                    # teardown requests themselves.
                    self.swallowed.append(("close", error))

    def _target(self, args: list, index: int):
        """The live application of this session that ``args[index]``
        names; the main application when there is no such name."""
        if len(args) > index:
            for app in self.apps:
                if app.name == args[index] and not app.destroyed:
                    return app
        return self.main_app

    def _inject(self, kind: str, args: list) -> None:
        # Raw device input; the server's hooks journal it.  With a
        # thread-hosted server (socket transports) the injection must
        # run on the server thread, which also services the clients'
        # mid-call output flushes.
        host = getattr(self.server, "_wire_host", None)
        try:
            if host is not None and host.running:
                host.inject(kind, *args)
            else:
                getattr(self.server, kind)(*args)
        except Exception as error:
            self.swallowed.append(("inject", error))


def _build_app(server, name: str, script: str,
               flags: Flags = Flags(), transport=None):
    """Build one application under ``flags``, run its setup
    ``script`` and pump it once."""
    from ..tcl.interp import Interp
    from ..tk.app import TkApp
    interp = Interp(compile_enabled=flags.compile_enabled)
    interp.stdout = io.StringIO()
    app = TkApp(server, name=name, interp=interp,
                cache_enabled=flags.cache_enabled,
                buffering_enabled=flags.buffering_enabled,
                transport=transport)
    if script:
        app.interp.eval_top(script)
    app.update()
    return app


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------

def replay_journal(journal: Journal, mode: str = "default",
                   script: Optional[str] = None,
                   setup: Optional[Callable] = None,
                   transport=None) -> ReplayResult:
    """Re-inject a journal's inputs against a fresh application and
    diff the resulting wire stream against the recording.

    ``mode`` selects the ablation flags and comparison policy from
    :data:`MODES`.  The setup script comes from the journal header
    unless ``script`` overrides it; ``setup`` (a callable taking the
    replay's :class:`Session` and returning the driver app) replaces
    script-based construction entirely for Python-driven sessions.
    ``transport`` chooses how the rebuilt applications reach the
    server (None / ``"loopback"`` / ``"socket"`` / a factory callable
    — see :func:`repro.x11.transport.resolve_transport`); the wire
    stream is transport-invariant, so a journal recorded in-process
    must replay cleanly over a socket.

    If the header embeds a serialized fault plan, an identical plan is
    installed on the fresh server before the application is built, so
    recorded faults re-fire at the same request ticks.  The result
    carries the replay's own journal at ``result.replay_log`` (the
    byte-identity oracle compares ``to_jsonl()`` of both sides).  A
    header flag this build does not know raises ValueError.
    """
    from ..x11.transport import shutdown_host
    from ..x11.xserver import XServer

    if mode not in MODES:
        raise ValueError('unknown replay mode "%s" (choose from %s)'
                         % (mode, ", ".join(sorted(MODES))))
    policy = MODES[mode]
    flags = journal.flags
    if policy["off"]:
        flags = replace(flags, **{policy["off"]: False})
    header = journal.meta or {}
    if script is None:
        script = header.get("script") or ""
    name = header.get("name") or "replay"
    fault_spec = header.get("fault_plan")

    server = XServer()
    if fault_spec:
        from ..x11.faults import FaultPlan
        server.install_fault_plan(FaultPlan.from_spec(fault_spec))
    replay_log = Journal(clock=lambda: server.time_ms,
                         maxlen=max(journal.maxlen, len(journal) * 2))
    # Pass the original spec dict through verbatim so a default-mode
    # replay's header — and therefore its whole JSONL — can match the
    # recording byte for byte.
    replay_log.set_header(name=name, script=script, flags=flags,
                          fault_plan=fault_spec,
                          planted=header.get("planted"))
    server.attach_journal(replay_log)
    session = Session(server, flags, transport=transport,
                      journal=replay_log)
    try:
        # A header fault plan can fire during construction itself; the
        # recording survived that, so the replay must too.
        session.launch(name, script, setup)
        for input_name, args in journal.inputs():
            session.apply(input_name, args)
    finally:
        session.close()
        shutdown_host(server)
    result = ReplayResult(mode, journal.wire(), replay_log.wire(),
                          policy["compare"], policy["allowed"],
                          truncated=journal.dropped > 0)
    result.replay_log = replay_log
    result.swallowed = session.swallowed
    return result


def replay_all_modes(journal: Journal,
                     modes: Optional[List[str]] = None
                     ) -> Dict[str, ReplayResult]:
    """Replay one journal under every (or the given) ablation modes."""
    results = {}
    for mode in (modes if modes is not None else sorted(MODES)):
        results[mode] = replay_journal(journal, mode=mode)
    return results


# ----------------------------------------------------------------------
# CLI: python -m repro.obs.replay session.journal [--mode MODE]
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    usage = ("usage: python -m repro.obs.replay FILE [--mode MODE]... "
             "[--all-modes] [--transport loopback|socket]")
    modes = []
    path = None
    transport = None
    while argv:
        if argv[0] == "--mode" and len(argv) > 1:
            modes.append(argv[1])
            argv = argv[2:]
        elif argv[0] == "--all-modes":
            modes = sorted(MODES)
            argv = argv[1:]
        elif argv[0] == "--transport" and len(argv) > 1:
            transport = argv[1]
            argv = argv[2:]
        elif path is None:
            path = argv[0]
            argv = argv[1:]
        else:
            print(usage)
            return 2
    if path is None:
        print(usage)
        return 2
    journal = Journal.load(path)
    status = 0
    for mode in (modes or ["default"]):
        result = replay_journal(journal, mode=mode, transport=transport)
        if transport:
            print("TRANSPORT %s" % transport)
        print(result.report())
        if not result.matched:
            status = 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["MODES", "CACHE_REQUESTS", "BUFFER_REQUESTS", "ReplayResult",
           "start_recording", "record_session", "replay_journal",
           "replay_all_modes", "Session", "main"]
