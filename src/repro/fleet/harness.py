"""Per-session harness for the fleet load generator.

A :class:`SessionSpec` is the durable description of one simulated
user: a replayable input list (journal inputs — the same vocabulary
:mod:`repro.obs.replay` and :mod:`repro.fuzz` speak), the setup
script, ablation flags, and an optional fault plan.  Specs come from
three sources and all run identically:

* a recorded journal (:meth:`SessionSpec.from_journal`) — the golden
  session, the shrunk regression corpus, any bug-report capture;
* the fuzz generator (:meth:`SessionSpec.from_seed`) — fresh seeded
  scenarios, so a fleet can be arbitrarily large without arbitrarily
  many checked-in files;
* hand-built specs (:func:`make_slow_spec`) — synthetic outliers the
  telemetry must be able to pick out of the crowd.

A :class:`FleetSession` runs one spec against a (possibly shared)
:class:`~repro.x11.xserver.XServer`, one input per scheduler visit.
It is a :class:`~repro.obs.replay.Session` — the one executor replay,
record and the fuzzer also use — so a fleet session journals, targets
applications and tears down exactly as its replay does, and after
each input its swallowed exceptions become ``fleet.errors``.  It
records *its own* telemetry into a private
:class:`~repro.obs.metrics.MetricsRegistry`: a ``fleet.dispatch_ms``
histogram of virtual milliseconds consumed per input (the shared
virtual clock makes this exactly attributable — only one session runs
at a time), plus step/event/error counters.  Each input's latency is
additionally decomposed into ``fleet.phase_ms{phase=...}`` counters —
``handle`` (server request execution), ``wire`` (batch framing
ticks), ``wait`` (clock advances with no server work: fault delays,
``after`` timers) — from the server's tick and batch counters
bracketing the dispatch, so the top-N report can say *where* a slow
session's time went, not just how much.  At completion the
session folds its applications' own registries (``tk.*``, ``tcl.*``,
``send.*`` — not the shared server's mounts) into the same private
registry, so the fleet rollup sees every per-session series under one
``{session=...}`` label.

Isolation rule: inputs resolve their target application among **this
session's** applications only — every application that registered
during one of its builds, even one whose setup then failed — and the
session destroys them all when it finishes.  Several journals
recorded against an application named ``fuzz`` can share one cell
without their inputs cross-firing into each other's interpreters; the
``send`` registry de-duplicates display names per server as usual.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..fuzz.gen import generate_scenario
from ..obs.metrics import MetricsRegistry
from ..obs.journal import Flags
from ..obs.replay import Session, start_recording
from ..x11 import events as ev
from ..x11.faults import FaultPlan

#: Bucket bounds (virtual ms) for the per-session dispatch histogram;
#: wider than the default so fault-delayed outliers keep resolution.
DISPATCH_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
                    5000)

#: Journal ring for sessions that record themselves — large enough
#: that no fleet session wraps (a wrapped ring cannot replay-verify).
RECORD_RING = 262144

#: Session states reported through the fleet gauges.
ACTIVE = "active"
COMPLETED = "completed"
FAULTED = "faulted"


class SessionSpec:
    """Everything needed to run one fleet session."""

    def __init__(self, steps: List[Tuple[str, list]],
                 setup_script: str = "",
                 flags: Flags = Flags(),
                 fault_spec: Optional[dict] = None,
                 name: str = "session", source: str = "",
                 record_path: Optional[str] = None,
                 transport: Optional[str] = None):
        self.steps = [(kind, list(args)) for kind, args in steps]
        self.setup_script = setup_script
        self.flags = flags
        self.fault_spec = fault_spec
        #: how this session's Displays reach the cell's server: None /
        #: "loopback" for in-process calls, "socket" for real frames
        #: over the cell's thread-hosted ServerHost (see
        #: repro.x11.transport); socket sessions share cells freely.
        self.transport = transport
        self.name = name
        #: where this spec came from — a journal path or ``seed:N``;
        #: the top-N report prints it as the reproduction handle
        self.source = source
        #: when set, the session records its own journal and saves it
        #: here at completion (the outlier-repro path)
        self.record_path = record_path

    @property
    def multi_app(self) -> bool:
        return any(kind == "new_app" for kind, _ in self.steps)

    @property
    def solo(self) -> bool:
        """Sessions that need a server cell of their own.

        A fault plan is installed per *server*, so a faulted spec must
        not share (its faults would hit innocent neighbours); a
        multi-application spec resolves peers by recorded name, which
        only stays unambiguous on a private server; a recording spec's
        journal must contain no neighbour traffic or it cannot replay
        standalone.
        """
        return (self.fault_spec is not None or self.multi_app
                or self.record_path is not None)

    @classmethod
    def from_journal(cls, path: str) -> "SessionSpec":
        """A spec replaying a recorded journal's inputs.

        Planted test-only bugs named by the header are *not* armed —
        the fleet drives the shipping code; the journal contributes
        its workload, not its historical defect.  A header flag this
        build does not know raises ValueError, as replay does.
        """
        from ..obs.journal import Journal
        journal = Journal.load(path)
        header = journal.meta or {}
        return cls(journal.inputs(),
                   setup_script=header.get("script") or "",
                   flags=journal.flags,
                   fault_spec=header.get("fault_plan"),
                   name=header.get("name") or "journal",
                   source=path)

    @classmethod
    def from_seed(cls, seed: int, length: int = 40) -> "SessionSpec":
        """A spec generated by the fuzzer's seeded scenario generator."""
        scenario = generate_scenario(seed, length=length)
        return cls(scenario.steps,
                   setup_script=scenario.setup_script,
                   flags=scenario.flags,
                   fault_spec=scenario.fault_spec,
                   name=scenario.name,
                   source="seed:%d" % seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<SessionSpec %s steps=%d source=%s%s>" % (
            self.name, len(self.steps), self.source or "-",
            " solo" if self.solo else "")


class FleetSession(Session):
    """One live session: a :class:`~repro.obs.replay.Session` over the
    cell's server, plus private telemetry and scheduler state."""

    def __init__(self, sid: str, spec: SessionSpec, server,
                 pump_budget: int = 0):
        # Recording sessions always pump to quiescence so their journal
        # replays identically.
        super().__init__(server, spec.flags, transport=spec.transport,
                         pump_budget=0 if spec.record_path is not None
                         else pump_budget)
        self.sid = sid
        self.spec = spec
        self.status = ACTIVE
        self.metrics = MetricsRegistry()
        self._m_dispatch = self.metrics.histogram(
            "fleet.dispatch_ms", buckets=DISPATCH_BUCKETS)
        self._m_steps = self.metrics.counter("fleet.steps")
        self._m_events = self.metrics.counter("fleet.events")
        self._m_errors = self.metrics.counter("fleet.errors")
        #: per-phase latency decomposition of every dispatched input
        self._m_phase = {
            phase: self.metrics.counter("fleet.phase_ms", phase=phase)
            for phase in ("handle", "wire", "wait")}
        #: the cell server's batch-framing tick counter, cached so a
        #: phase bracket is three attribute reads, not registry lookups
        self._m_batch_ticks = server.obs.metrics.counter(
            "x11.requests", type="batch")
        self.plan: Optional[FaultPlan] = None
        self._cursor = 0
        self.finished = False

    # -- lifecycle -----------------------------------------------------

    def launch(self) -> None:
        """Install the fault plan / recording journal, build the app."""
        spec = self.spec
        if spec.record_path is not None:
            plan = (FaultPlan.from_spec(spec.fault_spec)
                    if spec.fault_spec else None)
            # start_recording installs the plan and serializes it into
            # the journal header, so the saved capture replays with the
            # same faults standalone.
            self.journal = start_recording(
                self.server, name=spec.name, script=spec.setup_script,
                flags=spec.flags, maxlen=RECORD_RING, fault_plan=plan)
            self.plan = plan
        elif spec.fault_spec is not None:
            self.plan = self.server.install_fault_plan(
                FaultPlan.from_spec(spec.fault_spec))
        # A fault plan can kill construction; the session then runs
        # its steps app-less, exactly as record_session does.
        super().launch(spec.name, spec.setup_script)
        self._count_errors()

    def step(self) -> bool:
        """Run this session's next unit of work; False when idle.

        One visit is either the leftovers of a budget-limited pump
        (so a redraw cascade cannot monopolize the scheduler) or the
        next spec input.
        """
        if self.finished:
            return False
        if self.pending_pump is not None:
            app, self.pending_pump = self.pending_pump, None
            begin = self._phase_begin()
            self._m_events.value += self.pump(app)
            self._count_errors()
            self._m_dispatch.observe(self._phase_end(begin))
            return True
        if self._cursor >= len(self.spec.steps):
            return False
        kind, args = self.spec.steps[self._cursor]
        self._cursor += 1
        self.run_input(kind, args)
        return True

    def run_input(self, kind: str, args: list) -> None:
        """Execute one input, observing its virtual-time latency."""
        begin = self._phase_begin()
        self._m_events.value += self.apply(kind, args)
        self._m_steps.value += 1
        self._count_errors()
        self._m_dispatch.observe(self._phase_end(begin))

    def _count_errors(self) -> None:
        """Book swallowed exceptions as ``fleet.errors``, so none
        outlives the step that raised it."""
        if self.swallowed:
            self._m_errors.value += len(self.swallowed)
            self.swallowed.clear()

    def _phase_begin(self):
        """Snapshot the clock and server work counters around one
        dispatch; only this session runs until :meth:`_phase_end`, so
        every delta is attributable to it."""
        server = self.server
        return (server.time_ms, server.tick_count,
                self._m_batch_ticks.value)

    def _phase_end(self, begin) -> int:
        """Book the phase deltas; returns the total virtual ms."""
        server = self.server
        clock_ms = server.time_ms - begin[0]
        ticks = server.tick_count - begin[1]
        batches = self._m_batch_ticks.value - begin[2]
        # One tick is one virtual ms: batch framing ticks are wire
        # overhead, the rest is request handling; any further clock
        # movement was waiting (fault delays, timer advances).
        self._m_phase["wire"].value += batches
        self._m_phase["handle"].value += max(0, ticks - batches)
        self._m_phase["wait"].value += max(0, clock_ms - ticks)
        return clock_ms

    def finish(self) -> None:
        """Close out: fold application telemetry into the session
        registry, release the applications, save the recording."""
        if self.finished:
            return
        self.finished = True
        died = self.main_app is None or self.main_app.destroyed
        injected = self.plan is not None and self.plan.total_injected > 0
        self.status = FAULTED if (died or injected) else COMPLETED
        for app in self.apps:
            # Values, not objects: the apps are about to be destroyed,
            # and the rollup must not double-count the shared server
            # registry each app mounts.
            self.metrics.merge(app.obs.metrics, include_mounts=False)
        self.close()
        self._count_errors()
        if self.journal is not None:
            self.journal.save(self.spec.record_path)

    # -- reads ---------------------------------------------------------

    @property
    def virtual_ms(self) -> int:
        """Total virtual milliseconds attributed to this session."""
        return self._m_dispatch.total

    @property
    def steps_run(self) -> int:
        return self._m_steps.value

    def dispatch_percentile(self, quantile: float) -> Optional[int]:
        return self._m_dispatch.percentile(quantile)


#: Setup script of the synthetic slowed session.
SLOW_SETUP = ("set hits 0\n"
              "proc bgerror msg {}\n"
              "label .l -text slow\n"
              "pack append . .l {top}\n")


def make_slow_spec(record_path: str, name: str = "slowpoke",
                   peer: str = "slowpeer", sends: int = 6,
                   delay_ms: int = 150) -> SessionSpec:
    """A deliberately slowed session: sync sends under a delay plan.

    The spec connects a peer application on the same (solo) server and
    issues synchronous ``send`` RPCs to it while a scripted
    :class:`~repro.x11.faults.FaultPlan` holds every PropertyNotify —
    the transport ``send`` rides on — for ``delay_ms`` virtual
    milliseconds.  Each RPC therefore burns hundreds of virtual ms in
    the sender's wait loop, which is exactly the shape of a degraded
    real-world session: alive, correct, slow.  The session records its
    own journal to ``record_path`` (delay plan serialized in the
    header), so the fleet's top-N outlier is one ``--repro`` away from
    a deterministic standalone replay.
    """
    steps: List[Tuple[str, list]] = [
        ("new_app", [peer, "set hits 0\nproc bgerror msg {}\n"])]
    for _ in range(sends):
        steps.append(("eval", ["send {%s} {incr hits}" % peer, name]))
    steps.append(("update", [name]))
    fault_spec = {
        "seed": 0,
        "event_triggers": [{"kind": "delay", "count": 4 * sends + 8,
                            "delay_ms": delay_ms,
                            "event_type": ev.PROPERTY_NOTIFY}],
    }
    return SessionSpec(steps, setup_script=SLOW_SETUP,
                       fault_spec=fault_spec, name=name,
                       source=record_path, record_path=record_path)


__all__ = ["SessionSpec", "FleetSession", "make_slow_spec",
           "DISPATCH_BUCKETS", "RECORD_RING", "SLOW_SETUP",
           "ACTIVE", "COMPLETED", "FAULTED"]
