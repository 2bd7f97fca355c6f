"""The fleet driver: cells, the scheduler, and cross-session traffic.

The paper's north star is a toolkit for *fleets* of users, and this
driver simulates one: hundreds of sessions — recorded journals, fuzz
scenarios, synthetic outliers — interleaved over one shared
:class:`~repro.x11.xserver.VirtualClock`, so the whole fleet lives on
a single deterministic timeline and every virtual millisecond is
attributable to exactly one session.

Topology: sessions are grouped into **cells**, a cell being one
simulated X server (display) shared by a few sessions — which is what
makes cross-session ``send`` RPCs possible, exactly as the paper's
section 6 envisions cooperating applications on one display.  Specs
that need isolation (fault plans, multi-application journals,
self-recording sessions) get solo cells; see
:attr:`SessionSpec.solo`.

Scheduling is cooperative round-robin at one-input granularity: each
round visits every live session once, and a session's visit runs one
journal input (or drains one budgeted slice of a long redraw cascade
— see :meth:`EventDispatcher.do_events`).  Single-threaded by
design: determinism is the product; two runs with the same specs and
seed produce bit-identical telemetry, so any outlier the report
surfaces can be re-run in isolation.

Every ``ping_every`` rounds the driver injects a synchronous
cross-session ``send`` between two live cell-mates (seeded choice),
so the send transport — registry scrubs, property mailboxes, wait
loops — is continuously exercised under fleet load and its
``send.wait_ms`` cost lands in the *sender's* per-session registry.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional

from ..x11.xserver import VirtualClock, XServer
from .harness import FleetSession, SessionSpec
from .telemetry import (FleetTelemetry, check_slos, format_slos,
                        format_top, top_slowest)

DEFAULT_CELL_SIZE = 4
DEFAULT_PUMP_BUDGET = 64
DEFAULT_PING_EVERY = 16


class FleetDriver:
    """Runs a list of :class:`SessionSpec` as one fleet."""

    def __init__(self, specs: List[SessionSpec],
                 cell_size: int = DEFAULT_CELL_SIZE,
                 pump_budget: int = DEFAULT_PUMP_BUDGET,
                 ping_every: int = DEFAULT_PING_EVERY,
                 seed: int = 0,
                 clock: Optional[VirtualClock] = None):
        self.specs = list(specs)
        self.cell_size = max(1, cell_size)
        self.pump_budget = pump_budget
        self.ping_every = ping_every
        self.seed = seed
        self.clock = clock if clock is not None else VirtualClock()
        self.telemetry = FleetTelemetry()
        self.sessions: List[FleetSession] = []
        self.cells: List[List[FleetSession]] = []
        self.servers: List[XServer] = []
        self.rounds = 0
        self.pings = 0
        self.wall_seconds = 0.0

    # -- topology ------------------------------------------------------

    def _assign_cells(self) -> List[List[SessionSpec]]:
        cells: List[List[SessionSpec]] = []
        open_cell: Optional[List[SessionSpec]] = None
        for spec in self.specs:
            if spec.solo:
                cells.append([spec])
                continue
            if open_cell is None or len(open_cell) >= self.cell_size:
                open_cell = []
                cells.append(open_cell)
            open_cell.append(spec)
        return cells

    def launch(self) -> None:
        """Build every cell's server and launch its sessions."""
        sid = 0
        for cell_specs in self._assign_cells():
            server = XServer(clock=self.clock)
            self.servers.append(server)
            cell: List[FleetSession] = []
            for spec in cell_specs:
                session = FleetSession("s%03d" % sid, spec, server,
                                       pump_budget=self.pump_budget)
                sid += 1
                session.launch()
                cell.append(session)
                self.sessions.append(session)
            self.cells.append(cell)
        self.telemetry.update_gauges(self.sessions)

    # -- the scheduler -------------------------------------------------

    def run(self) -> "FleetResult":
        """Round-robin every session to completion; roll up telemetry."""
        start = time.perf_counter()
        if not self.sessions:
            self.launch()
        rng = random.Random(self.seed)
        while True:
            self.rounds += 1
            busy = False
            for session in self.sessions:
                if session.finished:
                    continue
                if session.step():
                    busy = True
                else:
                    session.finish()
            if self.ping_every and self.rounds % self.ping_every == 0:
                self._cross_session_pings(rng)
            self.telemetry.update_gauges(self.sessions)
            if not busy:
                break
        self.wall_seconds = time.perf_counter() - start
        # Cells that hosted socket-backed sessions have a server thread
        # running; stop them before the rollup reads the registries.
        from ..x11.transport import shutdown_host
        for server in self.servers:
            shutdown_host(server)
        self.telemetry.rollup(self.sessions, self.servers)
        return FleetResult(self)

    def _cross_session_pings(self, rng: random.Random) -> None:
        """One synchronous send between two live mates per shared cell."""
        for cell in self.cells:
            if len(cell) < 2:
                continue
            live = [session for session in cell
                    if not session.finished
                    and session.main_app is not None
                    and not session.main_app.destroyed]
            if len(live) < 2:
                continue
            sender = rng.choice(live)
            target = rng.choice([session for session in live
                                 if session is not sender])
            self.pings += 1
            script = "send {%s} {set fleet_ping %d}" % (
                target.main_app.name, self.pings)
            sender.run_input("eval", [script, sender.spec.name])


class FleetResult:
    """The outcome of one fleet run: registry + summary + reports."""

    def __init__(self, driver: FleetDriver):
        self.sessions = driver.sessions
        self.telemetry = driver.telemetry
        self.registry = driver.telemetry.registry
        self.cells = len(driver.cells)
        self.rounds = driver.rounds
        self.pings = driver.pings
        self.wall_seconds = driver.wall_seconds
        self.virtual_ms = driver.clock.now
        #: applications still alive on a cell server after every
        #: session finished: a leak, since each session destroys its own
        self.live_apps = sum(1 for server in driver.servers
                             for app in getattr(server, "apps", ())
                             if not app.destroyed)

    def summary(self) -> dict:
        registry = self.registry
        dispatch = registry.histogram_total("fleet.dispatch_ms")
        events = registry.total("fleet.events")
        steps = registry.total("fleet.steps")
        wall = self.wall_seconds if self.wall_seconds > 0 else 1e-9
        statuses = [session.status for session in self.sessions]
        return {
            "sessions": len(self.sessions),
            "completed": statuses.count("completed"),
            "faulted": statuses.count("faulted"),
            "cells": self.cells,
            "rounds": self.rounds,
            "pings": self.pings,
            "steps": steps,
            "events": events,
            "errors": registry.total("fleet.errors"),
            "send_rpcs": registry.total("send.rpcs"),
            "x11_requests": registry.total("x11.requests"),
            "faults_injected": registry.total("x11.faults"),
            "journal_dropped": registry.total("obs.journal.dropped"),
            "trace_evicted": registry.total("obs.trace.evicted"),
            "live_apps": self.live_apps,
            "virtual_ms": self.virtual_ms,
            "wall_seconds": round(self.wall_seconds, 3),
            "sessions_per_sec": round(len(self.sessions) / wall, 2),
            "steps_per_sec": round(steps / wall, 1),
            "events_per_sec": round(events / wall, 1),
            "dispatch_ms": {
                "count": dispatch.value,
                "sum": dispatch.total,
                "p50": dispatch.percentile(0.50),
                "p95": dispatch.percentile(0.95),
                "p99": dispatch.percentile(0.99),
            },
        }

    def top_slowest(self, count: int = 10) -> List[dict]:
        return top_slowest(self.sessions, count)

    def slos(self, slos=None) -> List[dict]:
        summary = self.summary()
        return check_slos(summary) if slos is None \
            else check_slos(summary, slos)

    def report(self, top: int = 10) -> str:
        summary = self.summary()
        lines = [
            "FLEET: %d sessions in %d cells, %d rounds, %d pings"
            % (summary["sessions"], summary["cells"],
               summary["rounds"], summary["pings"]),
            "  completed=%d faulted=%d errors=%d faults=%d"
            % (summary["completed"], summary["faulted"],
               summary["errors"], summary["faults_injected"]),
            "  steps=%d events=%d send_rpcs=%d x11_requests=%d"
            % (summary["steps"], summary["events"],
               summary["send_rpcs"], summary["x11_requests"]),
            "  virtual %d ms in %.2f s wall "
            "(%.1f sessions/s, %.0f events/s)"
            % (summary["virtual_ms"], summary["wall_seconds"],
               summary["sessions_per_sec"], summary["events_per_sec"]),
            "  dispatch p50=%s p95=%s p99=%s (virtual ms, %d inputs)"
            % (summary["dispatch_ms"]["p50"],
               summary["dispatch_ms"]["p95"],
               summary["dispatch_ms"]["p99"],
               summary["dispatch_ms"]["count"]),
            "",
            format_top(self.sessions, top),
            "",
            format_slos(self.slos()),
        ]
        return "\n".join(lines)


__all__ = ["FleetDriver", "FleetResult", "DEFAULT_CELL_SIZE",
           "DEFAULT_PUMP_BUDGET", "DEFAULT_PING_EVERY"]
