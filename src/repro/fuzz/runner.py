"""Drive fuzz scenarios through the real TkApp/XServer stack.

The runner is deliberately a thin composition of existing machinery:
:func:`repro.obs.replay.start_recording` attaches the journal, a
:class:`repro.obs.replay.Session` journals and executes every step
(the *same* executor :func:`replay_journal` and the fleet use, so
recording and replay cannot drift apart), and
:mod:`repro.fuzz.oracles` checks the invariants after each step.  A
scenario's journal is its durable form — see
:func:`scenario_from_journal` for the inverse.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs.journal import Journal
from ..obs.replay import Session, start_recording
from . import oracles
from .gen import Scenario

#: Journal ring size for fuzz sessions — large enough that no session
#: wraps (a wrapped ring would break the byte-identity oracle).
FUZZ_RING = 262144


class FuzzResult:
    """Outcome of one scenario run."""

    def __init__(self, scenario: Scenario, journal: Journal,
                 violations: List[oracles.Violation], steps_run: int):
        self.scenario = scenario
        self.journal = journal
        self.violations = violations
        self.steps_run = steps_run

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set:
        return {violation.kind for violation in self.violations}

    def first_step(self) -> Optional[int]:
        """Index of the earliest step tied to a violation, if any."""
        steps = [violation.step for violation in self.violations
                 if violation.step is not None]
        return min(steps) if steps else None

    def report(self) -> str:
        lines = ["FUZZ seed=%d: %s  (%d/%d steps, %d journal entries%s)"
                 % (self.scenario.seed,
                    "CLEAN" if self.ok else "VIOLATED",
                    self.steps_run, len(self.scenario.steps),
                    len(self.journal),
                    ", planted=%s" % self.scenario.planted
                    if self.scenario.planted else "")]
        for violation in self.violations:
            lines.append("  " + violation.format())
        return "\n".join(lines)


def run_scenario(scenario: Scenario, stop_on_violation: bool = True,
                 check_replay: bool = True) -> FuzzResult:
    """Run one scenario under the journal with oracles after each step.

    ``check_replay`` gates the end-of-session byte-identity replay
    (the most expensive oracle); the shrinker disables it while
    minimizing violations the per-step oracles catch.
    """
    from ..x11.faults import FaultPlan
    from ..x11.xserver import XServer

    server = XServer()
    plan = None
    if scenario.fault_spec:
        plan = server.install_fault_plan(
            FaultPlan.from_spec(scenario.fault_spec))
    journal = start_recording(
        server, name=scenario.name, script=scenario.setup_script,
        flags=scenario.flags, maxlen=FUZZ_RING,
        fault_plan=scenario.fault_spec, planted=scenario.planted)
    session = Session(server, scenario.flags, journal=journal)
    violations: List[oracles.Violation] = []
    faulted = plan is not None
    disconnected = plan.disconnected_clients if plan is not None \
        else set()
    steps_run = 0
    try:
        if session.launch(scenario.name, scenario.setup_script) is None:
            violations.extend(oracles.classify_swallowed(
                session.swallowed, -1, faulted))
        else:
            for index, (kind, args) in enumerate(scenario.steps):
                steps_run = index + 1
                session.apply(kind, args)
                app_clients = {app.name: app.display.client.number
                               for app in session.apps}
                violations.extend(oracles.classify_swallowed(
                    session.swallowed, index, faulted))
                session.swallowed.clear()
                violations.extend(oracles.check_census(
                    server, index, disconnected, app_clients))
                if violations and stop_on_violation:
                    break
    finally:
        session.close()
    violations.extend(oracles.check_dead_client_requests(journal))
    if check_replay and not violations:
        violations.extend(oracles.check_replay_identity(journal))
    if violations:
        # Forensics for the failure triage: the last virtual seconds
        # of the server hub's telemetry, saved only when a flight-dump
        # directory is configured (see Observability.flight_autodump).
        server.obs.flight_autodump(
            "oracle-%s" % sorted({violation.kind
                                  for violation in violations})[0])
    return FuzzResult(scenario, journal, violations, steps_run)


def scenario_from_journal(journal: Journal) -> Scenario:
    """Rebuild the scenario a journal records (``--repro``'s loader).

    The journal header carries the setup script, ablation flags, fault
    plan, and planted-bug name; the input entries are the steps.  The
    reconstruction is exact because fuzz steps *are* journal inputs.
    """
    header = journal.meta or {}
    steps = [(name, list(args)) for name, args in journal.inputs()]
    return Scenario(
        seed=0, steps=steps,
        setup_script=header.get("script") or "",
        flags=journal.flags,
        fault_spec=header.get("fault_plan"),
        planted=header.get("planted"),
        name=header.get("name") or "fuzz")


__all__ = ["FuzzResult", "run_scenario", "scenario_from_journal",
           "FUZZ_RING"]
