"""The benchmark's workloads.

``BENCHMARK.json`` lists ``button_churn``, ``keystroke_recalc`` and
``fleet_mix``; ``send_socket`` stays runnable by name (see NOTES.md).

Each workload drives the real ``TkApp``/``XServer`` stack through its
public API as a closed loop from one process: the next op starts only
after the previous one ran to idle, the way Tk's event loop takes
inputs and the way the paper's Table II times operations back to back.

A workload object has these parts:

* ``setup()`` builds the server, applications, widget trees and specs,
  and runs warm-up ops that fill the compile and resource caches;
* ``next_input()`` generates the next op's input and the output the
  benchmark expects from it (untimed);
* ``op(given)`` runs one timed op on that input and returns its output;
* ``check(given, result)`` compares the output with the value the
  benchmark computed itself (False = a failed op);
* ``teardown()`` destroys the applications and stops every thread the
  workload started.

Inputs come only from the ``seed`` given to the constructor: the key
sequence, the send payloads and the fleet's fuzz fill are generated
here, and the program receives just the generated inputs.
"""

from __future__ import annotations

import io
import os
import random
import string
from typing import List

from repro.tk import TkApp
from repro.x11 import XServer


def _quiet_app(server, name, **kwargs) -> TkApp:
    app = TkApp(server, name=name, **kwargs)
    app.interp.stdout = io.StringIO()
    return app


def _closed_client_leaks(server) -> List[str]:
    """Census entries still held by closed clients (should be none)."""
    leaks = []
    for number, bucket in server.resource_census().items():
        if number == 0 or not bucket["closed"]:
            continue
        for field in ("windows", "resources", "properties", "selections",
                      "event_selections", "atoms"):
            if bucket[field]:
                leaks.append("client %d holds %s" % (number, field))
    return leaks


class Workload:
    """Shared shape; see the module docstring."""

    name = ""
    #: warm-up ops run at the end of setup
    warmup_ops = 0

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.servers: List[XServer] = []
        self.apps: List[TkApp] = []

    def setup(self) -> None:
        self.build()
        for _ in range(self.warmup_ops):
            given = self.next_input()
            if not self.check(given, self.op(given)):
                raise RuntimeError("%s: warm-up op failed its check"
                                   % self.name)

    def build(self) -> None:
        raise NotImplementedError

    def next_input(self):
        return None

    def op(self, given):
        raise NotImplementedError

    def check(self, given, result) -> bool:
        raise NotImplementedError

    def registries(self):
        """Server registries whose x11.* counters this workload moves."""
        return [server.obs.metrics for server in self.servers]

    def app_registries(self):
        """Application registries (tcl.*, tk.*, send.* counters)."""
        return [app.obs.metrics for app in self.apps]

    def teardown(self) -> None:
        from repro.x11.transport import shutdown_host
        for app in reversed(self.apps):
            if not app.destroyed:
                app.destroy()
        for server in self.servers:
            shutdown_host(server)
        self.apps = []
        self.servers = []


class ButtonChurn(Workload):
    """Table II row 3: create, display and delete 50 buttons."""

    name = "button_churn"
    warmup_ops = 3
    BUTTONS = 50

    def build(self) -> None:
        rng = random.Random(self.seed)
        server = XServer()
        app = _quiet_app(server, "churn")
        self.servers, self.apps, self.app = [server], [app], app
        self.server = server
        # One script set per run: the labels vary by seed, the scripts
        # repeat every cycle (as Table II's loop does), so the compile
        # cache is warm after the first cycle.
        labels = ["".join(rng.choice(string.ascii_letters)
                          for _ in range(rng.randint(3, 12)))
                  for _ in range(self.BUTTONS)]
        self.create = [
            'button .b%d -text "%s" -command {set pressed %d}'
            % (index, label, index) for index, label in enumerate(labels)]
        self.pack = ["pack append . .b%d {top}" % index
                     for index in range(self.BUTTONS)]
        self.destroy = ["destroy .b%d" % index
                        for index in range(self.BUTTONS)]
        app.update()
        self.baseline = sorted(
            server.resource_census()[app.display.client.number]["windows"])

    def op(self, _given):
        app = self.app
        interp = app.interp
        for create, pack in zip(self.create, self.pack):
            interp.eval(create)
            interp.eval(pack)
        app.update()
        for script in self.destroy:
            interp.eval(script)
        app.update()

    def check(self, _given, _result) -> bool:
        app = self.app
        if app.interp.eval("winfo children .") != "":
            return False
        census = self.server.resource_census()
        windows = census[app.display.client.number]["windows"]
        return sorted(windows) == self.baseline


#: The spreadsheet of the keystroke workload: cell ``i`` is a Tcl
#: formula over cell ``i-1`` and input ``i / SHEET_SPAN``, so a key that
#: changes input ``k`` dirties the cells from ``k * SHEET_SPAN`` to the
#: end, and ``recalc`` evaluates only those.  The dirty range differs
#: from key to key (1 to 8 spans), as a real recalc's does.
SHEET_INPUTS = 8
SHEET_SPAN = 30
SHEET_CELLS = SHEET_INPUTS * SHEET_SPAN


def sheet_formulas() -> List[str]:
    """Cell formulas (the paper's embedded-Tcl cells, section 6).
    Fixed text, so the compile cache stays warm."""
    return ["expr {($cell(%d) * 3 + $in(%d) * %d + %d) %% 9973}"
            % (index - 1, index // SHEET_SPAN, index % 7 + 1, index)
            for index in range(SHEET_CELLS)]


class SheetModel:
    """The benchmark's own recalc, independent of Tcl."""

    def __init__(self):
        self.inputs = [0] * SHEET_INPUTS
        self.cells = [0] * SHEET_CELLS
        self._recalc(0)

    def _recalc(self, first: int) -> None:
        cells, inputs = self.cells, self.inputs
        for index in range(first, SHEET_CELLS):
            # cell(-1) is the sheet's constant 0 cell.
            before = cells[index - 1] if index else 0
            cells[index] = (before * 3 + inputs[index // SHEET_SPAN]
                            * (index % 7 + 1) + index) % 9973

    def press(self, key: str) -> int:
        """Apply one key; returns the sheet total ``recalc`` must reach."""
        code = ord(key)
        slot = code % SHEET_INPUTS
        self.inputs[slot] = (self.inputs[slot] * 31 + code) % 1000
        self._recalc(slot * SHEET_SPAN)
        return sum(self.cells)


_SHEET_SCRIPT = """
for {set i 0} {$i < %(inputs)d} {incr i} {set in($i) 0}
set order {}
set cell(-1) 0
for {set i 0} {$i < %(cells)d} {incr i} {lappend order $i; set cell($i) 0}
set total 0
proc recalc {first} {
    global in cell formula order total
    foreach i [lrange $order $first end] {
        set old $cell($i)
        set cell($i) [eval $formula($i)]
        set total [expr {$total + $cell($i) - $old}]
    }
}
proc key {k} {
    global in total
    scan $k %%c code
    set slot [expr {$code %% %(inputs)d}]
    set in($slot) [expr {($in($slot) * 31 + $code) %% 1000}]
    recalc [expr {$slot * %(span)d}]
    .in$slot configure -text $in($slot)
    .total configure -text $total
    .e delete 0 end
}
for {set i 0} {$i < %(inputs)d} {incr i} {
    label .in$i -width 6 -text 0
    pack append . .in$i {top}
}
label .total -width 12 -text 0
pack append . .total {top}
entry .e -width 16
pack append . .e {top}
bind .e <KeyPress> {key %%K}
"""


class KeystrokeRecalc(Workload):
    """A key press in an entry recalculates a Tcl-proc spreadsheet."""

    name = "keystroke_recalc"
    warmup_ops = 50
    KEYS = string.ascii_letters + string.digits

    def build(self) -> None:
        server = XServer()
        app = _quiet_app(server, "sheet")
        self.servers, self.apps, self.app = [server], [app], app
        self.server = server
        app.interp.eval(_SHEET_SCRIPT % {"inputs": SHEET_INPUTS,
                                         "cells": SHEET_CELLS,
                                         "span": SHEET_SPAN})
        for index, formula in enumerate(sheet_formulas()):
            app.interp.set_global_var("formula", formula, str(index))
        app.interp.eval("recalc 0")
        app.update()
        self.entry_id = app.window(".e").id
        self.total_window = server.window(app.window(".total").id)
        self.rng = random.Random(self.seed)
        self.model = SheetModel()

    def next_input(self):
        key = self.rng.choice(self.KEYS)
        return key, self.model.press(key)

    def op(self, given):
        self.server.press_key(given[0], window_id=self.entry_id)
        self.app.update()

    def check(self, given, _result) -> bool:
        expected = str(given[1])
        texts = [op.args[2] for op in self.total_window.draw_ops
                 if op.kind == "text"]
        return self.app.interp.get_global_var("total") == expected and \
            texts[-1:] == [expected]


class SendSocket(Workload):
    """Table II row 2: ``send`` between two apps over real sockets."""

    name = "send_socket"
    warmup_ops = 100
    ALPHABET = string.ascii_letters + string.digits

    def build(self) -> None:
        server = XServer()
        receiver = _quiet_app(server, "receiver", transport="socket")
        sender = _quiet_app(server, "sender", transport="socket")
        self.servers = [server]
        self.apps = [receiver, sender]
        self.receiver, self.sender = receiver, sender
        from repro.tk.app import pump_all
        self.pump_all = pump_all
        pump_all(server)
        self.rng = random.Random(self.seed)

    def next_input(self):
        rng = self.rng
        return "".join(rng.choice(self.ALPHABET)
                       for _ in range(rng.randint(1, 48)))

    def op(self, payload):
        reply = self.sender.interp.eval_top(
            "send receiver {set x %s}" % payload)
        # Run both applications to idle before the next send.
        self.pump_all(self.servers[0])
        return reply

    def check(self, payload, reply) -> bool:
        return reply == payload and \
            self.receiver.interp.get_global_var("x") == payload


class FleetMix(Workload):
    """The seeded 200-session fleet; op = one ``FleetSession.step``.

    The seed picks :attr:`VARIANTS` fleet seeds; each fleet is the
    golden journal, every ``tests/regress/`` journal, a fuzz fill
    generated from its fleet seed and the slow outlier.  ``setup()``
    builds them all and warms up on the first :attr:`WARMUP_SESSIONS`
    sessions of the first fleet; the timed phase runs fresh fleets of
    them in turn, so one run averages several fuzz fills, and every
    repeat of a fleet must reproduce its first run's deterministic
    summary exactly.
    """

    name = "fleet_mix"
    SESSIONS = 200
    VARIANTS = 3
    WARMUP_SESSIONS = 40
    #: summary fields that must repeat exactly for one fleet seed
    DETERMINISTIC = ("steps", "x11_requests", "virtual_ms")

    def __init__(self, seed: int, root: str, work_dir: str):
        super().__init__(seed, root)
        self.work_dir = work_dir
        self.driver = None
        self.fleets: List[dict] = []
        self.turn = 0

    def build(self) -> None:
        from repro.fleet.__main__ import build_specs, corpus_journals
        journals = [os.path.join(self.root, "examples", "golden.journal")]
        journals += corpus_journals(os.path.join(self.root, "tests",
                                                 "regress"))
        rng = random.Random(self.seed)
        for index in range(self.VARIANTS):
            fleet_seed = rng.randrange(1 << 30)
            slow = os.path.join(self.work_dir, "slow-%d.journal" % index)
            self.fleets.append({
                "seed": fleet_seed, "slow": slow, "reference": None,
                "specs": build_specs(self.SESSIONS, fleet_seed, journals,
                                     slow_journal=slow)})

    def setup(self) -> None:
        from repro.fleet import FleetDriver
        self.build()
        first = self.fleets[0]
        # Warm-up only: the timed phase runs and checks this fleet whole.
        _run_bounded(FleetDriver(first["specs"][:self.WARMUP_SESSIONS],
                                 seed=first["seed"]))

    def launch(self) -> None:
        """A fresh driver over the next fleet's specs, sessions launched."""
        from repro.fleet import FleetDriver
        self.current = self.fleets[self.turn % len(self.fleets)]
        self.turn += 1
        self.driver = FleetDriver(self.current["specs"],
                                  seed=self.current["seed"])
        self.driver.launch()
        self.servers = list(self.driver.servers)

    def run(self):
        """Run the launched fleet to completion: (result, error)."""
        return _run_bounded(self.driver)

    def check_run(self, result, error) -> List[str]:
        """Problems with one fleet run (empty when it is correct).

        A fleet's first correct run sets the deterministic summary
        every later run of the same fleet must repeat.
        """
        from repro.obs.journal import Journal
        from repro.obs.replay import replay_journal
        fleet = self.current
        problems = []
        if error is not None:
            problems.append("escape: %s: %s" % (type(error).__name__,
                                                error))
        for server in self.driver.servers:
            problems.extend(_closed_client_leaks(server))
        if result is not None:
            # The outlier saves its journal when the fleet finishes.
            if not replay_journal(Journal.load(fleet["slow"])).matched:
                problems.append("slow journal replay mismatched")
            full = result.summary()
            summary = {key: full[key] for key in self.DETERMINISTIC}
            if fleet["reference"] is None:
                if not problems:
                    fleet["reference"] = summary
            elif summary != fleet["reference"]:
                problems.append("summary %s != reference %s"
                                % (summary, fleet["reference"]))
        return problems

    def app_registries(self):
        # Each session folds its applications' registries into its own
        # at finish, and the run's rollup merges every session's.
        return [self.driver.telemetry.registry] if self.driver else []

    def teardown(self) -> None:
        from repro.x11.transport import shutdown_host
        if self.driver is not None:
            for server in self.driver.servers:
                shutdown_host(server)
        self.driver = None
        self.servers = []


class FleetStalled(Exception):
    """A fleet kept stepping long past its inputs: some session never
    goes idle (an event loop that does not converge)."""


def _run_bounded(driver):
    """``driver.run()`` with a per-session step limit: (result, error).

    A session takes one step per input, plus a revisit whenever its
    pump budget runs out with events pending; in the fleets measured no
    session needed more than one step beyond its inputs.  A session
    whose events keep producing events would keep the driver stepping
    forever, so a session past twice its inputs plus 64 steps stops the
    run, which is reported as failed.
    """
    from repro.fleet.harness import FleetSession
    step = vars(FleetSession)["step"]
    taken = {}

    def bounded_step(session):
        count = taken[session.sid] = taken.get(session.sid, 0) + 1
        if count > 2 * len(session.spec.steps) + 64:
            raise FleetStalled("session %s (%s) still busy after %d steps"
                               % (session.sid, session.spec.source, count))
        return step(session)

    FleetSession.step = bounded_step
    try:
        return driver.run(), None
    except Exception as error:   # noqa: BLE001 - checked as a failure
        return None, error
    finally:
        FleetSession.step = step


def make_workload(name: str, seed: int, root: str, work_dir: str):
    if name == FleetMix.name:
        return FleetMix(seed, root, work_dir)
    for cls in (ButtonChurn, KeystrokeRecalc, SendSocket):
        if cls.name == name:
            return cls(seed, root)
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ["button_churn", "keystroke_recalc", "send_socket", "fleet_mix"]
