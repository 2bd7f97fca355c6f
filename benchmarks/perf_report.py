"""Interpreter performance report: the repo's persisted perf trajectory.

Runs the hot-path microbenchmarks (simple command, proc call, expr
loop, binding dispatch, 50-button churn) and writes ``BENCH_interp.json``
at the repository root in a stable schema::

    {"<bench>": {"mean_us": <float>, "ops_per_sec": <float>}}

The ``*_nocompile`` rows run the same workload on an
``Interp(compile_enabled=False)`` ablation, so the file itself
documents what the compile-once pipeline (src/repro/tcl/compile.py)
buys on this machine.

Usage::

    PYTHONPATH=src python benchmarks/perf_report.py          # regenerate
    PYTHONPATH=src python benchmarks/perf_report.py --check  # CI gate

``--check`` re-measures and exits non-zero if any benchmark shared
with the committed ``BENCH_interp.json`` regressed more than
``CHECK_TOLERANCE`` (new mean > committed mean * 1.3), so perf
regressions fail the build the way semantic regressions do.
"""

import io
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

from repro.tcl import Interp
from repro.tk import TkApp
from repro.x11 import XServer
from repro.x11 import events as ev

BENCH_FILE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_interp.json")

#: --check fails when a mean regresses past committed * (1 + tolerance).
CHECK_TOLERANCE = 0.30

#: (repeats, min seconds per repeat) per measurement; the best repeat
#: is reported, which is the standard way to suppress scheduler noise.
_REPEATS = 5
_MIN_TIME = 0.08


def _measure(func) -> float:
    """Best-of-N mean seconds per call of ``func``."""
    func()                                   # warm caches
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            func()
        elapsed = time.perf_counter() - start
        if elapsed >= _MIN_TIME:
            break
        number *= 4
    best = elapsed / number
    for _ in range(_REPEATS - 1):
        start = time.perf_counter()
        for _ in range(number):
            func()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / number)
    return best


def _fresh_app():
    app = TkApp(XServer(), name="bench")
    app.interp.stdout = io.StringIO()
    return app


# ---------------------------------------------------------------------------
# benchmark workloads
# ---------------------------------------------------------------------------

def bench_simple_command():
    """Table II row 1: ``set a 1``."""
    interp = Interp()
    return _measure(lambda: interp.eval("set a 1"))


def bench_simple_command_nocompile():
    interp = Interp(compile_enabled=False)
    return _measure(lambda: interp.eval("set a 1"))


def bench_proc_call():
    """A two-argument proc call (compiled body cached on the Proc)."""
    interp = Interp()
    interp.eval("proc add {x y} {expr {$x + $y}}")
    return _measure(lambda: interp.eval("add 19 23"))


def bench_expr_loop():
    """100 iterations of ``while {$i < 100} {incr i}``."""
    interp = Interp()
    script = "set i 0\nwhile {$i < 100} {incr i}"
    return _measure(lambda: interp.eval(script))


def bench_expr_loop_nocompile():
    interp = Interp(compile_enabled=False)
    script = "set i 0\nwhile {$i < 100} {incr i}"
    return _measure(lambda: interp.eval(script))


_FOREACH_SCRIPT = ("set total 0\n"
                   "foreach x {1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 "
                   "17 18 19 20} {set total [expr {$total + $x}]}")


def bench_foreach_list():
    """foreach over a 20-element literal list with an expr body."""
    interp = Interp()
    return _measure(lambda: interp.eval(_FOREACH_SCRIPT))


def bench_binding_dispatch():
    """One key event routed through BindingTable.dispatch."""
    app = _fresh_app()
    app.interp.eval("frame .x -geometry 60x60")
    app.interp.eval("pack append . .x {top}")
    app.update()
    app.interp.eval("bind .x q {set pressed 1}")
    window = app.window(".x")
    event = ev.Event(ev.KEY_PRESS, window=window.id, keysym="q",
                     keychar="q")
    return _measure(lambda: app.bindings.dispatch(window, event))


def bench_button_churn_50():
    """Table II row 3: create, display, and delete 50 buttons."""
    app = _fresh_app()

    def fifty_buttons():
        for index in range(50):
            app.interp.eval(
                'button .b%d -text "Button %d" -command {set pressed %d}'
                % (index, index, index))
            app.interp.eval("pack append . .b%d {top}" % index)
        app.update()
        for index in range(50):
            app.interp.eval("destroy .b%d" % index)
        app.update()

    return _measure(fifty_buttons)


BENCHMARKS = [
    ("simple_command", bench_simple_command),
    ("simple_command_nocompile", bench_simple_command_nocompile),
    ("proc_call", bench_proc_call),
    ("expr_loop", bench_expr_loop),
    ("expr_loop_nocompile", bench_expr_loop_nocompile),
    ("foreach_list", bench_foreach_list),
    ("binding_dispatch", bench_binding_dispatch),
    ("button_churn_50", bench_button_churn_50),
]

#: Absolute ceilings (µs) enforced by ``--check`` in addition to the
#: no-regression rule: the bytecode VM's acceptance targets.
TARGETS = {
    "proc_call": 3.5,
    "expr_loop": 250.0,
}


def run_benchmarks() -> dict:
    report = {}
    for name, func in BENCHMARKS:
        seconds = func()
        report[name] = {
            "mean_us": round(seconds * 1e6, 3),
            "ops_per_sec": round(1.0 / seconds, 1),
        }
        print("%-28s %12.3f us  %14.1f ops/s"
              % (name, seconds * 1e6, 1.0 / seconds))
    return report


def check(report: dict) -> int:
    """Compare a fresh report against the committed BENCH_interp.json."""
    if not os.path.exists(BENCH_FILE):
        print("error: %s not committed; run perf_report.py first"
              % BENCH_FILE)
        return 1
    with open(BENCH_FILE) as handle:
        committed = json.load(handle)
    failures = []
    for name, stats in committed.items():
        if name not in report:
            continue
        old_mean = stats["mean_us"]
        new_mean = report[name]["mean_us"]
        limit = old_mean * (1.0 + CHECK_TOLERANCE)
        status = "ok" if new_mean <= limit else "REGRESSED"
        print("%-28s committed %10.3f us  now %10.3f us  %s"
              % (name, old_mean, new_mean, status))
        if new_mean > limit:
            failures.append(name)
    for name, ceiling in sorted(TARGETS.items()):
        if name not in report:
            continue
        new_mean = report[name]["mean_us"]
        status = "ok" if new_mean <= ceiling else "OVER TARGET"
        print("%-28s target    %10.3f us  now %10.3f us  %s"
              % (name, ceiling, new_mean, status))
        if new_mean > ceiling:
            failures.append("%s (target %.1fus)" % (name, ceiling))
    if failures:
        print("FAIL: regression >%d%% or target miss in: %s"
              % (int(CHECK_TOLERANCE * 100), ", ".join(failures)))
        return 1
    print("OK: no benchmark regressed more than %d%% and all "
          "absolute targets hold" % int(CHECK_TOLERANCE * 100))
    return 0


def main(argv) -> int:
    checking = "--check" in argv
    report = run_benchmarks()
    ratio = (report["simple_command_nocompile"]["mean_us"]
             / report["simple_command"]["mean_us"])
    loop_ratio = (report["expr_loop_nocompile"]["mean_us"]
                  / report["expr_loop"]["mean_us"])
    print("compile speedup: simple command %.1fx, expr loop %.1fx"
          % (ratio, loop_ratio))
    if checking:
        return check(report)
    with open(BENCH_FILE, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % BENCH_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
