"""Self-checks of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

They prove that the ``button_churn`` gate can fail (a planted busy-wait
in ``Packer.arrange`` trips its bound and the trace blames ``tk.pack``)
while ``keystroke_recalc`` stays within its bound, that per-layer self
times plus ``other`` add up to the traced op time with the traffic each
workload was chosen for, and that the span recorder attributes
server-thread spans to the op in flight, and that a fleet which never
goes idle is stopped and reported instead of hanging the run.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import LAYERS, SpanRecorder  # noqa: E402

#: Seconds per measured run in these checks (short: they test the
#: benchmark's logic, not the program's speed).
SECONDS = "3"

#: Busy-wait added to every Packer.arrange call by the planted check.
PLANT_US = "400"


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bound(metric: str) -> float:
    return next(entry["bound"] for entry in spec()["end_to_end"]
                if entry["name"] == metric)


def run(workload: str, trace: int = 0, plant_us: str = "0",
        seed: int = 7, cwd: str = ROOT) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace),
         "--plant-pack-us", plant_us],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    # Exactly the metrics BENCHMARK.json lists for this mode, by name
    # and unit.
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert {key: entry["unit"] for key, entry in
            result["metrics"].items()} == \
        {entry["name"]: entry["unit"] for entry in listed}
    return {key: entry["value"]
            for key, entry in result["metrics"].items()}


def test_planted_pack_slowdown_trips_only_button_churn():
    limit = 1.0 + bound("op_ms.p50")
    base = run("button_churn")["op_ms.p50"]
    slowed = run("button_churn", plant_us=PLANT_US)["op_ms.p50"]
    assert slowed > base * limit, (base, slowed)

    base = run("keystroke_recalc")["op_ms.p50"]
    slowed = run("keystroke_recalc", plant_us=PLANT_US)["op_ms.p50"]
    assert slowed <= base * limit, (base, slowed)


def test_planted_pack_slowdown_is_attributed_to_tk_pack():
    base = run("button_churn", trace=1)
    slowed = run("button_churn", trace=1, plant_us=PLANT_US)
    added = slowed["tk.pack.self_us_per_op"] - base["tk.pack.self_us_per_op"]
    planted = slowed["tk.pack.calls_per_op"] * float(PLANT_US)
    assert added > 0.8 * planted, (added, planted)
    grew = {layer: slowed[layer + ".self_us_per_op"]
            - base[layer + ".self_us_per_op"] for layer in LAYERS}
    assert max(grew, key=grew.get) == "tk.pack", grew


@pytest.mark.parametrize("workload", ["button_churn", "keystroke_recalc",
                                      "send_socket", "fleet_mix"])
def test_layer_shares_sum_to_traced_op_time(workload):
    metrics = run(workload, trace=1)
    shares = [metrics[layer + ".self_share"] for layer in LAYERS]
    assert sum(shares) + metrics["other.self_share"] == \
        pytest.approx(1.0, abs=1e-9)
    per_op = sum(metrics[layer + ".self_us_per_op"] for layer in LAYERS)
    assert per_op + metrics["other.self_us_per_op"] == \
        pytest.approx(metrics["trace.op_us"], rel=1e-9)
    # A negative remainder would mean spans were double-counted.
    assert metrics["other.self_share"] > -0.01
    ranked = sorted(LAYERS, key=lambda layer: -metrics[layer
                                                       + ".self_share"])
    if workload == "keystroke_recalc":
        assert ranked[0] == "tcl", ranked
    elif workload == "button_churn":
        assert set(ranked[:2]) == {"tk.pack", "x11.xserver"}, ranked
    elif workload == "send_socket":
        assert metrics["x11.transport.wait_us_per_op"] > 0
        assert metrics["tk.pack.calls_per_op"] == 0


def test_missing_program_exits_nonzero_without_result():
    scratch = os.path.join(ROOT, ".perfbench", "bare-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "button_churn", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=170)
        assert out.returncode != 0
        assert out.stdout.strip() == ""
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_server_thread_spans_attach_to_the_blocked_client_span():
    """Self times on two threads add up to the op's wall time."""
    recorder = SpanRecorder()
    nap = 0.02

    def serve():
        time.sleep(nap)

    served = recorder.wrap("x11.xserver", "serve", serve)

    def request():
        worker = threading.Thread(target=served)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()

    blocked = recorder.wrap("x11.transport", "request", request)
    outer = recorder.wrap("tcl", "eval", lambda: blocked())
    recorder.op = 1
    start = time.perf_counter_ns()
    outer()
    elapsed = time.perf_counter_ns() - start
    recorder.op = None

    total = sum(recorder.self_ns.values()) + recorder.op_covered_ns
    assert total <= elapsed
    assert recorder.self_ns["x11.xserver"] >= nap * 1e9
    assert recorder.self_ns["x11.transport"] < nap * 1e9 / 2
    by_id = {span[0]: span for span in recorder.spans}
    server_span = next(span for span in recorder.spans if span[1] == 0)
    parent = by_id[server_span[4]]
    assert recorder._names["request"] == parent[1]
    # Self time recomputed from the stored spans matches the totals.
    children = {}
    for sid, _name, start_ns, end_ns, parent_id, _op in recorder.spans:
        children[parent_id] = children.get(parent_id, 0) + end_ns - start_ns
    recomputed = sum(end_ns - start_ns - children.get(sid, 0)
                     for sid, _n, start_ns, end_ns, _p, _o in
                     recorder.spans)
    assert recomputed == sum(recorder.self_ns.values())


def test_fleet_that_never_goes_idle_is_stopped_and_reported():
    from repro.fleet import FleetDriver
    from repro.fleet.harness import SessionSpec
    from workloads import FleetStalled, _run_bounded

    # Every timer schedules the next, so the session always has work.
    spin = SessionSpec([("eval", ["proc tick {} {after 0 tick}; tick",
                                  "spin"])], name="spin")
    result, error = _run_bounded(FleetDriver([spin]))
    assert result is None
    assert isinstance(error, FleetStalled)
