"""Table II, keystroke and fleet workloads, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload button_churn --seed 1 \\
        --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: it alternates untraced and
traced blocks of the same workload, reports the per-layer split from
the traced blocks (see ``layers.py``) and the tracing overhead as the
median of the paired traced/untraced ``op_ms`` ratios, and writes the
kept spans to ``.perfbench/spans-<workload>-seed<seed>.json``.

``--workload all`` runs every workload ``BENCHMARK.json`` lists, each
in its own process, one after the other.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every line
before it is a human-readable report that also records the seed and
the sample counts.  The benchmark exits non-zero, printing no result,
when the program's sources are missing or a set-up fails its checks.

``--plant-pack-us N`` adds a fixed busy-wait of N microseconds to
every ``Packer.arrange`` call; the self-check tests use it to prove
the ``button_churn`` gate can fail and that the trace blames
``tk.pack``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: Target wall time of one traced or untraced block in a traced run.
BLOCK_SECONDS = 0.25


def _die(message: str) -> int:
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def registry_totals(workload) -> dict:
    """Program counters this run reports, summed over its registries."""
    servers = workload.registries()
    apps = workload.app_registries()
    totals = {}
    for key in ("x11.round_trips", "x11.wire.bytes_out", "x11.wire.bytes_in",
                "x11.requests", "x11.requests_coalesced", "x11.faults"):
        totals[key] = sum(registry.total(key) for registry in servers)
    totals["x11.batched"] = sum(
        registry.histogram_total("x11.batch_size").total
        for registry in servers)
    for key in ("tcl.compile.hits", "tcl.compile.misses", "tk.cache.hits",
                "tk.cache.misses", "send.errors"):
        totals[key] = sum(registry.total(key) for registry in apps)
    totals["send.wait_ms"] = sum(
        registry.histogram_total("send.wait_ms").total
        for registry in apps)
    return totals


def add_totals(into: dict, before: dict, after: dict) -> None:
    for key, value in after.items():
        into[key] = into.get(key, 0) + value - before.get(key, 0)


class Phase:
    """Everything one timed (or traced) phase measured."""

    def __init__(self):
        self.durations = []     # seconds per op
        self.wall = 0.0         # seconds the program ran in the phase
        self.failed = 0
        self.counters = {}

    @property
    def ops(self) -> int:
        return len(self.durations)


# ----------------------------------------------------------------------
# Tk workloads: one op at a time
# ----------------------------------------------------------------------

def run_ops(workload, phase: Phase, count: int = 0, deadline: float = 0.0,
            recorder=None) -> None:
    """Run ops closed-loop, timing and checking each: ``count`` of
    them, or as many as start before ``deadline``."""
    clock = time.perf_counter
    before = registry_totals(workload)
    done = 0
    while (done < count) if count else (clock() < deadline):
        given = workload.next_input()
        if recorder is not None:
            recorder.op = phase.ops + 1
        start = clock()
        result = workload.op(given)
        end = clock()
        if recorder is not None:
            recorder.op = None
        phase.durations.append(end - start)
        phase.wall += end - start
        if not workload.check(given, result):
            phase.failed += 1
        done += 1
    add_totals(phase.counters, before, registry_totals(workload))


def timed_ops(workload, seconds: float) -> Phase:
    phase = Phase()
    run_ops(workload, phase, deadline=time.perf_counter() + seconds)
    return phase


# ----------------------------------------------------------------------
# fleet_mix: one op is one FleetSession.step inside a whole fleet run
# ----------------------------------------------------------------------

class StepTimer:
    """Times every ``FleetSession.step`` (the fleet's op)."""

    def __init__(self, durations):
        from repro.fleet.harness import FleetSession
        self.owner = FleetSession
        self.original = vars(FleetSession)["step"]
        clock = time.perf_counter
        step = self.original

        def timed_step(session):
            start = clock()
            try:
                return step(session)
            finally:
                durations.append(clock() - start)

        FleetSession.step = timed_step

    def remove(self) -> None:
        self.owner.step = self.original


def run_fleet(workload, phase: Phase, recorder=None) -> None:
    """Launch, run and check one whole fleet."""
    workload.launch()
    gc.collect()
    before = registry_totals(workload)
    durations = []
    timer = StepTimer(durations)
    if recorder is not None:
        recorder.op = 0
    start = time.perf_counter()
    try:
        result, error = workload.run()
    finally:
        end = time.perf_counter()
        if recorder is not None:
            recorder.op = None
        timer.remove()
    add_totals(phase.counters, before, registry_totals(workload))
    phase.durations.extend(durations)
    phase.wall += end - start
    if workload.check_run(result, error):
        phase.failed += len(durations)


def timed_fleets(workload, seconds: float) -> Phase:
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        run_fleet(workload, phase)
    return phase


# ----------------------------------------------------------------------
# set-up, end-to-end and traced runs
# ----------------------------------------------------------------------

def set_up(name: str, seed: int, root: str, work_dir: str):
    """Set up ``SETUPS`` times; keep the last, report the median time."""
    from workloads import make_workload
    times = []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.teardown()
        gc.collect()
        start = time.perf_counter()
        workload = make_workload(name, seed, root, work_dir)
        workload.setup()
        times.append(time.perf_counter() - start)
    gc.collect()
    return workload, times


def end_to_end(phase: Phase, setup_times) -> dict:
    ops = phase.ops
    counters = phase.counters
    op_ms = [value * 1000.0 for value in phase.durations]
    return {
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.p95": (percentile(op_ms, 0.95), "ms"),
        "ops_per_s": (ops / phase.wall, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
        "ok_frac": ((ops - phase.failed) / ops, "fraction"),
        "wire_bytes_per_op": ((counters["x11.wire.bytes_out"]
                               + counters["x11.wire.bytes_in"]) / ops,
                              "bytes"),
    }


def _ratio(numerator, denominator):
    """Useful outcomes over attempts; 0 when there were no attempts."""
    return numerator / denominator if denominator else 0.0


def per_layer(phase: Phase, recorder, overhead: float) -> dict:
    """The per-layer metrics of the traced blocks."""
    from layers import LAYERS
    ops = phase.ops
    counters = phase.counters
    traced_ns = phase.wall * 1e9
    metrics = {}
    attributed = 0
    for layer in LAYERS:
        self_ns = recorder.self_ns.get(layer, 0)
        attributed += self_ns
        metrics[layer + ".calls_per_op"] = (
            recorder.calls.get(layer, 0) / ops, "count")
        metrics[layer + ".self_us_per_op"] = (self_ns / 1000.0 / ops, "us")
        metrics[layer + ".self_share"] = (self_ns / traced_ns, "fraction")
    other = traced_ns - attributed - recorder.op_covered_ns
    metrics["other.self_us_per_op"] = (other / 1000.0 / ops, "us")
    metrics["other.self_share"] = (other / traced_ns, "fraction")
    metrics["trace.op_us"] = (traced_ns / 1000.0 / ops, "us")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["x11.transport.wait_us_per_op"] = (
        recorder.wait_ns / 1000.0 / ops, "us")
    metrics["tk.send.wait_vms_per_op"] = (counters["send.wait_ms"] / ops,
                                          "vms")
    metrics["tcl.compile.hit_ratio"] = (_ratio(
        counters["tcl.compile.hits"],
        counters["tcl.compile.hits"] + counters["tcl.compile.misses"]),
        "fraction")
    metrics["tk.cache.hit_ratio"] = (_ratio(
        counters["tk.cache.hits"],
        counters["tk.cache.hits"] + counters["tk.cache.misses"]),
        "fraction")
    metrics["x11.display.coalesce_ratio"] = (_ratio(
        counters["x11.batched"],
        counters["x11.batched"] + counters["x11.requests_coalesced"]),
        "fraction")
    metrics["tk.bind.fire_ratio"] = (_ratio(
        recorder.tally.get("tk.bind.fired", 0),
        recorder.calls.get("tk.bind", 0)), "fraction")
    metrics["x11.round_trips_per_op"] = (counters["x11.round_trips"] / ops,
                                         "count")
    metrics["x11.xserver.requests_per_op"] = (counters["x11.requests"] / ops,
                                              "count")
    metrics["x11.xserver.events_per_op"] = (
        recorder.tally.get("x11.xserver.events", 0) / ops, "count")
    metrics["tcl.errors_per_op"] = (recorder.errors.get("tcl", 0) / ops,
                                    "count")
    metrics["x11.xserver.errors_per_op"] = (
        recorder.errors.get("x11.xserver", 0) / ops, "count")
    metrics["tk.send.errors_per_op"] = (counters["send.errors"] / ops,
                                        "count")
    metrics["x11.faults.injected_per_op"] = (counters["x11.faults"] / ops,
                                             "count")
    return metrics


def traced_run(workload, seconds: float, instrumentation) -> tuple:
    """Alternate untraced and traced blocks; (traced phase, overhead,
    attempted, failed)."""
    recorder = instrumentation.recorder
    fleet = workload.name == "fleet_mix"
    traced = Phase()
    ratios = []
    attempted = failed = 0
    if not fleet:
        probe = Phase()
        run_ops(workload, probe, 3)
        attempted, failed = probe.ops, probe.failed
        block = max(1, int(BLOCK_SECONDS / statistics.median(
            probe.durations)))
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not ratios:
        pair = []
        for trace in (False, True):
            phase = traced if trace else Phase()
            mark = phase.ops
            if trace:
                instrumentation.install()
            try:
                if fleet:
                    run_fleet(workload, phase, recorder if trace else None)
                else:
                    run_ops(workload, phase, block,
                            recorder=recorder if trace else None)
            finally:
                if trace:
                    instrumentation.uninstall()
            pair.append(statistics.median(phase.durations[mark:]))
            attempted += phase.ops - mark
            if not trace:
                failed += phase.failed
        ratios.append(pair[1] / pair[0])
    failed += traced.failed
    return traced, statistics.median(ratios), attempted, failed


def report(workload: str, seed: int, trace: int, phase: Phase,
           setup_times, metrics: dict) -> None:
    print("perfbench: workload=%s seed=%d trace=%d ops=%d failed=%d "
          "setups=%s" % (workload, seed, trace, phase.ops, phase.failed,
                         ",".join("%.3f" % value for value in setup_times)))
    if not trace:
        beyond = phase.ops - int(0.95 * phase.ops)
        print("perfbench: op_ms.p95 over %d samples (%d beyond it)"
              % (phase.ops, beyond))
    for key in sorted(metrics):
        value, unit = metrics[key]
        print("  %-34s %14.6g %s" % (key, value, unit))


def run_all(root: str, args) -> int:
    """Run every workload ``BENCHMARK.json`` lists, one process each."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        names = [entry["name"] for entry in json.load(handle)["workloads"]]
    status = 0
    for name in names:
        status |= subprocess.run([
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--plant-pack-us", str(args.plant_pack_us)]).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-pack-us", type=float, default=0.0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return _die("no program sources under %s; run from the root of "
                    "a checkout" % src)
    for path in (HERE, src):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.workload == "all":
        return run_all(root, args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return _die("unknown workload %r (one of %s, or all)"
                    % (args.workload, ", ".join(WORKLOADS)))
    out_dir = os.path.join(root, ".perfbench")
    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    workload = None
    try:
        from layers import Instrumentation, SpanRecorder
        workload, setup_times = set_up(args.workload, args.seed, root,
                                       work_dir)
        fleet = args.workload == "fleet_mix"
        if args.trace:
            recorder = SpanRecorder()
            instrumentation = Instrumentation(recorder, args.plant_pack_us)
            phase, overhead, attempted, failed = traced_run(
                workload, args.seconds, instrumentation)
            metrics = per_layer(phase, recorder, overhead)
            recorder.write(os.path.join(
                out_dir, "spans-%s-seed%d.json" % (args.workload,
                                                   args.seed)))
        else:
            planted = Instrumentation(None, args.plant_pack_us)
            planted.install()
            try:
                phase = (timed_fleets if fleet else timed_ops)(
                    workload, args.seconds)
            finally:
                planted.uninstall()
            metrics = end_to_end(phase, setup_times)
            attempted, failed = phase.ops, phase.failed
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(work_dir, ignore_errors=True)
    report(args.workload, args.seed, args.trace, phase, setup_times,
           metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
