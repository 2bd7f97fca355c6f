"""Cross-transport distributed-tracing report and gate.

Replays the checked-in golden journal with tracing on, once over the
in-process loopback transport and once over a real socketpair, and
holds the tentpole promise of trace-context propagation to account:

* the replayed **wire journals are byte-identical** across transports
  (trace ids ride the frames without perturbing the journaled wire);
* the **span trees are structurally identical** — the same client
  issue → wire → server handle → reply causality, whether the frame
  crossed a function call or a socket;
* both traces actually contain **cross-boundary handle spans**
  (``link="wire"``), so the gate cannot pass vacuously.

The report side renders the per-transport critical-path breakdown
(client / queue / wire / handle / reply) quoted in EXPERIMENTS.md and
writes it to ``BENCH_trace.json``.

Usage::

    PYTHONPATH=src python benchmarks/trace_report.py           # regenerate
    PYTHONPATH=src python benchmarks/trace_report.py --check   # CI gate
"""

import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

from repro.obs import report as obs_report  # noqa: E402
from repro.obs.journal import Journal  # noqa: E402
from repro.obs.replay import _build_app, replay_journal  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "examples", "golden.journal")
BENCH_FILE = os.path.join(ROOT, "BENCH_trace.json")

TRANSPORTS = ("loopback", "socket")


def _traced_replay(journal: Journal, kind: str) -> dict:
    """One traced default-mode replay over ``kind``; returns the wire
    JSONL, the structural span forest, and the critical path."""
    header = journal.meta or {}
    tracers = []

    def setup(session):
        app = _build_app(session.server, header.get("name") or "replay",
                         header.get("script") or "", session.flags,
                         transport=session.transport)
        # Trace from the first replayed input on; spans stay readable
        # after app.destroy() deregisters the tracer.
        app.obs.tracer.start(wire=True)
        tracers.append(app.obs.tracer)
        return app

    result = replay_journal(journal, mode="default", setup=setup,
                            transport=kind)
    tracer = tracers[0]
    roots = obs_report.build_forest(
        [span.to_dict() for span in tracer.spans])
    handles = sum(1 for span in tracer.spans if span.kind == "xhandle")
    wires = sum(1 for span in tracer.spans if span.kind == "wire")
    return {
        "transport": kind,
        "matched": result.matched,
        "replay_report": result.report(),
        "wire_jsonl": result.replay_log.to_jsonl(),
        "spans": len(tracer.spans),
        "wire_spans": wires,
        "handle_spans": handles,
        "structure": obs_report.structure(roots),
        "critical_path": obs_report.critical_path(roots),
    }


def run_report() -> dict:
    journal = Journal.load(GOLDEN)
    runs = {kind: _traced_replay(journal, kind) for kind in TRANSPORTS}
    report = {
        "journal": os.path.relpath(GOLDEN, ROOT),
        "transports": {
            kind: {key: run[key] for key in
                   ("matched", "spans", "wire_spans", "handle_spans",
                    "critical_path")}
            for kind, run in runs.items()
        },
        "wire_identical": (runs["loopback"]["wire_jsonl"]
                           == runs["socket"]["wire_jsonl"]),
        "trees_identical": (runs["loopback"]["structure"]
                            == runs["socket"]["structure"]),
    }
    for kind in TRANSPORTS:
        run = runs[kind]
        print("trace[%s]: %d spans (%d wire, %d handle), replay %s"
              % (kind, run["spans"], run["wire_spans"],
                 run["handle_spans"],
                 "MATCH" if run["matched"] else "DIVERGED"))
        print("  " + obs_report.format_critical_path(
            run["critical_path"]).replace("\n", "\n  "))
    report["_runs"] = runs
    return report


def check(report: dict) -> int:
    status = 0
    for kind in TRANSPORTS:
        stats = report["transports"][kind]
        if not stats["matched"]:
            print("FAIL: traced %s replay diverged from the recording"
                  % kind)
            print(report["_runs"][kind]["replay_report"])
            status = 1
        if not stats["handle_spans"]:
            print("FAIL: %s trace has no cross-boundary handle spans"
                  % kind)
            status = 1
    if not report["wire_identical"]:
        print("FAIL: replayed wire journals differ across transports")
        status = 1
    if not report["trees_identical"]:
        print("FAIL: span trees differ loopback vs socket")
        loop = report["_runs"]["loopback"]["structure"]
        sock = report["_runs"]["socket"]["structure"]
        for index, (left, right) in enumerate(zip(loop, sock)):
            if left != right:
                print("  first differing root #%d:" % index)
                print("    loopback: %s" % json.dumps(left,
                                                      sort_keys=True)[:400])
                print("    socket:   %s" % json.dumps(right,
                                                      sort_keys=True)[:400])
                break
        status = 1
    if status == 0:
        loop = report["transports"]["loopback"]
        print("OK: wire journals byte-identical and span trees "
              "structurally identical across transports "
              "(%d spans, %d server handle spans)"
              % (loop["spans"], loop["handle_spans"]))
    return status


def main(argv) -> int:
    checking = "--check" in argv
    report = run_report()
    status = check(report)
    report.pop("_runs")
    if checking:
        return status
    if status:
        return status
    with open(BENCH_FILE, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % BENCH_FILE)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
