"""Fleet load-generation report and SLO gate.

Runs the seed-pinned reference fleet — 200 concurrent sessions on one
shared virtual clock: the golden journal, every regression journal
under ``tests/regress/``, fuzz scenarios derived from the master seed
as fill, and the synthetic slow session (a delay fault plan riding the
``send`` handshake) recording its own journal — then writes the
summary, the SLO table, and the top-N-slowest attribution to
``BENCH_fleet.json``.

Because every latency number is virtual milliseconds on the shared
clock, the dispatch percentiles, virtual-time totals, and session
outcomes are bit-identical run to run; only the wall-clock throughput
fields vary by machine.  The ``--check`` gate therefore verifies:

* every SLO in :data:`repro.fleet.DEFAULT_SLOS` holds (the virtual
  percentile bounds are exact; the throughput floors are loose);
* the slow session appears in the top-N-slowest report, attributed to
  its recorded journal;
* that journal replays standalone with an exact wire match — the
  outlier really is one ``--repro`` away from reproduction;
* no application is still alive on any cell server after the run
  (every session destroys the applications it built).

Usage::

    PYTHONPATH=src python benchmarks/fleet_report.py            # regenerate
    PYTHONPATH=src python benchmarks/fleet_report.py --check    # CI gate
    PYTHONPATH=src python benchmarks/fleet_report.py --check \
        --report-out fleet_top.txt                              # CI artifact
"""

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

from repro.fleet import FleetDriver  # noqa: E402
from repro.fleet.__main__ import build_specs, corpus_journals  # noqa: E402
from repro.obs.journal import Journal  # noqa: E402
from repro.obs.replay import replay_journal  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILE = os.path.join(ROOT, "BENCH_fleet.json")

#: The pinned reference configuration.  SESSIONS is the acceptance
#: floor (>=200 concurrent sessions); SEED pins the fuzz fill and the
#: scheduler's ping choices so the virtual timeline is reproducible.
SESSIONS = 200
SEED = 20260808
GOLDEN = os.path.join(ROOT, "examples", "golden.journal")
REGRESS_DIR = os.path.join(ROOT, "tests", "regress")
TOP = 10


def run_fleet(slow_journal, sessions=SESSIONS, seed=SEED):
    journals = [GOLDEN] + corpus_journals(REGRESS_DIR)
    specs = build_specs(sessions, seed, journals,
                        slow_journal=slow_journal)
    driver = FleetDriver(specs, seed=seed)
    return driver.run()


def slow_session_block(result, slow_journal, top=TOP):
    """Locate the slow session in the top-N and replay its journal."""
    rows = result.top_slowest(top)
    entry = next((row for row in rows if row["source"] == slow_journal),
                 None)
    replayed = replay_journal(Journal.load(slow_journal))
    return {
        "journal": slow_journal,
        "in_top": entry is not None,
        "rank": rows.index(entry) + 1 if entry is not None else None,
        "session": entry["session"] if entry else None,
        "virtual_ms": entry["virtual_ms"] if entry else None,
        "replay_matched": replayed.matched,
        "replay_requests": replayed.replayed_requests,
    }


def flight_on_breach(result, failures):
    """Write a fleet flight artifact when the SLO gate trips.

    Mirrors :meth:`repro.obs.core.Observability.flight_autodump`: a
    no-op unless ``REPRO_FLIGHT_DIR`` names a directory, and never
    raises — forensics must not mask the breach being reported.
    """
    from repro.obs.core import FLIGHT_DIR_ENV
    directory = os.environ.get(FLIGHT_DIR_ENV)
    if not directory:
        return None
    try:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "flight-slo-breach-%d.json"
                            % result.virtual_ms)
        with open(path, "w") as handle:
            json.dump({
                "kind": "fleet-flight",
                "reason": "slo-breach",
                "failures": failures,
                "virtual_ms": result.virtual_ms,
                "summary": result.summary(),
                "slos": result.slos(),
                "top_slowest": result.top_slowest(TOP),
                "metrics": result.registry.snapshot(),
            }, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path
    except OSError:
        return None


def check(result, slow) -> int:
    """The CI gate: SLOs + slow-session attribution + replayability
    + no leaked applications."""
    failures = ["SLO %s %s (value %s)"
                % (row["slo"], row["bound"], row["value"])
                for row in result.slos() if not row["ok"]]
    if not slow["in_top"]:
        failures.append("slow session missing from top-%d report" % TOP)
    if not slow["replay_matched"]:
        failures.append("slow-session journal did not replay matched")
    if result.live_apps:
        failures.append("%d application(s) still live on cell servers "
                        "after the run" % result.live_apps)
    if failures:
        print("FAIL:")
        for line in failures:
            print("  " + line)
        artifact = flight_on_breach(result, failures)
        if artifact:
            print("flight artifact: %s" % artifact)
        return 1
    print("OK: %d SLOs hold; slow session ranked #%s of top-%d and its "
          "journal replayed with an exact wire match (%d requests); "
          "no live applications left"
          % (len(result.slos()), slow["rank"], TOP,
             slow["replay_requests"]))
    return 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/fleet_report.py",
        description="fleet load-generation report and SLO gate")
    parser.add_argument("--check", action="store_true",
                        help="gate instead of writing BENCH_fleet.json")
    parser.add_argument("--sessions", type=int, default=SESSIONS)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--slow-journal", metavar="FILE",
                        help="where to record the slow session's "
                             "journal (default: a temp file)")
    parser.add_argument("--report-out", metavar="FILE",
                        help="also write the text report (top-N table "
                             "+ SLO verdicts) to FILE")
    args = parser.parse_args(argv)

    slow_journal = args.slow_journal or os.path.join(
        tempfile.mkdtemp(prefix="fleet-"), "slow.journal")
    result = run_fleet(slow_journal, sessions=args.sessions,
                       seed=args.seed)
    text = result.report(top=TOP)
    print(text)
    slow = slow_session_block(result, slow_journal)
    if args.report_out:
        with open(args.report_out, "w") as handle:
            handle.write(text + "\n")
        print("wrote %s" % args.report_out)
    if args.check:
        return check(result, slow)
    output = {
        "config": {
            "sessions": args.sessions,
            "seed": args.seed,
            "journals": ["examples/golden.journal"] + sorted(
                os.path.join("tests", "regress", name)
                for name in os.listdir(REGRESS_DIR)
                if name.endswith(".journal")),
            "cell_size": 4,
            "pump_budget": 64,
            "ping_every": 16,
        },
        "summary": result.summary(),
        "slos": result.slos(),
        "top_slowest": result.top_slowest(TOP),
        "slow_session": slow,
    }
    with open(BENCH_FILE, "w") as handle:
        json.dump(output, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % BENCH_FILE)
    return 0 if check(result, slow) == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
