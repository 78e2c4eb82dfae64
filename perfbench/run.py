"""The repository benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (see BENCHMARK.json);
with ``--trace 1`` they are the per-layer ones from a traced run.  The
exit code is nonzero, with no result line, when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for archives and traces, inside the checkout.
WORK = os.path.join(ROOT, ".perfbench-work")
#: The guide's rule for a p99: at least ten samples beyond it.
P99_MIN_SAMPLES = 1_000

END_TO_END_UNITS = {
    "search_qps": "1/s",
    "search_p50_ms": "ms",
    "search_p99_ms": "ms",
    "ingest_docs_per_s": "1/s",
    "ingest_p50_ms": "ms",
    "ingest_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "storage_bytes_per_doc_byte": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import plans

    workload = plans.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(plans.WORKLOADS)}", file=sys.stderr)
        return 2
    drift = plans.check_pinned(workload)
    if drift is not None:
        print(f"error: {drift}", file=sys.stderr)
        return 3
    plan = plans.make_plan(workload, args.seed)
    # The log is large; drop it so peak RSS in process is the engine's.
    plans.query_log.cache_clear()
    for name, value in plans.properties(plan).items():
        print(f"property {name} = {value:.6g}")

    if workload.served:
        import served as module
    else:
        import inproc as module
    workroot = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workroot, exist_ok=True)
    try:
        report = module.run(
            plan,
            seconds=args.seconds,
            trace=bool(args.trace),
            setups=workload.setups,
            workroot=workroot,
            spans_out=os.path.join(WORK, f"spans-{workload.name}.jsonl"),
            **({"src": SRC} if workload.served else {}),
        )
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    result = _result(report, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


def _result(report, trace: bool) -> dict:
    """Pool the run's windows and checks into the result line."""
    from layers import UNITS
    from loadgen import LoopResult, percentile

    loop = LoopResult.pooled(report["windows"])
    checks = report["checks"]
    checked = sum(c["oracle"][0] for c in checks)
    mismatches = sum(c["oracle"][1] for c in checks)
    acknowledged = sum(c["drain"][0] for c in checks)
    missing = sum(c["drain"][1] for c in checks)
    attempted = sum(loop.attempted.values()) + checked + acknowledged
    failed = sum(loop.failures.values()) + mismatches + missing
    for name, count in sorted(loop.failures.items()):
        print(f"failure {name} x{count}")
    for check in checks:
        for message in check["oracle"][2]:
            print(f"oracle mismatch: {message}")
        for message in check["drain"][2]:
            print(f"drain check: {message}")
    print(f"checks: {checked} searches replayed against the reference "
          f"({mismatches} mismatched); {acknowledged} acknowledged documents "
          f"checked after drain ({missing} failed)")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")

    if trace:
        metrics = {name: (report["layers"][name], unit) for name, unit in UNITS.items()}
    else:
        # Every set-up of a run serves the same kind of window, and the
        # run pools them.  The shared host has slow spells lasting
        # seconds, as long as a window or a preload, so a median over a
        # few windows jumps with how many of them a spell hit, where the
        # pooled value moves in proportion to the time it covered.
        searches = loop.latencies.get("search", [])
        if "ingest_latencies" in report:  # in process: the preload batches
            ingests = [x for run in report["ingest_latencies"] for x in run]
            ingest_rate = report["preload_docs"] * len(report["ingest_latencies"]) / sum(ingests)
        else:
            ingests = loop.latencies.get("ingest", [])
            ingest_rate = sum(c["run_docs"] for c in checks) / loop.wall
        for kind, values in (("search", searches), ("ingest", ingests)):
            note = "" if len(values) >= P99_MIN_SAMPLES else " (too few for a p99)"
            print(f"samples {kind} = {len(values)}{note}")
        median = statistics.median
        values = {
            "search_qps": len(searches) / loop.wall,
            "search_p50_ms": percentile(searches, 0.5) * 1e3,
            "search_p99_ms": percentile(searches, 0.99) * 1e3,
            "ingest_docs_per_s": ingest_rate,
            "ingest_p50_ms": percentile(ingests, 0.5) * 1e3,
            "ingest_p99_ms": percentile(ingests, 0.99) * 1e3,
            "setup_s": median(report["setup_times"]),
            "peak_rss_mb": median(c["peak_rss_mb"] for c in checks),
            "storage_bytes_per_doc_byte": (
                sum(c["stored_bytes"] for c in checks) / sum(c["doc_bytes"] for c in checks)
            ),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    return {
        "correct": mismatches == 0 and missing == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
