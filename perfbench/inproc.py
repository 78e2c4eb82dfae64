"""The in-process workload: one client calling a sharded engine directly.

One set-up is: create a journaled 2-shard legacy archive with jump
indexes, preload it in small batches (the batches are the workload's
ingest operations: the committing pipeline appending to jump-indexed
lists), and warm up with conjunctive searches.  The timed window walks
whole passes of the fixed conjunctive sequence, so every set-up runs
every query (and, traced, the work counts per query repeat exactly for
a seed).
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import time
from typing import Dict, List, Optional

from repro.cli import open_archive
from repro.observability import engine_metrics
from repro.search.engine import EngineConfig

import layers
import oracle
from loadgen import closed_loop, percentile
from plans import TOP_K, Plan
from probes import install_engine
from spans import Tracer


class InprocSetup:
    """One archive opened in this process."""

    def __init__(self, plan: Plan, workdir: str, tracer: Optional[Tracer] = None):
        self.plan = plan
        self.workdir = workdir
        self.tracer = tracer
        self.archive = os.path.join(workdir, "archive.worm")
        self.engine = self.handle = None
        self.batch_latencies: List[float] = []
        self.preload_window = (0.0, 0.0)
        self.preload_counters = ({}, {})
        self.setup_s = 0.0

    def start(self) -> None:
        """Init + preload + warm-up, timed as ``setup_s``."""
        workload = self.plan.workload
        started = time.perf_counter()
        os.makedirs(self.workdir, exist_ok=True)
        config = EngineConfig(
            num_lists=workload.num_lists,
            block_size=workload.block_size,
            branching=workload.branching,
        )
        self.engine, self.handle = open_archive(
            self.archive, create=config, shards=workload.shards
        )
        if self.tracer is not None:
            install_engine(self.tracer, self.engine, root=True)
            before = counters(self.engine)
        begin = time.perf_counter()
        for batch in self.plan.preload_batches():
            sent = time.perf_counter()
            self.engine.index_batch(batch)
            self.batch_latencies.append(time.perf_counter() - sent)
        self.preload_window = (begin, time.perf_counter())
        if self.tracer is not None:
            self.preload_counters = (before, counters(self.engine))
        for query in self.plan.warmup:
            self.engine.search(query, top_k=TOP_K)
        self.setup_s = time.perf_counter() - started

    def call(self, _kind: str, query: str):
        return self.engine.search(query, top_k=TOP_K)

    def close(self) -> int:
        """Close the archive; returns its bytes on disk."""
        self.handle.close()
        prefix = os.path.basename(self.archive)
        stored = sum(
            os.path.getsize(os.path.join(self.workdir, name))
            for name in os.listdir(self.workdir)
            if name.startswith(prefix)
        )
        shutil.rmtree(self.workdir, ignore_errors=True)
        return stored


def counters(engine) -> Dict[str, float]:
    return layers.counter_totals(engine_metrics(engine).snapshot())


#: Searches of the window the oracle replays after each window.
ORACLE_SAMPLE = 50


def _finish(setup: InprocSetup, loop) -> dict:
    """Answer a sample of the window's searches, then close the set-up.

    The reference engine is built only after every window (see
    :func:`_judge`), so it never adds to the measured peak RSS.
    """
    searched = [text for client in loop.completed for _, text, _ in client]
    sample = oracle.sample_queries(searched, ORACLE_SAMPLE, setup.plan.seed)
    answers = {
        query: [(hit.doc_id, hit.score) for hit in setup.engine.search(query, top_k=TOP_K)]
        for query in sample
    }
    return {
        "answers": answers,
        "drain": (0, 0, []),
        "run_docs": 0,
        "stored_bytes": setup.close(),
        "doc_bytes": sum(len(text.encode("utf-8")) for text in setup.plan.preload),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _judge(plan: Plan, checks: List[dict]) -> None:
    """Replay every set-up's sampled answers against the reference."""
    reference = oracle.build_reference(plan.preload)
    for check in checks:
        answers = check.pop("answers")
        mismatches, messages = oracle.run_oracle(
            answers.__getitem__, reference, list(answers), TOP_K
        )
        check["oracle"] = (len(answers), mismatches, messages)


def run(plan: Plan, *, seconds: float, trace: bool, setups: int, workroot: str,
        spans_out: str) -> Dict[str, object]:
    """One in-process run; returns the measurements the entry point reports.

    Untraced, the archive is set up ``setups`` times and each set-up
    walks whole passes of the sequence for about ``seconds / setups``,
    so every set-up runs the same operations and the run pools them.
    Traced, an untraced twin serves one window of ``seconds`` first (for
    ``trace_overhead_pct``), then a traced set-up walks whole passes of
    the sequence.
    """
    if not trace:
        report = {"windows": [], "checks": [], "setup_times": [], "ingest_latencies": []}
        for index in range(setups):
            setup = InprocSetup(plan, os.path.join(workroot, f"setup{index}"))
            setup.start()
            loop = closed_loop([setup.call], plan.ops, seconds / setups, cycle_whole=True)
            report["windows"].append(loop)
            report["checks"].append(_finish(setup, loop))
            report["setup_times"].append(setup.setup_s)
            report["ingest_latencies"].append(setup.batch_latencies)
            # Engines hold reference cycles; collect the closed one now so
            # it cannot add to the next set-up's peak RSS.
            gc.collect()
        report["preload_docs"] = len(plan.preload)
        _judge(plan, report["checks"])
        return report
    twin = InprocSetup(plan, os.path.join(workroot, "setup0"))
    twin.start()
    untraced = closed_loop([twin.call], plan.ops, seconds)
    twin.close()
    del twin
    gc.collect()
    tracer = Tracer()
    setup = InprocSetup(plan, os.path.join(workroot, "setup1"), tracer)
    setup.start()
    before = counters(setup.engine)
    loop = closed_loop([setup.call], plan.ops, seconds, cycle_whole=True)
    after = counters(setup.engine)
    tracer.uninstall()
    checks = _finish(setup, loop)
    _judge(plan, [checks])
    tracer.write(spans_out)
    spans = tracer.spans
    requests = layers.requests_within(spans, [setup.preload_window, (loop.begin, loop.end)])
    return {"windows": [loop], "checks": [checks], "layers": layers.layer_metrics(
        [s for s in spans if s.request in requests],
        {"sharding.search": "search", "sharding.index_batch": "ingest"},
        calls=tracer.calls,
        client_ms={
            "search": sum(loop.latencies.get("search", [])) * 1e3,
            "ingest": sum(setup.batch_latencies) * 1e3,
        },
        docs=len(plan.preload),
        search_counters=(before, after),
        doc_counters=setup.preload_counters,
        traced_p50_ms=percentile(loop.latencies.get("search", []), 0.5) * 1e3,
        untraced_p50_ms=percentile(untraced.latencies.get("search", []), 0.5) * 1e3,
    )}
