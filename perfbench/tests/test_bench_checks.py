"""The benchmark's own checks catch the defects they exist for.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import open_archive
from repro.search.engine import EngineConfig
from repro.sharding.engine import ShardedSearchEngine

import inproc
import oracle
import plans
from layers import UNITS

QUERIES = ["shredding memo", "imclone trading", "stewart", "audit memo trading"]
DOCS = [
    "imclone trading memo for stewart",
    "shredding memo audit trail",
    "stewart and waksal trading imclone shares",
    "quarterly audit memo",
    "trading desk audit",
    "memo on memo shredding",
] * 5


@pytest.fixture(scope="module")
def engines():
    sharded = ShardedSearchEngine(EngineConfig(num_lists=16, block_size=4096), num_shards=2)
    sharded.index_batch(DOCS)
    yield sharded, oracle.build_reference(DOCS)
    sharded.close()


def _answer(engine, query):
    return [(hit.doc_id, hit.score) for hit in engine.search(query, top_k=plans.TOP_K)]


def test_oracle_accepts_sharded_answers(engines):
    sharded, reference = engines
    mismatches, messages = oracle.run_oracle(
        lambda q: _answer(sharded, q), reference, QUERIES, plans.TOP_K
    )
    assert (mismatches, messages) == (0, [])


def test_oracle_flags_a_removed_committed_document(engines):
    sharded, reference = engines
    for query in QUERIES:
        got = _answer(sharded, query)
        deep = oracle.reference_results(reference, query, plans.TOP_K)
        for dropped in range(len(got)):
            assert oracle.compare(got[:dropped] + got[dropped + 1 :], deep, plans.TOP_K)


def test_oracle_accepts_a_tie_resolved_differently_at_rank_k():
    deep = [(0, 3.0), (1, 2.0), (2, 1.0), (3, 1.0)]
    assert oracle.compare([(0, 3.0), (1, 2.0), (3, 1.0)], deep, 3) is None
    assert oracle.compare([(0, 3.0), (1, 2.0 + 1e-15), (2, 1.0)], deep, 3) is None
    assert oracle.compare([(0, 3.0), (2, 1.0), (3, 1.0)], deep, 3) is not None


def test_drain_check_flags_a_missing_acknowledged_id(tmp_path):
    archive = str(tmp_path / "archive.worm")
    engine, handle = open_archive(
        archive, create=EngineConfig(num_lists=16, block_size=512, branching=None), shards=2
    )
    ids = engine.index_batch(DOCS[:6])
    handle.close()
    acknowledged = dict(zip(ids, DOCS[:6]))
    assert oracle.drain_check(archive, acknowledged) == (0, [])
    acknowledged[max(ids) + 1] = "acknowledged but never committed"
    failures, messages = oracle.drain_check(archive, acknowledged)
    assert failures == 1
    assert "missing" in messages[0]


def test_inproc_work_counts_repeat_exactly(tmp_path):
    workload = dataclasses.replace(
        plans.WORKLOADS["inproc-conjunctive"],
        preload_docs=400,
        preload_batch=50,
        conjunctive_queries=40,
        warmup_queries=5,
    )
    plan = plans.make_plan(workload, seed=7)
    counted = [
        name
        for name in UNITS
        if name.startswith("core.") and name.endswith("_per_query")
    ] + ["search.candidates_per_query", "worm.block_reads_per_query"]
    runs = []
    for attempt in range(2):
        report = inproc.run(
            plan,
            seconds=0.05 * (attempt + 1),  # different lengths, same whole passes
            trace=True,
            setups=1,
            workroot=str(tmp_path / f"run{attempt}"),
            spans_out=str(tmp_path / f"spans{attempt}.jsonl"),
        )
        assert report["checks"][0]["oracle"][1] == 0
        runs.append({name: report["layers"][name] for name in counted})
    assert runs[0] == runs[1]
    assert runs[0]["core.join_seeks_per_query"] > 0
    assert runs[0]["worm.block_reads_per_query"] > 0

