"""The shard query kernel: top-k selection equals a cut of the full ranking.

:func:`repro.sharding.executor.shard_query` scores every candidate but
materialises only the ``top_k`` winners of each shard under the global
order ``(-score, global_id)``.  Cutting early must never change a
result: ``search(q, top_k=k)`` equals the first ``k`` results of an
uncut search, scores included, on the single engine and on both
executors — also when candidates tie at rank ``k``, and when the tie is
between real documents and stuffed postings, whose negative synthetic
global IDs order differently from their shard-local IDs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.attacks import posting_stuffing_attack
from repro.cli import open_archive
from repro.observability.trace import QueryTrace
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.sharding import ShardedSearchEngine

ALL = 10**6
TOP_KS = (1, 3, 10)
VOCABULARY = ["evidence", "memo", "trade", "audit", "filed"]

CONFIG = EngineConfig(num_lists=16, block_size=4096, branching=None)


def assert_cuts_agree(engine, queries):
    for query in queries:
        full = engine.search(query, top_k=ALL, verify=False)
        for k in TOP_KS:
            assert engine.search(query, top_k=k, verify=False) == full[:k], (
                query,
                k,
            )


documents = st.lists(
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=4).map(
        " ".join
    ),
    min_size=1,
    max_size=30,
)
queries = st.lists(
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=3).map(
        " ".join
    ),
    min_size=1,
    max_size=4,
)


class TestTopKIsAPrefix:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        texts=documents,
        query_texts=queries,
        ranking=st.sampled_from(["bm25", "cosine"]),
        conjunctive=st.booleans(),
        num_shards=st.integers(min_value=1, max_value=3),
    )
    def test_single_and_thread_executor(
        self, texts, query_texts, ranking, conjunctive, num_shards
    ):
        config = EngineConfig(
            num_lists=16, block_size=4096, branching=None, ranking=ranking
        )
        if conjunctive:
            query_texts = [
                " ".join(f"+{term}" for term in q.split()) for q in query_texts
            ]
        single = TrustworthySearchEngine(config)
        for text in texts:
            single.index_document(text)
        assert_cuts_agree(single, query_texts)
        with ShardedSearchEngine(config, num_shards=num_shards) as sharded:
            sharded.index_batch(texts)
            assert_cuts_agree(sharded, query_texts)


def stuff(sharded, shard_index, term, count):
    """Append ``count`` postings for ``term`` to one shard, all naming
    local IDs past the shard's last committed document."""
    shard = sharded.shards[shard_index]
    term_id = shard.term_id(term)
    posting_list = shard._lists[shard._list_id_for(term_id)]
    return posting_stuffing_attack(
        posting_list, term_id, count=count,
        first_fake_doc_id=len(shard.documents),
    )


def build_stuffed_archive(path, ranking):
    """A 2-shard archive with one-word documents and stuffed postings.

    Under cosine ranking the two tie: both have length <= 1 and tf 1, so
    both score ``idf / sqrt(1)``.
    """
    config = EngineConfig(
        num_lists=16, block_size=4096, branching=None, ranking=ranking
    )
    engine, handle = open_archive(path, create=config, shards=2)
    engine.index_batch(
        ["evidence"] * 6
        + ["evidence memo", "evidence memo filed", "memo filed", "audit"]
    )
    for shard_index in range(2):
        stuff(engine, shard_index, "evidence", 3)
    handle.close()
    return path


@pytest.fixture
def stuffed_archive(tmp_path):
    return build_stuffed_archive(str(tmp_path / "stuffed.worm"), "cosine")


class TestStuffedTies:
    QUERIES = ["evidence", "evidence memo", "memo audit"]

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_stuffed_postings_tie_at_rank_k(self, stuffed_archive, executor):
        engine, handle = open_archive(stuffed_archive, executor=executor)
        try:
            full = engine.search("evidence", top_k=ALL, verify=False)
            fakes = [r for r in full if r.doc_id < 0]
            assert len(fakes) == 6
            # The fakes tie with the one-word documents and, having the
            # smallest global IDs, win every tie.
            assert {r.score for r in full[:12]} == {full[0].score}
            assert full[:6] == sorted(fakes, key=lambda r: r.doc_id)
            assert_cuts_agree(engine, self.QUERIES)
        finally:
            handle.close()

    @pytest.mark.parametrize("ranking", ["cosine", "bm25"])
    def test_executors_agree_on_every_cut(self, tmp_path, ranking):
        path = build_stuffed_archive(str(tmp_path / "stuffed.worm"), ranking)
        thread_engine, thread_handle = open_archive(path)
        process_engine, process_handle = open_archive(path, executor="process")
        try:
            for query in self.QUERIES:
                for k in (*TOP_KS, ALL):
                    assert process_engine.search(
                        query, top_k=k, verify=False
                    ) == thread_engine.search(query, top_k=k, verify=False)
        finally:
            process_handle.close()
            thread_handle.close()


class TestShardSpan:
    def test_shard_span_notes_scored_and_kept(self):
        with ShardedSearchEngine(CONFIG, num_shards=2) as sharded:
            sharded.index_batch([f"evidence doc{i}" for i in range(20)])
            trace = QueryTrace("evidence")
            results = sharded.search("evidence", top_k=3, trace=trace)
        shards = [s for s in trace.spans if s.name == "shard"]
        assert sum(s.attrs["scored"] for s in shards) == 20
        assert all(s.attrs["kept"] == 3 for s in shards)
        assert all(s.attrs["queue_seconds"] == 0.0 for s in shards)
        assert len(results) == 3
        # Each shard's own stages nest under its shard span.
        ranks = [s for s in trace.spans if s.name == "rank"]
        assert sorted(trace.spans[s.parent].name for s in ranks) == [
            "shard",
            "shard",
        ]

    def test_rank_stage_histogram_per_shard(self):
        with ShardedSearchEngine(CONFIG, num_shards=2) as sharded:
            sharded.index_batch([f"evidence doc{i}" for i in range(20)])
            sharded.search("evidence", top_k=3)
            snapshot = sharded.metrics.snapshot()
        series = snapshot["repro_query_stage_seconds"]["series"]
        ranked = {
            s["labels"]["shard"]: s["count"]
            for s in series
            if s["labels"]["stage"] == "rank"
        }
        assert ranked == {"0": 1, "1": 1}
        queued = snapshot["repro_shard_queue_seconds"]["series"]
        assert queued == []  # inline shards never wait for a worker
