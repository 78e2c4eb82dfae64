"""Shard failures during query fan-out.

A query runs every shard in order, inline; when one shard raises, the
executor must not run any later shard, must preserve the exception type
(``TamperDetectedError`` handling upstream depends on it), and must
attach the failing shard's index.
"""

import pytest

from repro.errors import TamperDetectedError
from repro.search.engine import EngineConfig
from repro.sharding import ShardedSearchEngine

CONFIG = EngineConfig(num_lists=16, block_size=4096, branching=None)


@pytest.fixture()
def engine():
    engine = ShardedSearchEngine(CONFIG, num_shards=3)
    for i in range(12):
        engine.index_document(f"compliance memo number{i} shared")
    with engine:
        yield engine


class TestShardFailurePropagation:
    def test_exception_carries_failing_shard_index(self, engine):
        def boom(query):
            raise RuntimeError("disk gone")

        engine.shards[1].match = boom
        with pytest.raises(RuntimeError, match="disk gone") as excinfo:
            engine.search("shared", verify=False)
        assert excinfo.value.shard_index == 1

    def test_exception_type_is_preserved(self, engine):
        def tampered(query):
            raise TamperDetectedError(
                "posting list CRC mismatch",
                location="shard 2",
                invariant="posting-crc",
            )

        engine.shards[2].match = tampered
        # Callers catching TamperDetectedError specifically (incident
        # handling, audits) must keep working across the fan-out.
        with pytest.raises(TamperDetectedError) as excinfo:
            engine.search("shared", verify=False)
        assert excinfo.value.shard_index == 2
        assert excinfo.value.invariant == "posting-crc"

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_later_shards_never_match(self, engine, failing):
        calls = []
        for index, shard in enumerate(engine.shards):
            original = shard.match

            def recording(query, *, _index=index, _original=original, **kw):
                calls.append(_index)
                if _index == failing:
                    raise RuntimeError(f"shard {_index} down")
                return _original(query, **kw)

            shard.match = recording
        with pytest.raises(RuntimeError) as excinfo:
            engine.search("shared", verify=False)
        assert excinfo.value.shard_index == failing
        assert calls == list(range(failing + 1))

    def test_healthy_queries_still_work_after_a_failure(self, engine):
        original = engine.shards[1].match

        def flaky(query):
            raise RuntimeError("transient")

        engine.shards[1].match = flaky
        with pytest.raises(RuntimeError):
            engine.search("shared", verify=False)
        engine.shards[1].match = original
        results = engine.search("shared", verify=False, top_k=20)
        assert len(results) == 12

    def test_single_shard_engine_raises_without_pool(self):
        engine = ShardedSearchEngine(CONFIG, num_shards=1)
        engine.index_document("solo doc")

        def boom(query):
            raise RuntimeError("no pool involved")

        engine.shards[0].match = boom
        with engine, pytest.raises(RuntimeError, match="no pool involved") as exc:
            engine.search("doc", verify=False)
        assert exc.value.shard_index == 0
