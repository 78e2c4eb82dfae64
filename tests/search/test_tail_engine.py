"""Integration tests for the write–read decoupled (tail-mode) engine.

The contract under test: with ``tail_max_docs`` set, ingest lands in
the in-memory tail, a sealer freezes it into immutable WORM segments,
and a merger compacts segments online — and none of that is observable
through the query API except as speed.  Every test here compares a
tail-mode engine against a legacy synchronous engine over the same
corpus, including across restarts, dispositions, and simulated crashes
at every WAL stage of a seal.
"""

from dataclasses import replace

import pytest

from repro.errors import WorkloadError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.worm.faults import (
    FaultInjectingWormDevice,
    FaultPlan,
    SimulatedCrashError,
)
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore
from tests.helpers import DEFAULT_CORPUS

LEGACY = EngineConfig(num_lists=32, branching=4, retention_period=100)
QUERIES = [
    "imclone finance",
    "stewart waksal imclone",
    "+stewart +waksal +imclone",
    "+quarterly +finance",
    "quarterly revenue @1..4",
    "nonexistentterm",
]


def tail_config(**kwargs) -> EngineConfig:
    defaults = dict(tail_max_docs=3, merge_at_segments=None)
    defaults.update(kwargs)
    return replace(LEGACY, **defaults)


def results(engine, query, top_k=20):
    return [(r.doc_id, r.score) for r in engine.search(query, top_k=top_k)]


def assert_equivalent(tail_engine, legacy_engine, queries=QUERIES):
    for query in queries:
        assert results(tail_engine, query) == results(
            legacy_engine, query
        ), f"diverged on {query!r}"


def build_pair(tail_cfg, texts=DEFAULT_CORPUS):
    tail_engine = TrustworthySearchEngine(tail_cfg)
    legacy_engine = TrustworthySearchEngine(LEGACY)
    for text in texts:
        tail_engine.index_document(text)
        legacy_engine.index_document(text)
    return tail_engine, legacy_engine


class TestConfigValidation:
    def test_tail_max_docs_positive(self):
        with pytest.raises(WorkloadError):
            EngineConfig(tail_max_docs=0)

    def test_strategy_known(self):
        with pytest.raises(WorkloadError):
            EngineConfig(tail_max_docs=4, seal_strategy="zipf")

    def test_merge_threshold_sane(self):
        with pytest.raises(WorkloadError):
            EngineConfig(tail_max_docs=4, merge_at_segments=1)

    def test_popular_terms_non_negative(self):
        with pytest.raises(WorkloadError):
            EngineConfig(tail_max_docs=4, seal_popular_terms=-1)

    def test_tail_ops_refused_when_disabled(self):
        engine = TrustworthySearchEngine(LEGACY)
        assert not engine.tail_enabled
        with pytest.raises(WorkloadError):
            engine.seal_tail()


class TestEquivalence:
    @pytest.mark.parametrize(
        "cfg",
        [
            tail_config(),                                   # auto-seal
            tail_config(tail_max_docs=100),                  # all in tail
            tail_config(tail_max_docs=2, merge_at_segments=2),
            tail_config(
                tail_max_docs=2,
                seal_strategy="popular",
                seal_popular_terms=2,
            ),
            tail_config(tail_max_docs=2, seal_strategy="epoch"),
            tail_config(branching=None),                     # no jump index
        ],
        ids=[
            "auto-seal",
            "tail-only",
            "auto-merge",
            "popular",
            "epoch",
            "no-jump",
        ],
    )
    def test_byte_identical_results(self, cfg):
        tail_engine, legacy_engine = build_pair(cfg)
        assert_equivalent(tail_engine, legacy_engine)

    def test_manual_seal_and_merge_mid_stream(self):
        tail_engine, legacy_engine = build_pair(tail_config(tail_max_docs=100))
        assert tail_engine.seal_tail() is not None
        assert_equivalent(tail_engine, legacy_engine)
        extra = ["zebra memo for the archive", "finance zebra closing"]
        for text in extra:
            tail_engine.index_document(text)
            legacy_engine.index_document(text)
        tail_engine.seal_tail()
        assert tail_engine.merge_segments() is not None
        assert_equivalent(tail_engine, legacy_engine, QUERIES + ["zebra"])

    def test_empty_seal_and_single_segment_merge_are_noops(self):
        engine = TrustworthySearchEngine(tail_config(tail_max_docs=100))
        assert engine.seal_tail() is None
        engine.index_document("one document only")
        engine.seal_tail()
        assert engine.merge_segments() is None  # needs >= 2 live segments

    def test_dispositions_span_segments_and_tail(self):
        tail_engine = TrustworthySearchEngine(
            tail_config(tail_max_docs=2, retention_period=3)
        )
        legacy_engine = TrustworthySearchEngine(
            replace(LEGACY, retention_period=3)
        )
        for text in DEFAULT_CORPUS:
            tail_engine.index_document(text)
            legacy_engine.index_document(text)
        for engine in (tail_engine, legacy_engine):
            engine.dispose_expired(now=5)  # expires the earliest docs
        assert_equivalent(tail_engine, legacy_engine)
        assert tail_engine.retention.is_disposed(0)

    def test_incident_handling_on_tail_engine(self):
        tail_engine, _ = build_pair(tail_config())
        hits, report = tail_engine.search_with_incident_handling("imclone")
        assert report.ok and hits

    def test_segments_info_shape(self):
        tail_engine, _ = build_pair(tail_config(tail_max_docs=2))
        info = tail_engine.segments_info()
        assert info["tail_enabled"]
        assert info["tail_docs"] + sum(
            seg["doc_count"] for seg in info["segments"]
        ) == len(DEFAULT_CORPUS)
        ranges = [(s["first_doc"], s["last_doc"]) for s in info["segments"]]
        assert ranges == sorted(ranges)  # disjoint ascending

    def test_archive_stats_counts_tail_and_segments(self):
        tail_engine, legacy_engine = build_pair(tail_config(tail_max_docs=4))
        stats = tail_engine.archive_stats()
        assert stats["segments_live"] >= 1
        assert stats["tail_docs"] == tail_engine._tail.doc_count
        # Total postings match the legacy layout (same documents).
        assert stats["postings"] == legacy_engine.archive_stats()["postings"]


class TestRestartRecovery:
    def open(self, path, cfg):
        device = JournaledWormDevice(path, block_size=4096)
        return TrustworthySearchEngine(
            cfg, store=CachedWormStore(None, device=device)
        )

    def test_tail_docs_recover_from_wal_logs(self, tmp_path):
        path = str(tmp_path / "arch.worm")
        cfg = tail_config(tail_max_docs=4)
        engine = self.open(path, cfg)
        legacy_engine = TrustworthySearchEngine(LEGACY)
        for text in DEFAULT_CORPUS:
            engine.index_document(text)
            legacy_engine.index_document(text)
        assert engine._tail.doc_count == 2  # docs 4, 5 unsealed
        engine.store.device.close()

        reopened = self.open(path, cfg)
        # The unsealed docs were never written to posting lists, yet
        # they recover: the tail is derived from the journaled document
        # and lexicon logs.
        assert reopened._tail.doc_count == 2
        before, after = engine.segments_info(), reopened.segments_info()
        # The generation counter is process-local (it versions in-process
        # result-cache fingerprints), so it restarts at zero.
        before.pop("tail_generation"), after.pop("tail_generation")
        assert after == before
        assert_equivalent(reopened, legacy_engine)
        reopened.store.device.close()

    def test_ingest_continues_after_restart(self, tmp_path):
        path = str(tmp_path / "arch.worm")
        cfg = tail_config(tail_max_docs=3)
        engine = self.open(path, cfg)
        legacy_engine = TrustworthySearchEngine(LEGACY)
        for text in DEFAULT_CORPUS:
            engine.index_document(text)
            legacy_engine.index_document(text)
        engine.store.device.close()

        reopened = self.open(path, cfg)
        extra = ["zebra after restart", "another zebra entry"]
        for text in extra:
            reopened.index_document(text)
            legacy_engine.index_document(text)
        assert_equivalent(reopened, legacy_engine, QUERIES + ["zebra"])
        reopened.store.device.close()


class TestSealCrashRecovery:
    """Power loss at any WAL stage of any seal write loses nothing.

    A seal writes the segment's posting lists (``create`` + ``append``
    ops) and then commits one manifest record (the atomic step).  The
    sweep below crashes at every counted fault point of the whole seal,
    in both WAL stages, and proves each crash recovers to an engine that
    answers exactly like an uncrashed reference — with the interrupted
    seal either fully invisible (pre-manifest) or fully applied
    (post-manifest), never half-visible.
    """

    CFG = tail_config(tail_max_docs=100, branching=None, block_size=512)

    def prepare(self, path):
        device = JournaledWormDevice(path, block_size=512)
        engine = TrustworthySearchEngine(
            self.CFG, store=CachedWormStore(None, device=device)
        )
        for text in DEFAULT_CORPUS:
            engine.index_document(text)
        device.close()

    def count_seal_ops(self, tmp_path):
        """Dry-run a seal under counting (no faults armed)."""
        path = str(tmp_path / "dry.worm")
        self.prepare(path)
        plan = FaultPlan()
        device = FaultInjectingWormDevice(path, plan=plan, block_size=512)
        engine = TrustworthySearchEngine(
            self.CFG, store=CachedWormStore(None, device=device)
        )
        assert engine.seal_tail() is not None
        device.close()
        # WAL points are counted per "op:stage"; each op passes both
        # stages, so either stage's count is the op's call total.
        return {
            op: plan.count(f"{op}:between-log-and-apply")
            for op in ("create", "append")
            if plan.count(f"{op}:between-log-and-apply")
        }

    def test_crash_sweep_over_every_seal_write(self, tmp_path):
        reference = TrustworthySearchEngine(self.CFG)
        for text in DEFAULT_CORPUS:
            reference.index_document(text)

        ops = self.count_seal_ops(tmp_path)
        assert ops["create"] >= 1 and ops["append"] >= 2
        cases = [
            (op, stage, call)
            for op, total in sorted(ops.items())
            for call in range(1, total + 1)
            for stage in ("between-log-and-apply", "after-apply")
        ]
        assert len(cases) > 10  # the sweep is real, not a single point
        for op, stage, call in cases:
            path = str(tmp_path / f"{op}-{stage}-{call}.worm")
            self.prepare(path)
            plan = FaultPlan().crash(f"{op}:{stage}", on_call=call)
            device = FaultInjectingWormDevice(path, plan=plan, block_size=512)
            engine = TrustworthySearchEngine(
                self.CFG, store=CachedWormStore(None, device=device)
            )
            with pytest.raises(SimulatedCrashError):
                engine.seal_tail()
            device.close()

            recovered_device = JournaledWormDevice(path, block_size=512)
            recovered = TrustworthySearchEngine(
                self.CFG,
                store=CachedWormStore(None, device=recovered_device),
            )
            # No acknowledged document is lost, and results are exactly
            # the reference's, whether or not the manifest committed.
            assert_equivalent(recovered, reference)
            # The archive remains fully operational: seal whatever is
            # still tail-resident (a no-op if the crashed seal already
            # committed) and burn, never reuse, orphan segment numbers.
            manifest_before = recovered.segments_info()["manifest_records"]
            seg_no = recovered.seal_tail()
            if manifest_before == 0:
                assert seg_no is not None
            assert_equivalent(recovered, reference)
            recovered_device.close()

    def test_post_crash_orphans_do_not_leak_into_queries(self, tmp_path):
        """An orphaned (manifest-less) segment must stay invisible."""
        path = str(tmp_path / "orphan.worm")
        self.prepare(path)
        # Crash after all list data but before the manifest record.  The
        # final append of a seal is the manifest commit — and a logged
        # append survives the crash via WAL replay — so to leave a true
        # orphan, die right after the *last list* append applied, before
        # the manifest append is even logged.
        ops = self.count_seal_ops(tmp_path)
        plan = FaultPlan().crash(
            "append:after-apply", on_call=ops["append"] - 1
        )
        device = FaultInjectingWormDevice(path, plan=plan, block_size=512)
        engine = TrustworthySearchEngine(
            self.CFG, store=CachedWormStore(None, device=device)
        )
        with pytest.raises(SimulatedCrashError):
            engine.seal_tail()
        device.close()

        recovered_device = JournaledWormDevice(path, block_size=512)
        recovered = TrustworthySearchEngine(
            self.CFG, store=CachedWormStore(None, device=recovered_device)
        )
        info = recovered.segments_info()
        assert info["manifest_records"] == 0 and not info["segments"]
        assert info["tail_docs"] == len(DEFAULT_CORPUS)
        # Orphan list files exist on WORM but the next seal skips their
        # segment number.
        new_seg = recovered.seal_tail()
        assert new_seg is not None and new_seg >= 1
        recovered_device.close()


class TestSizeTieredMerge:
    """Auto-merge compacts the trailing run of one size tier at a time.

    With ``tail_max_docs=1`` and ``merge_at_segments=2`` every seal holds
    one document and two same-tier segments merge at once, so the live
    segment sizes after ``n`` documents are exactly the binary digits of
    ``n`` — a seal can cascade through several tiers.
    """

    CFG = tail_config(tail_max_docs=1, merge_at_segments=2)
    TEXTS = DEFAULT_CORPUS * 3

    def test_cascade_keeps_one_segment_per_tier(self):
        tail_engine = TrustworthySearchEngine(self.CFG)
        legacy_engine = TrustworthySearchEngine(LEGACY)
        for n, text in enumerate(self.TEXTS, start=1):
            tail_engine.index_document(text)
            legacy_engine.index_document(text)
            sizes = [s.info.doc_count for s in tail_engine.iter_segments()]
            binary = [1 << b for b in reversed(range(n.bit_length())) if n >> b & 1]
            assert sizes == binary, n
            tiers = [tail_engine._size_tier(size) for size in sizes]
            # at most merge_at_segments - 1 live segments per tier
            assert len(set(tiers)) == len(tiers)
            assert_equivalent(tail_engine, legacy_engine)

    def test_explicit_merge_still_merges_everything(self):
        tail_engine, legacy_engine = build_pair(self.CFG, self.TEXTS)
        assert len(tail_engine.iter_segments()) == 2  # 18 = 16 + 2
        assert tail_engine.merge_segments() is not None
        (merged,) = tail_engine.iter_segments()
        assert merged.info.doc_count == len(self.TEXTS)
        assert_equivalent(tail_engine, legacy_engine)

    def test_merges_retire_block_cache_keys(self):
        tail_engine, _ = build_pair(self.CFG, self.TEXTS)
        live = {
            name
            for segment in tail_engine.iter_segments()
            for name in segment.list_file_names()
        }
        cached = {name for name, _ in tail_engine.store.cache._resident}
        segment_files = {n for n in cached if n.startswith("engine/seg/")}
        assert segment_files <= live


class TestCascadeCrashRecovery:
    """A crash anywhere in a seal that cascades into two merges.

    Seven documents under ``tail_max_docs=2, merge_at_segments=2`` leave
    segments of 4 and 2 documents plus one tail document; sealing it
    gives 4 + 2 + 1, merges the trailing 2 + 1 into 3 (tier 1, like the
    4) and then 4 + 3 into 7.  Each of the three manifest appends is an
    atomic step, so a crash recovers to one of the four layouts in
    between, always answering like the uncrashed reference.
    """

    CFG = tail_config(
        tail_max_docs=2, merge_at_segments=2, branching=None, block_size=512
    )
    TEXTS = DEFAULT_CORPUS + ["zebra memo for the finance archive"]
    LAYOUTS = ([4, 2], [4, 2, 1], [4, 3], [7])

    def open(self, device):
        return TrustworthySearchEngine(
            self.CFG, store=CachedWormStore(None, device=device)
        )

    def prepare(self, path):
        device = JournaledWormDevice(path, block_size=512)
        engine = self.open(device)
        for text in self.TEXTS:
            engine.index_document(text)
        assert [s.info.doc_count for s in engine.iter_segments()] == [4, 2]
        device.close()

    def count_seal_ops(self, tmp_path):
        path = str(tmp_path / "dry.worm")
        self.prepare(path)
        plan = FaultPlan()
        device = FaultInjectingWormDevice(path, plan=plan, block_size=512)
        engine = self.open(device)
        engine.seal_tail()
        assert [s.info.doc_count for s in engine.iter_segments()] == [7]
        # three seals and a merge before, a seal and two merges now
        assert engine.segments_info()["manifest_records"] == 4 + 3
        device.close()
        return {
            op: plan.count(f"{op}:between-log-and-apply")
            for op in ("create", "append")
        }

    def test_crash_sweep_over_a_cascading_seal(self, tmp_path):
        reference = TrustworthySearchEngine(self.CFG)
        for text in self.TEXTS:
            reference.index_document(text)
        queries = QUERIES + ["zebra"]

        ops = self.count_seal_ops(tmp_path)
        cases = [
            (op, stage, call)
            for op, total in sorted(ops.items())
            for call in range(1, total + 1)
            for stage in ("between-log-and-apply", "after-apply")
        ]
        assert len(cases) > 100  # three commits' worth of list writes
        seen = set()
        for op, stage, call in cases:
            path = str(tmp_path / f"{op}-{stage}-{call}.worm")
            self.prepare(path)
            plan = FaultPlan().crash(f"{op}:{stage}", on_call=call)
            device = FaultInjectingWormDevice(path, plan=plan, block_size=512)
            with pytest.raises(SimulatedCrashError):
                self.open(device).seal_tail()
            device.close()

            recovered_device = JournaledWormDevice(path, block_size=512)
            recovered = self.open(recovered_device)
            layout = [s.info.doc_count for s in recovered.iter_segments()]
            assert layout in self.LAYOUTS, (op, stage, call)
            seen.add(tuple(layout))
            assert_equivalent(recovered, reference, queries)
            # The archive keeps working: the next seal finishes the
            # interrupted cascade's work as ordinary tiered merging.
            extra = "zebra closing memo"
            recovered.index_document(extra)
            recovered.seal_tail()
            reference_after = TrustworthySearchEngine(self.CFG)
            for text in self.TEXTS + [extra]:
                reference_after.index_document(text)
            assert_equivalent(recovered, reference_after, queries)
            recovered_device.close()
        # The sweep crossed every commit point of the cascade.
        assert seen == {tuple(layout) for layout in self.LAYOUTS}
