"""End-to-end trustworthy search engine (the library's main public API).

:class:`TrustworthySearchEngine` assembles the whole paper:

* documents commit to WORM and are indexed **in the same call** — no
  buffering window for Mala to exploit (Section 2.3's real-time update
  requirement);
* posting lists are **merged** into ``M`` cache-resident lists
  (Section 3) under a pluggable strategy, uniform hashing by default;
* optional **jump indexes** (Section 4) accelerate conjunctive queries
  while preserving trust guarantees;
* a **commit-time index** (Section 5) serves trustworthy time-range
  constraints;
* results can be **verified** against the WORM-resident documents to
  expose posting-list stuffing (Section 5's ranking-attack
  countermeasure).

Example
-------
>>> engine = TrustworthySearchEngine()
>>> engine.index_document("quarterly revenue audit memo")
0
>>> [r.doc_id for r in engine.search("revenue audit")]
[0]
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.merge import MergeStrategy, TermAssignment, UniformHashMerge
from repro.core.posting import MAX_TERM_ID_WITH_TF, pack_term_tf
from repro.core.posting_list import PostingList
from repro.core.segments import (
    STRATEGY_POPULAR,
    STRATEGY_UNIFORM,
    SealedSegment,
    SegmentInfo,
    SegmentManifest,
    choose_popular_terms,
    next_seg_no,
    validate_seal_strategy,
    write_segment_lists,
)
from repro.core.tail import MutableTailIndex, TailSnapshot
from repro.core.time_index import CommitTimeIndex
from repro.core.verification import AuditReport, audit_search_result
from repro.errors import WorkloadError
from repro.observability.metrics import MetricsRegistry
from repro.search.analyzer import Analyzer
from repro.search.documents import DocumentStore
from repro.search.join import MergedListCursor, conjunctive_join
from repro.search.lexicon import PrefixHashLexicon
from repro.search.query import QueryMode, parse_query
from repro.search.ranking import CollectionStats
from repro.search.readcache import ReadCache
from repro.worm.cache import READ_CACHE_POLICIES
from repro.worm.storage import CachedWormStore


#: Longest term (in UTF-8 bytes) the WORM lexicon log retains.
MAX_LEXICON_TERM_BYTES = 128


def lexicon_key(term: str) -> str:
    """Canonical lexicon form of ``term``: at most
    :data:`MAX_LEXICON_TERM_BYTES` of UTF-8, cut at a character boundary.

    The engine stores this form both in memory and on WORM and looks
    terms up through it, so the term→id→posting-list mapping survives
    restarts byte for byte.  A raw byte-level slice (the historical
    behaviour) could split a multi-byte character, which made the WORM
    log undecodable on reopen and silently desynchronized long terms.
    """
    raw = term.encode("utf-8")
    if len(raw) <= MAX_LEXICON_TERM_BYTES:
        return term
    cut = MAX_LEXICON_TERM_BYTES
    # Back up over UTF-8 continuation bytes (0b10xxxxxx) so the cut
    # never lands inside a multi-byte character.
    while cut > 0 and (raw[cut] & 0xC0) == 0x80:
        cut -= 1
    return raw[:cut].decode("utf-8")


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of a :class:`TrustworthySearchEngine`.

    Attributes
    ----------
    num_lists:
        Number of merged posting lists ``M``; size this to the storage
        cache (``cache_bytes / block_size``, Section 3.4).  The paper's
        validated configuration uses 32,768 lists for a 128 MB cache.
    block_size:
        WORM block size in bytes (paper: 8 KB).
    cache_blocks:
        Storage-cache capacity in blocks (``None`` = unbounded; use a
        finite value to reproduce insert-I/O behaviour).
    branching:
        Jump-index branching factor ``B`` (paper's sweet spot: 32);
        ``None`` disables jump indexes (the merged-lists-only scheme).
    ranking:
        ``"bm25"`` or ``"cosine"``.
    verify_results:
        Cross-check every result against the stored documents before
        returning (the Section 5 stuffing countermeasure).  Costs one
        document read per result.
    read_cache:
        Enable the three-tier read-path cache
        (:mod:`repro.search.readcache`): decoded posting blocks, query
        results (length-fingerprint invalidated), and a jump-pointer
        memo.  Session-scoped acceleration only — it never shapes
        committed WORM state, so archives created with and without it
        are byte-identical.
    cache_policy:
        Eviction policy for the read cache: ``"lru"``, ``"2q"``, or
        ``"slru"`` (see :mod:`repro.worm.cache`).
    read_cache_mb:
        Approximate in-memory budget of the decoded-block tier, in MB.
    tail_max_docs:
        Enable write–read decoupling: ingest lands in a mutable
        in-memory tail (:mod:`repro.core.tail`) that auto-seals into an
        immutable WORM segment once it holds this many documents.
        ``None`` (the default) keeps the legacy synchronous path —
        postings append to the merged WORM lists inside the ingest call.
    seal_strategy:
        Term→list assignment each sealed segment pins: ``"uniform"``
        (hash everything), ``"popular"`` (this tail's top terms get
        unmerged lists), or ``"epoch"`` (the *previous* epoch's top
        terms — the Section 3.3 epoch-driven adaptation).
    seal_popular_terms:
        How many popular terms get unmerged lists under ``"popular"`` /
        ``"epoch"``.
    merge_at_segments:
        Fan-in of the size-tiered auto-merge after every seal: a
        segment's tier is the smallest ``t`` with ``doc_count <=
        tail_max_docs * merge_at_segments**t``, and once the newest
        ``merge_at_segments`` live segments share a tier they merge into
        one (which may cascade).  At most ``merge_at_segments - 1``
        segments stay live per tier, and each posting is rewritten once
        per tier it climbs.  ``None`` disables auto-merging; an explicit
        ``merge_segments()`` merges every live segment.
    """

    num_lists: int = 1024
    block_size: int = 8192
    cache_blocks: Optional[int] = None
    branching: Optional[int] = 32
    ranking: str = "bm25"
    verify_results: bool = False
    #: Term-immutability horizon in commit-time units (None = forever).
    retention_period: Optional[int] = None
    read_cache: bool = False
    cache_policy: str = "lru"
    read_cache_mb: float = 8.0
    tail_max_docs: Optional[int] = None
    seal_strategy: str = "uniform"
    seal_popular_terms: int = 8
    merge_at_segments: Optional[int] = 8

    def __post_init__(self) -> None:
        if self.num_lists <= 0:
            raise WorkloadError(f"num_lists must be positive, got {self.num_lists}")
        if self.ranking not in ("bm25", "cosine"):
            raise WorkloadError(f"unknown ranking '{self.ranking}'")
        if self.cache_policy not in READ_CACHE_POLICIES:
            raise WorkloadError(
                f"unknown cache policy '{self.cache_policy}'; choose from "
                f"{sorted(READ_CACHE_POLICIES)}"
            )
        if self.read_cache_mb <= 0:
            raise WorkloadError(
                f"read_cache_mb must be positive, got {self.read_cache_mb}"
            )
        if self.tail_max_docs is not None and self.tail_max_docs < 1:
            raise WorkloadError(
                f"tail_max_docs must be >= 1, got {self.tail_max_docs}"
            )
        validate_seal_strategy(self.seal_strategy)
        if self.seal_popular_terms < 0:
            raise WorkloadError(
                f"seal_popular_terms must be >= 0, got "
                f"{self.seal_popular_terms}"
            )
        if self.merge_at_segments is not None and self.merge_at_segments < 2:
            raise WorkloadError(
                f"merge_at_segments must be >= 2, got "
                f"{self.merge_at_segments}"
            )


@dataclass(frozen=True)
class SearchResult:
    """One ranked hit."""

    doc_id: int
    score: float


class TrustworthySearchEngine:
    """Keyword search over records retained on WORM storage.

    Parameters
    ----------
    config:
        Engine configuration; defaults give a jump-indexed, uniformly
        merged index.
    merge_strategy:
        Optional custom merging strategy (e.g.
        :class:`~repro.core.merge.PopularUnmergedMerge` built from learned
        statistics).  Must be able to assign any term ID the lexicon may
        grow to; the default is uniform hashing, which can.
    store:
        Bring-your-own WORM store (shared with other components);
        otherwise the engine creates one per the config.
    metrics:
        Metrics registry to instrument into (shared across shards by the
        sharded engine).  Defaults to a fresh
        :class:`~repro.observability.metrics.MetricsRegistry`; pass a
        :class:`~repro.observability.metrics.NullMetricsRegistry` to run
        unmetered.
    metrics_labels:
        Base labels stamped on every series this engine emits (the
        sharded engine passes ``{"shard": "<i>"}``).
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        merge_strategy: Optional[MergeStrategy] = None,
        store: Optional[CachedWormStore] = None,
        metrics=None,
        metrics_labels: Optional[Mapping[str, object]] = None,
    ):
        self.config = config or EngineConfig()
        self.store = store or CachedWormStore(
            self.config.cache_blocks, block_size=self.config.block_size
        )
        #: Session-scoped read-path cache (None when disabled).  Never
        #: persisted: a restarted engine starts cold and re-verifies.
        self.read_cache = (
            ReadCache(
                policy=self.config.cache_policy,
                capacity_mb=self.config.read_cache_mb,
            )
            if self.config.read_cache
            else None
        )
        self._init_metrics(metrics, metrics_labels)
        self.analyzer = Analyzer()
        self.documents = DocumentStore(self.store)
        self.stats = CollectionStats()
        self._merge = merge_strategy or UniformHashMerge(self.config.num_lists)
        self._assignment: Optional[TermAssignment] = None
        self.time_index = CommitTimeIndex(self.store, "engine/commit-times")
        # Lexicon: term string <-> engine-local term ID (order of first
        # appearance).  Rebuildable from the WORM lexicon log.  The
        # hashed-prefix layer accelerates ordered probes (prefix
        # expansion) without slowing exact resolution.
        self._lexicon = PrefixHashLexicon()
        self._lexicon_file = self.store.ensure_file("engine/lexicon")
        # Physical lists are created lazily as terms first hash into them.
        self._lists: Dict[int, PostingList] = {}
        self._jumps: Dict[int, BlockJumpIndex] = {}
        #: Per-term posting counts (join-ordering hints; derived data).
        self._term_postings: Dict[int, int] = {}
        self._clock = 0
        self._incidents = None
        self._retention = None
        # Write–read decoupling (tail mode): the mutable tail, the
        # sealed-segment manifest, and the attached live segments.  All
        # lazily populated; ``None``/empty on the legacy path.
        self._tail = (
            MutableTailIndex()
            if self.config.tail_max_docs is not None
            else None
        )
        self._manifest: Optional[SegmentManifest] = None
        self._segments: List[SealedSegment] = []
        #: Term popularity of the previously sealed epoch (feeds the
        #: "epoch" seal strategy; session-scoped, empty after restart).
        self._epoch_counts: Dict[int, int] = {}
        if self._tail is not None:
            # Eagerly create/replay the manifest so the first seal after
            # a reopen is the only writer: restart itself stays a pure
            # read (important for crash-recovery determinism).
            self._load_manifest()
        if self._lexicon_file.num_blocks or len(self.time_index):
            self._restore_state()

    def _restore_state(self) -> None:
        """Rebuild application-memory state from WORM (restart recovery).

        Everything rebuilt here is *derived* data: the lexicon log, the
        commit-time log, the posting lists, and the documents themselves
        all live on WORM (the posting lists and commit log verified their
        own invariants when reattached).  Ranking statistics and posting
        counts are recomputed from the stored documents; documents
        ingested with ``store_text=False`` contribute document counts but
        no term statistics, which only affects ranking quality.
        """
        payload = b"".join(
            self.store.peek_block("engine/lexicon", b)
            for b in range(self._lexicon_file.num_blocks)
        )
        for raw in payload.split(b"\n"):
            if raw:
                self._lexicon.add(raw.decode("utf-8"))
        commit_times = {}
        for commit_time, doc_id in self.time_index.iter_records():
            commit_times[doc_id] = commit_time
        self.documents.restore(len(commit_times), commit_times)
        self._clock = self.time_index.last_commit_time + 1
        sealed_through = -1
        if self._tail is not None:
            # The tail itself is derived data: every document above the
            # sealed horizon re-enters it from the journaled document +
            # commit-time logs.  A disposed never-sealed document simply
            # does not re-enter — its absence is explained by the
            # disposition log.
            self._load_manifest()
            sealed_through = (
                self._manifest.sealed_through
                if self._manifest is not None
                else -1
            )
        for doc_id in range(len(commit_times)):
            if not self.documents.exists(doc_id):
                continue
            text = self.documents.get(doc_id).text
            term_counts = self.analyzer.term_counts(text)
            id_counts = {}
            for t, c in term_counts.items():
                tid = self.term_id(t)
                if tid is not None:
                    id_counts[tid] = c
            if id_counts:
                self.stats.add_document(doc_id, id_counts)
                for term_id in id_counts:
                    self._term_postings[term_id] = (
                        self._term_postings.get(term_id, 0) + 1
                    )
            if self._tail is not None and doc_id > sealed_through:
                self._tail.add(
                    doc_id,
                    {
                        tid: pack_term_tf(tid, count)
                        for tid, count in id_counts.items()
                    },
                )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _init_metrics(
        self, metrics, metrics_labels: Optional[Mapping[str, object]]
    ) -> None:
        """Register this engine's metric families and bind hot-path series."""
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics_labels: Dict[str, str] = {
            k: str(v) for k, v in (metrics_labels or {}).items()
        }
        self._metrics_on = bool(self.metrics.enabled)
        base = tuple(self._metrics_labels)
        bound = self._metrics_labels
        m = self.metrics
        self._m_queries = m.counter(
            "repro_queries_total",
            "Queries executed, by retrieval mode",
            labels=base + ("mode",),
        )
        self._m_stage = m.histogram(
            "repro_query_stage_seconds",
            "Latency of each query stage",
            labels=base + ("stage",),
        )
        self._m_list_blocks = m.counter(
            "repro_join_list_blocks_total",
            "Blocks read by conjunctive joins, per physical list",
            labels=base + ("list_id",),
        )
        self._c_docs = m.counter(
            "repro_documents_indexed_total",
            "Documents committed to WORM and indexed",
            labels=base,
        ).labels(**bound)
        self._c_postings = m.counter(
            "repro_postings_appended_total",
            "Posting entries appended to merged lists",
            labels=base,
        ).labels(**bound)
        self._c_seeks = m.counter(
            "repro_join_seeks_total",
            "Cursor FindGeq seeks performed by conjunctive joins",
            labels=base,
        ).labels(**bound)
        self._c_join_blocks = m.counter(
            "repro_join_blocks_read_total",
            "Distinct posting-list blocks read by conjunctive joins",
            labels=base,
        ).labels(**bound)
        self._c_follows = m.counter(
            "repro_jump_pointer_follows_total",
            "Jump pointers followed (and certified) by joins",
            labels=base,
        ).labels(**bound)
        self._c_scan_entries = m.counter(
            "repro_scan_entries_total",
            "Posting entries scanned on the disjunctive path",
            labels=base,
        ).labels(**bound)
        self._c_decode_blocks = m.counter(
            "repro_decode_blocks_total",
            "Posting blocks batch-decoded into doc-id/term-code columns",
            labels=base,
        ).labels(**bound)
        self._c_decode_postings = m.counter(
            "repro_decode_postings_total",
            "Posting entries batch-decoded into columns",
            labels=base,
        ).labels(**bound)
        #: Pair attached to every posting list this engine opens, so any
        #: block decode — query, audit, restore — lands in the series.
        self._decode_series = (self._c_decode_blocks, self._c_decode_postings)
        self._m_ingest = m.histogram(
            "repro_ingest_seconds",
            "Per-document commit+index latency",
            labels=base,
        ).labels(**bound)
        self._c_seals = m.counter(
            "repro_tail_seals_total",
            "Tail freezes into immutable WORM segments",
            labels=base,
        ).labels(**bound)
        self._c_merges = m.counter(
            "repro_segment_merges_total",
            "Online merges of sealed WORM segments",
            labels=base,
        ).labels(**bound)
        self._g_tail_docs = m.gauge(
            "repro_tail_docs",
            "Documents in the mutable in-memory tail",
            labels=base,
        ).labels(**bound)
        self._g_segments = m.gauge(
            "repro_segments_live",
            "Live sealed WORM segments",
            labels=base,
        ).labels(**bound)
        self._stage_bound: Dict[str, object] = {}
        self._mode_bound: Dict[str, object] = {}
        self._list_blocks_bound: Dict[int, object] = {}

    def _stage_series(self, stage: str):
        series = self._stage_bound.get(stage)
        if series is None:
            series = self._m_stage.labels(**self._metrics_labels, stage=stage)
            self._stage_bound[stage] = series
        return series

    def _mode_series(self, mode: str):
        series = self._mode_bound.get(mode)
        if series is None:
            series = self._m_queries.labels(**self._metrics_labels, mode=mode)
            self._mode_bound[mode] = series
        return series

    def _list_blocks_series(self, list_id: int):
        series = self._list_blocks_bound.get(list_id)
        if series is None:
            series = self._m_list_blocks.labels(
                **self._metrics_labels, list_id=list_id
            )
            self._list_blocks_bound[list_id] = series
        return series

    @contextmanager
    def _stage(self, name: str, trace, **attrs):
        """Time one query stage into the stage histogram and, when a
        :class:`~repro.observability.trace.QueryTrace` is attached, a
        span.  Yields the span (``None`` without a trace) so stages can
        :meth:`~repro.observability.trace.Span.note` their micro-costs.
        """
        span = trace.begin(name, **attrs) if trace is not None else None
        timed = self._metrics_on
        start = perf_counter() if timed else 0.0
        try:
            yield span
        finally:
            if timed:
                self._stage_series(name).observe(perf_counter() - start)
            if span is not None:
                trace.finish(span)

    # ------------------------------------------------------------------
    # lexicon
    # ------------------------------------------------------------------
    def term_id(self, term: str, *, create: bool = False) -> Optional[int]:
        """Engine-local term ID for ``term`` (optionally allocating one).

        Terms are canonicalized via :func:`lexicon_key` before lookup and
        allocation, so the in-memory lexicon, the WORM lexicon log, and
        query-time lookups always agree on one byte sequence per term.
        """
        term = lexicon_key(term)
        existing = self._lexicon.lookup(term)
        if existing is not None or not create:
            return existing
        if "\n" in term:
            raise WorkloadError(
                f"term {term!r} contains a newline; the WORM lexicon log "
                f"is newline-delimited and cannot represent it"
            )
        if len(self._lexicon) > MAX_TERM_ID_WITH_TF:
            raise WorkloadError("lexicon exceeded the 24-bit term-id space")
        term_id = self._lexicon.add(term)
        self._lexicon_file.append_record(term.encode("utf-8") + b"\n")
        return term_id

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct terms seen so far."""
        return len(self._lexicon)

    def term_text(self, term_id: int) -> str:
        """The term string behind an engine-local term ID."""
        return self._lexicon.term(term_id)

    def terms_with_prefix(
        self, prefix: str, *, limit: Optional[int] = None
    ) -> List[str]:
        """Vocabulary terms starting with ``prefix``, lexicographically.

        Served by the lexicon's hashed-prefix layer: one hash probe to
        the prefix bucket plus a short comparison tail, instead of a
        binary search over the whole vocabulary.  The prefix is
        canonicalized the same way terms are, so callers can pass raw
        user input.
        """
        return self._lexicon.terms_with_prefix(lexicon_key(prefix), limit=limit)

    # ------------------------------------------------------------------
    # physical lists
    # ------------------------------------------------------------------
    def _list_id_for(self, term_id: int) -> int:
        # Strategies are stable under universe growth (see MergeStrategy),
        # so the engine re-derives a larger assignment as the lexicon
        # grows; terms already indexed keep their physical lists.
        if self._assignment is None or self._assignment.num_terms <= term_id:
            fixed = self._merge.universe_size()
            if fixed is not None:
                if term_id >= fixed:
                    raise WorkloadError(
                        f"term id {term_id} exceeds the fixed universe "
                        f"({fixed} terms) the merge strategy was built for"
                    )
                universe = fixed
            else:
                universe = max(1024, 2 * (term_id + 1))
            self._assignment = self._merge.assign(universe)
        return self._assignment.list_for(term_id)

    def _physical_list(self, list_id: int) -> Tuple[PostingList, Optional[BlockJumpIndex]]:
        posting_list = self._lists.get(list_id)
        if posting_list is None:
            name = f"engine/pl/{list_id:08d}"
            if self.config.branching is not None:
                jump = BlockJumpIndex.create(
                    self.store, name, branching=self.config.branching
                )
                posting_list = jump.posting_list
                self._jumps[list_id] = jump
                if self.read_cache is not None:
                    jump.memo = self.read_cache.memo_for(name)
            else:
                posting_list = PostingList(self.store, name)
            if self.read_cache is not None:
                # Attached after construction, so restart recovery
                # (inside PostingList.__init__) always read the device.
                posting_list.read_cache = self.read_cache.blocks
            if self._metrics_on:
                posting_list.decode_metrics = self._decode_series
            self._lists[list_id] = posting_list
        return posting_list, self._jumps.get(list_id)

    def _existing_list(self, list_id: int) -> Optional[PostingList]:
        """The physical list if it has ever been written (else ``None``).

        Query paths use this so that a reopened engine lazily re-attaches
        lists committed in previous sessions.
        """
        posting_list = self._lists.get(list_id)
        if posting_list is None and self.store.device.exists(
            f"engine/pl/{list_id:08d}"
        ):
            posting_list, _ = self._physical_list(list_id)
        return posting_list

    # ------------------------------------------------------------------
    # write–read decoupling: tail, sealer, online merger
    # ------------------------------------------------------------------
    @property
    def tail_enabled(self) -> bool:
        """Whether this engine runs the decoupled tail/segment path."""
        return self._tail is not None

    def _require_tail(self) -> MutableTailIndex:
        if self._tail is None:
            raise WorkloadError(
                "tail mode is disabled; construct the engine with "
                "EngineConfig(tail_max_docs=...) to seal and merge "
                "segments"
            )
        return self._tail

    def _load_manifest(self) -> None:
        if self._manifest is None:
            self._manifest = SegmentManifest(self.store)
            self._segments = [
                self._attach_segment(info) for info in self._manifest.live()
            ]

    def _attach_segment(self, info: SegmentInfo) -> SealedSegment:
        return SealedSegment(
            self.store,
            info,
            branching=self.config.branching,
            read_cache=self.read_cache,
            decode_metrics=self._decode_series if self._metrics_on else None,
        )

    def index_view(self) -> Tuple[Tuple[SealedSegment, ...], TailSnapshot]:
        """A snapshot-consistent ``(sealed segments, tail)`` read view.

        Constant-time: a tuple copy of the live-segment list plus a
        :class:`~repro.core.tail.TailSnapshot`.  The view keeps serving
        the pre-event state across later seals and merges (segments are
        immutable and the tail copies-on-seal); isolation from
        concurrent *adds* relies on the single-writer lock discipline —
        see :mod:`repro.core.tail`.
        """
        tail = self._require_tail()
        self._load_manifest()
        return tuple(self._segments), tail.snapshot()

    def _choose_assignment(
        self, counts: Dict[int, int]
    ) -> Tuple[int, Tuple[int, ...]]:
        """Pick the ``(strategy, popular_terms)`` a new segment pins.

        ``counts`` is the term-popularity evidence of the postings being
        sealed/merged; the ``"epoch"`` policy instead uses the previous
        epoch's counts (:func:`repro.core.epochs.learn_popular_terms`'s
        adaptation idea applied online), falling back to uniform while
        no prior epoch exists.
        """
        policy = self.config.seal_strategy
        if policy == "uniform":
            return STRATEGY_UNIFORM, ()
        source = counts if policy == "popular" else self._epoch_counts
        popular = choose_popular_terms(
            source, self.config.seal_popular_terms, self.config.num_lists
        )
        if not popular:
            return STRATEGY_UNIFORM, ()
        return STRATEGY_POPULAR, popular

    def _maybe_seal(self) -> None:
        if (
            self._tail is not None
            and self._tail.doc_count >= self.config.tail_max_docs
        ):
            self.seal_tail()

    def seal_tail(self) -> Optional[int]:
        """Freeze the tail into an immutable WORM segment.

        Writes the segment's merged posting lists first and commits the
        manifest record last — the atomic step; a crash before it leaves
        only orphan files that recovery ignores and never overwrites.
        Returns the new segment number (``None`` on an empty tail).
        Auto-merges afterwards (size-tiered, see :meth:`_auto_merge`).
        """
        tail = self._require_tail()
        if tail.doc_count == 0:
            return None
        self._load_manifest()
        counts = tail.term_counts()
        strategy, popular = self._choose_assignment(counts)
        seg_no = next_seg_no(self.store.device, self._manifest)
        write_segment_lists(
            self.store,
            seg_no,
            tail.postings_by_term(),
            num_lists=self.config.num_lists,
            strategy=strategy,
            popular_terms=popular,
            branching=self.config.branching,
        )
        info = SegmentInfo(
            seg_no=seg_no,
            first_doc=tail.first_doc,
            last_doc=tail.last_doc,
            doc_count=tail.doc_count,
            num_lists=self.config.num_lists,
            strategy=strategy,
            popular_terms=popular,
        )
        self._manifest.append(info)
        self._segments.append(self._attach_segment(info))
        self._epoch_counts = counts
        tail.clear()
        if self._metrics_on:
            self._c_seals.inc()
            self._g_tail_docs.set(0)
            self._g_segments.set(len(self._segments))
        self._auto_merge()
        return seg_no

    def _size_tier(self, doc_count: int) -> int:
        """Smallest ``t`` with ``doc_count <= tail_max_docs * merge_at_segments**t``."""
        tier, bound = 0, self.config.tail_max_docs
        while doc_count > bound:
            tier, bound = tier + 1, bound * self.config.merge_at_segments
        return tier

    def _auto_merge(self) -> None:
        """Size-tiered merging after a seal (see ``merge_at_segments``):
        merge the trailing run of the newest segment's tier once it holds
        ``merge_at_segments`` segments, and repeat (a cascade)."""
        fan_in = self.config.merge_at_segments
        while fan_in is not None:
            tiers = [self._size_tier(s.info.doc_count) for s in self._segments]
            start = len(tiers)
            while start > 0 and tiers[start - 1] == tiers[-1]:
                start -= 1
            if len(tiers) - start < fan_in:
                return
            self.merge_segments(start=start)

    def merge_segments(self, *, start: int = 0) -> Optional[int]:
        """Merge the live segments from position ``start`` on (default:
        all of them) into one, online (Section 3.3).

        Gathers postings per term across the run (doc order is preserved
        — segment doc ranges are disjoint and ascending), re-chooses the
        term→list assignment from the combined popularity, writes the
        merged segment, and retires the inputs with a single manifest
        append.  Readers holding an older :meth:`index_view` keep their
        segments.  Returns the merged segment number (``None`` with
        fewer than two segments in the run).
        """
        self._require_tail()
        self._load_manifest()
        if len(self._segments) - start < 2:
            return None
        run = self._segments[start:]
        merged: Dict[int, List[Tuple[int, int]]] = {}
        for segment in run:
            for term_id, entries in segment.postings_by_term().items():
                merged.setdefault(term_id, []).extend(entries)
        counts = {t: len(entries) for t, entries in merged.items()}
        strategy, popular = self._choose_assignment(counts)
        seg_no = next_seg_no(self.store.device, self._manifest)
        write_segment_lists(
            self.store,
            seg_no,
            merged,
            num_lists=self.config.num_lists,
            strategy=strategy,
            popular_terms=popular,
            branching=self.config.branching,
        )
        inputs = [segment.info for segment in run]
        info = SegmentInfo(
            seg_no=seg_no,
            first_doc=inputs[0].first_doc,
            last_doc=inputs[-1].last_doc,
            doc_count=sum(i.doc_count for i in inputs),
            num_lists=self.config.num_lists,
            strategy=strategy,
            popular_terms=popular,
            inputs=tuple(i.seg_no for i in inputs),
        )
        retired_files = [
            name for segment in run for name in segment.list_file_names()
        ]
        self._manifest.append(info)
        self._segments[start:] = [self._attach_segment(info)]
        # Segment-retirement hook: the retired lists can never be read
        # again (merges run under the writer lock, so no reader still
        # holds a retired view), so their decoded blocks, jump memos and
        # block-cache keys are dead weight.
        if self.read_cache is not None:
            self.read_cache.forget_lists(retired_files)
        device, cache = self.store.device, self.store.cache
        for name in retired_files:
            for block_no in range(device.open_file(name).num_blocks):
                cache.invalidate((name, block_no))
        if self._metrics_on:
            self._c_merges.inc()
            self._g_segments.set(len(self._segments))
        return seg_no

    def iter_segments(self) -> List[SealedSegment]:
        """The live sealed segments, ascending doc order (for audits)."""
        if self._tail is None:
            return []
        self._load_manifest()
        return list(self._segments)

    def segments_info(self) -> Dict[str, object]:
        """Operational view of the tail/segment lifecycle (CLI)."""
        if self._tail is None:
            return {"tail_enabled": False}
        self._load_manifest()
        return {
            "tail_enabled": True,
            "tail_docs": self._tail.doc_count,
            "tail_postings": self._tail.posting_count,
            "tail_generation": self._tail.generation,
            "manifest_records": self._manifest.record_count,
            "segments": [s.info.as_dict() for s in self._segments],
        }

    # ------------------------------------------------------------------
    # ingest — commit + index as one action (Section 2.1)
    # ------------------------------------------------------------------
    def index_document(
        self, text: str, *, commit_time: Optional[int] = None
    ) -> int:
        """Commit a document to WORM and index it, atomically from the
        caller's perspective; returns the assigned document ID."""
        term_counts = self.analyzer.term_counts(text)
        return self._ingest(text, term_counts, commit_time)

    def index_term_counts(
        self,
        term_counts: Mapping[str, int],
        *,
        commit_time: Optional[int] = None,
        store_text: bool = True,
    ) -> int:
        """Index pre-analyzed term counts (bulk/synthetic ingest path)."""
        text = (
            " ".join(
                word
                for term, count in sorted(term_counts.items())
                for word in [term] * count
            )
            if store_text
            else ""
        )
        return self._ingest(text, dict(term_counts), commit_time)

    def _ingest(
        self,
        text: str,
        term_counts: Dict[str, int],
        commit_time: Optional[int],
    ) -> int:
        start = perf_counter() if self._metrics_on else 0.0
        if commit_time is None:
            commit_time = self._clock
        if commit_time < self._clock:
            raise WorkloadError(
                f"commit_time {commit_time} precedes the engine clock "
                f"{self._clock}; commits are monotonic"
            )
        self._clock = commit_time + 1
        retention_until = (
            commit_time + self.config.retention_period
            if self.config.retention_period is not None
            else None
        )
        doc_id = self.documents.commit(
            text, commit_time=commit_time, retention_until=retention_until
        )
        id_counts: Dict[int, int] = {}
        for term, count in term_counts.items():
            id_counts[self.term_id(term, create=True)] = count
        # Index updates happen now, before returning: real-time index
        # update, no buffering window.  Tail mode registers the postings
        # in memory (the document, commit-time, and lexicon logs above
        # already journaled everything the tail is rebuilt from);
        # otherwise they append to the merged WORM lists synchronously.
        if self._tail is not None:
            self._tail.add(
                doc_id,
                {
                    term_id: pack_term_tf(term_id, id_counts[term_id])
                    for term_id in sorted(id_counts)
                },
            )
            for term_id in id_counts:
                self._term_postings[term_id] = (
                    self._term_postings.get(term_id, 0) + 1
                )
        else:
            for term_id in sorted(id_counts):
                # Postings carry the paper's "keyword frequency"
                # metadata, packed into the code field's spare byte.
                code = pack_term_tf(term_id, id_counts[term_id])
                list_id = self._list_id_for(term_id)
                posting_list, jump = self._physical_list(list_id)
                if jump is not None:
                    jump.insert(doc_id, term_code=code)
                else:
                    posting_list.append(doc_id, term_code=code)
                self._term_postings[term_id] = (
                    self._term_postings.get(term_id, 0) + 1
                )
        self.time_index.record_commit(doc_id, commit_time)
        self.stats.add_document(doc_id, id_counts)
        if self._metrics_on:
            self._c_docs.inc()
            self._c_postings.inc(len(id_counts))
            if self._tail is not None:
                self._g_tail_docs.set(self._tail.doc_count)
            self._m_ingest.observe(perf_counter() - start)
        self._maybe_seal()
        return doc_id

    def index_batch(
        self,
        texts: Iterable[str],
        *,
        commit_times: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Commit and index a batch of documents in one amortized pass.

        Semantically equivalent to calling :meth:`index_document` once
        per text, in order — same document IDs, same commit times, same
        committed WORM state, and (with an unbounded storage cache) the
        exact same :class:`~repro.worm.iostats.IoStats` counts, so the
        Figure-2/8(b) accounting semantics are preserved.  What batching
        buys is amortization: posting entries are appended one pass per
        merged list, so per-list lookups (physical-list resolution, jump
        state) happen once per list instead of once per posting, and a
        bounded cache sees consecutive appends to each tail block instead
        of interleaved ones (fewer evictions under cache pressure).

        Each document is still committed to WORM *and* indexed inside
        this one call — batching groups work, it does not introduce the
        buffering window Section 2.3 forbids (the call does not return
        until every document in the batch is queryable).
        """
        texts = list(texts)
        if commit_times is None:
            commit_times = list(range(self._clock, self._clock + len(texts)))
        else:
            commit_times = list(commit_times)
            if len(commit_times) != len(texts):
                raise WorkloadError(
                    f"got {len(texts)} texts but {len(commit_times)} "
                    f"commit times"
                )
        doc_ids: List[int] = []
        postings_by_list: Dict[int, List[Tuple[int, int]]] = {}
        total_postings = 0
        for text, commit_time in zip(texts, commit_times):
            if commit_time < self._clock:
                raise WorkloadError(
                    f"commit_time {commit_time} precedes the engine clock "
                    f"{self._clock}; commits are monotonic"
                )
            self._clock = commit_time + 1
            retention_until = (
                commit_time + self.config.retention_period
                if self.config.retention_period is not None
                else None
            )
            term_counts = self.analyzer.term_counts(text)
            doc_id = self.documents.commit(
                text, commit_time=commit_time, retention_until=retention_until
            )
            id_counts: Dict[int, int] = {}
            for term, count in term_counts.items():
                id_counts[self.term_id(term, create=True)] = count
            if self._tail is not None:
                self._tail.add(
                    doc_id,
                    {
                        term_id: pack_term_tf(term_id, id_counts[term_id])
                        for term_id in sorted(id_counts)
                    },
                )
                total_postings += len(id_counts)
                for term_id in id_counts:
                    self._term_postings[term_id] = (
                        self._term_postings.get(term_id, 0) + 1
                    )
            else:
                for term_id in sorted(id_counts):
                    code = pack_term_tf(term_id, id_counts[term_id])
                    list_id = self._list_id_for(term_id)
                    postings_by_list.setdefault(list_id, []).append(
                        (doc_id, code)
                    )
                    self._term_postings[term_id] = (
                        self._term_postings.get(term_id, 0) + 1
                    )
            self.time_index.record_commit(doc_id, commit_time)
            self.stats.add_document(doc_id, id_counts)
            doc_ids.append(doc_id)
        # One pass per merged list; per-list entries are in ascending
        # doc-id order by construction, so monotonicity invariants (and
        # jump-pointer placement) are identical to per-document ingest.
        for list_id in sorted(postings_by_list):
            posting_list, jump = self._physical_list(list_id)
            if jump is not None:
                jump.insert_many(postings_by_list[list_id])
            else:
                posting_list.append_many(postings_by_list[list_id])
        if self._metrics_on:
            self._c_docs.inc(len(doc_ids))
            self._c_postings.inc(
                total_postings
                + sum(len(entries) for entries in postings_by_list.values())
            )
            if self._tail is not None:
                self._g_tail_docs.set(self._tail.doc_count)
        self._maybe_seal()
        return doc_ids

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def search(
        self,
        query,
        *,
        top_k: int = 10,
        verify: Optional[bool] = None,
        trace=None,
    ) -> List[SearchResult]:
        """Run a query and return ranked results.

        ``query`` may be a raw string (parsed with the engine's analyzer,
        see :func:`repro.search.query.parse_query`) or a prepared
        :class:`~repro.search.query.Query`.  Pass a
        :class:`~repro.observability.trace.QueryTrace` as ``trace`` to
        record per-stage spans (parse → resolve → join/scan → rank →
        verify) with their micro-costs.
        """
        with self._stage("parse", trace) as span:
            if isinstance(query, str):
                query = parse_query(query, analyzer=self.analyzer)
            if span is not None:
                span.note(
                    terms=len(query.terms), mode=query.mode.name.lower()
                )
        # The one-shard case of the sharded query kernel: match, bulk
        # scoring under this engine's own statistics, top-k selection.
        from repro.sharding.executor import shard_query

        stats = self.stats
        results, _ = shard_query(
            self,
            query,
            stats.df,
            stats.num_docs,
            stats.avg_doc_length,
            top_k,
            trace=trace,
        )
        if self._metrics_on:
            self._mode_series(query.mode.name.lower()).inc()
        should_verify = self.config.verify_results if verify is None else verify
        if should_verify:
            with self._stage("verify", trace, results=len(results)) as span:
                report = self.verify_results(
                    [r.doc_id for r in results], query.terms
                )
                if span is not None:
                    span.note(ok=report.ok)
            if not report.ok:
                # Surface the stuffing attempt; the caller (Bob) decides
                # what to do with the evidence.
                from repro.errors import TamperDetectedError

                raise TamperDetectedError(
                    f"result verification failed: {report.violations}",
                    location=f"query {query.terms!r}",
                    invariant="result-document-consistency",
                )
        return results

    def match(self, query, *, trace=None) -> Dict[int, Dict[int, int]]:
        """Matching documents with their per-term-ID frequency maps.

        Runs the query's retrieval phase only: posting-list scanning or
        conjunctive joining, the commit-time constraint, and the
        disposition filter.  Scoring and top-k selection are left to the
        caller — :meth:`search` ranks locally, while a sharded executor
        re-ranks the union of per-shard matches under aggregated
        collection statistics.

        Returns a mapping of ``doc_id -> {term_id: tf}`` where term IDs
        are engine-local (translate via :meth:`term_text`).

        With the read cache enabled, the whole retrieval phase is served
        from the query-result tier when the per-term list-length
        fingerprint proves nothing it depends on has changed (see
        :class:`~repro.search.readcache.QueryResultCache`).  Ranking and
        result verification always re-run on top of cached candidates.
        """
        if isinstance(query, str):
            query = parse_query(query, analyzer=self.analyzer)
        cache = self.read_cache
        cache_key = fingerprint = None
        if cache is not None:
            cache_key = self._query_cache_key(query)
            fingerprint = self._query_fingerprint(query)
            with self._stage("cache", trace) as span:
                cached = cache.results.get(cache_key, fingerprint)
                if span is not None:
                    span.note(
                        hit=cached is not None, policy=cache.policy_name
                    )
            if cached is not None:
                # Defensive copy: callers may mutate the mapping.
                return {d: dict(tf) for d, tf in cached.items()}
        if query.mode is QueryMode.ALL:
            if self._tail is not None:
                doc_ids = self._conjunctive_tail(query.terms, trace=trace)
            else:
                doc_ids, _ = self.conjunctive_doc_ids(
                    query.terms, trace=trace
                )
            candidates = {
                d: self._result_term_freqs(d, query.terms) for d in doc_ids
            }
        elif self._tail is not None:
            candidates = self._disjunctive_tail(query.terms, trace=trace)
        else:
            candidates = self._disjunctive_candidates(query.terms, trace=trace)
        retention = self._retention_if_any()
        has_filters = query.time_range is not None or (
            retention is not None and len(retention)
        )
        if has_filters:
            with self._stage(
                "filter", trace, candidates=len(candidates)
            ) as span:
                if query.time_range is not None:
                    allowed = set(
                        self.time_index.docs_in_range(*query.time_range)
                    )
                    candidates = {
                        d: tf for d, tf in candidates.items() if d in allowed
                    }
                if retention is not None and len(retention):
                    candidates = {
                        d: tf
                        for d, tf in candidates.items()
                        if not retention.is_disposed(d)
                    }
                if span is not None:
                    span.note(kept=len(candidates))
        if cache is not None:
            cache.results.put(
                cache_key,
                fingerprint,
                {d: dict(tf) for d, tf in candidates.items()},
            )
        return candidates

    def _query_cache_key(self, query) -> Tuple:
        """Normalized result-cache key: mode, deduped sorted terms, range."""
        terms = tuple(sorted(dict.fromkeys(query.terms)))
        return (query.mode.value, terms, query.time_range)

    def _query_fingerprint(self, query) -> Tuple:
        """Everything the candidate set depends on, as list lengths.

        For each distinct term: its physical list and that list's
        current length (``(-1, -1)`` while the term has no postings, so
        its later appearance invalidates).  Appends are the only way any
        posting list or the commit-time log changes, and a document that
        could alter this query's candidates necessarily appends to one
        of these lists; the disposition-log length covers disposals.

        Tail mode fingerprints per-term *posting counts* instead (the
        union over segments + tail — a new matching document increments
        its terms' counts wherever it lands) plus the tail generation,
        which conservatively invalidates cached results across seals —
        the segment-seal invalidation hook of the result tier.
        """
        parts: List[int] = []
        if self._tail is not None:
            for term in sorted(dict.fromkeys(query.terms)):
                term_id = self.term_id(term)
                if term_id is None:
                    parts.extend((-1, -1))
                else:
                    parts.extend(
                        (term_id, self._term_postings.get(term_id, 0))
                    )
            retention = self._retention_if_any()
            parts.append(len(retention) if retention is not None else 0)
            parts.append(self._tail.generation)
            return tuple(parts)
        for term in sorted(dict.fromkeys(query.terms)):
            term_id = self.term_id(term)
            posting_list = (
                self._existing_list(self._list_id_for(term_id))
                if term_id is not None
                else None
            )
            if posting_list is None:
                parts.extend((-1, -1))
            else:
                parts.extend((self._list_id_for(term_id), len(posting_list)))
        retention = self._retention_if_any()
        parts.append(len(retention) if retention is not None else 0)
        return tuple(parts)

    def read_cache_stats(self) -> Optional[Dict[str, object]]:
        """Per-tier read-cache counters (``None`` when caching is off)."""
        return self.read_cache.as_dict() if self.read_cache is not None else None

    def _disjunctive_candidates(
        self, terms: Sequence[str], *, trace=None
    ) -> Dict[int, Dict[int, int]]:
        """Scan the merged lists of the query terms; collect tf per doc."""
        with self._stage("resolve", trace, terms=len(terms)) as span:
            term_ids = [self.term_id(t) for t in terms]
            present = [t for t in term_ids if t is not None]
            wanted = set(present)
            list_ids = sorted({self._list_id_for(t) for t in present})
            if span is not None:
                span.note(present=len(present), lists=len(list_ids))
        candidates: Dict[int, Dict[int, int]] = {}
        use_cache = self.read_cache is not None
        block_stats = self.read_cache.blocks.stats if use_cache else None
        hits_before = block_stats.hits if block_stats is not None else 0
        with self._stage("scan", trace, lists=len(list_ids)) as span:
            entries = 0
            for list_id in list_ids:
                posting_list = self._existing_list(list_id)
                if posting_list is None:
                    continue
                # Columnar scan: per block, two flat integer columns
                # instead of a Posting object per entry (decode and
                # unpack are batch/inline work, no allocations).
                for docs, codes in posting_list.scan_columns(
                    counted=False, cached=use_cache
                ):
                    entries += len(docs)
                    for doc_id, code in zip(docs, codes):
                        term_id = code & MAX_TERM_ID_WITH_TF
                        if term_id in wanted:
                            tf_map = candidates.setdefault(doc_id, {})
                            tf = code >> 24
                            if tf < 1:
                                tf = 1
                            if tf > tf_map.get(term_id, 0):
                                tf_map[term_id] = tf
            if self._metrics_on:
                self._c_scan_entries.inc(entries)
            if span is not None:
                span.note(entries_scanned=entries, candidates=len(candidates))
                if block_stats is not None:
                    span.note(block_cache_hits=block_stats.hits - hits_before)
        return candidates

    def _disjunctive_tail(
        self, terms: Sequence[str], *, trace=None
    ) -> Dict[int, Dict[int, int]]:
        """Tail-mode disjunctive retrieval over a snapshot view.

        Scans each live segment's wanted lists, then the tail's
        postings; max-merging per ``(doc, term)`` makes the result
        byte-identical to one legacy scan over a single merged list
        family (each posting exists exactly once across segments+tail).
        """
        segments, tail = self.index_view()
        with self._stage("resolve", trace, terms=len(terms)) as span:
            term_ids = [self.term_id(t) for t in terms]
            present = [t for t in term_ids if t is not None]
            if span is not None:
                span.note(present=len(present), segments=len(segments))
        candidates: Dict[int, Dict[int, int]] = {}
        use_cache = self.read_cache is not None
        with self._stage("scan", trace, segments=len(segments)) as span:
            entries = 0
            for segment in segments:
                entries += segment.collect_candidates(
                    present, candidates, cached=use_cache
                )
            entries += tail.collect_candidates(present, candidates)
            if self._metrics_on:
                self._c_scan_entries.inc(entries)
            if span is not None:
                span.note(entries_scanned=entries, candidates=len(candidates))
        return candidates

    def _conjunctive_tail(
        self, terms: Sequence[str], *, trace=None
    ) -> List[int]:
        """Tail-mode conjunctive retrieval over a snapshot view.

        Joins each segment independently and concatenates — segment doc
        ranges are disjoint and ascending, so the concatenation is the
        same ascending doc-id list one global zigzag join would produce
        — then appends the tail's matches.
        """
        segments, tail = self.index_view()
        with self._stage(
            "resolve", trace, terms=len(dict.fromkeys(terms))
        ) as span:
            term_ids: List[int] = []
            missing = False
            for term in dict.fromkeys(terms):
                term_id = self.term_id(term)
                if term_id is None:
                    missing = True
                    break
                term_ids.append(term_id)
            if span is not None:
                span.note(segments=len(segments), missing_term=missing)
        if missing or not term_ids:
            return []
        doc_ids: List[int] = []
        with self._stage("join", trace, cursors=len(term_ids)) as span:
            seeks = blocks = 0
            for segment in segments:
                matched, s, b = segment.conjunctive_doc_ids(term_ids)
                doc_ids.extend(matched)
                seeks += s
                blocks += b
            doc_ids.extend(tail.docs_with_all(term_ids))
            if self._metrics_on:
                self._c_seeks.inc(seeks)
                self._c_join_blocks.inc(blocks)
            if span is not None:
                span.note(
                    matches=len(doc_ids), seeks=seeks, blocks_read=blocks
                )
        return doc_ids

    def _conjunctive_cursors(
        self, terms: Sequence[str]
    ) -> Optional[Tuple[List[MergedListCursor], List[int]]]:
        """Term-filtered cursors (and their list IDs) for the distinct
        query terms, or ``None`` when any term short-circuits the join —
        a document cannot contain a term that has no postings.
        """
        term_ids = []
        for term in dict.fromkeys(terms):
            term_id = self.term_id(term)
            if term_id is None:
                return None
            term_ids.append(term_id)
        cursors: List[MergedListCursor] = []
        list_ids: List[int] = []
        for term_id in term_ids:
            list_id = self._list_id_for(term_id)
            posting_list = self._existing_list(list_id)
            if posting_list is None or not len(posting_list):
                return None
            cursors.append(
                MergedListCursor(
                    posting_list,
                    term_code=term_id,
                    jump_index=self._jumps.get(list_id),
                    length_hint=self._term_postings.get(term_id, 0),
                )
            )
            list_ids.append(list_id)
        return cursors, list_ids

    def conjunctive_doc_ids(
        self, terms: Sequence[str], *, trace=None
    ) -> Tuple[List[int], int]:
        """Documents containing *all* terms, plus blocks read (Section 4).

        Absent terms short-circuit to an empty result.  The zigzag join's
        micro-costs — seeks, blocks read (total and per physical list),
        jump-pointer follows — feed the metrics registry and, when a
        trace is attached, the ``join`` span's attributes.
        """
        with self._stage("resolve", trace, terms=len(dict.fromkeys(terms))) as span:
            built = self._conjunctive_cursors(terms)
            if span is not None and built is not None:
                span.note(lists=len(set(built[1])))
        if built is None:
            return [], 0
        cursors, list_ids = built
        with self._stage("join", trace, cursors=len(cursors)) as span:
            jumps: List[BlockJumpIndex] = []
            seen_jumps = set()
            for list_id in list_ids:
                jump = self._jumps.get(list_id)
                if jump is not None and id(jump) not in seen_jumps:
                    seen_jumps.add(id(jump))
                    jumps.append(jump)
            follows_before = sum(j.pointers_followed for j in jumps)
            doc_ids, blocks = conjunctive_join(cursors)
            seeks = sum(c.seeks for c in cursors)
            follows = sum(j.pointers_followed for j in jumps) - follows_before
            if self._metrics_on:
                self._c_seeks.inc(seeks)
                self._c_join_blocks.inc(blocks)
                self._c_follows.inc(follows)
                for list_id, cursor in zip(list_ids, cursors):
                    self._list_blocks_series(list_id).inc(cursor.blocks_read())
            if span is not None:
                span.note(
                    matches=len(doc_ids),
                    seeks=seeks,
                    blocks_read=blocks,
                    jump_follows=follows,
                )
                if self.read_cache is not None:
                    span.note(
                        block_cache_hits=sum(c.cache_hits() for c in cursors)
                    )
        return doc_ids, blocks

    def _result_term_freqs(
        self, doc_id: int, terms: Sequence[str]
    ) -> Dict[int, int]:
        """Presence map (tf=1) for scoring conjunctive results."""
        return {
            self.term_id(t): 1 for t in terms if self.term_id(t) is not None
        }

    # ------------------------------------------------------------------
    # operational statistics
    # ------------------------------------------------------------------
    def archive_stats(self) -> Dict[str, object]:
        """Operational summary of the archive's committed state.

        Attaches every committed posting list first so counts cover the
        whole device, not just lists this session has touched.
        """
        for name in self.store.device.list_files():
            if name.startswith("engine/pl/"):
                self._existing_list(int(name.rsplit("/", 1)[1]))
        postings = sum(len(pl) for pl in self._lists.values())
        blocks = sum(pl.num_blocks for pl in self._lists.values())
        pointers = sum(j.pointers_set for j in self._jumps.values())
        lists = len(self._lists)
        tail_docs = tail_postings = segments_live = manifest_records = 0
        if self._tail is not None:
            self._load_manifest()
            tail_docs = self._tail.doc_count
            tail_postings = self._tail.posting_count
            segments_live = len(self._segments)
            manifest_records = self._manifest.record_count
            for segment in self._segments:
                seg_lists = list(segment.attached_lists())
                lists += len(seg_lists)
                postings += sum(len(pl) for pl, _ in seg_lists)
                blocks += sum(pl.num_blocks for pl, _ in seg_lists)
            postings += tail_postings
        retention = self._retention_if_any()
        if self._incidents is not None or self.store.device.exists(
            "engine/incidents"
        ):
            incidents = len(self.incidents)
        else:
            incidents = 0
        return {
            "documents": len(self.documents),
            "vocabulary": self.vocabulary_size,
            "physical_lists": lists,
            "postings": postings,
            "posting_blocks": blocks,
            "jump_pointers": pointers,
            "jump_index": (
                f"B={self.config.branching}" if self.config.branching else "off"
            ),
            "commit_log_records": len(self.time_index),
            "incidents": incidents,
            "dispositions": len(retention) if retention is not None else 0,
            "tail_docs": tail_docs,
            "tail_postings": tail_postings,
            "segments_live": segments_live,
            "manifest_records": manifest_records,
            "device_bytes": self.store.device.total_bytes(),
        }

    # ------------------------------------------------------------------
    # incident handling (Section 6 future work, implemented)
    # ------------------------------------------------------------------
    @property
    def incidents(self):
        """The engine's WORM-resident incident log (created on first use)."""
        if self._incidents is None:
            from repro.core.incidents import IncidentLog

            self._incidents = IncidentLog(self.store, "engine/incidents")
        return self._incidents

    @property
    def retention(self):
        """The engine's retention manager (created on first use)."""
        if self._retention is None:
            from repro.core.retention import RetentionManager

            self._retention = RetentionManager(
                self.store, log_name="engine/dispositions"
            )
        return self._retention

    def _retention_if_any(self):
        """The retention manager iff dispositions were ever committed.

        Query paths call this so that a reopened engine notices an
        existing disposition log without eagerly creating one.
        """
        if self._retention is None and self.store.device.exists(
            "engine/dispositions"
        ):
            return self.retention
        return self._retention

    def dispose_expired(self, *, now: Optional[int] = None):
        """Dispose of documents past their retention horizon (Section 2.2).

        Deletes each expired document from WORM and records the
        disposition in the append-only log, so that dangling index
        entries remain explainable to auditors.  Returns the disposed
        document IDs.
        """
        return self.retention.dispose_expired(
            self.documents, now=self._clock if now is None else now
        )

    def search_with_incident_handling(
        self, query, *, top_k: int = 10, trace=None
    ):
        """Search, verify, and *handle* any detected stuffing.

        Returns ``(results, report)``: results are verified against the
        WORM documents with known-bad (quarantined) IDs excluded, and the
        report lists what verification found this time.  Newly exposed
        fabricated IDs are quarantined via the incident log — they cannot
        be removed from WORM, so the engine appends durable knowledge
        that they are malicious instead (the paper's Section 6
        future-work question, answered the WORM way).
        """
        if isinstance(query, str):
            query = parse_query(query, analyzer=self.analyzer)
        raw = self.search(
            query,
            top_k=top_k + len(self.incidents.quarantined_doc_ids),
            verify=False,
            trace=trace,
        )
        candidates = [
            r for r in raw if not self.incidents.is_quarantined(r.doc_id)
        ]
        with self._stage("verify", trace, results=len(candidates)) as span:
            report = self.verify_results(
                [r.doc_id for r in candidates], query.terms
            )
            if span is not None:
                span.note(ok=report.ok)
        if not report.ok:
            retention = self._retention_if_any()

            def fabricated(doc_id: int) -> bool:
                if self.documents.exists(doc_id):
                    return False
                return retention is None or not retention.is_disposed(doc_id)

            def mismatched(doc_id: int) -> bool:
                if not self.documents.exists(doc_id):
                    return False
                text = self.documents.get(doc_id).text
                counts = self.analyzer.term_counts(text)
                return not any(t in counts for t in query.terms)

            # Fabricated IDs are quarantined globally (they reference no
            # document anywhere); keyword-mismatch plants are real
            # documents stuffed into the wrong list, so they are excluded
            # from *this* result only — they remain legitimate answers to
            # other queries.
            fabricated_ids = [r.doc_id for r in candidates if fabricated(r.doc_id)]
            mismatch_ids = {r.doc_id for r in candidates if mismatched(r.doc_id)}
            self.incidents.record(
                "posting-stuffing",
                location=f"query {query.terms!r}",
                invariant="result-document-consistency",
                description="; ".join(report.violations),
                quarantine_doc_ids=fabricated_ids,
            )
            candidates = [
                r
                for r in candidates
                if not self.incidents.is_quarantined(r.doc_id)
                and r.doc_id not in mismatch_ids
            ]
        return candidates[:top_k], report

    # ------------------------------------------------------------------
    # verification (Section 5)
    # ------------------------------------------------------------------
    def verify_results(
        self, doc_ids: Sequence[int], terms: Sequence[str]
    ) -> AuditReport:
        """Cross-check results against WORM-resident documents."""
        retention = self._retention_if_any()

        def exists(doc_id: int) -> bool:
            if self.documents.exists(doc_id):
                return True
            # A legitimately disposed document is not stuffing: its
            # absence is explained by an auditable WORM record.
            return retention is not None and retention.is_disposed(doc_id)

        def contains(doc_id: int, term: str) -> bool:
            if not self.documents.exists(doc_id):
                # Disposed: content gone, disposition record vouches.
                return True
            text = self.documents.get(doc_id).text
            return term in self.analyzer.term_counts(text)

        return audit_search_result(
            doc_ids, list(terms), document_exists=exists, document_contains=contains
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrustworthySearchEngine(docs={len(self.documents)}, "
            f"terms={self.vocabulary_size}, lists={len(self._lists)}, "
            f"jump={'B=' + str(self.config.branching) if self.config.branching else 'off'})"
        )
