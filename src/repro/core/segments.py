"""Immutable WORM segments sealed from the in-memory tail.

A *segment* is one frozen batch of documents: the tail's postings,
regrouped under a Section-3 merging strategy and appended to the
segment's own family of merged WORM posting lists
(``engine/seg/<seg_no>/pl/<list_id>``).  Segments are never modified
after sealing — the WORM device would refuse anyway — which is what
makes the read path snapshot-friendly: a reader holding a list of
sealed segments plus a tail snapshot sees one consistent index no
matter what the sealer and merger do next.

The **manifest** (``engine/segments``) is the atomic commit point.
Sealing writes the segment's posting lists first and appends one
manifest record last; merging does the same with a record that names
its input segments.  A crash anywhere before the manifest append leaves
only orphan list files, which recovery ignores (the manifest is the
sole source of truth — orphans only occupy their segment number, see
:func:`next_seg_no`).  Replay validates the doc-range bookkeeping of
every record; an inconsistent manifest is indistinguishable from
tampering and is reported as such.

Merging is *online*: a merge rewrites several live segments' postings
into one new segment under a freshly chosen strategy and then retires
the inputs in a single manifest append, all while readers keep using
the old segment list they snapshotted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.merge import PopularUnmergedMerge, UniformHashMerge
from repro.core.posting import MAX_TERM_ID_WITH_TF
from repro.core.posting_list import PostingList, collect_term_frequencies
from repro.errors import TamperDetectedError, WorkloadError
from repro.search.join import MergedListCursor, conjunctive_join

#: WORM file holding the manifest log.
MANIFEST_FILE = "engine/segments"

#: Name prefix of every segment-resident WORM file.
SEGMENT_PREFIX = "engine/seg/"

#: Assignment strategies a sealed segment can record.
STRATEGY_UNIFORM = 0
STRATEGY_POPULAR = 1

# opcode, seg_no, first_doc, last_doc, doc_count, num_lists, strategy,
# n_popular, n_inputs — followed by n_popular + n_inputs u32 values.
_HEADER = struct.Struct("<BIQQQIBHH")
_U32 = struct.Struct("<I")

_OP_SEAL = 1
_OP_MERGE = 2


def segment_list_name(seg_no: int, list_id: int) -> str:
    """The WORM file holding one merged list of one segment."""
    return f"{SEGMENT_PREFIX}{seg_no:06d}/pl/{list_id:08d}"


@dataclass(frozen=True)
class SegmentInfo:
    """One sealed segment's manifest record.

    ``popular_terms`` and ``strategy`` pin the term→list assignment the
    sealer used, so readers rebuild the exact same mapping in any later
    session.  ``inputs`` is empty for a seal and names the retired
    segments for a merge.
    """

    seg_no: int
    first_doc: int
    last_doc: int
    doc_count: int
    num_lists: int
    strategy: int
    popular_terms: Tuple[int, ...] = ()
    inputs: Tuple[int, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (CLI ``segments`` subcommand)."""
        return {
            "seg_no": self.seg_no,
            "first_doc": self.first_doc,
            "last_doc": self.last_doc,
            "doc_count": self.doc_count,
            "num_lists": self.num_lists,
            "strategy": (
                "popular" if self.strategy == STRATEGY_POPULAR else "uniform"
            ),
            "popular_terms": len(self.popular_terms),
            "merged_from": list(self.inputs),
        }


def _pack_record(info: SegmentInfo) -> bytes:
    opcode = _OP_MERGE if info.inputs else _OP_SEAL
    head = _HEADER.pack(
        opcode,
        info.seg_no,
        info.first_doc,
        info.last_doc,
        info.doc_count,
        info.num_lists,
        info.strategy,
        len(info.popular_terms),
        len(info.inputs),
    )
    tail = b"".join(
        _U32.pack(v) for v in (*info.popular_terms, *info.inputs)
    )
    return head + tail


def _unpack_records(payload: bytes, *, location: str) -> Iterator[SegmentInfo]:
    offset = 0
    while offset < len(payload):
        if offset + _HEADER.size > len(payload):
            raise TamperDetectedError(
                f"truncated manifest record at byte {offset}",
                location=location,
                invariant="segment-manifest",
            )
        (
            opcode,
            seg_no,
            first_doc,
            last_doc,
            doc_count,
            num_lists,
            strategy,
            n_popular,
            n_inputs,
        ) = _HEADER.unpack_from(payload, offset)
        offset += _HEADER.size
        extra = n_popular + n_inputs
        if opcode not in (_OP_SEAL, _OP_MERGE) or (
            offset + extra * _U32.size > len(payload)
        ):
            raise TamperDetectedError(
                f"malformed manifest record at byte {offset - _HEADER.size}",
                location=location,
                invariant="segment-manifest",
            )
        values = [
            _U32.unpack_from(payload, offset + i * _U32.size)[0]
            for i in range(extra)
        ]
        offset += extra * _U32.size
        inputs = tuple(values[n_popular:])
        if (opcode == _OP_MERGE) != bool(inputs):
            raise TamperDetectedError(
                f"manifest opcode {opcode} disagrees with its "
                f"{len(inputs)} input references",
                location=location,
                invariant="segment-manifest",
            )
        yield SegmentInfo(
            seg_no=seg_no,
            first_doc=first_doc,
            last_doc=last_doc,
            doc_count=doc_count,
            num_lists=num_lists,
            strategy=strategy,
            popular_terms=tuple(values[:n_popular]),
            inputs=inputs,
        )


class SegmentManifest:
    """Append-only WORM log of seal and merge events.

    Replaying the log yields the *live* segment list: a seal appends its
    segment; a merge replaces the contiguous run of live segments it
    names with the merged one.  Every transition is validated — ranges
    must stay disjoint and ascending — so a log that does not describe a
    reachable index state raises :class:`TamperDetectedError` instead of
    silently corrupting reads.
    """

    def __init__(self, store, *, name: str = MANIFEST_FILE):
        self.store = store
        self.name = name
        self._file = store.ensure_file(name)
        self._records: List[SegmentInfo] = []
        self._live: List[SegmentInfo] = []
        if self._file.num_blocks:
            payload = b"".join(
                store.peek_block(name, b)
                for b in range(self._file.num_blocks)
            )
            for info in _unpack_records(
                payload, location=f"segment manifest '{name}'"
            ):
                self._apply(info)
                self._records.append(info)

    # ------------------------------------------------------------------
    def live(self) -> List[SegmentInfo]:
        """Live segments in ascending doc-range order."""
        return list(self._live)

    @property
    def record_count(self) -> int:
        return len(self._records)

    @property
    def max_seg_no(self) -> int:
        """Highest segment number ever recorded (``-1`` when empty)."""
        return max((r.seg_no for r in self._records), default=-1)

    @property
    def sealed_through(self) -> int:
        """Highest doc id covered by a live segment (``-1`` when none)."""
        return self._live[-1].last_doc if self._live else -1

    # ------------------------------------------------------------------
    def append(self, info: SegmentInfo) -> None:
        """Validate, commit, and apply one seal/merge record.

        Validation runs *before* the WORM append so an inconsistent
        record is refused rather than committed and rejected at every
        future replay.
        """
        self._validate(info)
        self.store.append_record(self.name, _pack_record(info))
        self._apply(info, validated=True)
        self._records.append(info)

    def _validate(self, info: SegmentInfo) -> None:
        if info.doc_count < 1 or info.first_doc > info.last_doc:
            raise TamperDetectedError(
                f"segment {info.seg_no} has an empty or inverted doc "
                f"range [{info.first_doc}, {info.last_doc}]",
                location=f"segment manifest '{self.name}'",
                invariant="segment-manifest",
            )
        if any(r.seg_no == info.seg_no for r in self._records):
            raise TamperDetectedError(
                f"segment number {info.seg_no} reused",
                location=f"segment manifest '{self.name}'",
                invariant="segment-manifest",
            )
        if not info.inputs:
            if info.first_doc <= self.sealed_through:
                raise TamperDetectedError(
                    f"segment {info.seg_no} starts at doc "
                    f"{info.first_doc}, inside the sealed range "
                    f"(through {self.sealed_through})",
                    location=f"segment manifest '{self.name}'",
                    invariant="segment-manifest",
                )
            return
        run = self._input_run(info)
        if (
            info.first_doc != run[0].first_doc
            or info.last_doc != run[-1].last_doc
            or info.doc_count != sum(r.doc_count for r in run)
        ):
            raise TamperDetectedError(
                f"merged segment {info.seg_no} does not cover exactly "
                f"its inputs {info.inputs}",
                location=f"segment manifest '{self.name}'",
                invariant="segment-manifest",
            )

    def _input_run(self, info: SegmentInfo) -> List[SegmentInfo]:
        live_nos = [r.seg_no for r in self._live]
        try:
            start = live_nos.index(info.inputs[0])
        except ValueError:
            start = -1
        if (
            start < 0
            or live_nos[start : start + len(info.inputs)]
            != list(info.inputs)
        ):
            raise TamperDetectedError(
                f"merge record {info.seg_no} references segments "
                f"{info.inputs} that are not a contiguous live run "
                f"(live: {live_nos})",
                location=f"segment manifest '{self.name}'",
                invariant="segment-manifest",
            )
        return self._live[start : start + len(info.inputs)]

    def _apply(self, info: SegmentInfo, *, validated: bool = False) -> None:
        if not validated:
            self._validate(info)
        if not info.inputs:
            self._live.append(info)
            return
        retired = set(info.inputs)
        index = next(
            i
            for i, r in enumerate(self._live)
            if r.seg_no == info.inputs[0]
        )
        self._live = [r for r in self._live if r.seg_no not in retired]
        self._live.insert(index, info)


def next_seg_no(device, manifest: SegmentManifest) -> int:
    """The next unused segment number.

    Counts both manifest-recorded segments and *orphan* segment files —
    list files a crashed seal/merge left behind without a manifest
    record.  Orphans are dead weight on WORM (they cannot be deleted
    before their implicit horizon) but must never be overwritten, so
    their numbers stay burned.
    """
    highest = manifest.max_seg_no
    for name in device.list_files():
        if name.startswith(SEGMENT_PREFIX):
            head = name[len(SEGMENT_PREFIX) :].split("/", 1)[0]
            try:
                highest = max(highest, int(head))
            except ValueError:
                continue
    return highest + 1


def _assignment_for(info: SegmentInfo):
    if info.strategy == STRATEGY_POPULAR and info.popular_terms:
        return PopularUnmergedMerge(info.num_lists, list(info.popular_terms))
    return UniformHashMerge(info.num_lists)


class _LazyAssignment:
    """Term→list mapping grown on demand (mirrors the engine's).

    Strategies are stable under universe growth, so re-deriving a larger
    assignment as higher term ids appear never moves an assigned term.
    """

    def __init__(self, strategy):
        self._strategy = strategy
        self._assignment = None

    def list_for(self, term_id: int) -> int:
        if (
            self._assignment is None
            or self._assignment.num_terms <= term_id
        ):
            universe = max(1024, 2 * (term_id + 1))
            self._assignment = self._strategy.assign(universe)
        return self._assignment.list_for(term_id)


def write_segment_lists(
    store,
    seg_no: int,
    postings_by_term: Dict[int, List[Tuple[int, int]]],
    *,
    num_lists: int,
    strategy: int,
    popular_terms: Sequence[int],
    branching: Optional[int],
) -> int:
    """Write segment ``seg_no``'s merged posting lists; returns the
    posting count.  Pure data write — the caller commits the manifest
    record afterwards (the atomic step)."""
    assign = _LazyAssignment(
        _assignment_for(
            SegmentInfo(
                seg_no=seg_no,
                first_doc=0,
                last_doc=0,
                doc_count=1,
                num_lists=num_lists,
                strategy=strategy,
                popular_terms=tuple(popular_terms),
            )
        )
    )
    postings_by_list: Dict[int, List[Tuple[int, int]]] = {}
    total = 0
    for term_id in sorted(postings_by_term):
        entries = postings_by_term[term_id]
        postings_by_list.setdefault(assign.list_for(term_id), []).extend(
            entries
        )
        total += len(entries)
    for list_id in sorted(postings_by_list):
        # Ascending (doc, term) order — the same order the legacy
        # synchronous path appends in, so monotonicity invariants and
        # jump-pointer placement are identical.
        entries = sorted(
            postings_by_list[list_id],
            key=lambda e: (e[0], e[1] & MAX_TERM_ID_WITH_TF),
        )
        name = segment_list_name(seg_no, list_id)
        if branching is not None:
            BlockJumpIndex.create(store, name, branching=branching).insert_many(
                entries
            )
        else:
            PostingList(store, name).append_many(entries)
    return total


class SealedSegment:
    """Read-side handle of one sealed segment.

    Lazily attaches the segment's posting lists (and jump indexes) and
    resolves term→list through the assignment pinned in the manifest
    record.  Handles plug into the engine's read cache exactly like the
    legacy merged lists: decoded-block and jump-memo tiers key on the
    segment-scoped file names.
    """

    def __init__(
        self,
        store,
        info: SegmentInfo,
        *,
        branching: Optional[int],
        read_cache=None,
        decode_metrics=None,
    ):
        self.store = store
        self.info = info
        self.branching = branching
        self.read_cache = read_cache
        self.decode_metrics = decode_metrics
        self._assign = _LazyAssignment(_assignment_for(info))
        self._lists: Dict[int, PostingList] = {}
        self._jumps: Dict[int, BlockJumpIndex] = {}

    # ------------------------------------------------------------------
    def list_for(self, term_id: int) -> int:
        return self._assign.list_for(term_id)

    def _attach(self, list_id: int) -> Optional[PostingList]:
        posting_list = self._lists.get(list_id)
        if posting_list is None:
            name = segment_list_name(self.info.seg_no, list_id)
            if not self.store.device.exists(name):
                return None
            if self.branching is not None:
                jump = BlockJumpIndex.create(
                    self.store, name, branching=self.branching
                )
                posting_list = jump.posting_list
                self._jumps[list_id] = jump
                if self.read_cache is not None:
                    jump.memo = self.read_cache.memo_for(name)
            else:
                posting_list = PostingList(self.store, name)
            if self.read_cache is not None:
                posting_list.read_cache = self.read_cache.blocks
            if self.decode_metrics is not None:
                posting_list.decode_metrics = self.decode_metrics
            self._lists[list_id] = posting_list
        return posting_list

    # ------------------------------------------------------------------
    # query paths
    # ------------------------------------------------------------------
    def conjunctive_doc_ids(
        self, term_ids: Sequence[int]
    ) -> Tuple[List[int], int, int]:
        """Documents in this segment containing *all* terms.

        Returns ``(doc_ids, seeks, blocks_read)``; an absent or empty
        list short-circuits to no matches.
        """
        cursors: List[MergedListCursor] = []
        for term_id in term_ids:
            list_id = self.list_for(term_id)
            posting_list = self._attach(list_id)
            if posting_list is None or not len(posting_list):
                return [], 0, 0
            cursors.append(
                MergedListCursor(
                    posting_list,
                    term_code=term_id,
                    jump_index=self._jumps.get(list_id),
                )
            )
        doc_ids, blocks = conjunctive_join(cursors)
        return doc_ids, sum(c.seeks for c in cursors), blocks

    def collect_candidates(
        self,
        wanted: Sequence[int],
        candidates: Dict[int, Dict[int, int]],
        *,
        cached: bool = False,
    ) -> int:
        """Max-merge the wanted terms' postings into ``candidates``
        (disjunctive path); returns entries scanned."""
        wanted_set = set(wanted)
        attached = (
            self._attach(list_id)
            for list_id in sorted({self.list_for(t) for t in wanted_set})
        )
        return collect_term_frequencies(
            (pl for pl in attached if pl is not None),
            wanted_set,
            candidates,
            cached=cached,
        )

    # ------------------------------------------------------------------
    # maintenance / audit
    # ------------------------------------------------------------------
    def list_file_names(self) -> List[str]:
        """Every committed list file of this segment (sorted)."""
        prefix = f"{SEGMENT_PREFIX}{self.info.seg_no:06d}/"
        return sorted(
            name
            for name in self.store.device.list_files()
            if name.startswith(prefix)
        )

    def attached_lists(
        self,
    ) -> Iterator[Tuple[PostingList, Optional[BlockJumpIndex]]]:
        """Attach and yield every committed ``(list, jump)`` pair."""
        for name in self.list_file_names():
            list_id = int(name.rsplit("/", 1)[1])
            posting_list = self._attach(list_id)
            if posting_list is not None:
                yield posting_list, self._jumps.get(list_id)

    def postings_by_term(self) -> Dict[int, List[Tuple[int, int]]]:
        """All postings regrouped per term, doc order (merge input).

        Uncached scan: merging is maintenance and must not evict the
        query working set from the decoded-block tier.
        """
        grouped: Dict[int, List[Tuple[int, int]]] = {}
        for posting_list, _ in self.attached_lists():
            for posting in posting_list.scan(counted=False):
                term_id = posting.term_code & MAX_TERM_ID_WITH_TF
                grouped.setdefault(term_id, []).append(
                    (posting.doc_id, posting.term_code)
                )
        return grouped

    def posting_count(self) -> int:
        return sum(len(pl) for pl, _ in self.attached_lists())

    def block_count(self) -> int:
        return sum(pl.num_blocks for pl, _ in self.attached_lists())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SealedSegment(no={self.info.seg_no}, "
            f"docs=[{self.info.first_doc},{self.info.last_doc}])"
        )


def choose_popular_terms(
    counts: Dict[int, int], k: int, num_lists: int
) -> Tuple[int, ...]:
    """The ``k`` most posting-heavy terms (ties broken by term id).

    Clamped so at least one hashed list remains
    (:class:`~repro.core.merge.PopularUnmergedMerge` requires
    ``len(popular) < num_lists``).
    """
    k = max(0, min(k, num_lists - 1, len(counts)))
    if k == 0:
        return ()
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    return tuple(sorted(ranked[:k]))


def validate_seal_strategy(name: str) -> str:
    """Validate an ``EngineConfig.seal_strategy`` value."""
    if name not in ("uniform", "popular", "epoch"):
        raise WorkloadError(
            f"unknown seal strategy '{name}'; choose from "
            f"'uniform', 'popular', 'epoch'"
        )
    return name
