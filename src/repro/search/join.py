"""Zigzag and scan-merge joins over seekable posting cursors (Figure 5).

Conjunctive queries intersect posting lists.  The zigzag join exploits
that posting lists are sorted by document ID: each side repeatedly seeks
(``FindGeq``) to the other side's current ID, skipping runs that cannot
participate in the result.  With an auxiliary index (jump index here;
B+ tree in the untrusted baseline) the seeks are logarithmic; without
one they degrade to scans — both are represented as cursor adapters so
the join code and the blocks-read accounting are shared.

The paper's trust guarantee rides on the seek primitive: Proposition 3
says a jump-index FindGeq can never skip a committed ID, so
:func:`zigzag` over jump-indexed cursors can never omit a document that
is in both lists.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from repro.baselines.bplus_tree import BPlusTree
from repro.core.block_jump_index import BlockJumpIndex
from repro.core.posting import MAX_TERM_ID_WITH_TF
from repro.core.posting_list import BEYOND_BLOCK, PostingList
from repro.errors import QueryError


class _ListCursor:
    """Seek and accounting shared by the cursors over one posting list."""

    def __init__(
        self,
        posting_list: PostingList,
        *,
        term_code: Optional[int],
        jump_index: Optional[BlockJumpIndex],
    ):
        self.jump_index = jump_index
        self._cursor = posting_list.cursor(term_code=term_code)
        #: Seek operations performed (the paper's FindGeq count).
        self.seeks = 0

    def doc(self) -> Optional[int]:
        """Current document ID (``None`` when exhausted)."""
        if self._cursor.exhausted:
            return None
        return self._cursor.current_doc

    def seek_geq(self, k: int) -> Optional[int]:
        """Advance to the first kept posting with ID >= ``k``.

        A target within the loaded block costs one in-block ``bisect``;
        only a target beyond it navigates jump pointers (or scans, without
        a jump index).  Either way the seek, every block read and every
        followed pointer are counted.
        """
        cursor = self._cursor
        if cursor.exhausted:
            return None
        self.seeks += 1
        doc = cursor.seek_in_block(k)
        if doc != BEYOND_BLOCK:
            return doc
        if self.jump_index is not None:
            self.jump_index.find_geq(cursor, k)
        else:
            cursor.seek_geq_sequential(k)
        return self.doc()

    def blocks_read(self) -> int:
        """Distinct posting-list blocks this cursor loaded."""
        return len(self._cursor.blocks_read)

    def cache_hits(self) -> int:
        """Block loads served by the shared read cache (0 cache-off)."""
        return self._cursor.cache_hits


class MergedListCursor(_ListCursor):
    """Seekable cursor over one (merged) posting list, term-filtered.

    With a :class:`~repro.core.block_jump_index.BlockJumpIndex` attached,
    seeks navigate jump pointers; otherwise they scan sequentially (the
    merged-no-jump-index configuration of the Section 6 comparison).
    """

    def __init__(
        self,
        posting_list: PostingList,
        *,
        term_code: Optional[int] = None,
        jump_index: Optional[BlockJumpIndex] = None,
        length_hint: Optional[int] = None,
    ):
        super().__init__(posting_list, term_code=term_code, jump_index=jump_index)
        self._length_hint = length_hint

    def estimated_length(self) -> int:
        """Join-ordering hint: filtered length if known, else list length."""
        if self._length_hint is not None:
            return self._length_hint
        return len(self._cursor.posting_list)


class TreeCursor:
    """Seekable cursor over a B+-tree-indexed (unmerged) posting list."""

    def __init__(self, tree: BPlusTree):
        self.tree = tree
        self._visited: set = set()
        self._current: Optional[int] = tree.find_geq(0, visited=self._visited)
        #: Seek operations performed (the paper's FindGeq count).
        self.seeks = 0

    def doc(self) -> Optional[int]:
        """Current document ID (``None`` when exhausted)."""
        return self._current

    def seek_geq(self, k: int) -> Optional[int]:
        """Advance to the first key >= ``k``."""
        if self._current is not None and self._current >= k:
            return self._current
        self.seeks += 1
        self._current = self.tree.find_geq(k, visited=self._visited)
        return self._current

    def estimated_length(self) -> int:
        """Join-ordering hint."""
        return len(self.tree)

    def blocks_read(self) -> int:
        """Distinct tree nodes visited."""
        return len(self._visited)


class MemoryCursor:
    """Seekable cursor over an in-memory sorted ID list (zero I/O).

    Used for intermediate results of k-way joins: the partial
    intersection is already in query-processor memory.
    """

    def __init__(self, doc_ids: Sequence[int]):
        self._ids = list(doc_ids)
        self._pos = 0
        #: Seek operations performed (kept for cursor-interface parity).
        self.seeks = 0

    def doc(self) -> Optional[int]:
        """Current document ID (``None`` when exhausted)."""
        if self._pos >= len(self._ids):
            return None
        return self._ids[self._pos]

    def seek_geq(self, k: int) -> Optional[int]:
        """Advance to the first ID >= ``k`` by binary search (in memory)."""
        self.seeks += 1
        self._pos = bisect_left(self._ids, k, lo=self._pos)
        return self.doc()

    def estimated_length(self) -> int:
        """Join-ordering hint."""
        return len(self._ids)

    def blocks_read(self) -> int:
        """Memory cursors read no blocks."""
        return 0


def zigzag(cursor1, cursor2) -> List[int]:
    """The ZIGZAG algorithm of Figure 5 over two seekable cursors."""
    out: List[int] = []
    top1 = cursor1.doc()
    top2 = cursor2.doc()
    while top1 is not None and top2 is not None:
        if top1 < top2:
            top1 = cursor1.seek_geq(top2)
        elif top2 < top1:
            top2 = cursor2.seek_geq(top1)
        else:
            out.append(top1)
            top1 = cursor1.seek_geq(top1 + 1)
            top2 = cursor2.seek_geq(top2 + 1)
    return out


def conjunctive_join(cursors: Sequence) -> Tuple[List[int], int]:
    """K-way conjunctive join, shortest lists first (Section 4.5).

    "Multi-keyword queries are answered with zigzag joins of the posting
    lists, starting with the shortest two lists"; each partial result is
    then zigzag-joined with the next shortest list.  Returns the matching
    document IDs and the total distinct blocks read across all cursors.
    """
    if not cursors:
        raise QueryError("conjunctive join needs at least one cursor")
    ordered = sorted(cursors, key=lambda c: c.estimated_length())
    if len(ordered) == 1:
        only = ordered[0]
        out: List[int] = []
        doc = only.doc()
        while doc is not None:
            out.append(doc)
            doc = only.seek_geq(doc + 1)
        return out, only.blocks_read()
    result = zigzag(ordered[0], ordered[1])
    for cursor in ordered[2:]:
        if not result:
            break
        result = zigzag(MemoryCursor(result), cursor)
    blocks = sum(c.blocks_read() for c in ordered)
    return result, blocks


class RawMergedCursor(_ListCursor):
    """Doc-ID-granularity cursor over a merged list (paper join semantics).

    The paper's engine zigzags over the merged lists *unfiltered* — every
    posting participates in the stepping, and term membership is checked
    only when document IDs match ("to remove false positives").  With
    uniform merging this makes 2-keyword joins approximate a scan of both
    lists (Section 4.5's explanation for the ~10% two-keyword slowdown),
    which the filtered :class:`MergedListCursor` would avoid; the
    simulation harness uses this cursor for figure fidelity.
    """

    def __init__(
        self,
        posting_list: PostingList,
        wanted_codes: Sequence[int],
        *,
        jump_index: Optional[BlockJumpIndex] = None,
    ):
        super().__init__(posting_list, term_code=None, jump_index=jump_index)
        self.wanted_codes = set(int(c) & MAX_TERM_ID_WITH_TF for c in wanted_codes)

    def doc_has_codes(self, doc_id: int) -> bool:
        """Whether the entries for ``doc_id`` cover all wanted term codes.

        The cursor stands at the first entry for ``doc_id``; all entries
        for one document are adjacent (appended together at ingest), so a
        forward scan over the run suffices.  Blocks touched are charged
        to this cursor like any other read.
        """
        remaining = set(self.wanted_codes)
        block_no, index = self._cursor.position
        posting_list = self._cursor.posting_list
        while remaining and block_no < posting_list.num_blocks:
            entries = self._cursor.peek_block(block_no)
            docs, codes = entries.doc_ids, entries.term_codes
            while index < len(docs):
                if docs[index] != doc_id:
                    return not remaining
                remaining.discard(codes[index] & MAX_TERM_ID_WITH_TF)
                index += 1
            block_no += 1
            index = 0
        return not remaining

    def estimated_length(self) -> int:
        """Join-ordering hint: the raw merged-list length."""
        return len(self._cursor.posting_list)


def paper_conjunctive_join(cursors: Sequence[RawMergedCursor]) -> Tuple[List[int], int]:
    """K-way conjunctive join with the paper's unfiltered staged semantics.

    ``cursors`` must be one :class:`RawMergedCursor` per *distinct*
    physical list, each carrying the term codes the query needs from that
    list.  As in Section 4.5, the two shortest lists are zigzag-joined
    first (approximately a scan when they are of equal size); each
    subsequent list is then probed with the shrinking partial result,
    where the jump index's FindGeq pays off — this staging is what makes
    the speedup grow with the number of keywords.
    """
    if not cursors:
        raise QueryError("conjunctive join needs at least one cursor")
    ordered = sorted(cursors, key=lambda c: c.estimated_length())
    if len(ordered) == 1:
        only = ordered[0]
        result: List[int] = []
        doc = only.doc()
        while doc is not None:
            if only.doc_has_codes(doc):
                result.append(doc)
            doc = only.seek_geq(doc + 1)
        return result, only.blocks_read()
    first, second = ordered[0], ordered[1]
    result = _raw_zigzag_verified(first, second)
    for cursor in ordered[2:]:
        if not result:
            break
        result = [
            doc
            for doc in result
            if cursor.seek_geq(doc) == doc and cursor.doc_has_codes(doc)
        ]
    blocks = sum(c.blocks_read() for c in ordered)
    return result, blocks


def _raw_zigzag_verified(c1: RawMergedCursor, c2: RawMergedCursor) -> List[int]:
    """Zigzag two raw merged cursors, verifying term codes at matches."""
    out: List[int] = []
    top1, top2 = c1.doc(), c2.doc()
    while top1 is not None and top2 is not None:
        if top1 < top2:
            top1 = c1.seek_geq(top2)
        elif top2 < top1:
            top2 = c2.seek_geq(top1)
        else:
            if c1.doc_has_codes(top1) and c2.doc_has_codes(top1):
                out.append(top1)
            top1 = c1.seek_geq(top1 + 1)
            top2 = c2.seek_geq(top2 + 1)
    return out


def sequential_conjunctive(
    posting_lists: Sequence[PostingList],
    term_codes: Sequence[Optional[int]],
) -> Tuple[List[int], int]:
    """Scan-merge conjunctive join baseline (no auxiliary index).

    Reads every block of every involved list once — the denominator^-1 of
    Figure 8(c)'s speedup metric ("the number of blocks read when no jump
    index is kept, using a sequential scan-merge join").
    """
    if len(posting_lists) != len(term_codes):
        raise QueryError("posting_lists and term_codes must align")
    if not posting_lists:
        raise QueryError("conjunctive join needs at least one list")
    blocks = 0
    id_sets: List[set] = []
    for posting_list, code in zip(posting_lists, term_codes):
        blocks += posting_list.num_blocks
        ids = {
            p.doc_id
            for p in posting_list.scan(counted=False)
            if code is None or p.term_code == code
        }
        id_sets.append(ids)
    result = set.intersection(*id_sets) if id_sets else set()
    return sorted(result), blocks
