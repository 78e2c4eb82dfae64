"""Property tests: term-filtered FindGeq agrees with brute force.

A merged list interleaves several terms' postings, so a term-filtered
cursor must skip other terms' entries, whole blocks holding none of the
wanted term, and the packed-frequency byte of every code.  For every
target ``k`` the jump-indexed seek (Proposition 3: never skips a
committed ID) and the sequential seek must both land on the first
filtered posting with ID >= ``k``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.posting import MAX_TERM_ID_WITH_TF, pack_term_tf
from repro.search.join import MergedListCursor
from repro.worm.storage import CachedWormStore

#: A term no cursor asks for; its runs fill whole blocks.
FILLER_TERM = 7

documents = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),  # doc-id gap
        st.sets(st.integers(min_value=0, max_value=3), min_size=1),  # terms
        st.integers(min_value=1, max_value=300),  # tf (packing saturates)
        st.booleans(),  # stuff a second posting for the doc's first term
    ),
    min_size=1,
    max_size=30,
)


def build(docs, filler_at, branching):
    """A jump-indexed merged list; returns it with its ``(doc, code)``s."""
    store = CachedWormStore(None, block_size=256)
    jump = BlockJumpIndex.create(store, "pl", branching=branching, max_doc_bits=16)
    per_block = jump.posting_list.entries_per_block
    postings = []
    doc = 0
    for position, (gap, terms, tf, stuffed) in enumerate(docs):
        if position == filler_at:
            # 2p consecutive filler postings cover one whole block.
            for _ in range(2 * per_block):
                doc += 1
                postings.append((doc, pack_term_tf(FILLER_TERM, 1)))
        doc += gap
        for term in sorted(terms):
            postings.append((doc, pack_term_tf(term, tf)))
        if stuffed:
            # A second posting for a (document, term) already present.
            postings.append((doc, pack_term_tf(min(terms), tf + 1)))
    if len(postings) % per_block == 0:
        # Leave the last block partly filled.
        postings.append((doc + 1, pack_term_tf(FILLER_TERM, 1)))
    jump.insert_many(postings)
    return jump, postings


def first_geq(doc_ids, k):
    return next((d for d in doc_ids if d >= k), None)


cases = st.tuples(
    documents,
    st.integers(min_value=0, max_value=30),  # filler position
    st.sampled_from([2, 4]),  # branching
    st.sampled_from([None, 0, 1, 2, 3]),  # wanted term (None: unfiltered)
)


class TestFilteredSeekProperties:
    @given(case=cases)
    @settings(max_examples=40, deadline=None)
    def test_property_every_target_from_a_fresh_cursor(self, case):
        docs, filler_at, branching, want = case
        jump, postings = build(docs, filler_at, branching)
        posting_list = jump.posting_list
        wanted = [
            (d, c)
            for d, c in postings
            if want is None or c & MAX_TERM_ID_WITH_TF == want
        ]
        wanted_ids = [d for d, _ in wanted]
        for k in range(postings[-1][0] + 3):
            expected = first_geq(wanted_ids, k)
            jumped = MergedListCursor(posting_list, term_code=want, jump_index=jump)
            sequential = MergedListCursor(posting_list, term_code=want)
            assert jumped.seek_geq(k) == expected
            assert sequential.seek_geq(k) == expected
            found = jump.find_geq(posting_list.cursor(term_code=want), k)
            if expected is None:
                assert found is None
            else:
                assert found.doc_id == expected
                assert want is None or found.term_code & MAX_TERM_ID_WITH_TF == want

    @given(case=cases, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_zigzag_target_sequence(self, case, data):
        """One cursor per kind seeking non-decreasing targets, as the join
        drives it: each answer agrees with brute force, and the jump-indexed
        cursor stands on a posting of the wanted term."""
        docs, filler_at, branching, want = case
        jump, postings = build(docs, filler_at, branching)
        posting_list = jump.posting_list
        wanted_ids = [
            d
            for d, c in postings
            if want is None or c & MAX_TERM_ID_WITH_TF == want
        ]
        targets = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=postings[-1][0] + 2),
                    max_size=30,
                )
            )
        )
        jumped = MergedListCursor(posting_list, term_code=want, jump_index=jump)
        sequential = MergedListCursor(posting_list, term_code=want)
        for k in targets:
            expected = first_geq(wanted_ids, k)
            assert jumped.seek_geq(k) == expected
            assert sequential.seek_geq(k) == expected
            if expected is not None:
                block_no, index = jumped._cursor.position
                entry = jumped._cursor.peek_block(block_no)[index]
                assert entry.doc_id == expected
                assert want is None or entry.term_code & MAX_TERM_ID_WITH_TF == want
