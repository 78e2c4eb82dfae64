"""Correctness checks: the result oracle and the drain check.

The oracle replays a seeded sample of a run's searches against a
single-shard, legacy-mode :class:`~repro.search.engine.TrustworthySearchEngine`
fed every acknowledged document in doc-ID order.  Sharded scores are
summed from per-shard statistics and are not bit-identical to unsharded
ones, so scores compare within :data:`SCORE_TOLERANCE`, and documents
tied within it at rank k may resolve either way.

The drain check reopens a served archive after its SIGTERM drain and
counts every acknowledged document that is missing, altered, or that a
search for its rarest term does not return.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cli import open_archive
from repro.observability.metrics import NullMetricsRegistry
from repro.search.analyzer import Analyzer
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.search.query import Query

#: Relative score tolerance (observed sharded-vs-unsharded gaps are
#: below 1e-15; anything a real defect moves is far larger).
SCORE_TOLERANCE = 1e-9
#: Extra reference depth, so documents tied at rank k are visible.
TIE_DEPTH = 20

Results = Sequence[Tuple[int, float]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_TOLERANCE * max(1.0, abs(a), abs(b))


def build_reference(texts: Sequence[str]) -> TrustworthySearchEngine:
    """A one-shard legacy engine holding ``texts`` as doc IDs 0..n-1."""
    engine = TrustworthySearchEngine(
        EngineConfig(num_lists=256, block_size=4096, branching=None),
        metrics=NullMetricsRegistry(),
    )
    for start in range(0, len(texts), 500):
        engine.index_batch(texts[start : start + 500])
    return engine


def reference_results(engine, query: str, top_k: int) -> Results:
    return [(hit.doc_id, hit.score) for hit in engine.search(query, top_k=top_k + TIE_DEPTH)]


def compare(got: Results, deep: Results, top_k: int) -> Optional[str]:
    """``None`` when ``got`` is a correct top-``top_k`` answer given the
    reference's deeper answer ``deep``; otherwise the first difference."""
    want = list(deep[:top_k])
    if len(got) != len(want):
        return f"{len(got)} results, reference has {len(want)}"
    for rank, ((_, got_score), (_, want_score)) in enumerate(zip(got, want)):
        if not _close(got_score, want_score):
            return f"rank {rank}: score {got_score!r}, reference {want_score!r}"
    reference = dict(deep)
    for doc_id, score in got:
        if doc_id not in reference or not _close(reference[doc_id], score):
            return f"doc {doc_id} (score {score!r}) is not in the reference answer"
    if want:
        returned = {doc_id for doc_id, _ in got}
        cutoff = want[-1][1]
        for doc_id, score in want:
            # Only documents tied with rank k may be swapped out.
            if doc_id not in returned and not _close(score, cutoff):
                return f"doc {doc_id} (score {score!r}) is missing"
    return None


def sample_queries(queries: Sequence[str], count: int, seed: int) -> List[str]:
    """A seeded sample of the searches a run made."""
    rng = random.Random(seed ^ 0x0A11CE)
    if len(queries) <= count:
        return list(queries)
    return rng.sample(list(queries), count)


def run_oracle(
    answer, reference, queries: Sequence[str], top_k: int
) -> Tuple[int, List[str]]:
    """Compare ``answer(query) -> results`` with the reference on every
    query; returns ``(mismatches, messages)``."""
    mismatches, messages = 0, []
    for query in queries:
        problem = compare(answer(query), reference_results(reference, query, top_k), top_k)
        if problem is not None:
            mismatches += 1
            if len(messages) < 5:
                messages.append(f"{query!r}: {problem}")
    return mismatches, messages


def drain_check(archive: str, acknowledged: Mapping[int, str]) -> Tuple[int, List[str]]:
    """Reopen ``archive`` and check every acknowledged ``doc_id -> text``.

    Returns ``(failures, messages)``.  A document fails when it is
    missing, its text differs, or a search for its rarest term (by
    document frequency among the acknowledged documents) leaves it out.
    """
    analyzer = Analyzer()
    terms = {doc_id: analyzer.term_counts(text) for doc_id, text in acknowledged.items()}
    df = Counter(term for counts in terms.values() for term in counts)
    engine, handle = open_archive(archive)
    failures, messages = 0, []

    def fail(message: str) -> None:
        nonlocal failures
        failures += 1
        if len(messages) < 5:
            messages.append(message)

    try:
        by_term: Dict[str, List[int]] = {}
        for doc_id, text in acknowledged.items():
            if not engine.documents.exists(doc_id):
                fail(f"acknowledged doc {doc_id} is missing after drain")
            elif engine.documents.get(doc_id).text != text:
                fail(f"acknowledged doc {doc_id} changed after drain")
            elif terms[doc_id]:
                rarest = min(terms[doc_id], key=lambda term: (df[term], term))
                by_term.setdefault(rarest, []).append(doc_id)
        total = len(engine.documents)
        for term, doc_ids in by_term.items():
            found = {hit.doc_id for hit in engine.search(Query(terms=(term,)), top_k=total)}
            for doc_id in doc_ids:
                if doc_id not in found:
                    fail(f"search for {term!r} does not return acknowledged doc {doc_id}")
    finally:
        handle.close()
    return failures, messages
