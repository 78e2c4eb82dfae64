"""The zigzag join's work counts, pinned on a small seeded workload.

Seeks (the paper's FindGeq count), distinct blocks read and jump pointers
followed are deterministic for a fixed corpus and query sequence, so any
change to how a seek is carried out — a faster in-block path, a cached
term filter — must leave them, and the matches, exactly as they are.  The
expected values were measured before the join's in-block seek was made a
single ``bisect``; a change here means the join now reads a different
number of blocks or follows a different number of pointers than the
paper's algorithm does.
"""

import hashlib
import random

import pytest

from repro.observability.trace import QueryTrace
from repro.search.engine import EngineConfig, TrustworthySearchEngine

#: Small blocks and few lists: every list spans dozens of jump-indexed
#: blocks, so seeks exercise both the in-block case and navigation.
CONFIG = EngineConfig(num_lists=6, block_size=1024, branching=8)

#: Vocabulary popularity falls off with rank, as in a Zipf query log:
#: conjunctions mix long and short lists.
VOCABULARY = [f"w{i:02d}" for i in range(40)]
WEIGHTS = [1.0 / (rank + 1) for rank in range(len(VOCABULARY))]


def _workload(seed: int):
    rng = random.Random(seed)
    texts = [
        " ".join(rng.choices(VOCABULARY, WEIGHTS, k=rng.randint(4, 14)))
        for _ in range(900)
    ]
    queries = [
        " ".join(
            "+" + term
            for term in rng.sample(VOCABULARY[:24], rng.randint(2, 4))
        )
        for _ in range(60)
    ]
    return texts, queries


def _run(config: EngineConfig, seed: int):
    texts, queries = _workload(seed)
    engine = TrustworthySearchEngine(config)
    for start in range(0, len(texts), 7):
        engine.index_batch(texts[start : start + 7])
    totals = {"seeks": 0, "blocks_read": 0, "jump_follows": 0, "matches": 0}
    digest = hashlib.sha256()
    for query in queries:
        trace = QueryTrace(query)
        results = engine.search(query, top_k=10, trace=trace)
        for span in trace.spans:
            if span.name == "join":
                for key in totals:
                    totals[key] += span.attrs.get(key, 0)
        doc_ids, _ = engine.conjunctive_doc_ids(query.split())
        digest.update(repr((doc_ids, [r.doc_id for r in results])).encode())
    return totals, digest.hexdigest()[:16]


@pytest.mark.parametrize(
    "seed, expected",
    [
        (
            11,
            (
                {"seeks": 11367, "blocks_read": 1972, "jump_follows": 1962, "matches": 1130},
                "ac5d8bc3d47fbd26",
            ),
        ),
        (
            12,
            (
                {"seeks": 10203, "blocks_read": 2244, "jump_follows": 2163, "matches": 968},
                "c4bab218a1f5ce19",
            ),
        ),
    ],
)
def test_jump_indexed_join_work_counts_are_pinned(seed, expected):
    assert _run(CONFIG, seed) == expected
