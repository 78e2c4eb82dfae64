"""Workload definitions and the inputs each one generates from its seed.

Every input — preload documents, ingest documents, query strings and the
order each client issues them — comes from the seeded generators in
:mod:`repro.workloads` and is fixed before any timing starts.  The
program under test only ever receives the generated strings.

A digest of each workload's plan at :data:`PINNED_SEED` is pinned in
:data:`PINNED_DIGESTS`; :func:`check_pinned` regenerates it on every run,
so a change to :mod:`repro.workloads` fails the benchmark instead of
silently moving its inputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.posting import POSTING_SIZE
from repro.core.space import postings_per_block
from repro.search.analyzer import Analyzer
from repro.sharding.router import stable_shard
from repro.workloads import (
    CorpusConfig,
    CorpusGenerator,
    QueryLogConfig,
    QueryLogGenerator,
    SyntheticQuery,
    Vocabulary,
)

VOCABULARY_SIZE = 2_000
ZIPF_S = 1.1
TERMS_PER_DOC = 40.0
TOP_K = 10

#: The shared query log (see :func:`query_log`).
LOG_SEED = 11
LOG_QUERIES = 100_000

#: Seed whose plan digests are pinned below.
PINNED_SEED = 42


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; everything not derived from the seed."""

    name: str
    served: bool
    num_lists: int
    block_size: int
    branching: Optional[int]
    preload_docs: int
    #: Documents per preload ``index_batch`` call; in process, the mean
    #: (see :func:`_batch_sizes`).
    preload_batch: int
    #: Share of planned operations that are searches (served workloads).
    search_share: float = 1.0
    clients: int = 1
    tail_max_docs: Optional[int] = None
    merge_at_segments: Optional[int] = None
    ingest_pool: int = 0
    ops_per_client: int = 0
    #: Length of the fixed conjunctive query sequence (in-process).
    conjunctive_queries: int = 0
    warmup_queries: int = 100
    shards: int = 2
    #: Fresh set-ups per untraced run; each serves an equal share of the
    #: window, and ``setup_s`` is their median.
    setups: int = 3


WORKLOADS: Dict[str, Workload] = {
    # The headline served path: HTTP, admission, lock, fan-out and
    # ranking dominate; retrieval over 256 short lists is cheap.
    "served-read-mostly": Workload(
        name="served-read-mostly",
        served=True,
        num_lists=256,
        block_size=4096,
        branching=None,
        preload_docs=300,
        preload_batch=100,
        search_share=0.9,
        clients=2,
        ingest_pool=3_000,
        ops_per_client=12_000,
    ),
    # Tail mode with a small tail: every run seals several times and
    # merges at least once per shard, next to concurrent searches.
    "served-write-heavy": Workload(
        name="served-write-heavy",
        served=True,
        num_lists=256,
        block_size=4096,
        branching=None,
        preload_docs=300,
        preload_batch=100,
        search_share=0.5,
        clients=2,
        tail_max_docs=64,
        merge_at_segments=4,
        ingest_pool=4_000,
        ops_per_client=8_000,
    ),
    # The paper's section 4 path: few merged lists with jump indexes, so
    # every list spans many blocks and conjunctions run the zigzag join.
    "inproc-conjunctive": Workload(
        name="inproc-conjunctive",
        served=False,
        num_lists=16,
        block_size=4096,
        branching=32,
        preload_docs=10_000,
        preload_batch=8,
        # A pass takes 3-5 s on a 2-vCPU host, about a set-up's share of
        # a 20 s window, so each set-up runs the whole sequence once or
        # twice.
        conjunctive_queries=400,
        warmup_queries=50,
        setups=4,
    ),
}

#: sha256 of :func:`plan_digest` per workload at :data:`PINNED_SEED`.
PINNED_DIGESTS: Dict[str, str] = {
    "served-read-mostly": "fa743b233d1e2198fd4a34728ecbefe68f929f23d03ccaee7c9fce32f68605d7",
    "served-write-heavy": "2c015ea2e2bdc4169c1fb34fdf672ef6250eb3517238ff618bd620b6e66e2c1e",
    "inproc-conjunctive": "0fae8642964527b70484919d5afec2bf71f33cc2428baf765f975b5a87cbdb1b",
}


@dataclass
class Plan:
    """Everything one workload run feeds the program."""

    workload: Workload
    seed: int
    preload: List[str]
    #: Per client: ``("search", query)`` / ``("ingest", document)``.
    ops: List[List[Tuple[str, str]]]
    warmup: List[str]
    #: Sizes of the ``index_batch`` calls the preload is committed in.
    batch_sizes: List[int]

    def preload_batches(self) -> List[List[str]]:
        batches, start = [], 0
        for size in self.batch_sizes:
            batches.append(self.preload[start : start + size])
            start += size
        return batches

    def searches(self) -> List[str]:
        return [text for client in self.ops for kind, text in client if kind == "search"]


def _corpus(seed: int, count: int) -> List[str]:
    vocabulary = Vocabulary(VOCABULARY_SIZE)
    generator = CorpusGenerator(
        CorpusConfig(
            num_docs=count,
            vocabulary_size=VOCABULARY_SIZE,
            mean_terms_per_doc=TERMS_PER_DOC,
            zipf_s=ZIPF_S,
            seed=seed,
        )
    )
    return [doc.text(vocabulary) for doc in generator]


@functools.lru_cache(maxsize=1)
def query_log() -> Tuple[SyntheticQuery, ...]:
    """The one query log every workload samples from.

    Like the paper's evaluation, which samples one 300,000-query log,
    the log and so its popularity profile are fixed; a run's seed picks
    which of its queries the run issues.  Seeding the log itself would
    let the seed decide whether the most frequent document terms are
    also popular queries (the generator demotes a random share of them),
    which moves a run's cost far more than any sample does.
    """
    generator = QueryLogGenerator(
        QueryLogConfig(
            num_queries=LOG_QUERIES,
            vocabulary_size=VOCABULARY_SIZE,
            zipf_s=ZIPF_S,
            seed=LOG_SEED,
        )
    )
    return tuple(generator)


def _with_primers(docs: List[str], shards: int, vocabulary: Vocabulary) -> List[str]:
    """``docs`` with one primer document first on every shard.

    A primer lists the whole vocabulary in popularity order, so each
    shard numbers its terms, and so hashes them onto merged lists, the
    same way for every seed.  Without it, which popular query terms share
    a list with the most frequent document terms (a scan of that whole
    list per query) follows the corpus order and swings a run's cost
    from seed to seed.
    """
    primer = " ".join(vocabulary.word(term) for term in range(VOCABULARY_SIZE))
    out: List[str] = []
    primed = set()
    rest = iter(docs)
    while len(primed) < shards:
        shard = stable_shard(len(out), shards)
        if shard in primed:
            out.append(next(rest))
        else:
            primed.add(shard)
            out.append(primer)
    out.extend(rest)
    return out


def _conjunctive_sequence(seed: int, count: int) -> List[SyntheticQuery]:
    """``count`` all-plus 2-4 term queries from the log, one per stratum.

    A conjunction of popular terms matches thousands of documents and
    costs a hundred times the median query, and the log holds few of
    them.  Drawn at random, their number in a run (and so the run's
    throughput) swings from seed to seed.  So the log's 2-4 term queries
    are ordered by their terms' popularity ranks and cut into ``count``
    equal strata; the seed picks one query from each, and the sequence
    visits the strata in a golden-ratio stride, so every prefix holds
    each stratum at its rate in the log.
    """
    pool = sorted(
        (q for q in query_log() if 2 <= q.num_terms <= 4),
        key=lambda q: (sum(math.log1p(t) for t in q.term_ids), q.query_id),
    )
    rng = random.Random(seed)
    step = len(pool) / count
    picked = [pool[int(i * step + rng.random() * step)] for i in range(count)]
    stride = round(count * (math.sqrt(5) - 1) / 2)
    while math.gcd(stride, count) != 1:
        stride += 1
    return [picked[(i * stride) % count] for i in range(count)]


def make_plan(workload: Workload, seed: int) -> Plan:
    """The workload's inputs under ``seed`` (same seed, same plan)."""
    vocabulary = Vocabulary(VOCABULARY_SIZE)
    docs = _corpus(seed, workload.preload_docs + workload.ingest_pool)
    preload = _with_primers(docs[: workload.preload_docs], workload.shards, vocabulary)
    pool = docs[workload.preload_docs :]
    if workload.served:
        total = workload.clients * workload.ops_per_client
        queries = [q.text(vocabulary) for q in random.Random(seed).choices(query_log(), k=total)]
        ops: List[List[Tuple[str, str]]] = []
        query_cursor = ingest_cursor = 0
        for client in range(workload.clients):
            rng = random.Random(seed * 1_000 + client)
            stream = []
            for _ in range(workload.ops_per_client):
                if rng.random() < workload.search_share:
                    stream.append(("search", queries[query_cursor]))
                    query_cursor += 1
                else:
                    stream.append(("ingest", pool[ingest_cursor % len(pool)]))
                    ingest_cursor += 1
            ops.append(stream)
        warmup = queries[-workload.warmup_queries :]
    else:
        sequence = [
            "+" + " +".join(vocabulary.word(int(t)) for t in q.term_ids)
            for q in _conjunctive_sequence(
                seed, workload.conjunctive_queries + workload.warmup_queries
            )
        ]
        ops = [[("search", text) for text in sequence[: workload.conjunctive_queries]]]
        warmup = sequence[workload.conjunctive_queries :]
    return Plan(
        workload=workload,
        seed=seed,
        preload=preload,
        ops=ops,
        warmup=warmup,
        batch_sizes=_batch_sizes(workload, seed, len(preload)),
    )


def _batch_sizes(workload: Workload, seed: int, docs: int) -> List[int]:
    """Preload batch sizes: ``preload_batch`` each when served; in
    process, where the batches are the measured ingest operations,
    uniform on 1 .. 2 * ``preload_batch`` - 1.

    Batches of one size take nearly the same time, so their latencies
    form one narrow peak, and a slow spell of the shared host moves a
    share of them into a second peak half again as slow; the p50 of the
    two jumps between them as that share crosses a half.  Varied sizes,
    as a committing pipeline sees them, spread the latencies so the
    p50 moves in proportion.
    """
    if workload.served:
        sizes = [workload.preload_batch] * math.ceil(docs / workload.preload_batch)
    else:
        rng = random.Random(f"batches-{seed}")
        sizes, total = [], 0
        while total < docs:
            sizes.append(rng.randint(1, 2 * workload.preload_batch - 1))
            total += sizes[-1]
    sizes[-1] -= sum(sizes) - docs
    return sizes


def plan_digest(plan: Plan) -> str:
    """sha256 over the workload shape and every generated input."""
    body = json.dumps(
        {
            "workload": asdict(plan.workload),
            "seed": plan.seed,
            "preload": plan.preload,
            "ops": plan.ops,
            "warmup": plan.warmup,
            "batch_sizes": plan.batch_sizes,
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def check_pinned(workload: Workload) -> Optional[str]:
    """``None`` if the plan at :data:`PINNED_SEED` still has its pinned
    digest, else a message naming the drift."""
    digest = plan_digest(make_plan(workload, PINNED_SEED))
    pinned = PINNED_DIGESTS.get(workload.name)
    if digest != pinned:
        return (
            f"{workload.name}: plan digest at seed {PINNED_SEED} is {digest}, "
            f"pinned {pinned}; the workload generators changed"
        )
    return None


def _postings_per_block(workload: Workload) -> int:
    if workload.branching is None:
        return workload.block_size // POSTING_SIZE
    return postings_per_block(workload.block_size, workload.branching)


def properties(plan: Plan) -> Dict[str, float]:
    """Input properties the program's behaviour depends on, from the
    plan alone (no engine is built)."""
    workload = plan.workload
    analyzer = Analyzer()
    searches = plan.searches()
    planned = sum(len(client) for client in plan.ops)
    terms = [len(analyzer.query_terms(q.replace("+", " "))) for q in searches]
    postings = sum(len(analyzer.term_counts(text)) for text in plan.preload)
    per_list = postings / (workload.shards * workload.num_lists)
    return {
        "planned_ops": planned,
        "search_share": len(searches) / planned,
        "conjunctive_share": sum(q.startswith("+") for q in searches) / len(searches),
        "mean_terms_per_query": sum(terms) / len(terms),
        "repeated_query_share": 1.0 - len(set(searches)) / len(searches),
        "preload_docs": len(plan.preload),
        "preload_bytes": sum(len(text.encode("utf-8")) for text in plan.preload),
        "preload_postings": postings,
        "postings_per_list": per_list,
        "blocks_per_list": per_list / _postings_per_block(workload),
    }
