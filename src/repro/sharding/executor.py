"""Query fan-out over shards with globally consistent ranking.

Every query, sharded or not, runs the same per-shard kernel,
:func:`shard_query`:

1. **match** — the shard matches the query against its own merged
   lists, jump indexes, commit-time index and disposition log;
2. **score** — every candidate is bulk-scored
   (:meth:`~repro.search.ranking.BM25Scorer.score_candidates`) under the
   *aggregated* collection statistics (global document count, global
   document frequencies, global average length), so a document's score
   does not depend on which shard it landed on;
3. **select** — a bounded heap keeps the ``top_k`` best candidates under
   the global order ``(-score, global_id)``;
4. **materialise** — only those winners become
   :class:`~repro.search.engine.SearchResult` objects with global IDs.

A single engine is the one-shard case.  :class:`ParallelQueryExecutor`
runs the kernel over in-process shards inline, in shard order: the
shards share one interpreter lock, so a thread pool would only add
handoff latency (the service already runs one handler thread per
request).  :class:`ProcessShardExecutor` runs it in one worker process
per shard, the source of real parallelism, and only the ``top_k``
winners cross the pipe.  Either way the per-shard runs are heap-merged
(:func:`heapq.merge`) and cut at ``top_k``.

Because the aggregated statistics equal what a single unsharded engine
would compute over the same corpus, a K-shard archive returns the same
result set — and the same scores — as a 1-shard archive (property-tested
in ``tests/sharding``).
"""

from __future__ import annotations

import heapq
import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.errors as _errors
from repro.errors import WorkloadError
from repro.observability.metrics import MetricsRegistry
from repro.search.analyzer import Analyzer
from repro.search.engine import EngineConfig, SearchResult
from repro.search.query import Query, parse_query
from repro.search.ranking import BM25Scorer, CosineScorer
from repro.sharding.router import ShardRouter, synthetic_global_id


@dataclass(frozen=True)
class AggregatedTermStats:
    """Collection-level statistics aggregated across every shard.

    Term keys are *positions in the query's term tuple* — a shard-neutral
    vocabulary, since each shard grows its own term-ID space.
    """

    df: Dict[int, int]
    num_docs: int
    avg_doc_length: float

    @classmethod
    def from_sums(
        cls, df: Dict[int, int], num_docs: int, total_length: int
    ) -> "AggregatedTermStats":
        """The statistics from per-shard counts summed across shards."""
        avg_doc_length = max(1.0, total_length / num_docs) if num_docs else 1.0
        return cls(df=df, num_docs=num_docs, avg_doc_length=avg_doc_length)

    def df_for(self, engine, terms: Sequence[str]) -> Dict[int, int]:
        """The document frequencies re-keyed to ``engine``'s term IDs."""
        df: Dict[int, int] = {}
        for position, term in enumerate(terms):
            term_id = engine.term_id(term)
            if term_id is not None:
                df[term_id] = self.df[position]
        return df


def _merge_key(result: SearchResult) -> Tuple[float, int]:
    return (-result.score, result.doc_id)


def shard_query(
    engine,
    query: Query,
    df_by_term_id: Dict[int, int],
    num_docs: int,
    avg_len: float,
    top_k: int,
    *,
    to_global: Optional[Callable[[int], int]] = None,
    trace=None,
) -> Tuple[List[SearchResult], int]:
    """One shard's share of a query: match, score, select, materialise.

    ``df_by_term_id`` holds the (possibly cross-shard) document
    frequencies keyed by ``engine``'s own term IDs — the keys of its
    candidate maps, so no candidate is re-keyed.  ``num_docs`` and
    ``avg_len`` complete the statistics; document lengths come from
    ``engine``.  ``to_global`` maps local IDs to the IDs results carry
    and are ordered by (identity when omitted); it is called only for
    candidates scoring at least the ``top_k``-th best score.

    Returns the ``top_k`` best results, sorted by ``(-score, doc_id)``,
    and the number of candidates scored.  Scoring and selection are
    timed as the engine's ``rank`` stage.
    """
    if trace is None:
        candidates = engine.match(query)
    else:
        candidates = engine.match(query, trace=trace)
    with engine._stage("rank", trace, candidates=len(candidates)) as span:
        stats = SimpleNamespace(
            df=df_by_term_id,
            num_docs=num_docs,
            avg_doc_length=avg_len,
            doc_length=engine.stats.doc_length,
        )
        scorer = (BM25Scorer if engine.config.ranking == "bm25" else CosineScorer)(stats)
        scored = scorer.score_candidates(candidates)
        if 0 < top_k < len(scored):
            # Only candidates scoring at least the k-th best score can
            # win; their global IDs decide the ties at that score.
            cut = heapq.nlargest(top_k, [score for _, score in scored])[-1]
            scored = [pair for pair in scored if pair[1] >= cut]
        if to_global is not None:
            scored = [(to_global(doc_id), score) for doc_id, score in scored]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        results = [SearchResult(doc_id=d, score=s) for d, s in scored[:top_k]]
        if span is not None:
            span.note(scorer="bulk", scored=len(candidates), kept=len(results))
    return results, len(candidates)


def _merge_runs(
    runs: List[List[SearchResult]], top_k: int, trace
) -> List[SearchResult]:
    """Heap-merge per-shard runs sorted by ``(-score, global_id)``."""
    merge_start = perf_counter()
    results = list(islice(heapq.merge(*runs, key=_merge_key), top_k))
    if trace is not None:
        trace.record(
            "merge",
            start=merge_start,
            end=perf_counter(),
            runs=len(runs),
            results=len(results),
        )
    return results


def _tag_shard_failure(exc: BaseException, shard_index: int, where: str) -> None:
    """Attach the failing shard to ``exc`` without changing its type
    (``TamperDetectedError`` handling upstream keeps working)."""
    try:
        exc.shard_index = shard_index
    except AttributeError:  # pragma: no cover - slotted exception
        pass
    if hasattr(exc, "add_note"):  # Python 3.11+
        exc.add_note(f"raised by shard {shard_index} during {where}")


def _register_fanout_metrics(metrics, num_shards: int):
    """The fan-out counter, queue-wait family and per-shard run series
    both executors share."""
    fanout = metrics.counter(
        "repro_fanout_queries_total",
        "Queries fanned out across shards by the executor",
    )
    queue_family = metrics.histogram(
        "repro_shard_queue_seconds",
        "Time a shard sub-query waited for a fan-out worker",
        labels=("shard",),
    )
    run_family = metrics.histogram(
        "repro_shard_run_seconds",
        "Time a shard sub-query spent matching and scoring",
        labels=("shard",),
    )
    run_series = [run_family.labels(shard=i) for i in range(num_shards)]
    return fanout, queue_family, run_series


class ParallelQueryExecutor:
    """Runs queries over in-process shards and merges the ranked runs.

    Shards run inline in the calling thread, in shard order; a shard
    failure stops the query before any later shard runs and re-raises
    with the shard's index attached.

    Parameters
    ----------
    shards:
        The per-shard :class:`TrustworthySearchEngine` instances.
    router:
        Translates shard-local document IDs back to global IDs.
    config:
        Engine configuration (selects the ranking scorer).
    analyzer:
        Query analyzer; defaults to a fresh :class:`Analyzer` matching
        the shard engines' defaults.
    metrics:
        Metrics registry; the sharded engine passes the registry its
        shards share, so fan-out timings land next to per-shard engine
        series.  Defaults to a fresh registry.
    """

    def __init__(
        self,
        shards: Sequence,
        router: ShardRouter,
        config: EngineConfig,
        *,
        analyzer: Optional[Analyzer] = None,
        metrics=None,
    ):
        self.shards = list(shards)
        self.router = router
        self.config = config
        self.analyzer = analyzer or Analyzer()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics_on = bool(self.metrics.enabled)
        # Shards never wait for a worker here, so the queue-wait family
        # stays empty; it is registered for the process executor's sake.
        self._c_fanout, _, self._run_series = _register_fanout_metrics(
            self.metrics, len(self.shards)
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def pool(self) -> ThreadPoolExecutor:
        """An idle thread pool, created lazily; nothing is submitted to it.

        It exists only because the repository benchmark's traced runs
        (``perfbench/probes.py``) wrap the executor's pool.  Raises
        :class:`~repro.errors.WorkloadError` after :meth:`close`.
        """
        self._require_open()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="shard-query"
            )
        return self._pool

    def close(self) -> None:
        """Release the executor (idempotent; queries now error)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _require_open(self) -> None:
        if self._closed:
            raise WorkloadError(
                "query executor is closed; open a new engine to run queries"
            )

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def search(self, query, *, top_k: int = 10, trace=None) -> List[SearchResult]:
        """Run ``query`` across all shards; returns global ranked results.

        With a :class:`~repro.observability.trace.QueryTrace` attached,
        each shard contributes a ``shard`` span (``scored`` candidates,
        ``kept`` winners, ``queue_seconds`` always 0) holding that
        shard's own stage spans; the final heap merge gets a ``merge``
        span.
        """
        self._require_open()
        if isinstance(query, str):
            query = parse_query(query, analyzer=self.analyzer)
        self._c_fanout.inc()
        aggregate = self.aggregate_term_stats(query.terms)
        runs = [
            self._shard_run(index, query, aggregate, top_k, trace)
            for index in range(len(self.shards))
        ]
        return _merge_runs(runs, top_k, trace)

    def aggregate_term_stats(
        self, terms: Sequence[str]
    ) -> AggregatedTermStats:
        """Cross-shard collection statistics for one query's terms.

        Sums per-shard document frequencies, document counts, and total
        lengths — exactly the statistics a single unsharded engine would
        hold for the same corpus.
        """
        df: Dict[int, int] = {}
        for position, term in enumerate(terms):
            total = 0
            for shard in self.shards:
                term_id = shard.term_id(term)
                if term_id is not None:
                    total += shard.stats.df.get(term_id, 0)
            df[position] = total
        num_docs = sum(shard.stats.num_docs for shard in self.shards)
        total_length = sum(shard.stats.total_length for shard in self.shards)
        return AggregatedTermStats.from_sums(df, num_docs, total_length)

    def _shard_run(
        self,
        index: int,
        query: Query,
        aggregate: AggregatedTermStats,
        top_k: int,
        trace,
    ) -> List[SearchResult]:
        """One shard's kernel run, timed and traced; failures tagged."""
        shard = self.shards[index]
        span = (
            trace.begin("shard", shard=index, queue_seconds=0.0)
            if trace is not None
            else None
        )
        start = perf_counter()
        try:
            run, scored = shard_query(
                shard,
                query,
                aggregate.df_for(shard, query.terms),
                aggregate.num_docs,
                aggregate.avg_doc_length,
                top_k,
                to_global=partial(self.router.to_global, index),
                trace=trace,
            )
        except Exception as exc:
            _tag_shard_failure(exc, index, "query fan-out")
            raise
        finally:
            if span is not None:
                trace.finish(span)
        if self._metrics_on:
            self._run_series[index].observe(perf_counter() - start)
        if span is not None:
            span.note(scored=scored, kept=len(run))
        return run

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"ParallelQueryExecutor(shards={len(self.shards)}, {state})"


# ----------------------------------------------------------------------
# process-level fan-out
# ----------------------------------------------------------------------
def _open_shard_engine(shard_path: str, config: EngineConfig):
    """Reopen one shard's journal as a read-serving engine (worker side).

    The journaled device replays committed state on open and only writes
    on mutation; a search-only worker never mutates, so reopening the
    parent's shard journal is conflict-free and yields a point-in-time
    snapshot of the shard.
    """
    from repro.observability.metrics import NullMetricsRegistry
    from repro.search.engine import TrustworthySearchEngine
    from repro.worm.persistent import JournaledWormDevice
    from repro.worm.storage import CachedWormStore

    device = JournaledWormDevice(shard_path, fsync=False, group_commit=1)
    store = CachedWormStore(None, device=device)
    return TrustworthySearchEngine(
        config, store=store, metrics=NullMetricsRegistry()
    )


def _shard_worker_main(
    conn, shard_index: int, shard_path: str, config, num_shards: int
) -> None:
    """Worker process entry point: serve stats/query requests over a pipe.

    Protocol (parent -> worker / worker -> parent), one reply per
    request, all payloads plain picklable values:

    * ``("stats", terms)`` -> ``("ok", (df_list, num_docs, total_length))``
    * ``("query", query, aggregate, top_k, shard_size)`` ->
      ``("ok", ([(doc_key, score), ...], scored, run_seconds))``: the
      :func:`shard_query` winners, where ``doc_key`` is the local ID of
      a mapped document (``local_id < shard_size``, the parent's
      document-map size for this shard) and the router's negative
      synthetic global ID of an unmapped one — ordered exactly as the
      global IDs they stand for
    * ``("close",)`` -> worker exits (no reply)
    * any failure -> ``("error", exception_type_name, message)``
    """
    try:
        engine = _open_shard_engine(shard_path, config)
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        conn.send(("error", type(exc).__name__, str(exc)))
        conn.close()
        return
    conn.send(("ok", len(engine.documents)))

    def doc_key(shard_size: int, local_id: int) -> int:
        if local_id < shard_size:
            return local_id
        return synthetic_global_id(shard_index, local_id, num_shards)

    try:
        while True:
            try:
                request = conn.recv()
            except EOFError:
                break
            op = request[0]
            if op == "close":
                break
            try:
                if op == "stats":
                    terms = request[1]
                    df = []
                    for term in terms:
                        term_id = engine.term_id(term)
                        df.append(
                            engine.stats.df.get(term_id, 0)
                            if term_id is not None
                            else 0
                        )
                    conn.send(
                        ("ok", (df, engine.stats.num_docs, engine.stats.total_length))
                    )
                elif op == "query":
                    _, query, aggregate, top_k, shard_size = request
                    started = perf_counter()
                    run, scored = shard_query(
                        engine,
                        query,
                        aggregate.df_for(engine, query.terms),
                        aggregate.num_docs,
                        aggregate.avg_doc_length,
                        top_k,
                        to_global=partial(doc_key, shard_size),
                    )
                    pairs = [(r.doc_id, r.score) for r in run]
                    conn.send(("ok", (pairs, scored, perf_counter() - started)))
                else:
                    conn.send(
                        ("error", "WorkloadError", f"unknown request {op!r}")
                    )
            except Exception as exc:  # noqa: BLE001 - forwarded to the parent
                conn.send(("error", type(exc).__name__, str(exc)))
    finally:
        conn.close()


class ProcessShardExecutor:
    """Fans queries out to per-process shard engines (GIL-free scoring).

    Each shard gets a dedicated worker process (``spawn`` start method)
    that reopens the shard's WORM journal read-only-in-practice and
    serves a small request protocol over a pipe.  Matching and bulk
    scoring then run on separate interpreters — true parallelism where
    the thread executor serializes CPU-bound work behind the GIL — at
    the cost of per-query serialization (query + aggregate out, the
    shard's ``top_k`` winners back).

    Each worker runs the same :func:`shard_query` kernel as
    :class:`ParallelQueryExecutor`; statistics aggregation, global-ID
    translation, the heap merge, and result verification stay in the
    parent, so both executors return byte-identical results over the
    same committed state.

    **Snapshot semantics**: workers replay their journal at spawn time
    and see nothing committed afterwards.  Call :meth:`refresh` after
    ingest to respawn workers against the new journal tail.  Lifecycle
    mirrors the thread executor: lazy spawn on first query,
    :meth:`close` is idempotent, queries after close raise.
    """

    def __init__(
        self,
        shard_paths: Sequence[str],
        router: ShardRouter,
        config: EngineConfig,
        *,
        analyzer: Optional[Analyzer] = None,
        metrics=None,
    ):
        if not shard_paths:
            raise WorkloadError("process executor needs at least one shard path")
        self.shard_paths = [str(path) for path in shard_paths]
        self.router = router
        self.config = config
        self.analyzer = analyzer or Analyzer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics_on = bool(self.metrics.enabled)
        self._c_fanout, queue_family, self._run_series = (
            _register_fanout_metrics(self.metrics, len(self.shard_paths))
        )
        self._queue_series = [
            queue_family.labels(shard=i) for i in range(len(self.shard_paths))
        ]
        self._workers: Optional[List[Tuple[object, object]]] = None
        self._closed = False
        # The pipe protocol is strictly request/reply per worker; one
        # lock serializes whole fan-out rounds so concurrent callers
        # (service worker threads, load-test clients) cannot interleave
        # messages.  Shard-level parallelism is across processes, inside
        # a round, so this costs concurrency only between queries.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _ensure_workers(self) -> None:
        if self._closed:
            raise WorkloadError(
                "query executor is closed; open a new engine to run queries"
            )
        if self._workers is not None:
            return
        context = multiprocessing.get_context("spawn")
        workers: List[Tuple[object, object]] = []
        for index, path in enumerate(self.shard_paths):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(
                    child_conn, index, path, self.config, len(self.shard_paths)
                ),
                name=f"shard-query-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers.append((process, parent_conn))
        self._workers = workers
        for index, (_process, conn) in enumerate(workers):
            self._receive(index, conn)  # ready handshake (replay done)

    def refresh(self) -> None:
        """Respawn workers so the next query sees the current journals."""
        with self._lock:
            self._stop_workers()

    def close(self) -> None:
        """Terminate the worker processes (idempotent; queries now error)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stop_workers()

    def _stop_workers(self) -> None:
        workers, self._workers = self._workers, None
        if not workers:
            return
        for process, conn in workers:
            try:
                conn.send(("close",))
            except (OSError, ValueError):
                pass
            conn.close()
        for process, _conn in workers:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=10)

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def search(self, query, *, top_k: int = 10, trace=None) -> List[SearchResult]:
        """Run ``query`` across all shard workers; global ranked results.

        Stage structure and trace spans mirror the thread executor: one
        ``shard`` span per worker (``queue_seconds`` = pipe round-trip
        minus in-worker execution), then a ``merge`` span.
        """
        if isinstance(query, str):
            query = parse_query(query, analyzer=self.analyzer)
        with self._lock:
            return self._search_locked(query, top_k=top_k, trace=trace)

    def _search_locked(
        self, query: Query, *, top_k: int, trace
    ) -> List[SearchResult]:
        self._ensure_workers()
        self._c_fanout.inc()
        aggregate = self._aggregate_from_workers(query.terms)
        submitted = perf_counter()
        for index, (_process, conn) in enumerate(self._workers):
            shard_size = self.router.shard_size(index)
            conn.send(("query", query, aggregate, top_k, shard_size))
        runs: List[List[SearchResult]] = []
        to_global = self.router.to_global
        for index, (_process, conn) in enumerate(self._workers):
            pairs, scored, run_seconds = self._receive(index, conn)
            received = perf_counter()
            # Already in global order; see _shard_worker_main for keys.
            run = [
                SearchResult(
                    doc_id=key if key < 0 else to_global(index, key),
                    score=score,
                )
                for key, score in pairs
            ]
            runs.append(run)
            queue_seconds = max(0.0, received - submitted - run_seconds)
            if self._metrics_on:
                self._queue_series[index].observe(queue_seconds)
                self._run_series[index].observe(run_seconds)
            if trace is not None:
                trace.record(
                    "shard",
                    start=submitted,
                    end=received,
                    shard=index,
                    queue_seconds=queue_seconds,
                    scored=scored,
                    kept=len(run),
                )
        return _merge_runs(runs, top_k, trace)

    def aggregate_term_stats(self, terms: Sequence[str]) -> AggregatedTermStats:
        """Cross-shard statistics for one query's terms (worker-reported).

        Same sums as :meth:`ParallelQueryExecutor.aggregate_term_stats`,
        sourced from the workers' snapshots so scoring stays internally
        consistent with what the workers will match.
        """
        with self._lock:
            self._ensure_workers()
            return self._aggregate_from_workers(terms)

    def _aggregate_from_workers(
        self, terms: Sequence[str]
    ) -> AggregatedTermStats:
        terms = list(terms)
        for _process, conn in self._workers:
            conn.send(("stats", terms))
        df: Dict[int, int] = {position: 0 for position in range(len(terms))}
        num_docs = 0
        total_length = 0
        for index, (_process, conn) in enumerate(self._workers):
            shard_df, shard_docs, shard_length = self._receive(index, conn)
            for position, count in enumerate(shard_df):
                df[position] += count
            num_docs += shard_docs
            total_length += shard_length
        return AggregatedTermStats.from_sums(df, num_docs, total_length)

    def _receive(self, shard_index: int, conn):
        """One protocol reply; re-raises worker-side failures by type."""
        try:
            reply = conn.recv()
        except EOFError:
            raise WorkloadError(
                f"shard {shard_index} query worker exited unexpectedly"
            ) from None
        if reply[0] == "ok":
            return reply[1]
        _, type_name, message = reply
        exc_type = getattr(_errors, type_name, None)
        if isinstance(exc_type, type) and issubclass(exc_type, Exception):
            exc = exc_type(message)
        else:
            exc = WorkloadError(f"{type_name}: {message}")
        _tag_shard_failure(exc, shard_index, "process fan-out")
        raise exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._closed:
            state = "closed"
        elif self._workers is None:
            state = "idle"
        else:
            state = "spawned"
        return (
            f"ProcessShardExecutor(shards={len(self.shard_paths)}, {state})"
        )
