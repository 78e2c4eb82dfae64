"""Where the traced run puts its spans: one per call into a layer's
public functions.  Span names are ``<layer>.<what>``; the layers are the
program's packages (service, sharding, search, core)."""

from __future__ import annotations

import repro.sharding.engine as sharding_engine

from spans import Tracer


def _count(_args, result) -> object:
    return len(result) if result is not None else None


def install_engine(tracer: Tracer, engine, *, root: bool = False) -> None:
    """Spans around a :class:`~repro.sharding.engine.ShardedSearchEngine`.

    With ``root``, each ``search`` and ``index_batch`` call on the engine
    opens a request (the in-process client calls the engine directly).
    """
    if root:
        tracer.wrap(engine, "search", "sharding.search", root=True)
        tracer.wrap(engine, "index_batch", "sharding.index_batch", root=True)
    # The sharded engine parses query strings through this module global.
    tracer.wrap(sharding_engine, "parse_query", "search.parse")
    executor = engine.executor
    tracer.wrap(executor, "search", "sharding.fanout", note=_count)
    tracer.wrap(executor, "aggregate_term_stats", "sharding.stats")
    tracer.wrap_pool(executor.pool)
    tracer.wrap(engine.ingestor, "ingest", "sharding.ingest")
    for shard in engine.shards:
        # Every block a query or ingest fetches from the shard's WORM store,
        # counted (cache accounting) or not (the jump-index read path).
        tracer.count(shard.store, "read_block", "worm.block_read")
        tracer.count(shard.store, "peek_block", "worm.block_read")
        tracer.wrap(shard, "match", "search.match", note=_count)
        tracer.wrap(shard, "index_batch", "search.index_batch")
        tracer.wrap(shard, "seal_tail", "core.seal")
        tracer.wrap(shard, "merge_segments", "core.merge")


def install_service(tracer: Tracer, service) -> None:
    """Spans around an :class:`~repro.service.server.ArchiveService`;
    each ``dispatch`` opens a request whose note is its path."""
    tracer.wrap(service, "dispatch", "service.dispatch", root=True,
                note=lambda args, _result: args[1])
    tracer.wrap(service.admission, "admit", "service.admission")
    tracer.wrap(service.lock, "acquire_read", "service.read_lock_wait")
    tracer.wrap(service.lock, "acquire_write", "service.write_lock_wait")
    install_engine(tracer, service.engine)
