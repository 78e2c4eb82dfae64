"""Sharded query execution and batched ingestion.

Partitions a trustworthy archive across ``K`` independent engine shards
(stable hash routing, WORM document map), runs every query through one
per-shard kernel (:func:`~repro.sharding.executor.shard_query`: match,
bulk score, top-k, materialise the winners) with globally consistent
ranking — inline over in-process shards, or on per-shard worker
processes for GIL-free scoring — and ingests document batches one pass
per merged posting list.
"""

from repro.sharding.batch import BatchIngestor
from repro.sharding.engine import ShardedSearchEngine
from repro.sharding.executor import (
    AggregatedTermStats,
    ParallelQueryExecutor,
    ProcessShardExecutor,
    shard_query,
)
from repro.sharding.router import ShardAssignment, ShardRouter, stable_shard

__all__ = [
    "AggregatedTermStats",
    "BatchIngestor",
    "ParallelQueryExecutor",
    "ProcessShardExecutor",
    "ShardAssignment",
    "ShardRouter",
    "ShardedSearchEngine",
    "shard_query",
    "stable_shard",
]
