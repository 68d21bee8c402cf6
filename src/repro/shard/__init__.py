"""Sharded document subsystem: partitioning, the sharded store, and the
scatter-gather execution layer, whose shards run one after another on the
calling thread.  See docs/SHARDING.md."""

from repro.shard.partition import (
    DocumentPartition, DocumentPartitioner, shard_of_key,
)
from repro.shard.store import DEFAULT_BACKEND, ShardedStore

__all__ = [
    "DEFAULT_BACKEND",
    "DocumentPartition",
    "DocumentPartitioner",
    "ShardedStore",
    "shard_of_key",
]
