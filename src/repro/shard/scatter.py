"""What a :class:`ShardedStore`'s exchange plans run on.

Which queries distribute, and how, is the planner's decision
(:class:`repro.xquery.planner.ExchangePlan`: routed, partial count,
broadcast join, scatter FLWOR — anything else takes the compatibility
path over the store's virtual document view, so a sharded deployment is
*never* wrong, only differently fast), and the evaluator emits the plan
as one exchange closure over per-shard programs, whose shards run one
after another on the calling thread (:meth:`Exchange.scatter
<repro.xquery.evaluator.Exchange.scatter>`).  What is left here is what
is not planning: the locks under which a dirty shard's secondary indexes
are rebuilt before its next probe (two service threads may reach one
dirty shard), and the cache of per-shard partials (counts, build tables,
probe slices, routed results).
Partials are keyed by the **shard digest** (and the query's shape and
bound values), which is what makes invalidation shard-selective: a write
routed to shard 3 advances only shard 3's digest, so every other shard's
cached partials keep hitting.

A deployment's owner installs its executor as ``sharded.exchange`` and
compiles through the connection's plan cache; a bare executor (``xmark
shard``, the ledger's scatter rung) compiles each
:meth:`~ScatterGatherExecutor.execute` call afresh.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.benchmark.systems import SHARD_SYSTEM
from repro.cache import LRUCache
from repro.errors import ShardError
from repro.obs.trace import NULL_TRACER
from repro.shard.store import ShardedStore
from repro.xquery.evaluator import Exchange, QueryResult, evaluate
from repro.xquery.planner import SystemProfile, compile_query, exchange_kind

#: The optimizer profile a sharded store compiles under (its global
#: secondary indexes serve the compatibility path's probes like any
#: other architecture's).
SHARDED_PROFILE = SystemProfile(
    name=SHARD_SYSTEM, optimizer="heuristic", join_rewrite_depth=99,
    inequality_join="nlj", use_id_index=True, use_path_index=True,
    use_value_index=True, use_sorted_index=True,
)


@dataclass(frozen=True, slots=True)
class ShardedOutcome:
    """One distributed execution: its result and where the work went."""

    result: QueryResult
    plan_kind: str                      # routed|partial_count|broadcast_join|scatter_flwor|fallback|single
    shards_used: int
    partial_hits: int
    partial_misses: int


class ScatterGatherExecutor(Exchange):
    """The tracer, rebuild locks and partial cache of one sharded store."""

    def __init__(self, sharded: ShardedStore, *,
                 partial_cache_size: int = 512,
                 tracer=NULL_TRACER) -> None:
        self.sharded = sharded
        self.tracer = tracer
        self._rebuild_locks = [threading.Lock()
                               for _ in range(sharded.shard_count)]
        self.partial_cache = LRUCache(partial_cache_size)
        self._close_lock = threading.Lock()
        self._closed = False

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        with self._close_lock:
            self._closed = True

    def __enter__(self) -> "ScatterGatherExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- one query, start to finish ---------------------------------------------------

    def _compile(self, text: str):
        """The plan of one text, its exchange bound to this executor —
        whoever the store's own is."""
        compiled = compile_query(text, self.sharded, SHARDED_PROFILE,
                                 tracer=self.tracer)
        if compiled.exchange is not None:
            compiled.exchange.executor = self
        return compiled

    def explain(self, text: str) -> str:
        """The distributed plan kind this query would execute under."""
        return exchange_kind(self._compile(text))

    def execute(self, text: str) -> ShardedOutcome:
        """Compile, then evaluate."""
        if self._closed:
            raise ShardError("scatter-gather executor is closed")
        stats = self.partial_cache.stats
        hits, misses = stats.hits, stats.misses
        compiled = self._compile(text)
        result = evaluate(compiled, tracer=self.tracer)
        plan = compiled.exchange
        return ShardedOutcome(
            result=result, plan_kind=exchange_kind(compiled),
            shards_used=(len(plan.ranks(self.sharded, compiled.values))
                         if plan is not None else self.sharded.shard_count),
            partial_hits=stats.hits - hits,
            partial_misses=stats.misses - misses,
        )

    # -- what an exchange closure asks for ----------------------------------------------

    def partial(self, key: tuple, compute) -> tuple[object, bool]:
        return self.partial_cache.get_or_compute(key, compute)

    def ensure_indexes(self, sharded: ShardedStore, rank: int) -> None:
        if sharded.shard_indexes_dirty(rank):
            with self._rebuild_locks[rank]:
                sharded.ensure_shard_indexes(rank)
