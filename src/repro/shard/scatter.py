"""Parallel scatter-gather query execution over a :class:`ShardedStore`.

The executor is the sharded deployment's distributed query processor.  It
recognizes four distributable query shapes and falls back to the sharded
store's compatibility path (the whole stack over the virtual document
view) for everything else, so it is *never* wrong — only differently
fast:

* **routed** — the query's one absolute path is pinned to a single shard,
  either by an ``[@id = "literal"]`` predicate on a partitioned extent
  (Q1: the partitioner's hash places ``person0``'s shard without touching
  the others) or by passing through a region container (Q13: a region's
  items live wholly on its home shard).  The whole query executes on that
  shard alone — every other shard would contribute nothing.
* **partial count** — ``count(...)`` over one extent-rooted sequence:
  every shard computes its partial count and the gather sums integers
  (bit-identical by construction).  Where the per-binding ``where`` is a
  range the shard's sorted index covers — and the index's build-time
  cardinality counters prove the ``return`` yields exactly one item per
  qualifying binding — the partial collapses to an O(log n) bisection
  (Q5 never materializes a single binding).
* **broadcast count-join** — the Q8 shape: a hash-joined correlated let
  consumed only through ``count()``.  Each shard reads its *build-side
  partials straight off its value index's buckets*; the merged key→count
  table is broadcast; each shard then probes only its own slice of the
  outer extent, and the gather merges per-binding results by global
  sequence number — document order restored exactly.
* **scatter FLWOR** — a single-``for`` loop over one extent with a
  shard-local ``where`` and a constructor ``return`` (Q2/Q3/Q4/Q17):
  every shard maps its own slice, the gather merges by global sequence.

Per-shard work runs on a bounded worker pool with per-shard admission
semaphores.  Per-shard partials (counts, build tables, probe slices,
routed results) are cached keyed by the **shard digest**, which is what
makes invalidation shard-selective: a write routed to shard 3 advances
only shard 3's digest, so every other shard's cached partials keep
hitting.  A dirty shard's secondary indexes are rebuilt lazily before
its next probe.

With one shard there is nothing to scatter: the executor runs the
backend store's own plan directly, which is also the honest baseline the
scaling benchmark compares against.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from repro.benchmark.systems import get_profile
from repro.errors import ShardError
from repro.index.builder import extract_values
from repro.index.indexes import normalize_key
from repro.obs.trace import NULL_TRACER
from repro.shard.partition import EXTENT_SPECS
from repro.shard.store import ShardedStore
from repro.xquery.ast import (
    ElementCtor, Expr, FLWOR, ForClause, FunctionCall, LetClause, Path,
    VarRef, walk,
)
from repro.xquery.evaluator import QueryResult, emit_row_program, evaluate
from repro.xquery.parser import parse_query
from repro.xquery.planner import (
    CompiledQuery, SystemProfile, _absolute_prefix, _find_id_predicate,
    _is_absolute, _join_base_extent, _match_correlated_let, _steps_accessor,
    _var_accessor, compile_query,
)
from repro.xquery.sequence import NodeItem, Navigator

#: Entity extent paths (container + entity tag), e.g. ("site","people","person").
_ENTITY_PATHS = {spec.path + (spec.entity_tag,): spec.path
                 for spec in EXTENT_SPECS}
_REGION_CONTAINERS = {spec.path: spec for spec in EXTENT_SPECS
                      if spec.home_region is not None}


def exec_profile(backend: str) -> SystemProfile:
    """The per-shard execution profile: the backend's own optimizer with
    every secondary-index family enabled — shard-local indexes are part
    of the sharded subsystem, whatever the 2002 profile of the backend."""
    profile = get_profile(backend)
    return replace(profile, name=profile.name + "+shard",
                   use_value_index=True, use_sorted_index=True,
                   use_path_index=True)


@dataclass(frozen=True, slots=True)
class ShardedOutcome:
    """One distributed execution: its result and where the work went."""

    result: QueryResult
    plan_kind: str                      # routed|partial_count|broadcast_join|scatter_flwor|fallback|single
    shards_used: int
    plan_cache_hit: bool
    partial_hits: int
    partial_misses: int
    span: object = None                 # the scatter.query root span when traced


# -- recognized plan shapes -----------------------------------------------------------


@dataclass(slots=True)
class _Plan:
    kind: str
    target_shard: int | None = None     # routed
    empty: bool = False                 # routed to an id no shard owns
    ast: object = None                  # the parsed Query (row programs)
    extent: tuple[str, ...] = ()        # outer/counted entity extent path
    var: str = ""                       # outer for-variable
    where: Expr | None = None
    ret: Expr | None = None
    count_flwor: bool = False           # partial_count over a FLWOR
    where_accessor: tuple[str, ...] = ()
    ret_accessor: tuple[str, ...] | None = None
    join_extent: tuple[str, ...] = ()   # build-side entity extent path
    join_accessor: tuple[str, ...] = () # build-side key accessor
    outer_accessor: tuple[str, ...] = ()
    let_var: str = ""


def _absolute_paths(expr: Expr) -> list[Path]:
    return [node for node in walk(expr)
            if isinstance(node, Path) and _is_absolute(node)]


def _full_extent_path(path: Path) -> tuple[str, ...] | None:
    """The entity extent a predicate-free absolute path iterates, if any."""
    if not _is_absolute(path):
        return None
    prefix, length = _absolute_prefix(path)
    if length != len(path.steps):
        return None
    return prefix if prefix in _ENTITY_PATHS else None


def _count_only_uses(expr: Expr, var: str) -> bool:
    """True when every reference to ``$var`` is exactly ``count($var)``."""
    if isinstance(expr, FunctionCall) and expr.name == "count" \
            and len(expr.args) == 1 and isinstance(expr.args[0], VarRef) \
            and expr.args[0].name == var:
        return True
    if isinstance(expr, VarRef):
        return expr.name != var
    from repro.xquery.planner import _direct_children
    return all(_count_only_uses(child, var) for child in _direct_children(expr))


def _routable_step(path: Path, sharded: ShardedStore) -> tuple[int | None, bool] | None:
    """(target shard, known) when the path is pinned to one shard.

    Region pinning: the path descends through a region container (whose
    items live wholly on the region's home shard).  Id pinning: a step
    whose only predicate equates ``@id`` with a literal, on a hash- or
    region-partitioned extent — every entity carrying that id (ids are
    unique in auction documents) lives on the shard the routing map
    names; an unknown id matches nothing anywhere.
    """
    prefix: list[str] = []
    for position, step in enumerate(path.steps):
        if step.axis != "child" or step.name is None:
            return None
        prefix.append(step.name)
        here = tuple(prefix)
        if not step.predicates:
            if here in _REGION_CONTAINERS and position < len(path.steps) - 1:
                return _REGION_CONTAINERS[here].home_shard(sharded.shard_count), True
            continue
        matched = _find_id_predicate(path)
        if matched is None or matched[0] != position or len(step.predicates) != 1:
            return None
        if here not in _ENTITY_PATHS:
            return None
        target = sharded.shard_of_id(matched[1])
        return (target, target is not None)
    return None


class ScatterGatherExecutor:
    """Distributed execution over one sharded store."""

    def __init__(self, sharded: ShardedStore, *,
                 max_workers: int | None = None,
                 per_shard_limit: int = 2,
                 partial_cache_size: int = 512,
                 plan_cache_size: int = 128,
                 tracer=NULL_TRACER) -> None:
        # Imported here, not at module level: repro.service.service imports
        # this module, and importing the service package from our body
        # would close that cycle mid-initialization.
        from repro.service.cache import LRUCache
        self.sharded = sharded
        self.tracer = tracer
        self._profiles = [exec_profile(backend) for backend in sharded.backends]
        workers = max_workers or min(8, max(2, sharded.shard_count))
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="xmark-shard")
        self._gates = [threading.BoundedSemaphore(per_shard_limit)
                       for _ in range(sharded.shard_count)]
        self._rebuild_locks = [threading.Lock()
                               for _ in range(sharded.shard_count)]
        self.partial_cache = LRUCache(partial_cache_size)
        self.plan_cache = LRUCache(plan_cache_size)
        self._compiled = LRUCache(plan_cache_size * max(1, sharded.shard_count))
        self._closed = False

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            # lint: ok(shared-state) — monotonic close latch: a lost race
            # only means two callers both reach pool.shutdown, which
            # concurrent.futures makes idempotent and thread-safe.
            self._closed = True
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "ScatterGatherExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public API ----------------------------------------------------------------

    def explain(self, text: str) -> str:
        """The distributed plan kind this query would execute under."""
        plan, _hit = self._plan(text)
        return plan.kind

    def execute(self, text: str) -> ShardedOutcome:
        if self._closed:
            raise ShardError("scatter-gather executor is closed")
        tracer = self.tracer
        if not tracer.enabled:
            return self._execute(text)
        root = tracer.begin("scatter.query", query=text)
        try:
            with tracer.activate(root):
                outcome = self._execute(text)
        except BaseException as exc:
            root.set(error=type(exc).__name__).finish()
            raise
        root.set(plan=outcome.plan_kind, shards_used=outcome.shards_used,
                 plan_cache_hit=outcome.plan_cache_hit,
                 partial_hits=outcome.partial_hits,
                 partial_misses=outcome.partial_misses,
                 rows=len(outcome.result.items)).finish()
        return replace(outcome, span=root)

    def _execute(self, text: str) -> ShardedOutcome:
        if self.sharded.shard_count == 1:
            return self._single_shard(text)
        plan, plan_hit = self._plan(text)
        hits0 = self.partial_cache.stats.hits
        misses0 = self.partial_cache.stats.misses
        if plan.kind == "routed":
            result, used = self._execute_routed(text, plan)
        elif plan.kind == "partial_count":
            result, used = self._execute_count(text, plan)
        elif plan.kind == "broadcast_join":
            result, used = self._execute_join(text, plan)
        elif plan.kind == "scatter_flwor":
            result, used = self._execute_scatter_flwor(text, plan)
        else:
            result, used = self._execute_fallback(text), self.sharded.shard_count
        return ShardedOutcome(
            result=result, plan_kind=plan.kind, shards_used=used,
            plan_cache_hit=plan_hit,
            partial_hits=self.partial_cache.stats.hits - hits0,
            partial_misses=self.partial_cache.stats.misses - misses0,
        )

    # -- plan recognition ----------------------------------------------------------

    def _plan(self, text: str) -> tuple[_Plan, bool]:
        return self.plan_cache.get_or_compute(text, lambda: self._analyze(text))

    def _analyze(self, text: str) -> _Plan:
        query = parse_query(text)
        if query.functions:
            return _Plan("fallback")    # user functions: compatibility path
        body = query.body
        plan = self._analyze_routed(body)
        if plan is None:
            plan = self._analyze_count(body)
        if plan is None:
            plan = self._analyze_join(body)
        if plan is None:
            plan = self._analyze_scatter_flwor(body)
        if plan is None:
            plan = _Plan("fallback")
        plan.ast = query
        return plan

    def _analyze_routed(self, body: Expr) -> _Plan | None:
        if isinstance(body, Path):
            base: Path = body
            rest: list[Expr] = []
        elif isinstance(body, FLWOR) and len(body.clauses) == 1 \
                and isinstance(body.clauses[0], ForClause) \
                and isinstance(body.clauses[0].sequence, Path):
            base = body.clauses[0].sequence
            rest = [clause.key for clause in body.order] + [body.ret]
            if body.where is not None:
                rest.append(body.where)
        else:
            return None
        if not _is_absolute(base):
            return None
        routed = _routable_step(base, self.sharded)
        if routed is None:
            return None
        # Everything else must be shard-local: no second absolute path.
        for expr in rest:
            if _absolute_paths(expr):
                return None
        for step in base.steps:
            for predicate in step.predicates:
                if any(p is not base for p in _absolute_paths(predicate)):
                    return None
        target, known = routed
        return _Plan("routed", target_shard=target, empty=not known)

    def _analyze_count(self, body: Expr) -> _Plan | None:
        if not (isinstance(body, FunctionCall) and body.name == "count"
                and len(body.args) == 1):
            return None
        arg = body.args[0]
        if isinstance(arg, Path):
            if _absolute_paths(arg) != [arg]:
                return None
            prefix, length = _absolute_prefix(arg)
            if length != len(arg.steps) or not _is_absolute(arg):
                return None
            if not self._inside_extent(prefix):
                return None
            return _Plan("partial_count", count_flwor=False)
        if not isinstance(arg, FLWOR):
            return None
        if len(arg.clauses) != 1 or not isinstance(arg.clauses[0], ForClause):
            return None
        clause = arg.clauses[0]
        base = clause.sequence
        if not isinstance(base, Path) or not _is_absolute(base):
            return None
        prefix, length = _absolute_prefix(base)
        if length != len(base.steps) or not self._inside_extent(prefix):
            return None
        if [p for p in _absolute_paths(arg) if p is not base]:
            return None
        plan = _Plan("partial_count", count_flwor=True, var=clause.var)
        # Pushdown candidates: remember the return accessor so execution
        # can match it against the shard's sorted-index range plan.
        if isinstance(arg.ret, VarRef) and arg.ret.name == clause.var:
            plan.ret_accessor = ()
        elif isinstance(arg.ret, Path) and isinstance(arg.ret.root, VarRef) \
                and arg.ret.root.name == clause.var:
            plan.ret_accessor = _steps_accessor(arg.ret.steps)
        return plan

    def _inside_extent(self, prefix: tuple[str, ...]) -> bool:
        """True when the path descends strictly into one partitioned
        extent — per-shard evaluation then partitions its result set (the
        virtual structural layer above extents repeats on every shard)."""
        return any(len(prefix) > len(container) and prefix[:len(container)] == container
                   for container in _ENTITY_PATHS.values())

    def _analyze_join(self, body: Expr) -> _Plan | None:
        if not isinstance(body, FLWOR) or body.order:
            return None
        if len(body.clauses) != 2:
            return None
        outer, let = body.clauses
        if not isinstance(outer, ForClause) or not isinstance(let, LetClause):
            return None
        if not isinstance(outer.sequence, Path):
            return None
        extent = _full_extent_path(outer.sequence)
        if extent is None:
            return None
        join = _match_correlated_let(let, {outer.var})
        if join is None or join.strategy != "hash":
            return None
        # The let must bind the matched build rows *themselves*: a computed
        # return (``return $t/bidder``) makes count($a) count whatever the
        # return yields per match, which bucket counts cannot stand in for.
        inner_flwor = let.expr
        if not (isinstance(inner_flwor, FLWOR)
                and isinstance(inner_flwor.ret, VarRef)
                and inner_flwor.ret.name == join.inner_var):
            return None
        build_extent = _join_base_extent(join)
        if build_extent is None or build_extent not in _ENTITY_PATHS:
            return None
        inner = _var_accessor(join.inner_key, join.inner_var)
        outer_key = _var_accessor(join.outer_key, outer.var)
        if inner is None or outer_key is None:
            return None
        inner_accessor, inner_wrappers = inner
        outer_accessor, outer_wrappers = outer_key
        if inner_wrappers or outer_wrappers:
            return None
        if not outer_accessor or not outer_accessor[-1].startswith("@"):
            return None                 # outer key must be single-valued
        if not isinstance(body.ret, ElementCtor):
            return None
        if not _count_only_uses(body.ret, let.var):
            return None
        for expr in ([body.ret] + ([body.where] if body.where is not None else [])):
            if _absolute_paths(expr):
                return None
        if body.where is not None and let.var in {
                node.name for node in walk(body.where) if isinstance(node, VarRef)}:
            return None
        return _Plan(
            "broadcast_join", extent=extent, var=outer.var,
            where=body.where, ret=body.ret, let_var=let.var,
            join_extent=build_extent, join_accessor=inner_accessor,
            outer_accessor=outer_accessor,
        )

    def _analyze_scatter_flwor(self, body: Expr) -> _Plan | None:
        if not isinstance(body, FLWOR) or body.order:
            return None
        if len(body.clauses) != 1 or not isinstance(body.clauses[0], ForClause):
            return None
        clause = body.clauses[0]
        if not isinstance(clause.sequence, Path):
            return None
        extent = _full_extent_path(clause.sequence)
        if extent is None:
            return None
        if not isinstance(body.ret, ElementCtor):
            return None                 # constructed results merge cleanly
        for expr in ([body.ret] + ([body.where] if body.where is not None else [])):
            if _absolute_paths(expr):
                return None
        return _Plan("scatter_flwor", extent=extent, var=clause.var,
                     where=body.where, ret=body.ret)

    # -- execution helpers ---------------------------------------------------------

    def _single_shard(self, text: str) -> ShardedOutcome:
        """One shard: nothing to scatter — the backend's own plan runs."""
        with self.tracer.span("scatter.shard", shard=0,
                              backend=self.sharded.backends[0]):
            result = self._evaluate_on_shard(0, text)
        return ShardedOutcome(result=result, plan_kind="single", shards_used=1,
                              plan_cache_hit=False, partial_hits=0,
                              partial_misses=0)

    def _compile_for_shard(self, rank: int, text: str) -> CompiledQuery:
        key = (rank, text)
        compiled, _hit = self._compiled.get_or_compute(
            key, lambda: compile_query(text, self.sharded.shard_store(rank),
                                       self._profiles[rank],
                                       tracer=self.tracer))
        return compiled

    def _evaluate_on_shard(self, rank: int, text: str) -> QueryResult:
        self._ensure_indexes(rank)
        return evaluate(self._compile_for_shard(rank, text),
                        tracer=self.tracer)

    def _ensure_indexes(self, rank: int) -> None:
        if self.sharded.shard_indexes_dirty(rank):
            with self._rebuild_locks[rank]:
                self.sharded.ensure_shard_indexes(rank)

    def _scatter(self, ranks: list[int], fn) -> list:
        """Run ``fn(rank)`` for each rank on the pool under per-shard
        admission; results come back in rank order.

        When tracing, each rank gets a ``scatter.shard`` child span
        attached to the calling thread's current span — pool threads
        have no context stack, so the parent is captured here and
        activated on the worker (nested evaluator/plan spans land under
        the right shard).
        """
        tracer = self.tracer
        if not tracer.enabled:
            futures = [self._pool.submit(self._gated, rank, fn)
                       for rank in ranks]
            return [future.result() for future in futures]
        parent = tracer.current()

        def traced(rank: int):
            span = tracer.begin("scatter.shard", parent=parent, shard=rank,
                                backend=self.sharded.backends[rank])
            try:
                with tracer.activate(span):
                    return self._gated(rank, fn)
            finally:
                span.finish()

        futures = [self._pool.submit(traced, rank) for rank in ranks]
        return [future.result() for future in futures]

    def _gated(self, rank: int, fn):
        with self._gates[rank]:
            return fn(rank)

    def _partial(self, rank: int, family: str, text: str, compute,
                 digest: str | None = None):
        """A per-shard partial, cached under the shard's digest.

        ``digest`` overrides the default single-shard digest for partials
        that depend on more than one shard's state (a broadcast probe
        embeds the merged build table, so its key must cover every
        shard's digest, not just the probing shard's).
        """
        key = (rank, digest or self.sharded.shard_digest(rank), family, text)
        value, _hit = self.partial_cache.get_or_compute(key, compute)
        return value

    def _all_digests(self) -> str:
        return "|".join(self.sharded.shard_digest(rank) or ""
                        for rank in range(self.sharded.shard_count))

    def _gather_result(self, slices: list[list[tuple[int, list]]]) -> QueryResult:
        """Merge per-shard (global_seq, items) slices into document order."""
        with self.tracer.span("scatter.merge") as span:
            merged: list[tuple[int, list]] = []
            for piece in slices:
                merged.extend(piece)
            merged.sort(key=lambda pair: pair[0])
            items: list = []
            for _seq, row in merged:
                items.extend(row)
            span.set(slices=len(slices), rows=len(items))
        return QueryResult(items, Navigator(self.sharded))

    # -- plan executions -----------------------------------------------------------

    def _execute_routed(self, text: str, plan: _Plan) -> tuple[QueryResult, int]:
        if plan.empty:
            return QueryResult([], Navigator(self.sharded)), 0
        rank = plan.target_shard
        with self.tracer.span("scatter.shard", shard=rank,
                              backend=self.sharded.backends[rank],
                              routed=True):
            result = self._partial(
                rank, "routed", text,
                lambda: self._gated(rank,
                                    lambda r: self._evaluate_on_shard(r, text)))
        return result, 1

    def _execute_count(self, text: str, plan: _Plan) -> tuple[QueryResult, int]:
        ranks = list(range(self.sharded.shard_count))
        partials = self._scatter(
            ranks,
            lambda rank: self._partial(rank, "count", text,
                                       lambda: self._count_partial(rank, text, plan)))
        return QueryResult([sum(partials)], Navigator(self.sharded)), len(ranks)

    def _count_partial(self, rank: int, text: str, plan: _Plan) -> int:
        self._ensure_indexes(rank)
        compiled = self._compile_for_shard(rank, text)
        if plan.count_flwor and plan.ret_accessor is not None \
                and compiled.range_plans:
            pushed = self._count_pushdown(rank, compiled, plan)
            if pushed is not None:
                return pushed
        result = evaluate(compiled, tracer=self.tracer)
        return int(result.items[0])

    def _count_pushdown(self, rank: int, compiled: CompiledQuery,
                        plan: _Plan) -> int | None:
        """Answer the partial count by bisection when provably exact.

        The shard's range plan already encodes the normalized predicate;
        the index's build-time cardinality counters (``nodes_empty``,
        ``nodes_multi``) prove every extent node holds exactly one key
        value, and the return accessor must name the same field (with or
        without its ``text()`` step) or the binding itself — then
        qualifying index entries and returned items correspond 1:1.
        """
        body = compiled.query.body
        if not (isinstance(body, FunctionCall) and body.args
                and isinstance(body.args[0], FLWOR)):
            return None
        range_plan = compiled.range_plans.get(id(body.args[0]))
        if range_plan is None:
            return None
        accessor = plan.ret_accessor
        if accessor != () and accessor != range_plan.accessor \
                and accessor + ("text()",) != range_plan.accessor:
            return None
        store = self.sharded.shard_store(rank)
        if store.indexes is None:
            return None
        index = store.indexes.sorted_field(range_plan.path, range_plan.accessor)
        if index is None or index.nodes_empty or index.nodes_multi:
            return None
        store.stats.index_lookups += 1
        with self.tracer.span("index.probe", kind="count_pushdown",
                              shard=rank) as span:
            count = index.count(range_plan.op, range_plan.bound)
            span.set(count=count)
        return count

    def _execute_join(self, text: str, plan: _Plan) -> tuple[QueryResult, int]:
        ranks = list(range(self.sharded.shard_count))
        builds = self._scatter(
            ranks,
            lambda rank: self._partial(rank, "join-build", text,
                                       lambda: self._build_partial(rank, plan)))
        table: dict = {}
        for partial in builds:
            for key, count in partial.items():
                table[key] = table.get(key, 0) + count
        container = _ENTITY_PATHS[plan.extent]
        all_digests = self._all_digests()
        slices = self._scatter(
            ranks,
            lambda rank: self._partial(
                rank, "join-probe", text,
                lambda: self._row_partial(
                    rank, plan,
                    self.sharded.extent_members_of(container, rank), table),
                digest=all_digests))
        return self._gather_result(slices), len(ranks)

    def _build_partial(self, rank: int, plan: _Plan) -> dict:
        """key -> matching build-side node count, for one shard."""
        self._ensure_indexes(rank)
        store = self.sharded.shard_store(rank)
        container = _ENTITY_PATHS[plan.join_extent]
        if store.indexes is not None:
            index = store.indexes.value_field(plan.join_extent, plan.join_accessor)
            if index is not None:
                store.stats.index_lookups += 1
                return index.key_counts()
        counts: dict = {}
        for _seq, native in self.sharded.extent_members_of(container, rank):
            keys = {normalize_key(value)
                    for value in extract_values(store, native, plan.join_accessor)}
            keys.discard(None)
            for key in keys:
                counts[key] = counts.get(key, 0) + 1
        return counts

    def _execute_scatter_flwor(self, text: str,
                               plan: _Plan) -> tuple[QueryResult, int]:
        ranks = list(range(self.sharded.shard_count))
        container = _ENTITY_PATHS[plan.extent]
        slices = self._scatter(
            ranks,
            lambda rank: self._partial(
                rank, "flwor", text,
                lambda: self._row_partial(
                    rank, plan,
                    self.sharded.extent_members_of(container, rank))))
        return self._gather_result(slices), len(ranks)

    def _row_partial(self, rank: int, plan: _Plan, members: list,
                     table: dict | None = None) -> list[tuple[int, list]]:
        """(global_seq, result items) for one shard's slice of the outer
        extent: the plan's ``where`` and ``return``, emitted for the
        shard's store, run per member.  A broadcast join's ``table``
        (key -> build-side node count) stands in for the let variable,
        which the return only ever counts."""
        store = self.sharded.shard_store(rank)
        compiled = CompiledQuery(query=plan.ast, store=store,
                                 profile=self._profiles[rank])
        where, ret, rt = emit_row_program(
            compiled, (plan.var, plan.let_var), plan.where, plan.ret)
        out: list[tuple[int, list]] = []
        for seq, native in members:
            rt.frame[0] = [NodeItem(native)]
            if where is not None and not where(rt):
                continue
            if table is not None:
                values = extract_values(store, native, plan.outer_accessor)
                rt.frame[1] = [0.0] * (
                    table.get(normalize_key(values[0]), 0) if values else 0)
            out.append((seq, ret(rt)))
        return out

    def _execute_fallback(self, text: str) -> QueryResult:
        """The compatibility path: the full stack over the virtual view."""
        key = ("*", text)
        compiled, _hit = self._compiled.get_or_compute(
            key, lambda: compile_query(text, self.sharded, SHARDED_PROFILE,
                                       tracer=self.tracer))
        return evaluate(compiled, tracer=self.tracer)


#: The optimizer profile of the compatibility path (the sharded store's
#: global secondary indexes serve probes like any other architecture's).
SHARDED_PROFILE = SystemProfile(
    name="S", optimizer="heuristic", join_rewrite_depth=99,
    inequality_join="nlj", use_id_index=True, use_path_index=True,
    use_value_index=True, use_sorted_index=True,
)
