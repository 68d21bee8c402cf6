"""Per-system query compilation.

Compilation = parsing + static analysis + access-path resolution + join
planning + (for the relational systems) plan enumeration.  The work done
here is *real* and differs per architecture, which is what makes the
Table 2 compile/execute splits and System A's Q3 optimization pathology
reproducible rather than staged:

* System A touches one catalog entry per query but runs an exhaustive
  System-R style enumeration over its plan alternatives ("it spent too much
  of its time on optimization");
* System B resolves every path step against its per-path catalog — dozens
  to hundreds of metadata accesses per query ("thus spending [twice] as much
  time on query compilation");
* System C resolves against the DTD-derived schema and is limited to one
  correlated-join rewrite per query, reproducing its Q9 plan anomaly;
* System D resolves against the structural summary (cheap dictionary hits)
  and may use sorted join plans — the paper's "hand-optimized execution
  plans" for Q11/Q12;
* Systems E/F use heuristics only; System G executes naively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.obs.trace import NULL_TRACER
from repro.storage.fragment_store import FragmentStore
from repro.storage.heap_store import HeapStore
from repro.storage.interface import Store
from repro.storage.schema_store import SchemaStore
from repro.storage.summary_store import SummaryStore
from repro.xquery.ast import (
    Arithmetic, BoolOp, Comparison, ContextItem, ElementCtor, Expr, FLWOR,
    ForClause, FunctionCall, IfExpr, LetClause, LetClause as _Let, Literal,
    Path, Quantified, Query, Step, Unary, VarRef, bound_value,
    is_absolute as _is_absolute, walk,
)
from repro.xquery.evaluator import emit_query
from repro.xquery.lexer import Shape, scan_shape
from repro.xquery.parser import parse_query
from repro.xquery.sequence import mirror_op


@dataclass(frozen=True, slots=True)
class SystemProfile:
    """Optimizer capabilities of one system (paper Section 7).

    The index flags gate *real* access structures: ``use_id_index`` a
    store-native ID lookup, ``use_value_index`` / ``use_sorted_index`` the
    secondary hash and sorted-numeric indexes of :mod:`repro.index`, and
    ``use_path_index`` a path extent — store-native where the mapping has
    one (Systems B/D), the secondary path index otherwise.
    """

    name: str
    optimizer: str = "heuristic"        # "cost-exhaustive" | "cost-greedy" | "heuristic" | "none"
    join_rewrite_depth: int = 99        # correlated lets decorrelated per query
    inequality_join: str = "nlj"        # "nlj" | "sorted"
    use_id_index: bool = True
    use_path_index: bool = False
    use_value_index: bool = False       # secondary hash index on typed values
    use_sorted_index: bool = False      # secondary sorted index for ranges


@dataclass(slots=True)
class PathPlan:
    """Access-path choice for one Path node.

    ``value_probe`` / ``range_probe`` resolve a step predicate through a
    secondary index: the extent of ``prefix`` is probed on ``accessor``
    (equality against ``probe_literal``'s bound value, or ``accessor-value
    op bound``, the bound a pinned slot) and
    evaluation resumes at the step after ``id_step``.  ``est_rows`` vs
    ``scan_rows`` records the cardinality comparison that won the probe —
    the scan-vs-probe cost choice, made from index statistics.
    """

    kind: str          # "steps" | "id_lookup" | "path_index" | "value_probe" | "range_probe"
    id_literal: Literal | None = None   # id_lookup: read at execution
    id_step: int = 0
    prefix: tuple[str, ...] = ()
    prefix_len: int = 0
    source: str = "store"               # path_index backing: "store" | "index"
    accessor: tuple[str, ...] = ()
    probe_literal: Literal | None = None    # value_probe: read at execution
    op: str = "="                       # range_probe: accessor-value OP bound
    bound: float = 0.0
    est_rows: int = -1
    scan_rows: int = -1


@dataclass(slots=True)
class RangePlan:
    """An index-resolved FLWOR ``where`` range (Q5's shape).

    Applies to ``for $v in /abs/path where $v/acc OP literal``: the sorted
    index on ``(path, accessor)`` yields exactly the qualifying bindings,
    so the evaluator iterates the probe result (restored to document
    order) and never evaluates the predicate.
    """

    var: str
    path: tuple[str, ...]
    accessor: tuple[str, ...]
    op: str                             # normalized: accessor-value OP bound
    bound: float
    est_rows: int = 0
    scan_rows: int = 0


@dataclass(slots=True)
class JoinPlan:
    """Decorrelation of a correlated let: one build, probed per outer row.

    ``strategy`` names the probe: ``"hash"`` looks the outer key up,
    ``"sorted"`` bisects with it, ``"nlj"`` compares it against every
    build row's stored key (still quadratic, but neither side is
    re-navigated per pair).  When ``index_kind`` is set, the build side is
    served by a secondary index over ``(index_path, index_accessor)``
    instead of being materialized per query: ``"value"`` probes the hash
    index with each outer key, ``"sorted"`` bisects the sorted index with
    the outer bound (``index_scale`` folds a literal multiplier like
    Q11/Q12's ``5000 *`` into the probe).  The evaluator falls back to the
    per-query build when the store's indexes have been dropped.
    """

    strategy: str                       # "hash" | "sorted" | "nlj"
    op: str                             # normalized: outer_key OP inner_key
    inner_var: str
    inner_base: Expr
    inner_key: Expr
    outer_key: Expr
    index_kind: str | None = None       # None | "value" | "sorted"
    index_path: tuple[str, ...] = ()
    index_accessor: tuple[str, ...] = ()
    index_scale: float = 1.0


@dataclass(slots=True)
class ExchangePlan:
    """How a query distributes over a sharded store's shards — at most one
    per query; none leaves it to the compatibility path (the whole stack
    over the store's virtual document view).

    ``routed``: the query's one absolute path is pinned to a single shard,
    by descending through a region container (``region``: its items live
    wholly on the region's home shard) or by an ``[@id = "literal"]`` step
    on a partitioned extent (``id_literal``, whose bound value picks the
    shard per execution), and the whole query runs there.  ``partial_count``: ``count()`` over one extent-rooted
    sequence; every shard counts its own slice and the integers add up
    (``ret_accessor``: what the counted FLWOR returns per binding, for the
    sorted-index pushdown).  ``scatter_flwor``: ``where`` / ``ret`` map
    each shard's slice of the container ``extent``, merged back by global
    sequence.  ``broadcast_join``: the same map, after the shards' key
    counts over the build side (``join_extent`` / ``join_accessor``) were
    merged and handed to it as ``$let_var``, which ``ret`` only counts.
    """

    kind: str           # "routed" | "partial_count" | "broadcast_join" | "scatter_flwor"
    executor: object = None             # the store's exchange; None: inline
    region: str | None = None
    id_literal: Literal | None = None
    extent: tuple[str, ...] = ()
    var: str = ""
    let_var: str = ""
    where: Expr | None = None
    ret: Expr | None = None
    ret_accessor: tuple[str, ...] | None = None
    join_extent: tuple[str, ...] = ()
    join_accessor: tuple[str, ...] = ()
    outer_accessor: tuple[str, ...] = ()

    def ranks(self, store, values: tuple) -> list[int]:
        """The shards one execution (bound to ``values``) runs on.  Asked
        of the store every time: its routing map moves with every commit,
        and an id no shard owns matches nothing anywhere."""
        if self.kind != "routed":
            return list(range(store.shard_count))
        if self.id_literal is None:
            return [store.region_shard(self.region)]
        target = store.shard_of_id(bound_value(self.id_literal, values))
        return [] if target is None else [target]


@dataclass(slots=True, eq=False)
class CompiledQuery:
    """A query compiled for one (store, profile) pair.

    Reuse contract (the plan cache depends on it): after
    :func:`compile_query` returns, nothing mutates ``query``, the plan
    dictionaries, ``warnings`` or the emitted closures ``run`` / ``stream``
    (built once, by the emit pass; they hold no per-execution state — that
    lives in the runtime object each execution hands them).  A compiled
    plan may therefore be executed repeatedly, including from several
    threads at once, as long as the underlying store's read paths are
    thread-safe.  ``eq=False`` keeps instances hashable by identity so
    plans can key caches and sets directly.

    A plan serves every text of its **shape** (``shape``: the text's
    literals lifted into slots, :func:`repro.xquery.lexer.scan_shape`)
    whose literals are written as this one's (``raws``) in the slots in
    ``pinned`` — the ones a plan choice read while compiling (slot ->
    why) — and only while ``proofs`` hold: the index cardinality counters
    a choice relied on, checked again on reuse (:meth:`fits`).  ``values`` are the
    bindings of the text it was compiled from; every other slot is read
    from the execution's bindings.  (A literal of constructor text is no
    literal of the query: its slot is pinned, and only its spelling says
    what the constructor writes.)
    """

    query: Query
    store: Store
    profile: SystemProfile
    shape: tuple | None = None
    values: tuple = ()
    raws: tuple = ()
    pinned: dict[int, str] = field(default_factory=dict)
    proofs: list[tuple] = field(default_factory=list)
    path_plans: dict[int, PathPlan] = field(default_factory=dict)
    join_plans: dict[int, JoinPlan] = field(default_factory=dict)
    range_plans: dict[int, RangePlan] = field(default_factory=dict)
    exchange: ExchangePlan | None = None
    warnings: list[str] = field(default_factory=list)
    metadata_accesses: int = 0
    plans_considered: int = 0
    run: object = None                  # rt -> list (or index window)
    stream: object = None               # rt -> iterator over the same items
    frame_size: int = 0                 # variable slots of the main frame
    #: ``(variable, store-bound)`` per binding site, in emit order: whether
    #: the emitter proved the variable holds only store nodes (its paths
    #: call the store) or not (they go through the ``Navigator``).
    navigation: tuple = ()
    #: ``(root variable, leaf count)`` per constructor twig, in emit order:
    #: a row answers a twig's value paths in one ``values_by_twig`` call.
    twigs: tuple = ()
    #: A shard's ``(where test, return closure, frame size)`` when its
    #: exchange maps rows (scatter FLWOR, broadcast join).
    row_program: tuple | None = None

    def literal(self, node: Literal, reason: str):
        """A literal's value read while planning: its slot is pinned (a
        text with another value there needs a plan of its own)."""
        if node.slot is not None:
            self.pinned.setdefault(node.slot, reason)
        return bound_value(node, self.values)

    def fits(self, values: tuple, raws: tuple | None = None) -> bool:
        """Whether this plan answers for a same-shape text's ``values``
        (spelled ``raws``): the pinned slots agree — by spelling when it
        is given — and every proof still holds."""
        theirs, mine = (values, self.values) if raws is None else (raws, self.raws)
        for slot in self.pinned:
            if theirs[slot] != mine[slot]:
                return False
        for proof in self.proofs:
            if not _proof_holds(self.store, proof):
                return False
        return True


#: Plans kept per query shape, and per shard of an exchange: one per
#: binding of the slots their choices pinned, newest last.  The ledger's
#: workloads never keep more than one; two spellings of constructor text,
#: or two bounds either side of a range probe's threshold, keep two.
VARIANTS = 4


def fitting(plans: list, values: tuple,
            raws: tuple | None = None) -> CompiledQuery | None:
    """The first of one shape's ``plans`` that answers for these bindings
    (:meth:`CompiledQuery.fits`), or None."""
    for plan in plans:
        if plan.fits(values, raws):
            return plan
    return None


def with_variant(plans: list, plan: CompiledQuery) -> list:
    """``plans`` with ``plan`` newest and the oldest past :data:`VARIANTS`
    dropped: a new list, so a reader walking the old one needs no lock."""
    return plans[1 - VARIANTS:] + [plan]


def compile_query(text: str, store: Store, profile: SystemProfile,
                  tracer=NULL_TRACER) -> CompiledQuery:
    """Full compilation pipeline for one system; emission is its last pass."""
    return compile_shaped(text, scan_shape(text), store, profile, tracer)


def compile_shaped(text: str, shape: Shape, store: Store,
                   profile: SystemProfile, tracer=NULL_TRACER) -> CompiledQuery:
    """:func:`compile_query` of a text whose shape is already scanned."""
    return _compile(text, None, shape, shape.values, store, profile, tracer)


def compile_shard(compiled: CompiledQuery, rank: int, values: tuple,
                  tracer=NULL_TRACER) -> CompiledQuery:
    """An exchange's program for one shard and one execution's bindings:
    the same AST, planned against the shard's own store under its own
    profile (what it pins, it pins to ``values``)."""
    sharded = compiled.store
    return _compile("", compiled.query, None, values,
                    sharded.shard_store(rank), sharded.shard_profiles[rank],
                    tracer)


def exchange_kind(compiled: CompiledQuery) -> str:
    """How a plan distributes, by name: its exchange's kind, else
    ``fallback`` (the compatibility path over several shards) or
    ``single`` (one store: nothing to distribute)."""
    if compiled.exchange is not None:
        return compiled.exchange.kind
    return "fallback" if compiled.store.shard_count > 1 else "single"


def _compile(text: str, query: Query | None, shape: Shape | None,
             values: tuple, store: Store, profile: SystemProfile,
             tracer) -> CompiledQuery:
    with tracer.span("plan", system=profile.name,
                     optimizer=profile.optimizer) as span:
        compiled = CompiledQuery(query, store, profile, values=values)
        if query is None:
            with tracer.span("plan.parse"):
                query = compiled.query = parse_query(text, shape.spans)
            compiled.shape, compiled.raws = shape.key, shape.raws
        nodes = walk(query)             # one walk for every pass
        if shape is not None:
            claimed = {node.slot for node in nodes if isinstance(node, Literal)}
            for slot in range(len(values)):  # a slot no literal fills is text
                if slot not in claimed:
                    compiled.pinned[slot] = "text, not a literal"
        if getattr(store, "shard_count", 1) > 1:
            compiled.exchange = _plan_exchange(store, query)
        if compiled.exchange is None:   # else the shards plan the body
            _resolve_paths(compiled, nodes)
            _plan_joins(compiled)
            _plan_ranges(compiled, nodes)
            _enumerate_plans(compiled, nodes)
        _validate_tags(compiled, nodes)
        if tracer.enabled:
            trace_plan_choices(compiled, tracer)
        with tracer.span("plan.emit") as emit_span:
            emit_query(compiled)
            if tracer.enabled:
                emit_span.set(nodes=len(nodes))
        span.set(plans_considered=compiled.plans_considered,
                 metadata_accesses=compiled.metadata_accesses,
                 warnings=len(compiled.warnings))
    return compiled


def trace_plan_choices(compiled: CompiledQuery, tracer) -> None:
    """One zero-width child span per optimizer decision: the chosen
    access path / join / range, with the est-vs-scan numbers that won
    the probe-vs-scan cost comparison (at compile time, and again for a
    plan the plan cache hands out)."""
    for plan in compiled.path_plans.values():
        if plan.kind == "steps":
            continue
        with tracer.span("plan.access_path", kind=plan.kind,
                         prefix="/".join(plan.prefix),
                         est_rows=plan.est_rows, scan_rows=plan.scan_rows):
            pass
    for join in compiled.join_plans.values():
        with tracer.span("plan.join", strategy=join.strategy, op=join.op,
                         index_kind=join.index_kind or "none"):
            pass
    for rng in compiled.range_plans.values():
        with tracer.span("plan.range", var=rng.var, op=rng.op,
                         bound=rng.bound, est_rows=rng.est_rows,
                         scan_rows=rng.scan_rows):
            pass
    if compiled.exchange is not None:
        with tracer.span("plan.exchange", kind=compiled.exchange.kind):
            pass


# -- access-path resolution ----------------------------------------------------------


def _absolute_prefix(path: Path) -> tuple[tuple[str, ...], int]:
    """Longest leading run of predicate-free child steps of an absolute path."""
    tags: list[str] = []
    for step in path.steps:
        if step.axis != "child" or step.predicates or step.name is None:
            break
        tags.append(step.name)
    return tuple(tags), len(tags)


def _resolve_paths(compiled: CompiledQuery, nodes: list) -> None:
    store = compiled.store
    profile = compiled.profile
    catalog = getattr(store, "catalog", None)
    before = catalog.metadata_accesses if catalog else 0

    for node in nodes:
        if not isinstance(node, Path):
            continue
        plan = PathPlan("steps")
        # Per-architecture metadata resolution for every step.
        if isinstance(store, FragmentStore):
            _resolve_fragment_steps(store, node)
        elif isinstance(store, HeapStore):
            store.catalog.has_table("nodes")  # one heap relation, one touch
        elif isinstance(store, SchemaStore):
            for step in node.steps:
                if step.name is not None:
                    store.catalog.has_table(step.name)  # schema lookup per step
        elif isinstance(store, SummaryStore):
            prefix, _ = _absolute_prefix(node)
            if prefix:
                store.count_path(prefix)

        # ID lookup: .../tag[@id = "literal"] with an ID index.
        if profile.use_id_index and store.has_id_index():
            id_step = _find_id_predicate(node)
            if id_step is not None:
                index, literal = id_step
                plan = PathPlan("id_lookup", id_literal=literal, id_step=index)
        # Secondary-index probes: an equality or range predicate on an
        # indexed field of the prefix extent, chosen over the scan when the
        # index's cardinality statistics say the probe reads fewer rows.
        if plan.kind == "steps" and (profile.use_value_index or profile.use_sorted_index):
            probe = _match_probe_plan(compiled, node)
            if probe is not None:
                plan = probe
        # Path index: absolute child-only prefixes, served by the store's
        # native extent when it has one, the secondary path index otherwise.
        if plan.kind == "steps" and profile.use_path_index and _is_absolute(node):
            prefix, length = _absolute_prefix(node)
            if length >= 2:
                if store.nodes_at_path(prefix) is not None:
                    plan = PathPlan("path_index", prefix=prefix, prefix_len=length)
                elif store.indexes is not None and store.indexes.covers_path(prefix):
                    plan = PathPlan("path_index", prefix=prefix, prefix_len=length,
                                    source="index")
        compiled.path_plans[id(node)] = plan

    if catalog:
        compiled.metadata_accesses += catalog.metadata_accesses - before


def _resolve_fragment_steps(store: FragmentStore, path: Path) -> None:
    """System B: resolve each step against the per-path catalog.

    Relative (variable-rooted) paths are resolved from scratch: the compiler
    has no path-set inference for the variable, so the first step requires a
    full catalog inspection — the dominant share of B's compile-time
    metadata traffic (Table 2: B spends twice A's share on compilation).
    """
    prefixes: list[tuple[str, ...]] | None
    if _is_absolute(path):
        prefixes = [()]
    else:
        prefixes = None  # unknown context: first named step scans the catalog
    for step in path.steps:
        if step.name is None or step.axis in ("attribute", "text", "self"):
            continue
        if prefixes is None:
            prefixes = store.paths_extending((), step.name)
            continue
        if step.axis == "child":
            new_prefixes = []
            for prefix in prefixes:
                candidate = prefix + (step.name,)
                if store.child_path_exists(prefix, step.name):
                    new_prefixes.append(candidate)
            prefixes = new_prefixes
        else:  # descendant: inspect the whole catalog
            new_prefixes = []
            for prefix in prefixes or [()]:
                new_prefixes.extend(store.paths_extending(prefix, step.name))
            prefixes = new_prefixes


def _find_id_predicate(path: Path) -> tuple[int, Literal] | None:
    """``(step index, id literal)`` of an ``[@id = "literal"]`` step; a
    literal's type is its shape's, so the test reads no value."""
    for index, step in enumerate(path.steps):
        for predicate in step.predicates:
            if not isinstance(predicate, Comparison) or predicate.op != "=":
                continue
            for literal, other in ((predicate.right, predicate.left),
                                   (predicate.left, predicate.right)):
                if (isinstance(literal, Literal) and isinstance(literal.value, str)
                        and _is_id_attribute(other)):
                    return index, literal
    return None


def _is_id_attribute(expr: Expr) -> bool:
    return (
        isinstance(expr, Path)
        and isinstance(expr.root, ContextItem)
        and len(expr.steps) == 1
        and expr.steps[0].axis == "attribute"
        and expr.steps[0].name == "id"
    )


# -- secondary-index probe matching ---------------------------------------------------


def _steps_accessor(steps: list[Step]) -> tuple[str, ...] | None:
    """An index accessor for a run of steps, or None when not index-shaped.

    Child steps must be named and predicate-free; an ``attribute`` or
    ``text`` step may only appear last.  The result mirrors
    :class:`repro.index.spec.FieldSpec` accessors (``('buyer', '@person')``,
    ``('price', 'text()')``).
    """
    accessor: list[str] = []
    for position, step in enumerate(steps):
        last = position == len(steps) - 1
        if step.predicates:
            return None
        if step.axis == "child" and step.name is not None:
            accessor.append(step.name)
        elif step.axis == "attribute" and step.name is not None and last:
            accessor.append("@" + step.name)
        elif step.axis == "text" and last:
            accessor.append("text()")
        else:
            return None
    return tuple(accessor) if accessor else None


def _context_accessor(expr: Expr) -> tuple[str, ...] | None:
    """Accessor of a predicate expression relative to the context item."""
    if not isinstance(expr, Path) or not isinstance(expr.root, ContextItem):
        return None
    return _steps_accessor(expr.steps)


_CARDINALITY_FNS = ("exactly-one", "zero-or-one", "one-or-more")


def _strip_cardinality(expr: Expr) -> tuple[Expr, tuple[str, ...]]:
    """Peel ``exactly-one()`` / ``zero-or-one()`` / ``one-or-more()``
    wrappers, remembering which were stripped: they raise at runtime when
    the sequence cardinality is wrong, so an index may only stand in for
    them when :func:`_cardinality_ok` proves they never would."""
    wrappers: list[str] = []
    while (isinstance(expr, FunctionCall)
           and expr.name in _CARDINALITY_FNS
           and len(expr.args) == 1):
        wrappers.append(expr.name)
        expr = expr.args[0]
    return expr, tuple(wrappers)


def _proven(compiled: CompiledQuery, kind: str, path: tuple[str, ...],
            accessor: tuple[str, ...], index, wrappers: tuple[str, ...],
            single_value: bool) -> bool:
    """:func:`_cardinality_ok`, kept as a proof the plan is reused under:
    a write can make a field empty or multi-valued on some node, and a
    plan whose choice it was must not outlive that (:meth:`CompiledQuery.fits`)."""
    if not _cardinality_ok(index, wrappers, single_value):
        return False
    if wrappers or single_value:
        compiled.proofs.append((kind, path, accessor, wrappers, single_value))
    return True


def _proof_holds(store, proof: tuple) -> bool:
    """One proof against the store's live indexes.  A field that is gone
    (indexes dropped) holds: the plan degrades to its scan there."""
    kind, path, accessor, wrappers, single_value = proof
    indexes = store.indexes
    if indexes is None:
        return True
    field = indexes.value_field if kind == "value" else indexes.sorted_field
    index = field(path, accessor)
    return index is None or _cardinality_ok(index, wrappers, single_value)


def _cardinality_ok(index, wrappers: tuple[str, ...], single_value: bool) -> bool:
    """Whether an index probe is observationally equal to evaluating the
    wrapped accessor on every extent node.

    ``wrappers`` raise where the probe would silently skip (a missing
    value) or silently enumerate (a duplicate value); ``single_value``
    marks expressions that consume only the first value (an arithmetic
    over the accessor) where the index would enumerate all of them.  The
    build-time raw-cardinality counters decide both from the actual
    document.
    """
    for name in wrappers:
        if name == "exactly-one" and (index.nodes_empty or index.nodes_multi):
            return False
        if name == "zero-or-one" and index.nodes_multi:
            return False
        if name == "one-or-more" and index.nodes_empty:
            return False
    if single_value and index.nodes_multi:
        return False
    return True


def _var_accessor(expr: Expr, var: str):
    """``(accessor, wrappers)`` of an expression relative to ``$var``."""
    expr, wrappers = _strip_cardinality(expr)
    if not isinstance(expr, Path):
        return None
    if not (isinstance(expr.root, VarRef) and expr.root.name == var):
        return None
    accessor = _steps_accessor(expr.steps)
    return None if accessor is None else (accessor, wrappers)


def _numeric(node: Expr) -> bool:
    """A numeric literal — by its type alone, which is its shape's."""
    return isinstance(node, Literal) and type(node.value) in (int, float)


def _predicate_key(predicate: Expr):
    """Match ``accessor OP literal`` (either side); returns ``(accessor,
    op, literal)`` with the operator normalized so the accessor is on the
    left."""
    if not isinstance(predicate, Comparison):
        return None
    sides = (
        (predicate.left, predicate.right, predicate.op),
        (predicate.right, predicate.left, mirror_op(predicate.op)),
    )
    for expr, literal, op in sides:
        if not isinstance(literal, Literal):
            continue
        accessor = _context_accessor(expr)
        if accessor is None:
            continue
        if op == "=" or (op in ("<", "<=", ">", ">=") and _numeric(literal)):
            return accessor, op, literal
    return None


def _match_probe_plan(compiled: CompiledQuery, path: Path) -> PathPlan | None:
    """A value/range probe for the first indexable step predicate, if the
    index statistics make the probe cheaper than scanning the extent."""
    store = compiled.store
    profile = compiled.profile
    indexes = store.indexes
    if indexes is None or not _is_absolute(path):
        return None
    prefix: list[str] = []
    for position, step in enumerate(path.steps):
        if step.axis != "child" or step.name is None:
            return None
        prefix.append(step.name)
        if not step.predicates:
            continue
        if len(step.predicates) != 1:
            return None                 # positional/conjunctive mixes: scan
        matched = _predicate_key(step.predicates[0])
        if matched is None:
            return None
        accessor, op, literal = matched
        extent = tuple(prefix)
        if op == "=" and profile.use_value_index:
            index = indexes.value_field(extent, accessor)
            if index is None:
                return None
            est = max(1, round(index.avg_bucket))
            if est >= index.extent_size:
                return None             # probe reads no fewer rows than the scan
            return PathPlan(
                "value_probe", id_step=position, prefix=extent,
                prefix_len=len(extent), source="index", accessor=accessor,
                probe_literal=literal, est_rows=est,
                scan_rows=index.extent_size)
        if op != "=" and profile.use_sorted_index:
            index = indexes.sorted_field(extent, accessor)
            if index is None:
                return None
            key = float(compiled.literal(literal, "range probe selectivity"))
            rows = index.count(op, key)
            if index.extent_size and rows >= index.extent_size:
                return None             # unselective: the probe IS the scan
            return PathPlan(
                "range_probe", id_step=position, prefix=extent,
                prefix_len=len(extent), source="index", accessor=accessor,
                op=op, bound=key, est_rows=rows, scan_rows=index.extent_size)
        return None
    return None


# -- join planning --------------------------------------------------------------------


def _free_variables(expr: Expr) -> set[str]:
    return {node.name for node in walk(expr) if isinstance(node, VarRef)}


def _reads_context(expr: Expr) -> bool:
    """Whether an expression reads the context item, position or size of
    the predicate it sits in.  A step predicate binds its own context, so
    what one reads inside it is not the enclosing predicate's."""
    if isinstance(expr, ContextItem):
        return True
    if isinstance(expr, FunctionCall) and expr.name in ("position", "last"):
        return True
    if isinstance(expr, Path):
        return isinstance(expr.root, Expr) and _reads_context(expr.root)
    return any(_reads_context(child) for child in _direct_children(expr))


def _plan_joins(compiled: CompiledQuery) -> None:
    budget = [compiled.profile.join_rewrite_depth]
    _plan_joins_in(compiled, compiled.query.body, set(), budget)
    for function in compiled.query.functions.values():
        _plan_joins_in(compiled, function.body, set(function.params), budget)


def _plan_joins_in(compiled: CompiledQuery, expr: Expr, loop_vars: set[str],
                   budget: list[int]) -> None:
    """Recursive walk tracking which variables vary between two
    evaluations of the expression: ``for`` and quantified variables, a
    declared function's parameters, and the lets that read any of them or
    the context."""
    if isinstance(expr, FLWOR):
        inner_loops = set(loop_vars)
        for clause in expr.clauses:
            if isinstance(clause, ForClause):
                _plan_joins_in(compiled, clause.sequence, inner_loops, budget)
                inner_loops.add(clause.var)
            else:
                join = _match_correlated_let(clause, inner_loops)
                if join is not None and budget[0] > 0:
                    if join.strategy == "sorted" and compiled.profile.inequality_join != "sorted":
                        join.strategy = "nlj"
                    _attach_index_backing(compiled, join)
                    compiled.join_plans[id(clause)] = join
                    budget[0] -= 1
                _plan_joins_in(compiled, clause.expr, inner_loops, budget)
                # A let variable varies only when its defining expression
                # reads something that does; invariant lets (Q9's $ca/$ei)
                # stay usable as join build sides.
                if _free_variables(clause.expr) & inner_loops \
                        or _reads_context(clause.expr):
                    inner_loops.add(clause.var)
        if expr.where is not None:
            _plan_joins_in(compiled, expr.where, inner_loops, budget)
        for spec in expr.order:
            _plan_joins_in(compiled, spec.key, inner_loops, budget)
        _plan_joins_in(compiled, expr.ret, inner_loops, budget)
        return
    if isinstance(expr, Quantified):
        inner_loops = set(loop_vars)
        for binding in expr.bindings:
            _plan_joins_in(compiled, binding.sequence, inner_loops, budget)
            inner_loops.add(binding.var)
        _plan_joins_in(compiled, expr.satisfies, inner_loops, budget)
        return
    for child in _direct_children(expr):
        _plan_joins_in(compiled, child, loop_vars, budget)


def _direct_children(expr: Expr) -> list[Expr]:
    if isinstance(expr, (Comparison, Arithmetic)):
        return [expr.left, expr.right]
    if isinstance(expr, Unary):
        return [expr.operand]
    if isinstance(expr, BoolOp):
        return list(expr.operands)
    if isinstance(expr, FunctionCall):
        return list(expr.args)
    if isinstance(expr, IfExpr):
        return [expr.condition, expr.then, expr.orelse]
    if isinstance(expr, Quantified):
        return [b.sequence for b in expr.bindings] + [expr.satisfies]
    if isinstance(expr, Path):
        children = [expr.root] if isinstance(expr.root, Expr) else []
        for step in expr.steps:
            children.extend(step.predicates)
        return children
    if isinstance(expr, ElementCtor):
        out: list[Expr] = []
        for attribute in expr.attributes:
            out.extend(p for p in attribute.parts if isinstance(p, Expr))
        out.extend(p for p in expr.content if isinstance(p, Expr))
        return out
    if isinstance(expr, FLWOR):
        return ([c.sequence if isinstance(c, ForClause) else c.expr
                 for c in expr.clauses]
                + ([] if expr.where is None else [expr.where])
                + [spec.key for spec in expr.order] + [expr.ret])
    return []


def _match_correlated_let(clause: LetClause, loop_vars: set[str]) -> JoinPlan | None:
    """Recognise ``let $l := for $i in BASE where K_out(outer) OP K_in($i)
    return R($i)`` — the decorrelatable shape of Q8–Q12.  ``loop_vars``
    is everything that varies between two evaluations of the let."""
    flwor = clause.expr
    if not isinstance(flwor, FLWOR) or flwor.order:
        return None
    if len(flwor.clauses) != 1 or not isinstance(flwor.clauses[0], ForClause):
        return None
    if flwor.where is None or not isinstance(flwor.where, Comparison):
        return None
    inner = flwor.clauses[0]
    comparison = flwor.where
    if comparison.op == "<<":
        return None
    # The base is built once and the return memoised per build row for the
    # whole execution: neither may read anything that varies.
    if (_free_variables(inner.sequence) | _free_variables(flwor.ret)) & loop_vars \
            or _reads_context(inner.sequence) or _reads_context(flwor.ret):
        return None
    left_vars = _free_variables(comparison.left)
    right_vars = _free_variables(comparison.right)
    var = inner.var
    if var in left_vars and var not in right_vars and right_vars & loop_vars:
        inner_key, outer_key = comparison.left, comparison.right
        op = mirror_op(comparison.op)
    elif var in right_vars and var not in left_vars and left_vars & loop_vars:
        inner_key, outer_key = comparison.right, comparison.left
        op = comparison.op
    else:
        return None
    # The build evaluates the inner key once per row, not once per pair.
    if _free_variables(inner_key) & loop_vars or _reads_context(inner_key):
        return None
    strategy = {"=": "hash", "!=": "nlj"}.get(op, "sorted")
    return JoinPlan(strategy, op, var, inner.sequence, inner_key, outer_key)


def _scaled_var_accessor(compiled: CompiledQuery, expr: Expr, var: str):
    """Match ``$var``-rooted accessors optionally scaled by a positive
    literal multiplier (Q11/Q12's ``5000 * exactly-one($i/text())``,
    which folds into the probe: its slot is pinned).

    Returns ``(accessor, scale, wrappers)``.
    """
    expr, outer = _strip_cardinality(expr)
    if isinstance(expr, Arithmetic) and expr.op == "*":
        for literal, operand in ((expr.left, expr.right), (expr.right, expr.left)):
            matched = _var_accessor(operand, var)
            if _numeric(literal) and matched is not None:
                scale = float(compiled.literal(literal, "join scale"))
                if scale > 0:
                    accessor, wrappers = matched
                    return accessor, scale, outer + wrappers
        return None
    matched = _var_accessor(expr, var)
    if matched is None:
        return None
    accessor, wrappers = matched
    return accessor, 1.0, outer + wrappers


def _full_extent(base: Expr) -> tuple[str, ...] | None:
    """The label path of a sequence that is one full absolute
    predicate-free extent (the precondition for index backing, and for
    mapping it shard by shard)."""
    if not isinstance(base, Path) or not _is_absolute(base):
        return None
    prefix, length = _absolute_prefix(base)
    return prefix if length == len(base.steps) else None


def _attach_index_backing(compiled: CompiledQuery, join: JoinPlan) -> None:
    """Serve the join's build side from a secondary index when one covers
    the inner key — a probe replaces the per-query build/sort."""
    store = compiled.store
    profile = compiled.profile
    indexes = store.indexes
    if indexes is None:
        return
    extent = _full_extent(join.inner_base)
    if extent is None:
        return
    if join.strategy == "hash" and profile.use_value_index:
        matched = _var_accessor(join.inner_key, join.inner_var)
        if matched is None:
            return
        accessor, wrappers = matched
        index = indexes.value_field(extent, accessor)
        if index is None or (index.distinct_keys <= 1 and index.extent_size > 1):
            return                      # degenerate key: build wins
        if not _proven(compiled, "value", extent, accessor, index, wrappers,
                       bool(wrappers)):
            return
        join.index_kind = "value"
        join.index_path = extent
        join.index_accessor = accessor
    elif join.strategy == "sorted" and profile.use_sorted_index:
        scaled = _scaled_var_accessor(compiled, join.inner_key, join.inner_var)
        if scaled is None:
            return
        accessor, scale, wrappers = scaled
        index = indexes.sorted_field(extent, accessor)
        # The index holds one entry per *value*, so a multi-valued node
        # would sit in a window once per qualifying key: only a per-query
        # build, which dedupes by build seq, may serve one.
        if index is None or not _proven(compiled, "sorted", extent, accessor,
                                        index, wrappers, True):
            return
        join.index_kind = "sorted"
        join.index_path = extent
        join.index_accessor = accessor
        join.index_scale = scale


# -- range planning (FLWOR where-clauses answered from the sorted index) ----------------


def _plan_ranges(compiled: CompiledQuery, nodes: list) -> None:
    """Attach a :class:`RangePlan` to every ``for $v in /abs/path where
    $v/acc OP literal`` FLWOR the sorted index covers selectively."""
    profile = compiled.profile
    store = compiled.store
    indexes = store.indexes
    if not profile.use_sorted_index or indexes is None:
        return
    for node in nodes:
        clause = _single_for(node)
        if clause is None or node.where is None or node.order:
            continue
        prefix = _full_extent(clause.sequence)
        if prefix is None:
            continue
        condition = node.where
        if not isinstance(condition, Comparison):
            continue
        matched = None
        for expr, literal, op in (
            (condition.left, condition.right, condition.op),
            (condition.right, condition.left, mirror_op(condition.op)),
        ):
            if not _numeric(literal) or op not in ("<", "<=", ">", ">="):
                continue
            var_match = _var_accessor(expr, clause.var)
            if var_match is not None:
                matched = (var_match[0], var_match[1], op, literal)
                break
        if matched is None:
            continue
        accessor, wrappers, op, literal = matched
        index = indexes.sorted_field(prefix, accessor)
        if index is None or not _proven(compiled, "sorted", prefix, accessor,
                                        index, wrappers, bool(wrappers)):
            continue
        bound = float(compiled.literal(literal, "range selectivity"))
        rows = index.count(op, bound)
        if index.extent_size and rows >= index.extent_size:
            continue                    # every row qualifies: scan is no worse
        compiled.range_plans[id(node)] = RangePlan(
            var=clause.var, path=prefix, accessor=accessor,
            op=op, bound=bound, est_rows=rows, scan_rows=index.extent_size)


# -- exchange planning (a sharded store: which shards run what) -------------------------


def _single_for(expr: Expr) -> ForClause | None:
    """The clause of a FLWOR that is exactly one ``for`` over a path."""
    if isinstance(expr, FLWOR) and len(expr.clauses) == 1:
        clause = expr.clauses[0]
        if isinstance(clause, ForClause) and isinstance(clause.sequence, Path):
            return clause
    return None


def _shard_local(exprs, base: Path | None = None) -> bool:
    """No absolute path but ``base``: what is left navigates within one
    entity, on whichever shard holds it."""
    return all(node is base for expr in exprs if expr is not None
               for node in walk(expr)
               if isinstance(node, Path) and _is_absolute(node))


def _partitioned(store, extent: tuple[str, ...] | None) -> bool:
    """Whether a label path names the entities of a partitioned extent."""
    if not extent:
        return False
    spec = store.extent_spec(extent[:-1])
    return spec is not None and spec.entity_tag == extent[-1]


def _count_only_uses(expr: Expr, var: str) -> bool:
    """True when every reference to ``$var`` is exactly ``count($var)``."""
    if isinstance(expr, FunctionCall) and expr.name == "count" \
            and len(expr.args) == 1 and isinstance(expr.args[0], VarRef) \
            and expr.args[0].name == var:
        return True
    if isinstance(expr, VarRef):
        return expr.name != var
    return all(_count_only_uses(child, var) for child in _direct_children(expr))


def _plan_exchange(store, query: Query) -> ExchangePlan | None:
    """The first distributable shape the body matches, if any (declared
    functions stay on the compatibility path)."""
    if query.functions:
        return None
    for match in (_exchange_routed, _exchange_count, _exchange_join,
                  _exchange_flwor):
        plan = match(store, query.body)
        if plan is not None:
            plan.executor = store.exchange
            return plan
    return None


def _exchange_routed(store, body: Expr) -> ExchangePlan | None:
    """A path, or one ``for`` over a path, pinned to a single shard: every
    other shard would contribute nothing."""
    clause = _single_for(body)
    base = body if isinstance(body, Path) else clause and clause.sequence
    if base is None or not _is_absolute(base) \
            or not _shard_local([body], base):
        return None
    prefix: list[str] = []
    for position, step in enumerate(base.steps):
        if step.axis != "child" or step.name is None:
            return None
        prefix.append(step.name)
        if not step.predicates:
            spec = store.extent_spec(tuple(prefix))
            if spec is not None and spec.home_region is not None \
                    and position < len(base.steps) - 1:
                return ExchangePlan("routed", region=spec.home_region)
            continue
        # Ids are unique in auction documents: every entity carrying this
        # one lives on the shard the routing map names.
        matched = _find_id_predicate(base)
        if matched is None or matched[0] != position \
                or len(step.predicates) != 1 \
                or not _partitioned(store, tuple(prefix)):
            return None
        return ExchangePlan("routed", id_literal=matched[1])
    return None


def _exchange_count(store, body: Expr) -> ExchangePlan | None:
    """``count()`` of a path, or of one ``for`` over one, descending
    strictly into a partitioned extent: per-shard results then partition
    the whole (the structural layer above extents repeats on every
    shard)."""
    if not (isinstance(body, FunctionCall) and body.name == "count"
            and len(body.args) == 1):
        return None
    arg = body.args[0]
    clause = _single_for(arg)
    base = arg if isinstance(arg, Path) else clause and clause.sequence
    extent = _full_extent(base)
    if extent is None or not _shard_local([arg], base) or not any(
            store.extent_spec(extent[:depth]) for depth in range(1, len(extent))):
        return None
    plan = ExchangePlan("partial_count")
    if clause is not None:              # a pushdown candidate
        ret = arg.ret
        if isinstance(ret, VarRef) and ret.name == clause.var:
            plan.ret_accessor = ()
        elif isinstance(ret, Path) and isinstance(ret.root, VarRef) \
                and ret.root.name == clause.var:
            plan.ret_accessor = _steps_accessor(ret.steps)
    return plan


def _exchange_join(store, body: Expr) -> ExchangePlan | None:
    """Q8's shape: a hash-joined correlated let the constructor only
    ever counts.  The let must bind the matched build rows *themselves*:
    a computed return (``return $t/bidder``) makes ``count($a)`` count
    whatever it yields per match, which bucket counts cannot stand in
    for; and the outer key must be single-valued."""
    if not isinstance(body, FLWOR) or body.order or len(body.clauses) != 2:
        return None
    outer, let = body.clauses
    if not isinstance(outer, ForClause) or not isinstance(let, LetClause):
        return None
    extent = _full_extent(outer.sequence)
    join = _match_correlated_let(let, {outer.var})
    if not _partitioned(store, extent) or join is None or join.strategy != "hash":
        return None
    build = _full_extent(join.inner_base)
    inner = _var_accessor(join.inner_key, join.inner_var)
    outer_key = _var_accessor(join.outer_key, outer.var)
    inner_ret = let.expr.ret
    if not (isinstance(inner_ret, VarRef) and inner_ret.name == join.inner_var
            and _partitioned(store, build)
            and inner and outer_key and not inner[1] and not outer_key[1]
            and outer_key[0][-1].startswith("@")
            and isinstance(body.ret, ElementCtor)
            and _count_only_uses(body.ret, let.var)
            and _shard_local([body.ret, body.where])
            and (body.where is None
                 or let.var not in _free_variables(body.where))):
        return None
    return ExchangePlan(
        "broadcast_join", extent=extent[:-1], var=outer.var, let_var=let.var,
        where=body.where, ret=body.ret, join_extent=build,
        join_accessor=inner[0], outer_accessor=outer_key[0])


def _exchange_flwor(store, body: Expr) -> ExchangePlan | None:
    """One ``for`` over a whole partitioned extent with a shard-local
    ``where`` and a constructor ``return`` (constructed rows merge
    cleanly): Q2/Q3/Q4/Q16/Q17."""
    clause = _single_for(body)
    if clause is None or body.order or not isinstance(body.ret, ElementCtor):
        return None
    extent = _full_extent(clause.sequence)
    if not _partitioned(store, extent) \
            or not _shard_local([body.ret, body.where]):
        return None
    return ExchangePlan("scatter_flwor", extent=extent[:-1], var=clause.var,
                        where=body.where, ret=body.ret)


# -- plan enumeration (the cost-based systems' search space) ----------------------------


def _enumerate_plans(compiled: CompiledQuery, nodes: list) -> None:
    """Spend realistic optimization effort per optimizer class.

    The candidates are orderings of the query's path expressions (the units
    a 2002 translator would join); each candidate is costed from a fixed
    per-path cardinality estimate.  The exhaustive System-R enumeration of System A is the
    paper's "too much of its time on optimization"; greedy systems touch
    O(n^2) candidates; heuristic systems O(n).
    """
    paths = [node for node in nodes if isinstance(node, Path)]
    cardinalities = [max(1, 10 * (len(path.steps) + 1)) for path in paths]
    optimizer = compiled.profile.optimizer
    considered = 0
    if optimizer == "cost-exhaustive":
        units = min(len(paths), 7)
        best = float("inf")
        for order in itertools.permutations(range(units)):
            cost = 0.0
            running = 1.0
            for position in order:
                running *= cardinalities[position]
                cost += running
            considered += 1
            if cost < best:
                best = cost
    elif optimizer == "cost-greedy":
        remaining = list(range(len(paths)))
        while remaining:
            best_index = min(remaining, key=lambda i: cardinalities[i])
            considered += len(remaining)
            remaining.remove(best_index)
    elif optimizer == "heuristic":
        considered = len(paths)
    compiled.plans_considered = considered


# -- path validation (the paper's Section 7 usability wish) ------------------------------


def _validate_tags(compiled: CompiledQuery, nodes: list) -> None:
    known = compiled.store.known_tags()
    if known is None:
        return
    for node in nodes:
        if isinstance(node, Path):
            for step in node.steps:
                if step.axis in ("child", "descendant") and step.name is not None:
                    if step.name not in known:
                        compiled.warnings.append(
                            f"path step '{step.name}' matches no element in the "
                            "database (possible typo)"
                        )
