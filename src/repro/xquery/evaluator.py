"""The query evaluator: emit once, run many.

:func:`emit_query` — the last pass of ``compile_query`` — turns every AST
node of a :class:`~repro.xquery.planner.CompiledQuery` into one Python
closure, with everything known at plan time resolved *then*: node-type
dispatch, the access path / join / range plan of each node, step axes and
name tests, built-ins and declared functions, variable slots, and the
navigation a path's handles need.  :func:`evaluate` and
:func:`evaluate_stream` only make a :class:`_Runtime` (everything one
execution mutates) and call the emitted tree, so one compiled query runs
any number of times, on any number of threads.  All document access still
flows through the store's navigation API, so execution cost tracks the
store's physical mapping.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import TYPE_CHECKING

from repro.errors import QueryError, TypeCoercionError
from repro.index.builder import extract_values
from repro.index.indexes import SortedNumericIndex, ValueIndex, normalize_key
from repro.obs.trace import NULL_TRACER
from repro.storage.dom_store import DomStore
from repro.storage.interface import Twig
from repro.xmlio.dom import Element
from repro.xmlio.canonical import canonicalize
from repro.xmlio.escape import escape_attribute, escape_text
from repro.xquery.ast import (
    Arithmetic, BoolOp, Comparison, ContextItem, ElementCtor, Expr, FLWOR,
    ForClause, FunctionCall, IfExpr, LetClause, Literal, Path, Quantified,
    Step, Unary, VarRef, bound_value, is_absolute,
)
from repro.xquery.functions import BUILTINS
from repro.xquery.sequence import (
    COMPARATORS, DomNavigation, Fragment, NodeItem, NodeWindow, Navigator, any_pair,
    atomic_to_string, atomize, atomize_item, effective_boolean,
    mirror_op, sequence_to_string, to_number, try_number,
)

if TYPE_CHECKING:
    from repro.xquery.planner import CompiledQuery, JoinPlan


def item_text(item, navigator: Navigator) -> str:
    """One result item as text: markup for nodes, lexical form for atomics.

    The single source of row rendering — ``QueryResult.serialize`` and
    ``Cursor.rowtext`` both delegate here, so they cannot drift apart.  A
    constructed row is its markup, returned as is; a store node is
    rendered by its store.
    """
    if isinstance(item, NodeItem):
        return navigator.markup(item.handle)
    return atomic_to_string(item)


class QueryResult:
    """The result sequence of one query execution."""

    __slots__ = ("items", "navigator")

    def __init__(self, items: list, navigator: Navigator) -> None:
        self.items = items
        self.navigator = navigator

    def __len__(self) -> int:
        return len(self.items)

    def serialize(self) -> str:
        """One line per item: markup for nodes, text for atomics."""
        return "\n".join(item_text(item, self.navigator)
                         for item in self.items)

    def to_element(self) -> Element:
        """The result wrapped in a detached ``<xmark-result>`` element."""
        wrapper = Element("xmark-result")
        pending_atomics: list[str] = []

        def flush() -> None:
            if pending_atomics:
                wrapper.append_text(" ".join(pending_atomics))
                pending_atomics.clear()

        for item in self.items:
            if isinstance(item, NodeItem):
                flush()
                wrapper.append(self.navigator.build_dom(item.handle))
            else:
                pending_atomics.append(atomic_to_string(item))
        flush()
        return wrapper

    def canonical(self, ordered: bool = True) -> str:
        """Canonical form for cross-system equivalence checks."""
        return canonicalize(self.to_element(), ordered=ordered, strip_whitespace=True)


def evaluate(compiled: CompiledQuery, tracer=NULL_TRACER,
             values: tuple | None = None) -> QueryResult:
    """Execute a compiled query and return its result sequence.

    ``values`` binds the plan's slots for a same-shape text (what the
    plan cache hands out with a shared plan); None: the compiled text's
    own literals."""
    rt = _Runtime(compiled.frame_size, tracer.enabled,
                  compiled.values if values is None else values)
    with tracer.span("evaluator.eval", system=compiled.profile.name) as span:
        items = compiled.run(rt)
        if isinstance(items, NodeWindow):   # aliases live index arrays, and
            items = list(items)             # the caller keeps the result
        if tracer.enabled:
            span.set(items=len(items), **rt.facts())
    return QueryResult(items, Navigator(compiled.store))


class StreamingResult:
    """A lazily-produced result sequence (the cursor protocol's backend).

    Iterating yields the same items, in the same order, as
    :func:`evaluate` would put in ``QueryResult.items`` — laziness changes
    *when* work happens, never *what* comes out.  One consumer only: the
    generator pipeline binds variables in one runtime's frame, so items
    must be drawn strictly sequentially (which is what a cursor does).
    """

    __slots__ = ("_iterator", "navigator")

    def __init__(self, iterator, navigator: Navigator) -> None:
        self._iterator = iterator
        self.navigator = navigator

    def __iter__(self):
        return self._iterator

    def __next__(self):
        return next(self._iterator)

    def drain(self) -> QueryResult:
        """Materialize everything still pending into a :class:`QueryResult`."""
        return QueryResult(list(self._iterator), self.navigator)


def evaluate_stream(compiled: CompiledQuery, tracer=NULL_TRACER,
                    values: tuple | None = None) -> StreamingResult:
    """Execute a compiled query, yielding result items lazily.

    Plans whose shape admits pipelining (path scans and probes, FLWOR
    without ``order by``) produce their first item after evaluating only
    the bindings before it; everything else transparently materializes
    behind the same iterator.  ``list(evaluate_stream(c))`` equals
    ``evaluate(c).items`` bit-for-bit.  ``values`` as for :func:`evaluate`.
    """
    rt = _Runtime(compiled.frame_size, tracer.enabled,
                  compiled.values if values is None else values)
    iterator = compiled.stream(rt)
    if tracer.enabled:
        iterator = _traced_stream(iterator, rt, tracer.begin(
            "evaluator.stream", system=compiled.profile.name))
    return StreamingResult(iterator, Navigator(compiled.store))


def _traced_stream(iterator, rt: "_Runtime", span):
    """Count rows out of the pipeline; close the span when it drains.

    The ``finally`` fires on exhaustion *and* on generator close, so an
    abandoned cursor still finishes its span with whatever ran.
    """
    rows = 0
    try:
        for item in iterator:
            rows += 1
            yield item
    finally:
        span.set(rows=rows, barriers=rt.barriers,
                 stage_rows=dict(rt.stage_rows), **rt.facts())
        span.finish()


class _Runtime:
    """Everything one execution mutates or binds: the variable frame (the
    emitter resolved every ``$name`` to a slot of it), the values of the
    shape's literal slots, the context item / position / size of the
    predicate being evaluated, the per-execution join builds and memos,
    and the execution-fact counters (always maintained: integer adds are
    cheap and make PROFILE exact even across threads, unlike the shared
    ``store.stats`` totals).  The emitted closures take it as their one
    argument and keep no state of their own."""

    __slots__ = ("frame", "values", "item", "position", "size", "join_cache",
                 "trace", "index_probes", "index_degrades", "items_materialized",
                 "join_builds", "join_comparisons", "join_reuses", "barriers",
                 "stage_rows")

    def __init__(self, frame_size: int, trace: bool = False,
                 values: tuple = ()) -> None:
        self.frame: list = [None] * frame_size
        self.values = values
        self.item: NodeItem | None = None
        self.position = self.size = 0
        self.join_cache: dict[int, object] = {}
        self.trace = trace      # per-stage row counting only when tracing
        self.index_probes = self.index_degrades = 0
        #: Handles an index window wrapped into ``NodeItem``s because a
        #: consumer pulled them (a window nobody reads costs none).
        self.items_materialized = 0
        #: Per-query join builds made, (outer binding, build row) pairs an
        #: nlj probe compared — the paper's quadratic, counted — and joined
        #: rows whose return came from the memo instead of being evaluated.
        self.join_builds = self.join_comparisons = self.join_reuses = 0
        self.barriers = 0
        self.stage_rows: dict[int, int] = {}

    def facts(self) -> dict:
        return {name: getattr(self, name) for name in (
            "index_probes", "index_degrades", "items_materialized",
            "join_builds", "join_comparisons", "join_reuses")}


# -- the emit pass ------------------------------------------------------------------


def emit_query(compiled: CompiledQuery) -> None:
    """The last pass of ``compile_query``: every AST node becomes one
    closure ``rt -> sequence``; the body's hangs off ``compiled`` as ``run``
    and, as an iterator over the same items, ``stream``.  A planned
    exchange is the whole body: one closure over per-shard programs."""
    if compiled.exchange is not None:
        run = compiled.run = _emit_exchange(compiled)
        compiled.stream = lambda rt: iter(run(rt))
        return
    emitter = _Emitter(compiled)
    emitter.declare(compiled.query.functions)
    compiled.run, compiled.stream = emitter.emit_both(compiled.query.body, {})
    compiled.frame_size = emitter.slots
    compiled.navigation = tuple(emitter.navigation)
    compiled.twigs = tuple(emitter.twigs)


def emit_row_program(compiled: CompiledQuery, variables: tuple[str, ...],
                     where: Expr | None, ret: Expr):
    """``(where test or None, return closure, frame size)`` over
    ``variables`` held in frame slots ``0..n-1``, which the caller fills
    per row — how an exchange maps a shard's slice of an extent.  The
    first is the extent's member, a node of ``compiled``'s store."""
    emitter = _Emitter(compiled)
    emitter.slots = len(variables)
    emitter.native_slots = {0}
    scope = {name: slot for slot, name in enumerate(variables)}
    test = None if where is None else emitter._test(where, scope)
    run = emitter.emit(ret, scope)
    return test, run, emitter.slots


class Exchange:
    """What an exchange closure asks of whoever runs it.  This one is the
    caller that brought nothing: the shards run one after another on the
    calling thread, no partial is kept and nothing is traced.
    :class:`repro.shard.scatter.ScatterGatherExecutor` is the one with a
    tracer, rebuild locks and a digest-keyed partial cache."""

    tracer = NULL_TRACER

    def scatter(self, sharded, ranks: list[int], fn) -> list:
        """``fn(rank)`` for each rank, in rank order, on the calling thread.

        When tracing, each rank runs under a ``scatter.shard`` span nested
        in the current one, marked ``routed`` when it runs alone."""
        tracer = self.tracer
        if not tracer.enabled:
            return [fn(rank) for rank in ranks]
        routed = {"routed": True} if len(ranks) == 1 else {}
        results = []
        for rank in ranks:
            with tracer.span("scatter.shard", shard=rank,
                             backend=sharded.backends[rank], **routed):
                results.append(fn(rank))
        return results

    def partial(self, key: tuple, compute) -> tuple[object, bool]:
        """``(value, was cached)`` of one shard's share of a result."""
        return compute(), False

    def ensure_indexes(self, sharded, rank: int) -> None:
        """Rebuild the shard's secondary indexes if writes staled them."""
        sharded.ensure_shard_indexes(rank)


_INLINE = Exchange()


def _emit_exchange(compiled: CompiledQuery):
    """The exchange operator ``rt -> items``: fan the plan's per-shard
    programs out over its executor and merge what comes back.

    A shard's program is the whole query compiled for the shard's own
    store (routed, partial count) or the plan's ``where`` / ``return``
    emitted as a row program over it (scatter FLWOR, broadcast join);
    each is built when its shard first runs (two first runs racing build
    the same thing twice, harmlessly) and kept for the life of the plan.
    Every shard's share is a partial, cached under the shard's digest, the
    plan's shape and pinned spellings and the execution's bindings: a
    write to one shard leaves the other shards' partials valid.  Which
    shards run is asked of the plan per execution.  A shard's program pins
    what its own planning read, so a rank keeps a few, one per pinned
    binding (:func:`repro.xquery.planner.with_variant`)."""
    from repro.xquery.planner import (   # it imports this module
        compile_shard, fitting, with_variant)
    plan, sharded = compiled.exchange, compiled.store
    kind = plan.kind
    counted = compiled.query.body.args[0] if kind == "partial_count" else None
    programs: list[list] = [[] for _ in range(sharded.shard_count)]

    def program(ex: Exchange, rank: int, values: tuple) -> CompiledQuery:
        """The rank's shard plan for these bindings."""
        kept = programs[rank]
        shard = fitting(kept, values)
        if shard is None:
            shard = compile_shard(compiled, rank, values, ex.tracer)
            if plan.ret is not None:
                shard.row_program = emit_row_program(
                    shard, (plan.var, plan.let_var), plan.where, plan.ret)
            programs[rank] = with_variant(kept, shard)
        return shard

    def whole(ex: Exchange, rank: int, values: tuple):
        """The whole query on one shard: its count, or its items with the
        shard's own nodes lifted to the sharded store's handles."""
        ex.ensure_indexes(sharded, rank)
        shard = program(ex, rank, values)
        if kind == "routed":
            return [NodeItem((rank, item.handle))
                    if isinstance(item, NodeItem)
                    and not isinstance(item.handle, Element) else item
                    for item in evaluate(shard, ex.tracer, values).items]
        pushed = pushdown(ex, shard, rank)
        return (int(evaluate(shard, ex.tracer, values).items[0])
                if pushed is None else pushed)

    def pushdown(ex: Exchange, shard: CompiledQuery, rank: int):
        """The partial count by bisection, when provably exact: the shard
        planned the ``where`` as a sorted-index range, the index's
        build-time cardinality counters prove every extent node holds
        exactly one key value, and the ``return`` names that field (with
        or without its ``text()`` step) or the binding itself — then
        qualifying index entries and returned items correspond 1:1."""
        ranged = shard.range_plans.get(id(counted))
        accessor = plan.ret_accessor
        if ranged is None or accessor is None or (
                accessor and accessor != ranged.accessor
                and accessor + ("text()",) != ranged.accessor):
            return None
        store = shard.store
        index = _field(store, "sorted", ranged.path, ranged.accessor)
        if index is None or index.nodes_empty or index.nodes_multi:
            return None
        store.stats.index_lookups += 1
        with ex.tracer.span("index.probe", kind="count_pushdown",
                            shard=rank) as span:
            count = index.count(ranged.op, ranged.bound)
            span.set(count=count)
        return count

    def build(ex: Exchange, rank: int, values: tuple) -> dict:
        """key -> matching build-side node count, for one shard: straight
        off its value index's buckets when it has one."""
        ex.ensure_indexes(sharded, rank)
        store = sharded.shard_store(rank)
        index = _field(store, "value", plan.join_extent, plan.join_accessor)
        if index is not None:
            store.stats.index_lookups += 1
            return index.key_counts()
        counts: dict = {}
        for _seq, native in sharded.extent_members_of(
                plan.join_extent[:-1], rank):
            keys = {normalize_key(value) for value in extract_values(
                store, native, plan.join_accessor)}
            keys.discard(None)
            for key in keys:
                counts[key] = counts.get(key, 0) + 1
        return counts

    def rows(ex: Exchange, rank: int, values: tuple,
             table: dict | None = None) -> list:
        """``(global seq, result items)`` per member of the shard's slice
        of the outer extent that passes ``where``.  A broadcast join's
        ``table`` stands in for the let variable, which the return only
        ever counts."""
        store = sharded.shard_store(rank)
        where, ret, size = program(ex, rank, values).row_program
        rt, out = _Runtime(size, values=values), []
        for seq, native in sharded.extent_members_of(plan.extent, rank):
            rt.frame[0] = [NodeItem(native)]
            if where is not None and not where(rt):
                continue
            if table is not None:
                values = extract_values(store, native, plan.outer_accessor)
                rt.frame[1] = [0.0] * (
                    table.get(normalize_key(values[0]), 0) if values else 0)
            out.append((seq, ret(rt)))
        return out

    # Plans of one shape whose pinned slots are spelled differently (the
    # constructor text they write) render different rows from equal
    # values: a partial is keyed on those spellings too.
    shape = compiled.shape, tuple(compiled.raws[slot]
                                  for slot in sorted(compiled.pinned))

    def run(rt):
        ex = plan.executor or _INLINE
        tracer, hits, lookups, values = ex.tracer, 0, 0, rt.values
        with tracer.span("scatter.query", plan=kind) as span:
            ranks = plan.ranks(sharded, values)

            def fan(family: str, compute, digest: str | None = None) -> list:
                """Each rank's partial, over the executor."""
                nonlocal hits, lookups
                found = ex.scatter(sharded, ranks, lambda rank: ex.partial(
                    (rank, digest or sharded.shard_digest(rank), family,
                     shape, values),
                    lambda: compute(ex, rank, values)))
                hits += sum(hit for _value, hit in found)
                lookups += len(found)
                return [value for value, _hit in found]

            if kind == "routed":
                items = fan("routed", whole)[0] if ranks else []
            elif kind == "partial_count":
                items = [sum(fan("count", whole))]
            else:
                table = None
                if kind == "broadcast_join":
                    table = {}
                    for counts in fan("join-build", build):
                        for key, count in counts.items():
                            table[key] = table.get(key, 0) + count
                # A probe embeds the merged build table: its partial must
                # go stale with any shard's digest, not just its own.
                slices = fan("flwor" if table is None else "join-probe",
                             lambda ex, rank, values: rows(ex, rank, values,
                                                           table),
                             None if table is None else "|".join(
                                 sharded.shard_digest(rank) or ""
                                 for rank in ranks))
                with tracer.span("scatter.merge") as merge:
                    merged = sorted(chain.from_iterable(slices),
                                    key=operator.itemgetter(0))
                    items = [item for _seq, row in merged for item in row]
                    merge.set(slices=len(slices), rows=len(items))
            span.set(shards_used=len(ranks), partial_hits=hits,
                     partial_misses=lookups - hits, rows=len(items))
        return items
    return run


class _Emitter:
    """One pass over the AST resolving everything known at plan time: node
    types, the plan attached to each path / let / FLWOR, step axes and
    name tests, built-ins and their arity, declared functions, variable
    slots (an unbound ``$name`` is an error *here*, before the first row)
    and which navigation a path's handles need."""

    def __init__(self, compiled: CompiledQuery) -> None:
        self.compiled = compiled
        self.store = store = compiled.store
        self.navigator = Navigator(store)
        dom = isinstance(store, DomStore)
        #: Navigation for handles known to be the store's own (absolute
        #: paths), and for handles that may be constructed Elements.
        self.native = DomNavigation if dom else store
        self.mixed = DomNavigation if dom else self.navigator
        self.functions: dict[str, list] = {}
        self.slots = 0          # slots handed out in the frame being emitted
        #: Slots of that frame proved to hold only store nodes.
        self.native_slots: set[int] = set()
        #: ``(variable, proved)`` per binding site, in emit order.
        self.navigation: list[tuple[str, bool]] = []
        #: The twigs of the constructor being emitted: root slot ->
        #: ``(variable, answer slot, {value path: leaf})``.
        self.twig_roots: dict = {}
        #: ``(variable, leaf count)`` per twig emitted.
        self.twigs: list[tuple[str, int]] = []
        self.joins = 0
        self.context = False    # lexically inside a predicate
        self.context_native = False     # ... whose context items are store nodes

    def declare(self, functions: dict) -> None:
        """Each declared function's body, emitted once against a frame
        holding only its parameters (static scoping).  A call site captures
        the function's cell and reads it when called, so the knot is tied
        lazily and (mutual) recursion works.  A parameter is never proved
        to hold store nodes: a caller may pass anything."""
        self.functions = {name: [None, 0] for name in functions}
        for name, declared in functions.items():
            outer = self.slots, self.native_slots
            self.slots, self.native_slots = len(declared.params), set()
            self.navigation += [(param, False) for param in declared.params]
            cell = self.functions[name]
            cell[0] = self.emit(declared.body, {
                param: slot for slot, param in enumerate(declared.params)})
            cell[1] = self.slots
            self.slots, self.native_slots = outer

    def emit(self, node: Expr, scope: dict):
        return _EMIT[type(node)](self, node, scope)

    def emit_both(self, node: Expr, scope: dict):
        """``(run, stream)`` of a node on the outermost chain: FLWORs and
        paths pipeline, anything else runs behind ``iter``."""
        if isinstance(node, (FLWOR, Path)):
            emit = self._flwor if isinstance(node, FLWOR) else self._path
            return emit(node, scope, True)
        run = self.emit(node, scope)
        return run, lambda rt: iter(run(rt))

    def _bind(self, scope: dict, name: str, native: bool) -> tuple[dict, int]:
        """A fresh frame slot for one binding site of ``$name``, whose
        every item is a store node when ``native``."""
        slot = self.slots
        self.slots += 1
        if native:
            self.native_slots.add(slot)
        self.navigation.append((name, native))
        return {**scope, name: slot}, slot

    def _proved(self, node: Expr, scope) -> bool:
        """Whether every item ``node`` can evaluate to is a store node (so
        its paths may navigate the store without the ``Navigator``)."""
        return store_bound(node, frozenset(
            name for name, slot in scope.items() if slot in self.native_slots),
            self.context_native)

    # -- primaries -----------------------------------------------------------------

    def _literal(self, node: Literal, scope):
        slot, value = node.slot, node.value
        if slot is None:
            return lambda rt: [value]
        return lambda rt: [rt.values[slot]]

    def _slot(self, name: str, scope) -> int:
        if name not in scope:
            raise QueryError(f"unbound variable ${name}")
        return scope[name]

    def _varref(self, node: VarRef, scope):
        slot = self._slot(node.name, scope)
        return lambda rt: rt.frame[slot]

    def _context_item(self, node: ContextItem, scope):
        return (lambda rt: [rt.item]) if self.context else _no_context

    # -- paths ----------------------------------------------------------------------

    def _path(self, node: Path, scope, streamed: bool = False,
              counted: bool = False):
        """One batch kernel per step (``handles -> handles``), chained
        after the handles the access plan starts from.  Returns ``(run,
        stream)``; the streamed form applies the same kernels per context
        of the planned extent, and falls back to one batch when a
        multi-context descendant step (which dedupes and re-sorts
        globally) lies downstream.  ``counted``: the consumer reads only
        the result's length or truth, so ``run`` gives the raw handles, as
        a value path gives its strings, and the last step counts (see
        :meth:`_step`)."""
        steps = node.steps
        strings = counted or _values(node)
        if not is_absolute(node):
            run = self._relative_path(node, scope, strings, counted)
            return run, lambda rt: iter(run(rt))
        last = len(steps) - 1
        kernels = [self._step(step, scope, True, index == 0,
                              counted and index == last)
                   for index, step in enumerate(steps)]
        start, resume, windowed = self._access(
            node, self.compiled.path_plans.get(id(node)), scope)
        tail = kernels[resume:]

        def run(rt):
            found = start(rt)
            if found is None:           # indexes dropped: degrade to the scan
                rt.index_degrades += 1
                found, chain = _ROOT, kernels
            elif tail:
                chain = tail
                if windowed:
                    found = found.raw()
            else:                       # the plan answered the last step
                return found if windowed or strings else list(map(NodeItem, found))
            for kernel in chain:
                found = kernel(rt, found)
            return found if strings else list(map(NodeItem, found))

        if not streamed:
            return run, None
        descendant = [step.axis == "descendant" for step in steps]

        def advance(rt, handles, first):
            """``handles`` through ``steps[first:]``, counting the rows
            entering each step (tracing only) and the barriers."""
            for index in range(first, len(kernels)):
                if rt.trace:
                    rt.stage_rows[index] = rt.stage_rows.get(index, 0) + len(handles)
                if descendant[index] and len(handles) > 1:
                    rt.barriers += 1
                handles = kernels[index](rt, handles)
            return handles if strings else map(NodeItem, handles)

        def stream(rt):
            found, first = start(rt), resume
            if found is None:
                rt.index_degrades += 1
                found, first = _ROOT, 0
            elif windowed:
                found = found.raw()
            if len(found) > 1 and True not in descendant[first:]:
                for handle in found:
                    yield from advance(rt, [handle], first)
            else:
                yield from advance(rt, found, first)
        return run, stream

    def _relative_path(self, node: Path, scope, strings: bool,
                       counted: bool = False):
        """Steps from a variable's (or an expression's) items.  A root
        proved to hold only store nodes navigates the store directly, and
        a value path from it — plain named child steps, then ``text()`` or
        ``@name`` — is one ``values_by_path`` call per context node
        (an enclosed expression rooted at a variable is a twig leaf
        instead); any other root goes through the type-testing
        ``Navigator``."""
        steps, root = node.steps, node.root
        slot = base = None
        if isinstance(root, VarRef):    # read the slot, skip the call
            slot = self._slot(root.name, scope)
        else:
            base = self.emit(root, scope)
        native = self._proved(root, scope)
        if steps[0].axis == "self" and len(steps) == 1:     # a filter expression
            keep = self._filter(steps[0].predicates, scope, None, native)
            return lambda rt: keep(rt, rt.frame[slot] if base is None else base(rt))
        nav = self.native if native else self.mixed
        value_path = _value_path(steps)
        if native and value_path is not None:
            return _values_path(slot, base, nav.values_by_path, *value_path)
        # A leading run of plain named child steps is one store call when
        # it is two or more steps long (a lone step gains nothing over its
        # kernel).
        lead = 0
        while lead < len(steps) and _plain(steps[lead]):
            lead += 1
        names = tuple(step.name for step in steps[:lead]) if lead > 1 else ()
        by_path = nav.children_by_path
        last = len(steps) - 1
        kernels = [self._step(step, scope, native, False,
                              counted and index == last)
                   for index, step in enumerate(steps[len(names):], len(names))]

        def run(rt):
            items = rt.frame[slot] if base is None else base(rt)
            try:
                handles = ([items[0].handle] if len(items) == 1 else
                           [item.handle for item in items])
            except AttributeError:
                raise QueryError(
                    "cannot apply a path step to an atomic value") from None
            if names:
                handles = (by_path(handles[0], names) if len(handles) == 1 else
                           [found for handle in handles
                            for found in by_path(handle, names)])
            for kernel in kernels:
                handles = kernel(rt, handles)
            return handles if strings else list(map(NodeItem, handles))
        return run

    def _step(self, step: Step, scope, native: bool, at_root: bool,
              counted: bool = False):
        """The batch kernel of one step over store handles (``native``)
        or handles of either kind.  Predicates apply per context node
        (positions count within one parent's matches); only a descendant
        step entered by several contexts has to dedupe.  A ``counted``
        step's output is read only for its length or truth: a descendant
        step then dedupes without sorting, and without predicates it asks
        the store to count (``range(n)`` stands in for the n nodes)."""
        axis, name = step.axis, step.name
        nav = self.native if native else self.mixed
        if axis in ("attribute", "text"):
            if step.predicates:
                raise QueryError(f"predicates on {axis} steps are not supported")
            if at_root:
                return lambda rt, handles: []
            values = nav.attribute if axis == "attribute" else nav.child_texts

            def kernel(rt, handles):
                out = []
                for handle in handles:
                    if name is not None:
                        value = values(handle, name)
                        if value is not None:
                            out.append(value)
                    else:
                        out += [text for text in values(handle) if text]
                return out
            return kernel
        if axis not in ("child", "descendant"):
            raise QueryError(f"unsupported step axis {axis!r}")
        keep = (self._filter(step.predicates, scope, NodeItem, native)
                if step.predicates else None)
        descendant = axis == "descendant"
        if descendant:
            expand = nav.descendants_by_tag
        elif name is None:
            children = nav.children
            expand = lambda handle, _name: children(handle)   # noqa: E731
        else:
            expand = nav.children_by_tag
        tag, root_of = nav.tag, self.store.root
        doc_position = (nav if nav is self.store else self.navigator).doc_position

        def kernel(rt, handles):
            if at_root:
                root = root_of()
                found = [root] if name is None or tag(root) == name else []
                if descendant:
                    found += expand(root, name)
            elif len(handles) == 1:
                found = expand(handles[0], name)
            else:
                out = []
                for handle in handles:
                    found = expand(handle, name)
                    out += keep(rt, found) if keep else found
                if descendant and out:
                    return set(out) if counted else _dedupe(out, doc_position)
                return out
            return keep(rt, found) if keep else found
        if not (counted and descendant and keep is None):
            return kernel
        count = nav.count_descendants

        def counter(rt, handles):
            if at_root:
                root = root_of()
                return range((name is None or tag(root) == name)
                             + count(root, name))
            if len(handles) == 1:
                return range(count(handles[0], name))
            return kernel(rt, handles)
        return counter

    def _filter(self, predicates: list[Expr], scope, wrap, native: bool):
        """``entries -> entries`` under step predicates, position-aware.
        ``wrap`` makes the context item of an entry: ``NodeItem`` for a
        step's raw handles, None for a filter expression's items; entries
        are store nodes when ``native``.  Numeric literals fold to an
        index (a non-integral one selects nothing; the slot is pinned); a
        statically boolean predicate skips the positional test."""
        outer = self.context, self.context_native
        self.context, self.context_native = True, native
        tests = []
        for predicate in predicates:
            if isinstance(predicate, Literal) and isinstance(predicate.value, (int, float)):
                value = float(self.compiled.literal(predicate, "position"))
                tests.append(int(value) if value.is_integer() else 0)
            else:
                boolean = isinstance(predicate, _BOOLEAN)
                tests.append(((self._test if boolean else self.emit)(predicate, scope),
                              boolean))
        self.context, self.context_native = outer

        def keep(rt, entries):
            for test in tests:
                if type(test) is int:
                    entries = [entries[test - 1]] if 1 <= test <= len(entries) else []
                    continue
                run, boolean = test
                kept = []
                saved = rt.item, rt.position, rt.size
                rt.size = len(entries)
                position = 0
                for entry in entries:
                    position += 1
                    rt.item = wrap(entry) if wrap else entry
                    rt.position = position
                    value = run(rt)
                    if boolean:
                        if value:
                            kept.append(entry)
                    elif _is_positional(value):
                        if to_number(value[0]) == position:
                            kept.append(entry)
                    elif effective_boolean(value):
                        kept.append(entry)
                rt.item, rt.position, rt.size = saved
                entries = kept
            return entries
        return keep

    def _access(self, node: Path, plan, scope):
        """Where an absolute path starts: ``(start, resume, windowed)``.
        ``start(rt)`` gives the handles the access plan found — a window
        for the probes, None when the indexes are gone — and evaluation
        resumes at step ``resume``; with no plan that is the root."""
        store, kind = self.store, plan.kind if plan is not None else "steps"
        if kind == "id_lookup":
            step, tag = node.steps[plan.id_step], self.native.tag
            # The ID index holds exactly the current ``@id`` values, so
            # the probe answers the id predicate; other predicates filter.
            keep = (self._filter(step.predicates, scope, NodeItem, True)
                    if len(step.predicates) > 1 else None)
            literal = plan.id_literal

            def start(rt):
                rt.index_probes += 1
                handle = store.lookup_id(bound_value(literal, rt.values))
                if handle is None or (step.name is not None
                                      and tag(handle) != step.name):
                    return []
                return keep(rt, [handle]) if keep else [handle]
            return start, plan.id_step + 1, False
        if kind == "range_probe":       # the probe answers the step predicate
            return (lambda rt: _range_window(rt, store, plan.prefix, plan.accessor,
                                             plan.op, plan.bound)), plan.id_step + 1, True
        if kind == "value_probe":
            literal = plan.probe_literal

            def start(rt):
                index = _field(store, "value", plan.prefix, plan.accessor)
                if index is None:
                    return None
                _count_probe(rt, store)
                return _window(rt, index.probe(bound_value(literal, rt.values)))
            return start, plan.id_step + 1, True
        if kind != "path_index":
            return _unit, 0, False
        if plan.source != "index":
            return (lambda rt: store.nodes_at_path(plan.prefix) or []), plan.prefix_len, False

        def start(rt):
            indexes = store.indexes
            extent = None if indexes is None else indexes.path_extent(plan.prefix)
            if extent is not None:
                _count_probe(rt, store)
            return extent
        return start, plan.prefix_len, False

    # -- FLWOR ---------------------------------------------------------------------

    def _flwor(self, node: FLWOR, scope, streamed: bool = False):
        """One generator chain: a stage per clause (binding frame slots in
        place, yielding once per binding tuple), ``where`` and ``return``
        in the last.  Returns ``(run, stream)``; the eager form is
        ``list()`` of the chain.  Streamed, the first ``for`` sequence (a
        path) and the ``return`` pipeline too — except behind ``order by``
        or a range probe, which need every row first (a barrier)."""
        compiled = self.compiled
        range_plan = compiled.range_plans.get(id(node))
        pipelined = streamed and not node.order and range_plan is None
        stages, first_stream = [], None
        for index, clause in enumerate(node.clauses):
            if isinstance(clause, LetClause):
                plan = compiled.join_plans.get(id(clause))
                value = (self.emit(clause.expr, scope) if plan is None
                         else self._join(clause, plan, scope))
                native = self._proved(clause.expr, scope)
            else:
                if pipelined and index == 0 and isinstance(clause.sequence, Path):
                    value, first_stream = self._path(clause.sequence, scope, True)
                else:
                    value = self.emit(clause.sequence, scope)
                native = self._proved(clause.sequence, scope)
            scope, slot = self._bind(scope, clause.var, native)
            stages.append((slot, value, isinstance(clause, ForClause)))
        where = None if node.where is None else self._test(node.where, scope)
        if range_plan is not None:      # the probe is the where clause
            slot, base, _each = stages[0]
            stages[0] = (slot, self._range_bindings(range_plan, slot, base, where), True)
            where = None
        ret, ret_stream = (self.emit_both(node.ret, scope) if pipelined
                           else (self.emit(node.ret, scope), None))
        if node.order:
            keys = [self.emit(spec.key, scope) for spec in node.order]
            descending = [spec.descending for spec in node.order]

        def pipeline(first, ret):
            upstream = _unit
            for slot, value, each in stages:
                upstream = _bind_stage(upstream, slot, first or value, each)
                first = None
            if node.order:
                return _ordered_stage(upstream, where, keys, descending, ret,
                                      self.navigator)
            return _return_stage(upstream, where, ret)

        rows = pipeline(None, ret)
        run = lambda rt: list(rows(rt))             # noqa: E731
        if pipelined:
            return run, pipeline(first_stream, ret_stream)

        def stream(rt):
            rt.barriers += 1
            return rows(rt)
        return run, stream

    def _range_bindings(self, plan, slot: int, base, where):
        """The bindings a sorted-index range probe qualifies (the probe
        *is* the ``where`` clause, which is then never evaluated); with the
        indexes dropped, the base sequence filtered the generic way."""
        store = self.store

        def sequence(rt):
            window = _range_window(rt, store, plan.path, plan.accessor,
                                   plan.op, plan.bound)
            if window is not None:
                return window
            rt.index_degrades += 1
            kept, frame = [], rt.frame
            for item in base(rt):
                frame[slot] = [item]
                if where(rt):
                    kept.append(item)
            return kept
        return sequence

    def _join(self, clause: LetClause, plan: JoinPlan, scope):
        """The one join operator, for a ``let`` the planner decorrelated:
        build-side rows the current outer binding joins with, in document
        order.  The outer key is evaluated once per binding and then
        looked up (hash), bisected (sorted) or compared against every
        stored key (nlj).  Hash and sorted probe the store's secondary
        index when the plan names one (handles come back as a window,
        nothing is built), a private index of the same class otherwise —
        made once per execution: the base is scanned and the inner key
        navigated once per row (entries carry items, not handles; nlj
        keeps plain ``(key atoms, item)`` rows).

        The planner guarantees the return reads only the inner variable
        and what never varies, so a build row's return is the same for
        every outer binding: it is evaluated once per node per execution
        and shared after that (constructed rows are immutable).  Atomic
        rows are evaluated every time: a value is no node identity
        (``1`` and ``1.0`` are one dict key)."""
        store, navigator = self.store, self.navigator
        strategy, op, cache_key = plan.strategy, plan.op, self.joins
        self.joins += 1
        base = self.emit(plan.inner_base, scope)
        outer_key = self._atoms(plan.outer_key, scope)
        inner_scope, slot = self._bind(scope, plan.inner_var,
                                       self._proved(plan.inner_base, scope))
        inner_key = self._atoms(plan.inner_key, inner_scope)
        ret = clause.expr.ret
        ret = (None if isinstance(ret, VarRef) and ret.name == plan.inner_var
               else self.emit(ret, inner_scope))
        mirrored = mirror_op(op) if strategy == "sorted" else None

        def build(rt):
            built = rt.join_cache.get(cache_key)
            if built is not None:
                return built
            rt.join_builds += 1
            built = ([] if strategy == "nlj" else
                     ValueIndex(None) if strategy == "hash" else SortedNumericIndex(None))
            frame = rt.frame
            for seq, item in enumerate(base(rt)):
                frame[slot] = [item]
                if strategy == "nlj":
                    built.append((inner_key(rt), item))
                else:
                    for atom in inner_key(rt):
                        built.add(atom, seq, item)
            if strategy == "sorted":
                built.freeze()
            rt.join_cache[cache_key] = built
            return built

        def probe(rt):
            index = None
            if plan.index_kind is not None:
                index = _field(store, plan.index_kind, plan.index_path,
                               plan.index_accessor)
                if index is None:       # indexes dropped: degrade to the build
                    rt.index_degrades += 1
            shared = index is not None
            if not shared:
                index = build(rt)
            outer = outer_key(rt)
            if strategy == "nlj":
                rt.join_comparisons += len(index)
                return [item for atoms, item in index if any_pair(op, outer, atoms)]
            if not outer:
                return []
            if strategy == "hash":
                buckets = [index.probe(atom) for atom in outer]
                entries = (buckets[0] if len(buckets) == 1 else   # in order as is
                           _doc_order(chain.from_iterable(buckets)))
                if shared:
                    _count_probe(rt, store)
                    return _window(rt, entries)
                return [item for _seq, item in entries]
            bound = _outer_bound(op, outer)
            if bound is None:           # no number among the outer atoms
                return []
            # outer OP scale*key  <=>  scale*key (mirrored OP) outer
            start, stop = index.window(mirrored, bound,
                                       plan.index_scale if shared else 1.0)
            if shared:
                _count_probe(rt, store)     # only a probe that bisects counts
                return NodeWindow(index.handles, start, stop, rt, index.seqs)
            return [item for _seq, item in _doc_order(index.pairs(start, stop))]

        if ret is None:
            return probe                # a window stays a window: count() is O(1)
        memo_key = self.joins
        self.joins += 1

        def run(rt):
            memo = rt.join_cache.get(memo_key)
            if memo is None:
                memo = rt.join_cache[memo_key] = {}
            out, frame = [], rt.frame
            for item in probe(rt):
                if item.__class__ is NodeItem:
                    rows = memo.get(item.handle)
                    if rows is None:
                        frame[slot] = [item]
                        rows = memo[item.handle] = ret(rt)
                    else:
                        rt.join_reuses += 1
                else:
                    frame[slot] = [item]
                    rows = ret(rt)
                out.extend(rows)
            return out
        return run

    # -- tests (effective boolean values, without the singleton list) -------------------

    def _test(self, node: Expr, scope):
        """``rt -> bool``: the node's effective boolean value."""
        if isinstance(node, _BOOLEAN):
            return _TESTS[type(node)](self, node, scope)
        run = self.emit(node, scope)
        return lambda rt: effective_boolean(run(rt))

    def _boolean(self, node: Expr, scope):
        test = _TESTS[type(node)](self, node, scope)
        return lambda rt: [test(rt)]

    def _atomic(self, node: Expr) -> bool:
        """Whether the node's items are statically atomic (never nodes)."""
        if isinstance(node, FunctionCall):
            return (node.name in ("zero-or-one", "exactly-one") and len(node.args) == 1
                    and node.name not in self.functions and self._atomic(node.args[0]))
        return isinstance(node, (Literal, Arithmetic, Unary) + _BOOLEAN) or _values(node)

    def _atoms(self, node: Expr, scope):
        """``rt -> atomic values`` of a node: a constant literal is one
        shared tuple, what is statically atomic is not atomized again."""
        if isinstance(node, Literal):
            slot, atoms = node.slot, (node.value,)
            if slot is None:
                return lambda rt: atoms
            return lambda rt: (rt.values[slot],)
        run, navigator = self.emit(node, scope), self.navigator
        return run if self._atomic(node) else lambda rt: atomize(run(rt), navigator)

    def _comparison(self, node: Comparison, scope):
        if node.op == "<<":
            left, right = self.emit(node.left, scope), self.emit(node.right, scope)
            navigator = self.navigator
            return lambda rt: _before(left(rt), right(rt), navigator)
        left, right = self._atoms(node.left, scope), self._atoms(node.right, scope)
        compare = COMPARATORS[node.op]

        def test(rt):                   # general comparison is existential
            right_atoms = right(rt)
            for a in left(rt):
                for b in right_atoms:
                    if compare(a, b):
                        return True
            return False
        return test

    def _boolop(self, node: BoolOp, scope):
        operands = [self._test(operand, scope) for operand in node.operands]
        decisive = node.op == "or"      # the operand value that ends the scan

        def test(rt):
            for operand in operands:
                if operand(rt) is decisive:
                    return decisive
            return not decisive
        return test

    def _quantified(self, node: Quantified, scope):
        upstream = _unit                # the bindings are a FLWOR's for stages
        for clause in node.bindings:
            sequence = self.emit(clause.sequence, scope)
            scope, slot = self._bind(scope, clause.var,
                                     self._proved(clause.sequence, scope))
            upstream = _bind_stage(upstream, slot, sequence, True)
        satisfies = self._test(node.satisfies, scope)
        some = node.kind == "some"

        def test(rt):
            for _ in upstream(rt):
                if satisfies(rt) is some:
                    return some
            return not some
        return test

    def _if(self, node: IfExpr, scope):
        test = self._test(node.condition, scope)
        then, orelse = self.emit(node.then, scope), self.emit(node.orelse, scope)
        return lambda rt: then(rt) if test(rt) else orelse(rt)

    # -- arithmetic ---------------------------------------------------------------------

    def _number(self, node: Expr, scope):
        """``rt -> float | None`` (None: the empty sequence); a sequence of
        several items is a type error, never silently its first item."""
        if isinstance(node, Literal) and node.slot is not None:
            # What the atoms path does, unboxed: a numeric slot's values
            # are all numbers (the type is the shape's).
            slot = node.slot
            convert = to_number if type(node.value) is str else float
            return lambda rt: convert(rt.values[slot])
        if isinstance(node, Literal) and try_number(node.value) is not None:
            constant = try_number(node.value)
            return lambda rt: constant
        values, navigator = self._atoms(node, scope), self.navigator

        def number(rt):
            atoms = values(rt)
            if len(atoms) > 1:
                raise TypeCoercionError(
                    f"arithmetic over a sequence of {len(atoms)} items")
            return to_number(atoms[0]) if atoms else None
        return number

    def _arithmetic(self, node: Arithmetic, scope):
        left, right = self._number(node.left, scope), self._number(node.right, scope)
        op, apply = node.op, _ARITHMETIC[node.op]

        def run(rt):
            a, b = left(rt), right(rt)
            if a is None or b is None:
                return []               # arithmetic over the empty sequence is empty
            if b == 0 and op in ("div", "mod"):
                raise TypeCoercionError(f"{op} by zero")
            return [apply(a, b)]
        return run

    def _unary(self, node: Unary, scope):
        operand = self._number(node.operand, scope)
        return lambda rt: [] if (value := operand(rt)) is None else [-value]

    # -- functions -----------------------------------------------------------------------

    def _call(self, node: FunctionCall, scope):
        """A call site.  ``count``, ``exists`` and ``empty`` of a node path
        read the length or truth of its raw handles: no ``NodeItem`` is
        made for a node that is only counted."""
        name = node.name
        cell = self.functions.get(name)
        if cell is None and name in _SIZED and len(node.args) == 1 \
                and isinstance(node.args[0], Path) and not _values(node.args[0]):
            args = [self._path(node.args[0], scope, counted=True)[0]]
        else:
            args = [self.emit(argument, scope) for argument in node.args]
        if cell is not None:
            arity = len(self.compiled.query.functions[name].params)
            if len(args) != arity:
                raise QueryError(f"{name}() expects {arity} args, got {len(args)}")

            def call(rt):
                body, size = cell       # emitted by now, whoever calls whom
                frame = [None] * size
                for slot, argument in enumerate(args):
                    frame[slot] = argument(rt)
                caller, rt.frame = rt.frame, frame
                result = body(rt)
                rt.frame = caller
                return result
            return call
        if name in ("last", "position"):
            if not self.context:
                return _no_context
            return (lambda rt: [rt.size]) if name == "last" else (lambda rt: [rt.position])
        if name in ("document", "doc"):
            raise QueryError(f"{name}() is only supported as the root of a path")
        if name not in BUILTINS:
            raise QueryError(f"unknown function {name}()")
        impl, arity = BUILTINS[name]
        if len(args) != arity:
            raise QueryError(f"{name}() expects {arity} argument(s), got {len(args)}")
        navigator = self.navigator
        if arity == 1:
            argument = args[0]
            return lambda rt: impl(argument(rt), navigator)
        return lambda rt: impl(*[argument(rt) for argument in args], navigator)

    # -- constructors ------------------------------------------------------------------------

    def _ctor(self, node: ElementCtor, scope):
        """A constructor row.  Its store-bound value paths are the leaves
        of one twig per root variable (:meth:`_twig_leaf`), answered
        first with one store call per root node — ``values_by_twig``, or
        a one-leaf twig's ``values_by_path`` — into the twig's frame
        slot; the markup pieces then read their leaves' strings there."""
        outer, self.twig_roots = self.twig_roots, {}
        tag, markup = node.tag, _joined(self._markup(node, scope))
        twigs, self.twig_roots = self.twig_roots, outer
        gathers = []
        for root, (name, slot, leaves) in twigs.items():
            self.twigs.append((name, len(leaves)))
            gathers.append((root, slot, Twig(leaves)))
        if not gathers:
            return lambda rt: [NodeItem(Fragment(tag, markup(rt)))]
        native = self.native
        if len(gathers) > 1:
            def ctor_many(rt):
                frame = rt.frame
                for root, slot, twig in gathers:
                    frame[slot] = _twig_answer(native, twig, frame[root])
                return [NodeItem(Fragment(tag, markup(rt)))]
            return ctor_many
        (root, slot, twig), = gathers
        values_by_path, values_by_twig = native.values_by_path, native.values_by_twig
        names, attribute = twig.paths[0]
        single = len(twig.paths) == 1

        def ctor(rt):                   # _twig_answer, inlined for one node
            frame = rt.frame
            items = frame[root]
            if len(items) != 1:
                frame[slot] = _twig_answer(native, twig, items)
            elif single:
                frame[slot] = [values_by_path(items[0].handle, names, attribute)]
            else:
                frame[slot] = values_by_twig(items[0].handle, twig)
            return [NodeItem(Fragment(tag, markup(rt)))]
        return ctor

    def _twig_leaf(self, part: Expr, scope) -> tuple[int, int] | None:
        """``(frame slot, leaf)`` of an enclosed expression that is a
        value path from a store-bound variable: a leaf of that variable's
        twig in the constructor being emitted, whose strings a row reads
        at ``rt.frame[slot][leaf]``.  None for anything else — a nested
        FLWOR, an ``if`` or a function call is not crossed."""
        if not (isinstance(part, Path) and isinstance(part.root, VarRef)):
            return None
        value_path, root = _value_path(part.steps), self._slot(part.root.name, scope)
        if value_path is None or root not in self.native_slots:
            return None
        if root not in self.twig_roots:
            self.twig_roots[root] = (part.root.name, self.slots, {})
            self.slots += 1
        _name, slot, leaves = self.twig_roots[root]
        return slot, leaves.setdefault(value_path, len(leaves))

    def _enclosed(self, part: Expr, scope):
        """``rt -> items`` of a constructor's enclosed expression: a twig
        leaf's strings, or the expression emitted."""
        leaf = self._twig_leaf(part, scope)
        if leaf is None:
            return self.emit(part, scope)
        slot, index = leaf
        return lambda rt: rt.frame[slot][index]

    def _markup(self, node: ElementCtor, scope) -> list:
        """The constructor as markup pieces — a ``str`` is written as is, a
        closure ``rt -> str`` is called — in one pass over the element and
        its nested constructors, whose pieces are spliced in.  Literal text
        and attribute literals are escaped here and whitespace-only text is
        dropped here; only an element whose content is all enclosed
        expressions decides ``<a/>`` against ``<a>…</a>`` per row — on
        one list's length when that content is one twig leaf.  A value
        path from a store-bound variable is always a twig leaf
        (:meth:`_twig_leaf`)."""
        tag, navigator = node.tag, self.navigator
        pieces: list = ["<" + tag]
        for attribute in node.attributes:
            pieces.append(f' {attribute.name}="')
            for part in attribute.parts:
                if isinstance(part, str):
                    pieces.append(escape_attribute(part))
                elif (leaf := self._twig_leaf(part, scope)) is not None:
                    pieces.append(_leaf_markup(*leaf, escape_attribute))
                elif _values(part):     # strings already: nothing to atomize
                    run = self.emit(part, scope)
                    pieces.append(lambda rt, run=run: escape_attribute(
                        " ".join(run(rt))))
                else:
                    run = self.emit(part, scope)
                    pieces.append(lambda rt, run=run: escape_attribute(
                        sequence_to_string(run(rt), navigator)))
            pieces.append('"')
        content = [part for part in node.content
                   if not isinstance(part, str) or part.strip()]
        if not content:
            return pieces + ["/>"]
        render, close = _content_markup(navigator), f"</{tag}>"
        if not any(isinstance(part, (str, ElementCtor)) for part in content):
            start = _joined(pieces)
            leaf = self._twig_leaf(content[0], scope) if len(content) == 1 else None
            if leaf is not None:    # its strings escape as one
                slot, index = leaf

                def element(rt):
                    values = rt.frame[slot][index]
                    return start(rt) + (">" + escape_text(" ".join(values)) + close
                                        if values else "/>")
                return [element]
            runs = [self._enclosed(part, scope) for part in content]
            if len(runs) == 1:      # an empty sequence adds no content
                run = runs[0]

                def element(rt):
                    items = run(rt)
                    return start(rt) + (">" + render(items) + close if items else "/>")
            else:
                def element(rt):
                    body = [render(items) for run in runs if (items := run(rt))]
                    return start(rt) + (">" + "".join(body) + close if body else "/>")
            return [element]
        pieces.append(">")
        for part in content:
            if isinstance(part, str):
                pieces.append(escape_text(part))
            elif isinstance(part, ElementCtor):
                pieces += self._markup(part, scope)
            elif (leaf := self._twig_leaf(part, scope)) is not None:
                pieces.append(_leaf_markup(*leaf, escape_text))
            else:
                run = self.emit(part, scope)
                pieces.append(lambda rt, run=run: render(run(rt)))
        pieces.append(close)
        return pieces


def _values(node: Expr) -> bool:
    """Whether ``node`` is a path ending in ``text()`` or ``@name``: its
    items are strings."""
    return isinstance(node, Path) and node.steps[-1].axis in ("attribute", "text")


def _plain(step: Step) -> bool:
    """Whether ``step`` is a named child step without predicates."""
    return step.axis == "child" and step.name is not None and not step.predicates


def _value_path(steps: list[Step]) -> tuple | None:
    """``(names, attribute)`` when ``steps`` are plain named child steps
    and then ``text()`` (``attribute`` None) or ``@name``; else None."""
    last = steps[-1]
    if last.predicates or not (last.axis == "text" or
                               last.axis == "attribute" and last.name):
        return None
    if not all(_plain(step) for step in steps[:-1]):
        return None
    return tuple(step.name for step in steps[:-1]), last.name


def store_bound(node: Expr, names: frozenset, context: bool = False) -> bool:
    """Whether every item ``node`` can evaluate to is a store node, given
    the in-scope variables proved so (``names``) and whether the context
    item is one (``context``).  Conservative: an absolute path, or a path
    rooted at something proved, whose last step is an element step; a
    proved variable or context item, or a filter over one; a FLWOR whose
    ``return`` is proved once its own bindings are decided by these rules.
    Anything else — constructors, ``if``, function calls and parameters,
    literals, arithmetic — may hold other items."""
    if isinstance(node, VarRef):
        return node.name in names
    if isinstance(node, ContextItem):
        return context
    if isinstance(node, Path):
        axis = node.steps[-1].axis
        if axis == "self":              # a filter expression
            return len(node.steps) == 1 and store_bound(node.root, names, context)
        return axis in ("child", "descendant") and (
            is_absolute(node) or store_bound(node.root, names, context))
    if isinstance(node, FLWOR):
        for clause in node.clauses:
            sequence = (clause.sequence if isinstance(clause, ForClause)
                        else clause.expr)
            names = (names | {clause.var} if store_bound(sequence, names, context)
                     else names - {clause.var})
        return store_bound(node.ret, names, context)
    return False


#: Nodes whose value is statically one boolean: emitted as ``rt -> bool``
#: tests, wrapped in a list only where a sequence is asked for.
_BOOLEAN = (Comparison, BoolOp, Quantified)
#: Built-ins that read only their argument's length or truth.
_SIZED = frozenset({"count", "exists", "empty"})
_TESTS = {Comparison: _Emitter._comparison, BoolOp: _Emitter._boolop,
          Quantified: _Emitter._quantified}

_EMIT = {
    Literal: _Emitter._literal,
    VarRef: _Emitter._varref,
    ContextItem: _Emitter._context_item,
    Path: lambda emitter, node, scope: emitter._path(node, scope)[0],
    FLWOR: lambda emitter, node, scope: emitter._flwor(node, scope)[0],
    Quantified: _Emitter._boolean,
    IfExpr: _Emitter._if,
    Comparison: _Emitter._boolean,
    Arithmetic: _Emitter._arithmetic,
    Unary: _Emitter._unary,
    BoolOp: _Emitter._boolean,
    FunctionCall: _Emitter._call,
    ElementCtor: _Emitter._ctor,
}

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "div": operator.truediv, "mod": operator.mod}

#: The one context an unplanned absolute path starts from: its first
#: kernel ignores the handle and begins at the store's root.
_ROOT = (None,)


# -- FLWOR stages: each binds its slot in place and yields once per binding ---------------


def _unit(rt):
    return _ROOT


def _bind_stage(upstream, slot: int, value, each: bool):
    """``for`` (``each``: one binding per item) or ``let`` (the sequence)."""
    def stage(rt):
        frame = rt.frame
        for _ in upstream(rt):
            if each:
                for item in value(rt):
                    frame[slot] = [item]
                    yield
            else:
                frame[slot] = value(rt)
                yield
    return stage


def _return_stage(upstream, where, ret):
    def stage(rt):
        for _ in upstream(rt):
            if where is None or where(rt):
                yield from ret(rt)
    return stage


def _ordered_stage(upstream, where, keys, descending, ret, navigator):
    def stage(rt):
        rows: list[tuple] = []
        for _ in upstream(rt):
            if where is None or where(rt):
                rows.append((tuple([_order_key(key(rt), navigator) for key in keys]),
                             len(rows), ret(rt)))
        rows = _normalize_order_columns(rows, descending)
        rows.sort(key=operator.itemgetter(0))
        for _key, _arrival, value in rows:
            yield from value
    return stage


def _order_key(values, navigator: Navigator):
    return atomize_item(values[0], navigator) if values else None


# -- runtime helpers the closures share ----------------------------------------------------


def _no_context(rt):
    raise QueryError("no context item")


def _values_path(slot: int | None, base, values_by_path, names: tuple,
                 attribute: str | None):
    """``rt -> strings`` of a value path from a proved root (frame
    ``slot``, else ``base``): one store call per context node."""
    def run(rt):
        items = rt.frame[slot] if base is None else base(rt)
        single = len(items) == 1
        try:
            if single:
                handle = items[0].handle
            else:
                handles = [item.handle for item in items]
        except AttributeError:
            raise QueryError(
                "cannot apply a path step to an atomic value") from None
        if single:
            return values_by_path(handle, names, attribute)
        return [value for handle in handles
                for value in values_by_path(handle, names, attribute)]
    return run


def _twig_answer(native, twig: Twig, items) -> list[list[str]]:
    """``twig``'s strings, one list per leaf, for the root nodes
    ``items``: one store call per node, each leaf's strings concatenated
    in node order.  A one-leaf twig's call is its ``values_by_path`` —
    what ``values_by_twig`` answers for one leaf, without the wrapper."""
    if len(twig.paths) == 1:
        names, attribute = twig.paths[0]
        return [[value for item in items
                 for value in native.values_by_path(item.handle, names, attribute)]]
    answers = [native.values_by_twig(item.handle, twig) for item in items]
    return [[value for answer in answers for value in answer[leaf]]
            for leaf in range(len(twig.paths))]


def _leaf_markup(slot: int, leaf: int, escape):
    """``rt -> str``: a twig leaf's strings as markup, space-separated and
    escaped as one (escaping never touches the space)."""
    return lambda rt: escape(" ".join(rt.frame[slot][leaf]))


def _field(store, kind: str, path, accessor):
    """The secondary index over one field (None = indexes dropped, or
    never built for this field)."""
    indexes = store.indexes
    if indexes is None:
        return None
    field = indexes.value_field if kind == "value" else indexes.sorted_field
    return field(path, accessor)


def _count_probe(rt: _Runtime, store) -> None:
    store.stats.index_lookups += 1
    rt.index_probes += 1


def _range_window(rt: _Runtime, store, path, accessor, op: str, bound) -> NodeWindow | None:
    """Nodes whose sorted-index key satisfies ``key OP bound``."""
    index = _field(store, "sorted", path, accessor)
    if index is None:
        return None
    _count_probe(rt, store)
    return _window(rt, _doc_order(index.pairs(*index.window(op, bound))))


def _window(rt: _Runtime, entries) -> NodeWindow:
    """A window over document-ordered index ``(seq, handle)`` entries."""
    handles = [handle for _seq, handle in entries]
    return NodeWindow(handles, 0, len(handles), rt)


def _dedupe(handles: list, doc_position) -> list:
    seen = set()
    decorated = []
    for handle in handles:
        key = id(handle) if isinstance(handle, Element) else handle
        if key in seen:
            continue
        seen.add(key)
        decorated.append((doc_position(handle), handle))
    decorated.sort(key=operator.itemgetter(0))
    return [handle for _, handle in decorated]


def _before(left: list, right: list, navigator: Navigator) -> bool:
    """``<<``: some node on the left precedes some node on the right."""
    left, right = ([navigator.doc_position(item.handle) for item in side
                    if isinstance(item, NodeItem)] for side in (left, right))
    return bool(left and right) and min(left) < max(right)


def _joined(pieces: list):
    """``rt -> str`` over markup pieces, adjacent literals merged first."""
    merged: list = []
    for piece in pieces:
        if isinstance(piece, str) and merged and isinstance(merged[-1], str):
            merged[-1] += piece
        else:
            merged.append(piece)
    if len(merged) == 1 and isinstance(merged[0], str):
        constant = merged[0]
        return lambda rt: constant
    return lambda rt: "".join([piece if piece.__class__ is str else piece(rt)
                               for piece in merged])


def _content_markup(navigator: Navigator):
    """``items -> str``: an enclosed expression's items as element content,
    nodes as their markup, atomics escaped and space-separated where
    adjacent (a lone string, the common ``text()`` case, just escaped)."""
    markup = navigator.markup

    def render(items) -> str:
        if items.__class__ is list and len(items) == 1 and items[0].__class__ is str:
            return escape_text(items[0])
        out, atomic = [], False
        for item in items:
            if isinstance(item, NodeItem):
                out.append(markup(item.handle))
                atomic = False
            else:
                text = escape_text(atomic_to_string(item))
                out.append(" " + text if atomic else text)
                atomic = True
        return "".join(out)
    return render


def _is_positional(value: list) -> bool:
    return (
        len(value) == 1
        and isinstance(value[0], (int, float))
        and not isinstance(value[0], bool)
    )


def _outer_bound(op: str, atoms: list) -> float | None:
    """The one number a sorted probe bisects with, whatever the outer
    key's cardinality.  General comparison is existential, so the largest
    number decides ``>``/``>=`` and the smallest ``<``/``<=``; NaN and
    non-numeric atoms never compare true (None = none left)."""
    largest = op[0] == ">"
    bound = None
    for atom in atoms:              # one pass, no list: nearly always one atom
        number = try_number(atom)
        if number is not None and number == number and (
                bound is None or (number > bound if largest else number < bound)):
            bound = number
    return bound


def _doc_order(entries) -> list[tuple[int, object]]:
    """Index ``(seq, handle)`` entries deduplicated by build sequence (a
    node matches once however many of its values qualified) and restored
    to document order."""
    return sorted(dict(entries).items())


def _normalize_order_columns(rows: list[tuple], descending: list[bool]) -> list[tuple]:
    """Rewrite order-by keys so each column compares homogeneously.

    A column sorts numerically only when *every* row's key casts to a number
    (XPath 1.0-ish: one generic string defeats numeric ordering); empty keys
    sort first.  Row tuples are (keys, arrival, result) — arrival keeps the
    sort stable.
    """
    if not rows:
        return []
    column_count = len(descending)
    numeric_columns = []
    for column in range(column_count):
        numeric_columns.append(all(
            row[0][column] is None or try_number(row[0][column]) is not None
            for row in rows
        ))
    normalized = []
    for keys, arrival, value in rows:
        out_keys = []
        for column in range(column_count):
            value_in = keys[column]
            if numeric_columns[column]:
                key = (0, 0.0) if value_in is None else (1, to_number(value_in))
            else:
                key = (0, "") if value_in is None else (1, atomic_to_string(value_in))
            out_keys.append(_Rev(key) if descending[column] else key)
        normalized.append((tuple(out_keys), arrival, value))
    return normalized


class _Rev:
    """Inverts comparison for descending order-by keys."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Rev") -> bool:
        return other.value < self.value

    def __eq__(self, other) -> bool:
        return isinstance(other, _Rev) and other.value == self.value

