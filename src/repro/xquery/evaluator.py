"""The query evaluator.

Executes a :class:`~repro.xquery.planner.CompiledQuery` against its store,
honouring the plan annotations the per-system planner attached: ID-index
lookups, path-extent scans, and decorrelated (hash / sorted) joins.  All
document access flows through :class:`~repro.xquery.sequence.Navigator`, so
execution cost tracks the store's physical mapping.
"""

from __future__ import annotations

from itertools import chain

from repro.errors import QueryError, TypeCoercionError
from repro.index.indexes import SortedNumericIndex, ValueIndex
from repro.obs.trace import NULL_TRACER
from repro.xmlio.dom import Element
from repro.xmlio.serialize import serialize
from repro.xmlio.canonical import canonicalize
from repro.xquery.ast import (
    Arithmetic, BoolOp, Comparison, ContextItem, ElementCtor, Expr, FLWOR,
    ForClause, FunctionCall, IfExpr, LetClause, Literal, Path, Quantified,
    Query, Step, Unary, VarRef,
)
from repro.xquery.functions import BUILTINS, call_builtin
from repro.xquery.planner import CompiledQuery, JoinPlan, _flip
from repro.xquery.sequence import (
    NodeItem, NodeWindow, Navigator, any_pair, atomic_to_string, atomize,
    atomize_item, effective_boolean, general_compare, sequence_to_string,
    to_number, try_number,
)

_DOC_ROOT = object()  # sentinel: conceptual parent of the root element
_EXHAUSTED = object()  # sentinel: a handle iterator ran out mid-peek


def item_text(item, navigator: Navigator) -> str:
    """One result item as text: markup for nodes, lexical form for atomics.

    The single source of row rendering — ``QueryResult.serialize``,
    ``StreamingResult.serialize_item``, and ``Cursor.rowtext`` all
    delegate here, so the three surfaces cannot drift apart.  Serialising
    is read-only, so an ``Element`` handle (a constructed row, or System
    G's own nodes) is rendered in place, never copied first.
    """
    if isinstance(item, NodeItem):
        handle = item.handle
        if not isinstance(handle, Element):
            handle = navigator.store.build_dom(handle)
        return serialize(handle)
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


def evaluate(compiled: CompiledQuery, tracer=NULL_TRACER) -> QueryResult:
    """Execute a compiled query and return its result sequence."""
    interpreter = _Interpreter(compiled, tracer=tracer)
    if not tracer.enabled:
        return QueryResult(interpreter.eval_items(compiled.query.body),
                           interpreter.navigator)
    with tracer.span("evaluator.eval", system=compiled.profile.name) as span:
        items = interpreter.eval_items(compiled.query.body)
        span.set(items=len(items),
                 index_probes=interpreter.index_probes,
                 index_degrades=interpreter.index_degrades,
                 items_materialized=interpreter.items_materialized,
                 join_builds=interpreter.join_builds,
                 join_comparisons=interpreter.join_comparisons)
    return QueryResult(items, interpreter.navigator)


class StreamingResult:
    """A lazily-produced result sequence (the cursor protocol's backend).

    Iterating yields the same items, in the same order, as
    :func:`evaluate` would put in ``QueryResult.items`` — laziness changes
    *when* work happens, never *what* comes out.  One consumer only: the
    generator pipeline shares the interpreter's binding state, so items
    must be drawn strictly sequentially (which is what a cursor does).
    """

    __slots__ = ("_iterator", "navigator", "span")

    def __init__(self, iterator, navigator: Navigator, span=None) -> None:
        self._iterator = iterator
        self.navigator = navigator
        #: The live ``evaluator.stream`` span when tracing; finished when
        #: the pipeline is exhausted (or its generator is closed).
        self.span = span

    def __iter__(self):
        return self._iterator

    def __next__(self):
        return next(self._iterator)

    def serialize_item(self, item) -> str:
        """One result row as text: markup for nodes, text for atomics."""
        return item_text(item, self.navigator)

    def drain(self) -> QueryResult:
        """Materialize everything still pending into a :class:`QueryResult`."""
        return QueryResult(list(self._iterator), self.navigator)


def evaluate_stream(compiled: CompiledQuery, tracer=NULL_TRACER) -> StreamingResult:
    """Execute a compiled query, yielding result items lazily.

    Plans whose shape admits pipelining (path scans and probes, FLWOR
    without ``order by``) produce their first item after evaluating only
    the bindings before it; everything else transparently materializes
    behind the same iterator.  ``list(evaluate_stream(c))`` equals
    ``evaluate(c).items`` bit-for-bit.
    """
    interpreter = _Interpreter(compiled, tracer=tracer)
    iterator = interpreter.stream(compiled.query.body)
    if not tracer.enabled:
        return StreamingResult(iterator, interpreter.navigator)
    span = tracer.begin("evaluator.stream", system=compiled.profile.name)
    return StreamingResult(_traced_stream(iterator, interpreter, span),
                           interpreter.navigator, span=span)


def _traced_stream(iterator, interpreter: "_Interpreter", span):
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
        span.set(rows=rows,
                 index_probes=interpreter.index_probes,
                 index_degrades=interpreter.index_degrades,
                 items_materialized=interpreter.items_materialized,
                 join_builds=interpreter.join_builds,
                 join_comparisons=interpreter.join_comparisons,
                 barriers=interpreter.barriers,
                 stage_rows=dict(interpreter.stage_rows))
        span.finish()


class _Interpreter:
    def __init__(self, compiled: CompiledQuery, tracer=NULL_TRACER) -> None:
        self.compiled = compiled
        self.store = compiled.store
        self.navigator = Navigator(compiled.store)
        self.variables: dict[str, list] = {}
        self.item: NodeItem | None = None
        self.position = 0
        self.size = 0
        self.join_cache: dict[int, object] = {}
        self.tracer = tracer
        #: Per-stage row counting happens only when tracing is live.
        self.trace = tracer.enabled
        #: Execution-fact counters, always maintained (integer adds are
        #: cheap and they make PROFILE exact even across threads, unlike
        #: the shared ``store.stats`` totals).
        self.index_probes = 0
        self.index_degrades = 0
        #: Handles an index window wrapped into ``NodeItem``s because a
        #: consumer pulled them (a window nobody reads costs none).
        self.items_materialized = 0
        #: Per-query join builds made, and (outer binding, build row) pairs
        #: an nlj probe compared — the paper's quadratic, counted.
        self.join_builds = 0
        self.join_comparisons = 0
        self.barriers = 0
        self.stage_rows: dict[int, int] = {}

    # -- dispatch -----------------------------------------------------------------

    def eval(self, node: Expr) -> list:
        method = _DISPATCH[type(node)]
        return method(self, node)

    def eval_items(self, node: Expr) -> list:
        """:meth:`eval` for a caller that keeps the result: a window
        aliases live index arrays, so it is copied out into a plain list."""
        items = self.eval(node)
        return list(items) if isinstance(items, NodeWindow) else items

    def stream(self, node: Expr):
        """Lazy twin of :meth:`eval`: an iterator over the same items.

        Only expression shapes with a genuine pipeline (paths, FLWOR) get
        a streaming implementation; the rest evaluate eagerly behind the
        iterator, which keeps the item sequence identical by construction.
        """
        method = _STREAM_DISPATCH.get(type(node))
        if method is not None:
            return method(self, node)
        return iter(self.eval(node))

    # -- primaries -----------------------------------------------------------------

    def eval_literal(self, node: Literal) -> list:
        return [node.value]

    def eval_varref(self, node: VarRef) -> list:
        try:
            return self.variables[node.name]
        except KeyError:
            raise QueryError(f"unbound variable ${node.name}") from None

    def eval_context(self, node: ContextItem) -> list:
        if self.item is None:
            raise QueryError("no context item")
        return [self.item]

    # -- paths ----------------------------------------------------------------------

    def eval_path(self, node: Path) -> list:
        plan = self.compiled.path_plans.get(id(node))
        if plan is not None and plan.kind == "id_lookup":
            return self._eval_id_lookup(node, plan)
        if plan is not None and plan.kind in ("value_probe", "range_probe"):
            window = self._probe_window(plan)
            if window is None:          # indexes dropped: degrade to the scan
                self.index_degrades += 1
                return self._apply_steps([_DOC_ROOT], node.steps, 0)
            if plan.id_step + 1 == len(node.steps):
                return window           # the probe answered the last step
            return self._apply_steps(window.raw(), node.steps, plan.id_step + 1)
        if plan is not None and plan.kind == "path_index":
            handles = self._path_extent(plan)
            if handles is None:         # indexes dropped: degrade to the scan
                self.index_degrades += 1
                return self._apply_steps([_DOC_ROOT], node.steps, 0)
            return self._apply_steps(handles, node.steps, plan.prefix_len)
        if node.root is None:
            return self._apply_steps([_DOC_ROOT], node.steps, 0)
        if isinstance(node.root, FunctionCall) and node.root.name in ("document", "doc"):
            return self._apply_steps([_DOC_ROOT], node.steps, 0)
        base = self.eval(node.root)
        if node.steps and node.steps[0].axis == "self":
            return self._filter_sequence(base, node.steps[0].predicates)
        handles = []
        for item in base:
            if not isinstance(item, NodeItem):
                raise QueryError(f"cannot apply a path step to atomic {item!r}")
            handles.append(item.handle)
        return self._apply_steps(handles, node.steps, 0)

    def _path_extent(self, plan) -> list | None:
        """The extent behind a ``path_index`` plan (None = unavailable)."""
        if plan.source == "index":
            indexes = self.store.indexes
            if indexes is None:
                return None
            extent = indexes.path_extent(plan.prefix)
            if extent is not None:
                self._count_probe()
            return extent
        return self.store.nodes_at_path(plan.prefix) or []

    def _probe_window(self, plan) -> NodeWindow | None:
        """Qualifying extent nodes of a value/range probe, in document
        order (the probe answers the step predicate; None = unavailable)."""
        if plan.kind == "range_probe":
            return self._range_window(plan.prefix, plan.accessor, plan.op, plan.bound)
        index = self._index("value", plan.prefix, plan.accessor)
        if index is None:
            return None
        self._count_probe()
        return self._window(index.probe(plan.probe_value))

    def _index(self, kind: str, path, accessor):
        """The secondary index over one field (None = indexes dropped, or
        never built for this field)."""
        indexes = self.store.indexes
        if indexes is None:
            return None
        field = indexes.value_field if kind == "value" else indexes.sorted_field
        return field(path, accessor)

    def _count_probe(self) -> None:
        self.store.stats.index_lookups += 1
        self.index_probes += 1

    def _range_window(self, path, accessor, op: str, bound) -> NodeWindow | None:
        """Nodes whose sorted-index key satisfies ``key OP bound``."""
        index = self._index("sorted", path, accessor)
        if index is None:
            return None
        self._count_probe()
        return self._window(_doc_order(index.pairs(*index.window(op, bound))))

    def _window(self, entries) -> NodeWindow:
        """A window over document-ordered index ``(seq, handle)`` entries."""
        handles = [handle for _seq, handle in entries]
        return NodeWindow(handles, 0, len(handles), self)

    def _eval_id_lookup(self, node: Path, plan) -> list:
        self.index_probes += 1
        handle = self.store.lookup_id(plan.id_value)
        if handle is None:
            return []
        step = node.steps[plan.id_step]
        if step.name is not None and self.navigator.tag(handle) != step.name:
            return []
        survivors = self._filter_step([handle], step.predicates)
        return self._apply_steps(survivors, node.steps, plan.id_step + 1)

    def _apply_steps(self, handles: list, steps: list[Step], start: int) -> list:
        nav = self.navigator
        current: list = list(handles)
        for index in range(start, len(steps)):
            step = steps[index]
            axis = step.axis
            if axis == "attribute":
                out: list = []
                for handle in current:
                    if handle is _DOC_ROOT:
                        continue
                    value = nav.attribute(handle, step.name)
                    if value is not None:
                        out.append(value)
                current = out
                continue
            if axis == "text":
                out = []
                for handle in current:
                    if handle is _DOC_ROOT:
                        continue
                    out.extend(t for t in nav.child_texts(handle) if t)
                current = out
                continue
            if axis == "self":
                wrapped = [h if isinstance(h, str) else NodeItem(h) for h in current]
                filtered = self._filter_sequence(wrapped, step.predicates)
                current = [i.handle if isinstance(i, NodeItem) else i for i in filtered]
                continue
            multi_context = len(current) > 1
            out = []
            for handle in current:
                out.extend(self._expand_step(handle, step))
            if axis == "descendant" and multi_context and out:
                out = self._dedupe_doc_order(out)
            current = out
        # Wrap node handles; attribute/text steps produced plain strings.
        return [h if isinstance(h, str) else NodeItem(h) for h in current]

    def _expand_step(self, handle, step: Step) -> list:
        """One context handle through one child/descendant step, with the
        step predicates applied (shared by the eager and streaming paths)."""
        nav = self.navigator
        if handle is _DOC_ROOT:
            root = self.store.root()
            found = [root] if (step.name is None or nav.tag(root) == step.name) else []
            if step.axis == "descendant":
                found = found + nav.descendants_by_tag(root, step.name)
        elif step.axis == "child":
            if step.name is None:
                found = nav.children(handle)
            else:
                found = nav.children_by_tag(handle, step.name)
        else:  # descendant
            found = nav.descendants_by_tag(handle, step.name)
        if step.predicates:
            found = self._filter_step(found, step.predicates)
        return found

    # -- streaming (the cursor pipeline) -------------------------------------------

    def stream_path(self, node: Path):
        """Lazy :meth:`eval_path`: handles flow through the step pipeline
        one at a time instead of materializing every intermediate list."""
        plan = self.compiled.path_plans.get(id(node))
        if plan is not None and plan.kind == "id_lookup":
            yield from self.eval_path(node)
            return
        if plan is not None and plan.kind in ("value_probe", "range_probe"):
            window = self._probe_window(plan)
            if window is None:          # indexes dropped: degrade to the scan
                self.index_degrades += 1
                yield from self._stream_steps(iter((_DOC_ROOT,)), node.steps, 0)
            else:
                yield from self._stream_steps(iter(window.raw()), node.steps,
                                              plan.id_step + 1)
            return
        if plan is not None and plan.kind == "path_index":
            handles = self._path_extent(plan)
            if handles is None:
                self.index_degrades += 1
                yield from self._stream_steps(iter((_DOC_ROOT,)), node.steps, 0)
            else:
                yield from self._stream_steps(iter(handles), node.steps,
                                              plan.prefix_len)
            return
        if node.root is None or (isinstance(node.root, FunctionCall)
                                 and node.root.name in ("document", "doc")):
            yield from self._stream_steps(iter((_DOC_ROOT,)), node.steps, 0)
            return
        # Relative path: the base sequence is an arbitrary (usually tiny)
        # expression — keep the eager evaluation behind the iterator.
        yield from self.eval_path(node)

    def _stream_steps(self, handles, steps: list[Step], start: int):
        """Generator-backed step pipeline.

        Depth-first consumption produces the same order as the eager
        breadth-first loop because each step's output is grouped by input
        handle; the two global operations (``self`` filters and
        multi-context descendant dedup) materialize exactly where the
        eager path does, so the item sequence is identical bit-for-bit.
        """
        if start == len(steps):
            for handle in handles:
                yield handle if isinstance(handle, str) else NodeItem(handle)
            return
        if self.trace:
            handles = self._count_stage(handles, start)
        step = steps[start]
        axis = step.axis
        nav = self.navigator
        if axis == "attribute":
            def attributes(source=handles):
                for handle in source:
                    if handle is _DOC_ROOT:
                        continue
                    value = nav.attribute(handle, step.name)
                    if value is not None:
                        yield value
            yield from self._stream_steps(attributes(), steps, start + 1)
            return
        if axis == "text":
            def texts(source=handles):
                for handle in source:
                    if handle is _DOC_ROOT:
                        continue
                    yield from (t for t in nav.child_texts(handle) if t)
            yield from self._stream_steps(texts(), steps, start + 1)
            return
        if axis == "self":
            # Filter-expression semantics are positional over the whole
            # sequence: this step is a pipeline barrier.
            self.barriers += 1
            wrapped = [h if isinstance(h, str) else NodeItem(h) for h in handles]
            filtered = self._filter_sequence(wrapped, step.predicates)
            yield from self._stream_steps(
                (i.handle if isinstance(i, NodeItem) else i for i in filtered),
                steps, start + 1)
            return
        if axis == "descendant":
            source = iter(handles)
            first = next(source, _EXHAUSTED)
            if first is _EXHAUSTED:
                return
            second = next(source, _EXHAUSTED)
            if second is not _EXHAUSTED:
                # Multi-context descendants dedupe and re-sort globally in
                # document order: another barrier, same as the eager path.
                self.barriers += 1
                out: list = []
                for handle in chain((first, second), source):
                    out.extend(self._expand_step(handle, step))
                if out:
                    out = self._dedupe_doc_order(out)
                yield from self._stream_steps(iter(out), steps, start + 1)
                return
            handles = (first,)
        def expanded(source=handles):
            for handle in source:
                yield from self._expand_step(handle, step)
        yield from self._stream_steps(expanded(), steps, start + 1)

    def _count_stage(self, handles, stage: int):
        """Tracing only: count rows entering one step of the pipeline."""
        counts = self.stage_rows
        for handle in handles:
            counts[stage] = counts.get(stage, 0) + 1
            yield handle

    def _dedupe_doc_order(self, handles: list) -> list:
        nav = self.navigator
        seen = set()
        decorated = []
        for handle in handles:
            key = id(handle) if isinstance(handle, Element) else handle
            if key in seen:
                continue
            seen.add(key)
            decorated.append((nav.doc_position(handle), handle))
        decorated.sort(key=lambda pair: pair[0])
        return [handle for _, handle in decorated]

    def _filter_step(self, handles: list, predicates: list[Expr]) -> list:
        """Apply step predicates (position-aware) to raw handles."""
        items = handles
        for predicate in predicates:
            if isinstance(predicate, Literal) and isinstance(predicate.value, (int, float)):
                index = int(predicate.value)
                items = [items[index - 1]] if 1 <= index <= len(items) else []
                continue
            kept = []
            size = len(items)
            saved = (self.item, self.position, self.size)
            for position, handle in enumerate(items, start=1):
                self.item = NodeItem(handle)
                self.position = position
                self.size = size
                value = self.eval(predicate)
                if _is_positional(value):
                    if to_number(value[0]) == position:
                        kept.append(handle)
                elif effective_boolean(value):
                    kept.append(handle)
            self.item, self.position, self.size = saved
            items = kept
        return items

    def _filter_sequence(self, items: list, predicates: list[Expr]) -> list:
        """Filter-expression semantics over an already-built sequence."""
        current = items
        for predicate in predicates:
            if isinstance(predicate, Literal) and isinstance(predicate.value, (int, float)):
                index = int(predicate.value)
                current = [current[index - 1]] if 1 <= index <= len(current) else []
                continue
            kept = []
            size = len(current)
            saved = (self.item, self.position, self.size)
            for position, item in enumerate(current, start=1):
                self.item = item
                self.position = position
                self.size = size
                value = self.eval(predicate)
                if _is_positional(value):
                    if to_number(value[0]) == position:
                        kept.append(item)
                elif effective_boolean(value):
                    kept.append(item)
            self.item, self.position, self.size = saved
            current = kept
        return current

    # -- FLWOR ---------------------------------------------------------------------

    def eval_flwor(self, node: FLWOR) -> list:
        range_plan = self.compiled.range_plans.get(id(node))
        if range_plan is not None:
            probed = self._eval_range_flwor(node, range_plan)
            if probed is not None:
                return probed
            self.index_degrades += 1
        results: list = []
        ordered_rows: list[tuple] = []
        clauses = node.clauses

        def recurse(index: int) -> None:
            if index == len(clauses):
                if node.where is not None and not effective_boolean(self.eval(node.where)):
                    return
                if node.order:
                    keys = tuple(self._order_key(spec.key) for spec in node.order)
                    ordered_rows.append((keys, len(ordered_rows), self.eval(node.ret)))
                else:
                    results.extend(self.eval(node.ret))
                return
            clause = clauses[index]
            if isinstance(clause, ForClause):
                sequence = self.eval(clause.sequence)
                previous = self.variables.get(clause.var)
                for item in sequence:
                    self.variables[clause.var] = [item]
                    recurse(index + 1)
                _restore(self.variables, clause.var, previous)
            else:
                value = self._bind_let(clause)
                previous = self.variables.get(clause.var)
                self.variables[clause.var] = value
                recurse(index + 1)
                _restore(self.variables, clause.var, previous)

        recurse(0)
        if node.order:
            descending = [spec.descending for spec in node.order]
            normalized = _normalize_order_columns(ordered_rows, descending)
            normalized.sort(key=lambda row: row[0])
            for _, _, value in normalized:
                results.extend(value)
        return results

    def stream_flwor(self, node: FLWOR):
        """Lazy :meth:`eval_flwor`: one result item per qualifying binding.

        ``order by`` needs every row before the first can be emitted, and
        range-plan FLWORs are already index-bounded — both evaluate
        eagerly behind the iterator.  The first ``for`` clause's sequence
        itself streams (so a path-scan extent pipelines into the binding
        loop) only when it is a plain Path that does not read the variable
        the clause binds: a suspended generator for any *binding* sequence
        shape (a nested FLWOR, say) would leak its bindings into the
        ``where``/``return`` evaluation between pulls, where the eager
        evaluator would see them unbound.  Path pipelines hold no bindings
        while suspended (predicates evaluate to completion per item), so
        they are the one safely-streamable shape.
        """
        if node.order or self.compiled.range_plans.get(id(node)) is not None:
            self.barriers += 1
            yield from self.eval_flwor(node)
            return
        clauses = node.clauses

        def recurse(index: int):
            if index == len(clauses):
                if node.where is not None and not effective_boolean(self.eval(node.where)):
                    return
                yield from self.stream(node.ret)
                return
            clause = clauses[index]
            previous = self.variables.get(clause.var)
            try:
                if isinstance(clause, ForClause):
                    lazy = (index == 0
                            and isinstance(clause.sequence, Path)
                            and not _reads_var(clause.sequence, clause.var,
                                               self.compiled.query.functions))
                    sequence = (self.stream(clause.sequence) if lazy
                                else self.eval(clause.sequence))
                    for item in sequence:
                        self.variables[clause.var] = [item]
                        yield from recurse(index + 1)
                else:
                    self.variables[clause.var] = self._bind_let(clause)
                    yield from recurse(index + 1)
            finally:
                _restore(self.variables, clause.var, previous)

        yield from recurse(0)

    def _eval_range_flwor(self, node: FLWOR, plan) -> list | None:
        """Iterate only the bindings a sorted-index range probe qualifies;
        the ``where`` clause is the probe, so it is never evaluated.
        Returns None (degrade to the generic FLWOR) when the index is gone.
        """
        window = self._range_window(plan.path, plan.accessor, plan.op, plan.bound)
        if window is None:
            return None
        clause = node.clauses[0]
        results: list = []
        previous = self.variables.get(clause.var)
        for item in window:
            self.variables[clause.var] = [item]
            results.extend(self.eval(node.ret))
        _restore(self.variables, clause.var, previous)
        return results

    def _order_key(self, key_expr: Expr):
        values = atomize(self.eval(key_expr), self.navigator)
        if not values:
            return None
        return values[0]

    def _bind_let(self, clause: LetClause) -> list:
        plan = self.compiled.join_plans.get(id(clause))
        if plan is None:
            return self.eval(clause.expr)
        return self._join_returns(clause, plan, self._join_probe(clause, plan))

    def _join_probe(self, clause: LetClause, plan: JoinPlan) -> list | NodeWindow:
        """Build-side rows the current outer binding joins with, in
        document order: the one join operator.  The outer key is evaluated
        once per binding and then looked up (hash), bisected (sorted) or
        compared against every stored key (nlj).  Hash and sorted probe
        the store's secondary index when the plan names one (handles come
        back as a window, nothing is built), a private index of the same
        class otherwise."""
        index = None
        if plan.index_kind is not None:
            index = self._index(plan.index_kind, plan.index_path, plan.index_accessor)
            if index is None:           # indexes dropped: degrade to the build
                self.index_degrades += 1
        shared = index is not None
        if not shared:
            index = self._join_build(clause, plan)
        outer = atomize(self.eval(plan.outer_key), self.navigator)
        op = plan.op
        if plan.strategy == "nlj":
            self.join_comparisons += len(index)
            return [item for atoms, item in index if any_pair(op, outer, atoms)]
        if not outer:
            return []
        if plan.strategy == "hash":
            buckets = [index.probe(atom) for atom in outer]
            entries = (buckets[0] if len(buckets) == 1 else   # in order as is
                       _doc_order(chain.from_iterable(buckets)))
            if shared:
                self._count_probe()
                return self._window(entries)
            return [item for _seq, item in entries]
        bound = _outer_bound(op, outer)
        if bound is None:               # no number among the outer atoms
            return []
        # outer OP scale*key  <=>  scale*key (mirrored OP) outer
        start, stop = index.window(_flip(op), bound,
                                   plan.index_scale if shared else 1.0)
        if shared:
            self._count_probe()         # only a probe that bisects counts
            return NodeWindow(index.handles, start, stop, self, index.seqs)
        return [item for _seq, item in _doc_order(index.pairs(start, stop))]

    def _join_build(self, clause: LetClause, plan: JoinPlan):
        """The build side of a join no store index serves, made once per
        execution: the base is scanned and the inner key navigated once
        per row, into a private hash / sorted index keyed by build seq
        (entries carry items, not handles) or, for nlj, into plain
        ``(key atoms, item)`` rows."""
        built = self.join_cache.get(id(clause))
        if built is not None:
            return built
        self.join_builds += 1
        strategy = plan.strategy
        built = ([] if strategy == "nlj" else
                 ValueIndex(None) if strategy == "hash" else SortedNumericIndex(None))
        previous = self.variables.get(plan.inner_var)
        for seq, item in enumerate(self.eval(plan.inner_base)):
            self.variables[plan.inner_var] = [item]
            atoms = atomize(self.eval(plan.inner_key), self.navigator)
            if strategy == "nlj":
                built.append((atoms, item))
            else:
                for atom in atoms:
                    built.add(atom, seq, item)
        _restore(self.variables, plan.inner_var, previous)
        if strategy == "sorted":
            built.freeze()
        self.join_cache[id(clause)] = built
        return built

    def _join_returns(self, clause: LetClause, plan: JoinPlan, items: list) -> list:
        flwor = clause.expr
        assert isinstance(flwor, FLWOR)
        if isinstance(flwor.ret, VarRef) and flwor.ret.name == plan.inner_var:
            return items                # a window stays a window: count() is O(1)
        out: list = []
        previous = self.variables.get(plan.inner_var)
        for item in items:
            self.variables[plan.inner_var] = [item]
            out.extend(self.eval(flwor.ret))
        _restore(self.variables, plan.inner_var, previous)
        return out

    # -- quantified / conditional ------------------------------------------------------

    def eval_quantified(self, node: Quantified) -> list:
        bindings = node.bindings

        def recurse(index: int) -> bool:
            if index == len(bindings):
                return effective_boolean(self.eval(node.satisfies))
            clause = bindings[index]
            sequence = self.eval(clause.sequence)
            previous = self.variables.get(clause.var)
            try:
                if node.kind == "some":
                    return any(
                        self._bind_and(clause.var, [item], recurse, index + 1)
                        for item in sequence
                    )
                return all(
                    self._bind_and(clause.var, [item], recurse, index + 1)
                    for item in sequence
                )
            finally:
                _restore(self.variables, clause.var, previous)

        return [recurse(0)]

    def _bind_and(self, var: str, value: list, fn, arg) -> bool:
        self.variables[var] = value
        return fn(arg)

    def eval_if(self, node: IfExpr) -> list:
        if effective_boolean(self.eval(node.condition)):
            return self.eval(node.then)
        return self.eval(node.orelse)

    # -- operators --------------------------------------------------------------------

    def eval_comparison(self, node: Comparison) -> list:
        left = self.eval(node.left)
        right = self.eval(node.right)
        if node.op == "<<":
            return [self._before(left, right)]
        return [general_compare(node.op, left, right, self.navigator)]

    def _before(self, left: list, right: list) -> bool:
        nav = self.navigator
        for a in left:
            if not isinstance(a, NodeItem):
                continue
            pos_a = nav.doc_position(a.handle)
            for b in right:
                if not isinstance(b, NodeItem):
                    continue
                if pos_a < nav.doc_position(b.handle):
                    return True
        return False

    def eval_arithmetic(self, node: Arithmetic) -> list:
        left = atomize(self.eval(node.left), self.navigator)
        right = atomize(self.eval(node.right), self.navigator)
        if not left or not right:
            return []  # arithmetic over the empty sequence is empty
        a = to_number(left[0])
        b = to_number(right[0])
        op = node.op
        if op == "+":
            return [a + b]
        if op == "-":
            return [a - b]
        if op == "*":
            return [a * b]
        if op in ("div", "mod"):
            if b == 0:
                raise TypeCoercionError(f"{op} by zero")
            return [a / b if op == "div" else a % b]
        raise QueryError(f"unknown arithmetic operator {op!r}")

    def eval_unary(self, node: Unary) -> list:
        values = atomize(self.eval(node.operand), self.navigator)
        if not values:
            return []
        return [-to_number(values[0])]

    def eval_boolop(self, node: BoolOp) -> list:
        if node.op == "and":
            for operand in node.operands:
                if not effective_boolean(self.eval(operand)):
                    return [False]
            return [True]
        for operand in node.operands:
            if effective_boolean(self.eval(operand)):
                return [True]
        return [False]

    # -- functions -----------------------------------------------------------------------

    def eval_call(self, node: FunctionCall) -> list:
        declared = self.compiled.query.functions.get(node.name)
        if declared is not None:
            if len(node.args) != len(declared.params):
                raise QueryError(
                    f"{node.name}() expects {len(declared.params)} args, got {len(node.args)}"
                )
            saved = [(p, self.variables.get(p)) for p in declared.params]
            for param, arg in zip(declared.params, node.args):
                self.variables[param] = self.eval(arg)
            try:
                return self.eval(declared.body)
            finally:
                for param, previous in saved:
                    _restore(self.variables, param, previous)
        if node.name == "last":
            return [self.size]
        if node.name == "position":
            return [self.position]
        args = [self.eval(argument) for argument in node.args]
        return call_builtin(node.name, args, self.navigator)

    # -- constructors ------------------------------------------------------------------------

    def eval_ctor(self, node: ElementCtor) -> list:
        element = _Constructed(node.tag)
        for attribute in node.attributes:
            pieces: list[str] = []
            for part in attribute.parts:
                if isinstance(part, str):
                    pieces.append(part)
                else:
                    pieces.append(sequence_to_string(self.eval(part), self.navigator))
            element.attributes[attribute.name] = "".join(pieces)
        for part in node.content:
            if isinstance(part, str):
                if part.strip():
                    element.append_text(part)
                continue
            if isinstance(part, ElementCtor):
                element.append(self.eval_ctor(part)[0].handle)
                continue
            values = self.eval(part)
            previous_atomic = False
            for item in values:
                if isinstance(item, NodeItem):
                    child = item.handle
                    if type(child) is not _Constructed or child.parent is not None:
                        child = self.navigator.build_dom(child)
                    element.append(child)
                    previous_atomic = False
                else:
                    text = atomic_to_string(item)
                    if previous_atomic:
                        element.append_text(" " + text)
                    else:
                        element.append_text(text)
                    previous_atomic = True
        return [NodeItem(element)]


class _Constructed(Element):
    """An element an element constructor built.

    The type is the ownership rule: while a constructed element has no
    parent, nothing else holds it in a tree, so an enclosing constructor
    adopts it instead of deep-copying it.  Every other node — one that
    already has a parent, or a store's own ``Element`` (System G's handles,
    including its parent-less root) — is copied on embedding; a copy is a
    plain ``Element``.
    """

    __slots__ = ()


def _reads_var(expr: Expr, name: str, functions=()) -> bool:
    """Whether ``expr`` may read ``$name`` (shadowing guard: a for-clause
    sequence reading the variable the clause itself binds must be fully
    evaluated before the binding loop starts mutating it).

    A call to a *declared* function counts as a potential read: UDF bodies
    are dynamically scoped (free variables resolve against the bindings
    live at call time) and invisible to the AST walk of ``expr``.
    """
    from repro.xquery.ast import walk
    for node in walk(expr):
        if isinstance(node, VarRef) and node.name == name:
            return True
        if isinstance(node, FunctionCall) and node.name in functions:
            return True
    return False


def _is_positional(value: list) -> bool:
    return (
        len(value) == 1
        and isinstance(value[0], (int, float))
        and not isinstance(value[0], bool)
    )


def _restore(variables: dict, name: str, previous) -> None:
    if previous is None:
        variables.pop(name, None)
    else:
        variables[name] = previous


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


_DISPATCH = {
    Literal: _Interpreter.eval_literal,
    VarRef: _Interpreter.eval_varref,
    ContextItem: _Interpreter.eval_context,
    Path: _Interpreter.eval_path,
    FLWOR: _Interpreter.eval_flwor,
    Quantified: _Interpreter.eval_quantified,
    IfExpr: _Interpreter.eval_if,
    Comparison: _Interpreter.eval_comparison,
    Arithmetic: _Interpreter.eval_arithmetic,
    Unary: _Interpreter.eval_unary,
    BoolOp: _Interpreter.eval_boolop,
    FunctionCall: _Interpreter.eval_call,
    ElementCtor: _Interpreter.eval_ctor,
}

#: Expression shapes with a genuine lazy pipeline; everything else
#: evaluates eagerly behind the iterator (see :meth:`_Interpreter.stream`).
_STREAM_DISPATCH = {
    Path: _Interpreter.stream_path,
    FLWOR: _Interpreter.stream_flwor,
}
