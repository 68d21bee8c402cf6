"""Incremental secondary-index maintenance.

The builder (:mod:`repro.index.builder`) constructs every index in one
document-order walk; this module keeps the same indexes current under
document mutations by applying *per-node deltas* instead of rebuilding:

* an inserted subtree is walked exactly like the builder walks (pre-order,
  never descending below a spec ``stop_tag``), entering each path extent
  as one run at its document-order position and adding field entries
  under fresh sequence numbers;
* a subtree about to be removed is walked the same way *before* the
  physical removal (handles into it die with it), snapshotting the raw
  field values so the exact entries it contributed can be retracted;
* a text/attribute write re-extracts the raw values of every indexed field
  whose accessor reaches through the changed node and swaps the entries.

Sequence numbers: probe results restore document order by sorting on the
build seq (see :func:`repro.xquery.evaluator._doc_order`), so
maintenance must hand out seqs consistent with document order *within each
indexed extent*.  The benchmark's operation set appends entities at their
container ends (the DTD fixes everything else), so the monotone counter
continued from the build walk preserves that invariant; the differential
tests in tests/test_update.py verify it against scratch reloads.

The wholesale :func:`rebuild` (drop + :func:`build_index_set`) is what a
sharded store runs on a dirty shard before its next probe — a delegated
mutation bypasses the shard's own deltas
(:meth:`repro.shard.store.ShardedStore.ensure_shard_indexes`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.index.builder import IndexSet, build_index_set, extract_values
from repro.index.spec import VALUE
from repro.storage.interface import splice_subtree

FieldKey = tuple[tuple[str, ...], tuple[str, ...]]


def _field_index(index_set: IndexSet, field_spec):
    if field_spec.kind == VALUE:
        return index_set.values[field_spec.key]
    return index_set.sorteds[field_spec.key]


def walk_subtree(store, node, path: tuple[str, ...], stop_tags: frozenset[str]):
    """Pre-order ``(handle, path)`` pairs of a subtree, recording stop-tag
    roots but never descending into them — the builder's walk, verbatim."""
    stack = [(node, path)]
    while stack:
        current, current_path = stack.pop()
        yield current, current_path
        if current_path[-1] not in stop_tags:
            for child in reversed(store.children(current)):
                stack.append((child, current_path + (store.tag(child),)))


def _touch_counters(index, raws: list, delta: int) -> None:
    index.extent_size += delta
    if not raws:
        index.nodes_empty += delta
    elif len(raws) > 1:
        index.nodes_multi += delta


def apply_insertion(store, index_set: IndexSet, node,
                    path: tuple[str, ...]) -> int:
    """Index an inserted subtree; returns nodes walked.

    Field entries are per-node deltas under fresh seqs; the path extents,
    on a set that has a path index, take the subtree as one run per label
    path
    (:func:`~repro.storage.interface.splice_subtree`), placed on the
    store's ``order_key`` — on the stores that renumber lazily, going
    through ``doc_position`` would force an O(document) rank relabel
    into the write path, which is exactly the cost incremental
    maintenance exists to avoid.
    """
    started = time.perf_counter()
    fields_at = index_set.fields_at
    subtree = list(walk_subtree(store, node, path, index_set.spec.stop_tags))
    for current, current_path in subtree:
        seq = index_set.next_seq
        index_set.next_seq += 1
        for field_spec in fields_at.get(current_path, ()):
            index = _field_index(index_set, field_spec)
            raws = extract_values(store, current, field_spec.accessor)
            _touch_counters(index, raws, +1)
            for raw in raws:
                index.insert(raw, seq, current)
    if index_set.paths is not None:
        splice_subtree(store, subtree, index_set.paths.extent)
    index_set.deltas_applied += len(subtree)
    index_set.maintenance_seconds += time.perf_counter() - started
    return len(subtree)


@dataclass(slots=True)
class RemovalPlan:
    """Everything a subtree removal retracts, snapshotted pre-removal."""

    nodes: list[tuple[object, tuple[str, ...]]] = field(default_factory=list)
    field_entries: list[tuple[FieldKey, str, object, list]] = field(default_factory=list)


def plan_removal(store, index_set: IndexSet, node,
                 path: tuple[str, ...]) -> RemovalPlan:
    """Snapshot the entries a subtree contributed (call BEFORE removing)."""
    fields_at = index_set.fields_at
    plan = RemovalPlan()
    for current, current_path in walk_subtree(store, node, path,
                                              index_set.spec.stop_tags):
        plan.nodes.append((current, current_path))
        for field_spec in fields_at.get(current_path, ()):
            raws = extract_values(store, current, field_spec.accessor)
            plan.field_entries.append(
                (field_spec.key, field_spec.kind, current, raws))
    return plan


def apply_removal(index_set: IndexSet, plan: RemovalPlan) -> int:
    """Retract a removed subtree's entries (call AFTER removing)."""
    started = time.perf_counter()
    paths = index_set.paths
    if paths is not None:
        for handle, node_path in plan.nodes:
            paths.remove(node_path, handle)
    for (field_path, accessor), kind, handle, raws in plan.field_entries:
        index = (index_set.values[(field_path, accessor)] if kind == VALUE
                 else index_set.sorteds[(field_path, accessor)])
        _touch_counters(index, raws, -1)
        for raw in raws:
            index.remove(raw, handle)
    index_set.deltas_applied += len(plan.nodes)
    index_set.maintenance_seconds += time.perf_counter() - started
    return len(plan.nodes)


@dataclass(slots=True)
class ValueChangePlan:
    """Old raw values of every field a scalar write reaches through."""

    entries: list[tuple[object, object, list]] = field(default_factory=list)
    # (field_spec, extent_handle, old_raws)


def _accessor_targets(accessor: tuple[str, ...]) -> tuple[tuple[str, ...], str]:
    """``(element steps, terminal kind)`` of an accessor: the terminal is
    ``"text"``/an attribute name/``"value"`` (element-valued accessors read
    whole string values)."""
    if accessor[-1] == "text()":
        return accessor[:-1], "text"
    if accessor[-1].startswith("@"):
        return accessor[:-1], accessor[-1][1:]
    return accessor, "value"


def plan_value_change(store, index_set: IndexSet, node, path: tuple[str, ...],
                      kind: str, attr: str | None = None) -> ValueChangePlan:
    """Snapshot fields affected by a scalar write at ``node`` (pre-write).

    ``kind`` is ``"text"`` or ``"attribute"``; the affected fields are the
    spec entries whose extent path prefixes ``path`` and whose accessor
    reaches the written slot.
    """
    plan = ValueChangePlan()
    for field_spec in index_set.spec.fields:
        extent_path = field_spec.path
        if path[:len(extent_path)] != extent_path:
            continue
        steps, terminal = _accessor_targets(field_spec.accessor)
        relative = path[len(extent_path):]
        if terminal == "value":
            if relative[:len(steps)] != steps and steps[:len(relative)] != relative:
                continue                # accessor subtree does not meet the write
        else:
            if relative != steps:
                continue
            if kind == "text" and terminal != "text":
                continue
            if kind == "attribute" and terminal != attr:
                continue
        extent_node = node
        for _ in range(len(relative)):
            extent_node = store.parent(extent_node)
        raws = extract_values(store, extent_node, field_spec.accessor)
        plan.entries.append((field_spec, extent_node, raws))
    return plan


def apply_value_change(store, index_set: IndexSet, plan: ValueChangePlan) -> int:
    """Swap the snapshotted entries for freshly extracted ones (post-write)."""
    started = time.perf_counter()
    touched = 0
    for field_spec, extent_node, old_raws in plan.entries:
        index = _field_index(index_set, field_spec)
        seq = None
        for raw in old_raws:
            if seq is None:
                seq = index.seq_of(raw, extent_node)
            index.remove(raw, extent_node)
        new_raws = extract_values(store, extent_node, field_spec.accessor)
        _touch_counters(index, old_raws, -1)
        _touch_counters(index, new_raws, +1)
        if seq is None:                 # node had no live entries: fresh seq
            seq = index_set.next_seq
            index_set.next_seq += 1
        for raw in new_raws:
            index.insert(raw, seq, extent_node)
        touched += 1
    index_set.deltas_applied += touched
    index_set.maintenance_seconds += time.perf_counter() - started
    return touched


def rebuild(store) -> IndexSet | None:
    """Reconstruct the entire IndexSet (a dirty shard's catch-up)."""
    spec = store.index_spec()
    if spec is None:
        return None
    store.indexes = build_index_set(store, spec)
    return store.indexes
