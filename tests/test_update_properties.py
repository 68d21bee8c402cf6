"""Property-based update invariants (hypothesis).

Random interleavings of the four update operations must preserve, on every
examined store architecture and with incremental index maintenance:

(a) probe == scan on every indexed field — a value/sorted index probe
    names exactly the nodes a navigation scan of the extent names, and the
    path index's extents equal the walked extents in document order;
(b) DTD validity of the serialized document (referential integrity
    included: the cascades must never leave a dangling IDREF);
(c) digest discipline — the document digest changes with every applied
    operation, identically across stores sharing the lineage, and stays
    put when nothing is applied.

The examined systems cover the architecture families: A (generic
relational heap), C (DTD-derived inlined schema), D (main-memory +
structural summary), G (naive DOM).  The conformance suite
(tests/test_update.py) covers all seven on a fixed script; here the
*sequences* are adversarial and the properties are structural.

(d) order labels — on the three label-keeping stores (D, E, F), raw
    ``insert_child`` at any slot, inside inserted subtrees too, and
    ``remove_node`` keep ``doc_position`` sorting live nodes into
    pre-order and every descendant step equal to a walk's answer.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchmark.systems import make_store
from repro.index.builder import extract_values
from repro.index.indexes import normalize_key
from repro.index.spec import VALUE
from repro.schema.auction import REFERENCE_TARGETS, auction_dtd
from repro.schema.validator import validate
from repro.update import UpdateStream, apply_update, serialize_store
from repro.xmlio.dom import Element
from repro.xmlio.parser import parse

PROPERTY_SYSTEMS = ("A", "C", "D", "G")

#: Paths whose extents the path-index property walks (entity-level plus
#: the mid-extent-insert case: bidders land inside existing auctions).
CHECKED_PATHS = (
    ("site", "people", "person"),
    ("site", "open_auctions", "open_auction"),
    ("site", "open_auctions", "open_auction", "bidder"),
    ("site", "closed_auctions", "closed_auction"),
    ("site", "regions", "europe", "item"),
)

op_kinds = st.lists(
    st.sampled_from(("register_person", "place_bid", "place_bid",
                     "close_auction", "delete_item")),
    min_size=1, max_size=6)


def walk_extent(store, path):
    nodes = [store.root()]
    for tag in path[1:]:
        nodes = [child for node in nodes
                 for child in store.children_by_tag(node, tag)]
    return nodes


def apply_sequence(store, kinds, seed=7):
    """Apply a kind sequence (substituting register_person when a kind has
    no eligible target) and return the concrete operations applied."""
    stream = UpdateStream(store, seed=seed)
    applied = []
    for kind in kinds:
        if not stream._eligible(kind):
            kind = "register_person"
        op = stream.next_op(kind)
        stream.note_applied(op)
        apply_update(store, op)
        applied.append(op)
    return applied


def assert_probe_equals_scan(store) -> None:
    index_set = store.indexes
    assert index_set is not None
    for field in index_set.spec.fields:
        extent = walk_extent(store, field.path)
        expected: dict = {}
        for node in extent:
            for raw in extract_values(store, node, field.accessor):
                key = normalize_key(raw)
                if key is None:
                    continue
                bucket = expected.setdefault(key, [])
                if node not in bucket:
                    bucket.append(node)
        if field.kind == VALUE:
            index = index_set.values[field.key]
            assert index.extent_size == len(extent), field.label
            for key, nodes in expected.items():
                probed = [handle for _seq, handle in index.probe(key)]
                assert sorted(map(repr, probed)) == sorted(map(repr, nodes)), \
                    (field.label, key)
                positions = [store.doc_position(handle) for handle in probed]
                assert positions == sorted(positions), (field.label, key)
        else:
            index = index_set.sorteds[field.key]
            numeric = {key: nodes for key, nodes in expected.items()
                       if isinstance(key, float)}
            assert index.entries == sum(len(n) for n in numeric.values()), \
                field.label
            for key, nodes in numeric.items():
                matched = [handle for _seq, handle
                           in index.pairs(*index.window("=", key))]
                assert sorted(map(repr, matched)) == sorted(map(repr, nodes)), \
                    (field.label, key)
    # The extent a path plan reads: D's summary, the path index elsewhere.
    extent_of = (store.nodes_at_path if store.native_path_extents
                 else index_set.paths.nodes)
    for path in CHECKED_PATHS:
        extent = extent_of(path)
        expected_nodes = walk_extent(store, path)
        assert [repr(n) for n in extent] == [repr(n) for n in expected_nodes], \
            (path, len(extent), len(expected_nodes))


@pytest.fixture(scope="module")
def loaded_fresh(tiny_text):
    """Factory: a freshly loaded store per (system, example)."""
    def make(system):
        store = make_store(system)
        store.load(tiny_text)
        return store
    return make


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kinds=op_kinds)
@pytest.mark.parametrize("system", PROPERTY_SYSTEMS)
def test_probe_equals_scan_under_incremental_maintenance(
        system, loaded_fresh, kinds):
    store = loaded_fresh(system)
    apply_sequence(store, kinds)
    assert_probe_equals_scan(store)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kinds=op_kinds)
@pytest.mark.parametrize("system", ("C", "G"))
def test_serialized_document_stays_dtd_valid(system, loaded_fresh, kinds):
    store = loaded_fresh(system)
    apply_sequence(store, kinds)
    report = validate(parse(serialize_store(store)), auction_dtd(),
                      REFERENCE_TARGETS)
    assert report.ok, report.violations[:5]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kinds=op_kinds)
def test_digest_changes_iff_document_changes(loaded_fresh, kinds):
    first = loaded_fresh("D")
    initial = first.document_digest()
    applied = apply_sequence(first, kinds)
    assert len(applied) == len(kinds)
    # Every applied operation changed the document, so the digest moved.
    assert first.document_digest() != initial
    # An identical lineage reproduces the identical digest...
    second = loaded_fresh("A")
    assert second.document_digest() == initial
    for op in applied:
        apply_update(second, op)
    assert second.document_digest() == first.document_digest()
    # ...and zero applied operations leave the digest untouched.
    untouched = loaded_fresh("G")
    assert untouched.document_digest() == initial


LABEL_SYSTEMS = ("D", "E", "F")
LABEL_TAGS = ("a", "b", "c")
LABEL_DOCUMENT = ("<a>x<b><c/>y<a><b/><c>z</c></a></b><c><a/><b><c/><a/></b></c>"
                  "<b><a><c/></a></b><a/></a>")

label_ops = st.lists(
    st.tuples(st.sampled_from(("insert", "insert", "insert", "remove")),
              st.integers(0, 10 ** 6),                  # which live node
              st.sampled_from(("first", "middle", "last")),
              st.integers(1, 4)),                       # inserted subtree size
    min_size=1, max_size=25)


def labelled_subtree(size: int, seed: int) -> Element:
    """A pre-order subtree of ``size`` elements: a chain, then siblings."""
    root = Element(LABEL_TAGS[seed % 3])
    parent = root
    for offset in range(1, size):
        child = parent.append(Element(LABEL_TAGS[(seed + offset) % 3]))
        if offset % 2:
            parent = child
    return root


def preorder(store) -> list:
    order, stack = [], [store.root()]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(store.children(node)))
    return order


def assert_order_labels(store) -> None:
    order = preorder(store)
    assert sorted(order, key=store.doc_position) == order
    size = {}
    for node in reversed(order):
        size[node] = 1 + sum(size[child] for child in store.children(node))
    for at, node in enumerate(order):
        below = order[at + 1:at + size[node]]
        for tag in LABEL_TAGS:
            assert store.descendants_by_tag(node, tag) == [
                n for n in below if store.tag(n) == tag], (node, tag)
    if hasattr(store, "all_with_tag"):
        for tag in LABEL_TAGS:
            assert store.all_with_tag(tag) == [
                n for n in order if store.tag(n) == tag]


def apply_label_op(store, op) -> None:
    kind, pick, slot, size = op
    order = preorder(store)
    if kind == "remove":
        if len(order) > 1:
            store.remove_node(order[1 + pick % (len(order) - 1)])
        return
    target = order[pick % len(order)]
    count = len(store.children(target))
    index = {"first": 0, "middle": count // 2, "last": None}[slot]
    store.insert_child(target, labelled_subtree(size, pick), index)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=label_ops)
@pytest.mark.parametrize("system", LABEL_SYSTEMS)
def test_order_labels_hold_at_any_insert_position(system, ops):
    store = make_store(system)
    store.load(LABEL_DOCUMENT)
    for op in ops:
        apply_label_op(store, op)
        assert_order_labels(store)


@pytest.mark.parametrize("system", LABEL_SYSTEMS)
def test_exhausted_gap_relabels_inserted_nodes_only(system):
    """Sixty inserts at one slot halve the same gap until it is used up;
    the respacing moves no loaded label and keeps every invariant."""
    store = make_store(system)
    store.load(LABEL_DOCUMENT)
    loaded = {node: store.doc_position(node) for node in preorder(store)}
    target = store.children(store.root())[0]
    for seed in range(60):
        store.insert_child(target, labelled_subtree(1 + seed % 3, seed), 1)
    assert store.stats.relabels > 0
    assert {node: store.doc_position(node) for node in loaded} == loaded
    assert_order_labels(store)
