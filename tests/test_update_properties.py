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
    paths = index_set.paths
    for path in CHECKED_PATHS:
        extent = paths.nodes(path)
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
