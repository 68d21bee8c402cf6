"""System D's text heap: every read of text answers what the walk answered.

D keeps all loaded text in one document-ordered string and two offsets per
node; a write materialises the node it changes into an overlay.  These
cells hold D's text reads — ``string_value``, ``child_texts``, ``content``,
``markup`` and ``build_dom`` — to F's (per-node ``str`` runs) and G's (a
DOM) on a loaded store and after random write histories, count what a
heap slice costs, recompute D's ``size_bytes`` from its parts, and check
that a removal merges the text runs it makes adjacent on every system
that removes.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchmark.queries import query_text
from repro.benchmark.systems import get_profile, make_store
from repro.xmlio.dom import Element
from repro.xmlio.serialize import serialize
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import compile_query

#: Mixed content at every depth, runs needing escapes, a CDATA section,
#: empty elements and text-only leaves.
MIXED = ("<a>x<b>1 &amp; 2<c/>y</b>z<c>w<a/>v<b>&lt;t&gt;</b></c><b/>"
         "<a><![CDATA[<raw>]]>q<c>s</c></a>tail</a>")

TAGS = ("a", "b", "c")
TEXTS = ("", "g", "gold & <lead>", "two words")


def preorder(store) -> list:
    order, stack = [], [store.root()]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(store.children(node)))
    return order


def shape(store, node) -> list:
    """``content`` with each child as its tag: comparable across stores."""
    return [part if isinstance(part, str) else store.tag(part)
            for part in store.content(node)]


def reads(store, node) -> tuple:
    return (store.string_value(node), store.child_texts(node), shape(store, node),
            store.markup(node), serialize(store.build_dom(node)))


def assert_text_reads_agree(stores: dict) -> None:
    orders = {name: preorder(store) for name, store in stores.items()}
    assert len({len(order) for order in orders.values()}) == 1
    for nodes in zip(*orders.values()):
        answers = [reads(store, node) for store, node in zip(stores.values(), nodes)]
        assert answers[0] == answers[1] == answers[2], nodes


def inserted(size: int, seed: int) -> Element:
    """A subtree of ``size`` elements with text before, between and after
    its children."""
    root = Element(TAGS[seed % 3])
    root.append_text(TEXTS[1 + seed % 3])
    parent = root
    for offset in range(1, size):
        child = parent.append(Element(TAGS[(seed + offset) % 3]))
        parent.append_text(TEXTS[1 + (seed + offset) % 3])
        if offset % 2:
            parent = child
    return root


text_ops = st.lists(
    st.tuples(st.sampled_from(("insert", "insert", "remove", "set_text",
                               "set_attribute")),
              st.integers(0, 10 ** 6),                  # which live node
              st.sampled_from(("first", "middle", "last", None)),
              st.integers(0, 3)),                       # size or text choice
    min_size=1, max_size=20)


def apply_text_op(store, op) -> None:
    kind, pick, slot, choice = op
    order = preorder(store)
    target = order[pick % len(order)]
    if kind == "remove":
        if len(order) > 1:
            store.remove_node(order[1 + pick % (len(order) - 1)])
    elif kind == "set_text":
        store.set_text(target, TEXTS[choice])
    elif kind == "set_attribute":
        store.set_attribute(target, "k", TEXTS[choice])
    else:
        count = len(store.children(target))
        index = {"first": 0, "middle": count // 2, "last": count, None: None}[slot]
        store.insert_child(target, inserted(1 + choice, pick), index)


def test_loaded_reads_agree():
    stores = {name: make_store(name) for name in "DFG"}
    for store in stores.values():
        store.load(MIXED)
    assert_text_reads_agree(stores)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=text_ops)
def test_reads_agree_after_any_history(ops):
    stores = {name: make_store(name) for name in "DFG"}
    for store in stores.values():
        store.load(MIXED)
    for op in ops:
        for store in stores.values():
            apply_text_op(store, op)
        assert_text_reads_agree(stores)


def test_generated_document_reads_agree(tiny_text):
    stores = {name: make_store(name) for name in "DFG"}
    for store in stores.values():
        store.load(tiny_text)
    assert_text_reads_agree(stores)


# -- what a slice costs --------------------------------------------------------------


def descriptions(store) -> list:
    items = store.descendants_by_tag(store.root(), "item")
    return [store.children_by_tag(item, "description")[0] for item in items]


def counted(store, node) -> tuple[str, int, int]:
    stats = store.stats
    visited, lookups = stats.nodes_visited, stats.index_lookups
    value = store.string_value(node)
    return value, stats.nodes_visited - visited, stats.index_lookups - lookups


def depth(store, node) -> int:
    steps = 0
    while (node := store.parent(node)) is not None:
        steps += 1
    return steps


def test_a_clean_subtree_is_one_lookup(tiny_text):
    store = make_store("D")
    store.load(tiny_text)
    for node in [store.root(), *descriptions(store)]:
        _value, visited, lookups = counted(store, node)
        assert (visited, lookups) == (0, 1)


def test_after_a_write_only_the_touched_chain_walks(tiny_text):
    """``set_text`` on one text inside one item's description: every other
    description is still one slice, that one walks only the touched chain
    (each node from it down to the written one, slicing the clean
    subtrees beside it), and Q14 finds "gold" there as G does."""
    stores = {name: make_store(name) for name in "DG"}
    for store in stores.values():
        store.load(tiny_text)
    d, g = stores["D"], stores["G"]
    owners = descriptions(d)
    chosen = owners[len(owners) // 2]
    written = d.descendants_by_tag(chosen, "text")[0]
    position = preorder(d).index(written)
    d.set_text(written, "a gold ring")
    g.set_text(preorder(g)[position], "a gold ring")
    for node in owners:
        value, visited, lookups = counted(d, node)
        if node == chosen:
            assert "a gold ring" in value
            assert visited == depth(d, written) - depth(d, chosen) + 1
        else:
            assert (visited, lookups) == (0, 1)
    _value, visited, _lookups = counted(d, d.root())
    assert visited == depth(d, written) + 1
    answers = {name: evaluate(compile_query(query_text(14), store, get_profile(name)))
               for name, store in stores.items()}
    assert answers["D"].canonical() == answers["G"].canonical()
    assert d.string_value(d.children_by_tag(d.parent(chosen), "name")[0]) \
        in answers["D"].serialize()


# -- honest size accounting ----------------------------------------------------------------


def test_size_bytes_is_the_sum_of_its_parts(tiny_text):
    """Recomputed from the parts: the columns, the heap and its offsets,
    the attribute dicts, the non-empty child tuples, the overlay with its
    runs and the touched nodes, the summary and the ID index."""
    store = make_store("D")
    store.load(tiny_text)
    nodes = preorder(store)
    store.set_text(nodes[len(nodes) // 3], "written")
    store.insert_child(nodes[len(nodes) // 2], inserted(3, 1))
    getsizeof = sys.getsizeof
    expected = sum(getsizeof(part) for part in (
        store._tags, store._parents, store._posts, store._attrs, store._content,
        store._heap, store._lo, store._hi, store._labels, store._overlay,
        store._touched))
    for attrs in store._attrs:
        if attrs:
            expected += getsizeof(attrs) + sum(
                getsizeof(name) + getsizeof(value) for name, value in attrs.items())
    expected += sum(getsizeof(children) for children in store._content if children)
    for parts in store._overlay.values():
        expected += getsizeof(parts) + sum(
            getsizeof(part) for part in parts if isinstance(part, str))
    expected += sum(getsizeof(node) for node in store._touched)
    expected += store.summary.size_bytes()
    expected += getsizeof(store._id_index) + 16 * len(store._id_index)
    assert store.size_bytes() == expected
    assert len(store._overlay) == 3 + 2      # inserted nodes, two written
    assert len(store._heap) < len(tiny_text)


# -- a removal merges the runs it makes adjacent ------------------------------------------


@pytest.mark.parametrize("name", ("A", "B", "D", "E", "F", "G"))
def test_removal_merges_adjacent_runs(name):
    """``x<b/>y`` less ``b`` is one run ``xy``, as the checkpoint's text
    reloads it: the live store answers what its recovered image does."""
    store = make_store(name)
    store.load("<a>x<b>1</b>y<c/>z</a>")
    root = store.root()
    store.remove_node(store.children(root)[0])
    assert store.child_texts(root) == ["xy", "z"]
    reloaded = make_store(name)
    reloaded.load(store.markup(root))
    again = reloaded.root()
    assert reads(store, root) == reads(reloaded, again)
    assert shape(store, root) == ["xy", "c", "z"]
