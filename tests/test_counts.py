"""``count``, ``exists`` and ``empty`` of a node path read store handles.

They take the length or truth of the path's raw handles and wrap no
``NodeItem``; a descendant step that only feeds a count asks the store's
``count_descendants`` for one context and counts distinct handles for
several.  Every system must still answer as eager System G does, on the
loaded document and after write histories that insert items under
``/site/regions`` and remove them again.
"""

from __future__ import annotations

import pytest

from repro.benchmark.queries import query_text
from repro.benchmark.systems import SYSTEMS, get_profile, make_store
from repro.index.maintenance import apply_insertion
from repro.update import UpdateStream, apply_update
from repro.xquery import evaluator
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import compile_query
from repro.xquery.sequence import NodeItem

DOC = 'document("auction.xml")'

#: The three cases of a counted descendant step, each as count, exists
#: and empty: a context alone at its summary path (``/site``,
#: ``/site/regions``), one context among several at its path (one region
#: per row), and several contexts in one step (nested ``parlist``s share
#: descendants, which count once).
CELLS = (
    f"for $b in {DOC}/site/regions return count($b//item)",
    f"for $b in {DOC}/site/regions return exists($b//mail)",
    f"for $b in {DOC}/site/regions return empty($b//no_such_tag)",
    f"for $p in {DOC}/site return count($p//description) + "
    "count($p//annotation) + count($p//emailaddress)",
    f"count({DOC}/site//keyword)",
    f"count({DOC}//item)",
    f"for $r in {DOC}/site/regions/* return count($r//item)",
    f"for $r in {DOC}/site/regions/* return exists($r//item)",
    f"for $r in {DOC}/site/regions/* return empty($r//listitem)",
    f"for $r in {DOC}/site/regions/* return count($r//item[location = \"United States\"])",
    f"count({DOC}/site/regions/*//item)",
    f"count({DOC}/site//parlist//listitem)",
    f"count({DOC}/site//parlist//listitem[1])",
    f"count({DOC}/site//parlist//listitem[text])",
    f"exists({DOC}/site/regions/*//no_such_tag)",
    f"empty({DOC}/site/open_auctions/open_auction//bidder)",
    f"for $i in {DOC}/site/regions/africa/item return count($i//text)",
    f"count({DOC}/site/people/person[@id = \"person0\"]//interest)",
)

#: Where the inserted items go: a region's end and a region's start.
INSERTS = (("asia", None), ("africa", 0))


def _answers(store, system: str) -> list[str]:
    return [evaluate(compile_query(text, store, get_profile(system))).serialize()
            for text in CELLS]


def _reference(store, monkeypatch) -> list[str]:
    """Eager G's answers with every call emitted the generic way: the
    argument's items, then the built-in's length or truth of them."""
    with monkeypatch.context() as patch:
        patch.setattr(evaluator, "_SIZED", frozenset())
        return _answers(store, "G")


def _insert_items(store, source) -> None:
    """Copies of ``source`` (an item element) under two regions, indexed
    as the update engine indexes an insert."""
    root = store.root()
    regions = store.children_by_tag(root, "regions")[0]
    for number, (region, index) in enumerate(INSERTS):
        element = source.copy()
        element.attributes["id"] = f"item_inserted{number}"
        parent = store.children_by_tag(regions, region)[0]
        handle = store.insert_child(parent, element, index)
        if store.indexes is not None:
            apply_insertion(store, store.indexes, handle,
                            ("site", "regions", region, "item"))


def _history(text: str, seed: int) -> list:
    """Thirty operations of the default mix (its ``delete_item``s remove
    items from the regions)."""
    reference = make_store("D")
    reference.load(text)
    return UpdateStream(reference, seed=seed).sequence(30)


def test_counted_paths_answer_as_eager_g_on_the_loaded_document(
        loaded_stores, monkeypatch):
    expected = _reference(loaded_stores["G"], monkeypatch)
    assert expected[0] != "0" and expected[-1] != ""
    for system in sorted(SYSTEMS):
        assert _answers(loaded_stores[system], system) == expected, system


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_counted_paths_answer_as_eager_g_after_writes(tiny_text, seed,
                                                      monkeypatch):
    history = _history(tiny_text, seed)
    reference = make_store("G")
    reference.load(tiny_text)
    source = reference.build_dom(
        reference.descendants_by_tag(reference.root(), "item")[0])
    loaded = _reference(reference, monkeypatch)
    _insert_items(reference, source)
    for op in history:
        apply_update(reference, op)
    written = _reference(reference, monkeypatch)
    assert loaded != written            # the writes moved the counts
    for system in sorted(SYSTEMS):
        store = make_store(system)
        store.load(tiny_text)
        assert _answers(store, system) == loaded, system
        _insert_items(store, source)
        for op in history:
            apply_update(store, op)
        assert _answers(store, system) == written, system


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_q6_and_q7_wrap_no_counted_node(loaded_stores, system, monkeypatch):
    """With ``NodeItem`` swapped for a counting subclass, Q6 and Q7 make
    one item each: the node their ``for`` binds.  None is made for a node
    that ``count`` only counts, nor for a counted path whose access plan
    answers its last step."""
    made = []

    class CountingItem(NodeItem):
        __slots__ = ()

        def __init__(self, handle) -> None:
            made.append(handle)
            super().__init__(handle)

    monkeypatch.setattr(evaluator, "NodeItem", CountingItem)
    store = loaded_stores[system]
    for text, bound in ((query_text(6), 1), (query_text(7), 1),
                        (f"count({DOC}/site/people/person)", 0)):
        compiled = compile_query(text, store, get_profile(system))
        made.clear()
        result = evaluate(compiled)
        assert int(result.items[0]) > 1
        assert len(made) == bound, (text, len(made))
