"""Store-bound variables: the emitter's proof that a variable holds only
store nodes is never wrong, and the one store call it buys does the same
work the step kernels did.

A path from a variable the emitter proved store-bound navigates the store
directly, and a value path from it (plain named child steps, then
``text()`` or ``@name``) is one ``Store.values_by_path`` call per context
node; any other variable goes through the type-testing ``Navigator``.  The
matrix below roots every kind of relative path at every kind of binding —
proved and not — and holds each answer, eager and streamed, on A–G and a
two-shard store, to eager G's.  A proof that admitted a constructed row
would hand a ``Fragment`` to a store method and fail or differ here.
"""

from __future__ import annotations

import types

import pytest
from hypothesis import HealthCheck, given, settings

from repro.benchmark.queries import query_text
from repro.benchmark.systems import SYSTEMS, get_profile, make_store
from repro.errors import XMarkError
from repro.shard import ShardedStore
from repro.shard.scatter import SHARDED_PROFILE
from repro.storage.interface import Store
from repro.xquery import evaluator
from repro.xquery.evaluator import _Runtime, evaluate, evaluate_stream
from repro.xquery.planner import compile_query

from test_joins import SHARD_BACKENDS
from test_text_heap import MIXED, apply_text_op, preorder, text_ops

#: A constructed person with text before, between and after its children,
#: repeated children and attributes at every depth.
CTOR = ('<person id="c1">t0<name>Ann</name><profile income="9">'
        '<interest category="k1"/><interest category="k2"/><age>3</age>'
        '</profile><address><city>X</city><city>Y</city></address>'
        '<watches><watch open_auction="w1"/></watches>t1</person>')

#: Relative paths after ``$v``: lead runs of 0, 1 and 2 named child steps,
#: ending in ``@name``, ``text()`` or an element step, with and without
#: predicates, and through a ``//`` step.
TAILS = (
    "/@id", "/text()", "/name/text()", "/profile/@income",
    "/address/city/text()", "/profile/interest/@category",
    "/name", "/profile/interest",
    "/watches/watch[1]/@open_auction", "/profile[@income]/age/text()",
    "/address[city]/city[2]/text()", "//interest/@category",
)

#: Binding kind -> (query over ``$vTAIL``, whether ``$v`` is proved).
BINDINGS = {
    "for": ("for $v in /site/people/person return <r>{$vTAIL}</r>", True),
    "let": ("for $p in /site/people/person let $v := $p "
            "return <r>{$vTAIL}</r>", True),
    "let_many": ("let $v := /site/people/person return <r>{$vTAIL}</r>",
                 True),
    "filter": ("for $p in /site/people/person let $v := $p[1] "
               "return <r>{$vTAIL}</r>", True),
    "join": ("for $c in /site/closed_auctions/closed_auction "
             "let $l := for $v in /site/people/person "
             "where $v/@id = $c/buyer/@person return <r>{$vTAIL}</r> "
             "return <c>{$l}</c>", True),
    "some": ("for $p in /site/people/person return "
             "<r>{some $v in $p satisfies empty($vTAIL)}</r>", True),
    "flwor_store": ("for $p in /site/people/person "
                    "let $v := for $q in $p return $q "
                    "return <r>{$vTAIL}</r>", True),
    "param": ("declare function local:f($v) { <r>{$vTAIL}</r> }; "
              "for $p in /site/people/person return local:f($p)", False),
    "param_ctor": ("declare function local:f($v) { <r>{$vTAIL}</r> }; "
                   f"local:f({CTOR})", False),
    "ctor": (f"let $v := {CTOR} return <r>{{$vTAIL}}</r>", False),
    "some_ctor": (f"some $v in {CTOR} satisfies empty($vTAIL)", False),
    "if": ("for $p in /site/people/person "
           f"let $v := if ($p/@id = \"person0\") then {CTOR} else $p "
           "return <r>{$vTAIL}</r>", False),
    "flwor_ctor": ("let $v := for $q in /site/people/person "
                   "return <person id=\"{$q/@id}\">{$q/name}{$q/profile}</person> "
                   "return <r>{$vTAIL}</r>", False),
}

#: The context item of a predicate: store nodes under a proved root,
#: constructed ones under a constructor.
PREDICATES = {
    "store": "for $v in /site/people/person return <r>{$v[TAIL]/@id}</r>",
    "ctor": f"let $v := {CTOR} return <r>{{$v[TAIL]/@id}}</r>",
}


def query(template: str, tail: str) -> str:
    return template.replace("TAIL", tail)


def profile_of(name: str):
    return SHARDED_PROFILE if name.startswith("S") else get_profile(name)


@pytest.fixture(scope="module")
def stores(loaded_stores, small_text):
    """A–G and a mixed-backend store of two shards, over the small text."""
    sharded = ShardedStore(2, SHARD_BACKENDS)
    sharded.load(small_text)
    return {**loaded_stores, "S2": sharded}


def outcome(compiled, streamed: bool):
    """The serialized answer, or the type of the error it raised."""
    try:
        if streamed:
            return evaluate_stream(compiled).drain().serialize()
        return evaluate(compiled).serialize()
    except XMarkError as error:
        return type(error)


def assert_everywhere_like_eager_g(stores, text: str):
    expected = outcome(compile_query(text, stores["G"], get_profile("G")), False)
    for name, store in sorted(stores.items()):
        compiled = compile_query(text, store, profile_of(name))
        assert outcome(compiled, False) == expected, f"{name} eager: {text}"
        assert outcome(compiled, True) == expected, f"{name} streamed: {text}"
    return expected


class TestNeverWrong:
    @pytest.mark.parametrize("binding", sorted(BINDINGS))
    def test_every_tail_equals_eager_g(self, stores, binding):
        template, _proved = BINDINGS[binding]
        answers = {assert_everywhere_like_eager_g(stores, query(template, tail))
                   for tail in TAILS}
        assert len(answers) > 2 or binding.startswith("some")  # tails reach things

    @pytest.mark.parametrize("context", sorted(PREDICATES))
    def test_predicate_context_equals_eager_g(self, stores, context):
        for tail in TAILS:
            if not tail.startswith("//"):
                assert_everywhere_like_eager_g(
                    stores, query(PREDICATES[context], tail[1:]))

    def test_constructed_rows_still_navigate(self, stores):
        text = "let $x := <a><b>t</b><b>u</b></a> return $x/b/text()"
        assert assert_everywhere_like_eager_g(stores, text) == "t\nu"
        assert assert_everywhere_like_eager_g(
            stores, f"<r>{{{text}}}</r>") == "<r>t u</r>"

    @pytest.mark.parametrize("binding", sorted(BINDINGS))
    def test_the_proof_is_what_the_binding_allows(self, stores, binding):
        template, proved = BINDINGS[binding]
        for name in ("B", "D", "G"):
            compiled = compile_query(query(template, "/name/text()"),
                                     stores[name], get_profile(name))
            assert dict(compiled.navigation)["v"] is proved, name

    def test_value_steps_are_never_proved(self, stores):
        """A variable holding ``text()`` or ``@name`` values holds strings."""
        for tail in ("name/text()", "@id", "profile/@income"):
            compiled = compile_query(
                f"for $p in /site/people/person let $v := $p/{tail} "
                "for $w in $p/name return <r>{$v}{$w/text()}</r>",
                stores["D"], get_profile("D"))
            assert dict(compiled.navigation) == {"p": True, "v": False, "w": True}


class TestSameWork:
    """One ``values_by_path`` call does what the kernels it replaces did:
    the same strings and the same ``nodes_visited``."""

    @staticmethod
    def counted(store, node, path, attribute) -> tuple[list, int]:
        before = store.stats.nodes_visited
        value = store.values_by_path(node, path, attribute)
        return value, store.stats.nodes_visited - before

    def assert_like_the_default(self, store) -> int:
        """D's answer and visits against the interface default's, for
        every node, every run of up to two child steps below it that
        reaches something (and one that reaches nothing), and ``text()``
        or every attribute name found there; returns how many answers
        were not empty."""
        checked = 0
        for node in preorder(store):
            children = store.children(node)[:2]
            paths = [(), ("missing",), *((store.tag(child),) for child in children),
                     *((store.tag(child), store.tag(grand)) for child in children
                       for grand in store.children(child)[:2])]
            for path in paths:
                attributes = sorted({name for found in store.children_by_path(node, path)
                                     for name in store.attributes(found)})
                for attribute in [None, "missing", *attributes]:
                    own = self.counted(store, node, path, attribute)
                    # Instance attributes shadow the overrides, so the
                    # default's own calls stay generic too.
                    store.values_by_path = types.MethodType(Store.values_by_path, store)
                    store.children_by_path = types.MethodType(Store.children_by_path,
                                                              store)
                    try:
                        default = self.counted(store, node, path, attribute)
                    finally:
                        del store.values_by_path, store.children_by_path
                    assert own == default, (node, path, attribute)
                    checked += bool(own[0])
        return checked

    def test_every_node_of_the_tiny_document(self, tiny_text):
        store = make_store("D")
        store.load(tiny_text)
        assert self.assert_like_the_default(store) > 1000

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=text_ops)
    def test_after_any_history(self, ops):
        store = make_store("D")
        store.load(MIXED)
        for op in ops:
            apply_text_op(store, op)
        self.assert_like_the_default(store)

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_q1_to_q20_count_what_the_navigator_path_counts(
            self, loaded_stores, system, monkeypatch):
        """The PROFILE facts and the store's work counters of every
        benchmark query are those of the plan that proves nothing (every
        relative path through the ``Navigator`` and its kernels)."""
        store, profile = loaded_stores[system], get_profile(system)

        def counters(number: int) -> tuple:
            compiled = compile_query(query_text(number), store, profile)
            rt = _Runtime(compiled.frame_size, False, compiled.values)
            store.stats.reset()
            items = compiled.run(rt)
            return (len(items), rt.facts(), store.stats.nodes_visited,
                    store.stats.index_lookups)

        proved = [counters(number) for number in range(1, 21)]
        monkeypatch.setattr(evaluator, "store_bound", lambda *args: False)
        assert proved == [counters(number) for number in range(1, 21)]
