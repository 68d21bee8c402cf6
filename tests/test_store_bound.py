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
from repro.errors import QueryError, XMarkError
from repro.shard import ShardedStore
from repro.shard.scatter import SHARDED_PROFILE
from repro.storage.interface import Store, Twig
from repro.update import RegisterPerson, UpdateStream, apply_update
from repro.xquery import evaluator
from repro.xquery.evaluator import QueryResult, _Runtime, evaluate, evaluate_stream
from repro.xquery.planner import compile_query
from repro.xquery.sequence import DomNavigation, Navigator

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


#: Constructor rows with two or more value paths on one store-bound root:
#: one twig per root, answered once per row.
TWIG_ROWS = {
    "nested": ("for $t in /site/people/person return <p><s>"
               "<a>{$t/profile/age/text()}</a><g>{$t/profile/gender/text()}</g>"
               "<i>{$t/profile/@income}</i></s><c><n>{$t/name/text()}</n>"
               "<r>{$t/address/street/text()}</r><v>{$t/address/city/text()}</v>"
               "</c><e>{$t/emailaddress/text()}</e></p>"),
    "attribute_template": ("for $t in /site/people/person return "
                           '<p id="{$t/@id}" n="{$t/name/text()} / {$t/profile/@income}">'
                           "{$t/address/city/text()}</p>"),
    "literal_text": ("for $t in /site/people/person return <p>name: "
                     "{$t/name/text()}, city {$t/address/city/text()}; "
                     "again {$t/name/text()}</p>"),
    "missing_step": ("for $t in /site/people/person return <p>"
                     "<x>{$t/missing/name/text()}</x>{$t/profile/missing/@income}"
                     "<y>{$t/name/missing/text()}</y>{$t/name/text()}</p>"),
    "let_many": ("let $t := /site/people/person return "
                 '<p n="{$t/name/text()}">{$t/profile/@income}'
                 "<c>{$t/address/city/text()}</c></p>"),
    "own_text": ("for $t in /site/people/person/name return "
                 "<p>{$t/text()}|{$t/@id}</p>"),
    "many_per_step": ("for $t in /site/open_auctions/open_auction return "
                      "<a>{$t/bidder/increase/text()}<s>{$t/seller/@person}</s>"
                      "{$t/bidder/personref/@person}</a>"),
    "two_roots": ("for $t in /site/people/person for $w in $t/watches/watch "
                  "return <p>{$t/name/text()}{$w/@open_auction}{$t/@id}</p>"),
    "not_crossed": ("for $t in /site/people/person return <p>{$t/name/text()}"
                    "{$t/@id}{if ($t/@id) then $t/name/text() else \"none\"}"
                    "{for $w in $t/watches/watch return "
                    "<w>{$w/@open_auction}{$t/name/text()}</w>}"
                    "{string($t/name/text())}</p>"),
    "q10": query_text(10),
}


class TestTwigRows:
    """A constructor's value paths from one store-bound variable are the
    leaves of one twig, answered in one ``values_by_twig`` call per root
    node; every row equals eager G's, eager and streamed, before and after
    writes."""

    @pytest.mark.parametrize("name", sorted(TWIG_ROWS))
    def test_equals_eager_g(self, stores, name, monkeypatch):
        """Eager G runs the twig too, so its answer is held in turn to the
        plan that proves nothing: no twig, every path a Navigator's."""
        text = TWIG_ROWS[name]
        compiled = compile_query(text, stores["D"], get_profile("D"))
        assert any(leaves > 1 for _root, leaves in compiled.twigs)
        expected = assert_everywhere_like_eager_g(stores, text)
        assert len(expected) > 200
        monkeypatch.setattr(evaluator, "store_bound", lambda *args: False)
        plain = compile_query(text, stores["G"], get_profile("G"))
        assert plain.twigs == ()
        assert outcome(plain, False) == expected

    def test_leaves_are_counted_per_root(self, stores):
        twigs = {name: compile_query(TWIG_ROWS[name], stores["D"],
                                     get_profile("D")).twigs
                 for name in ("literal_text", "two_roots", "not_crossed", "q10")}
        assert twigs == {"literal_text": (("t", 2),),
                         "two_roots": (("t", 2), ("w", 1)),
                         "not_crossed": (("w", 1), ("t", 1), ("t", 2)),
                         "q10": (("t", 11),)}

    def test_after_an_update_history(self, small_text, monkeypatch):
        written = {name: make_store(name) for name in "CDG"}
        for store in written.values():
            store.load(small_text)
        ops = UpdateStream(written["G"], seed=32).sequence(40)
        assert any(isinstance(op, RegisterPerson) for op in ops)
        for op in ops:
            for store in written.values():
                apply_update(store, op)
        answers = [assert_everywhere_like_eager_g(written, text)
                   for text in TWIG_ROWS.values()]
        monkeypatch.setattr(evaluator, "store_bound", lambda *args: False)
        assert answers == [outcome(compile_query(text, written["G"], get_profile("G")),
                                   False) for text in TWIG_ROWS.values()]

    def test_an_atomic_root_still_raises(self, stores):
        """A variable holding values is never store-bound: its paths go
        through the ``Navigator`` and fail as they always did."""
        text = ("for $t in /site/people/person/name/text() "
                "return <p>{$t/name/text()}{$t/@id}</p>")
        assert compile_query(text, stores["D"], get_profile("D")).twigs == ()
        assert assert_everywhere_like_eager_g(stores, text) is QueryError


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

    @staticmethod
    def twig_of(store, node) -> Twig:
        """Every value path of up to two child steps below ``node`` (one
        that reaches nothing too), with ``text()``, a missing attribute and
        every attribute name found there, the first leaf given twice."""
        children = store.children(node)[:2]
        paths = [(), ("missing",), *((store.tag(child),) for child in children),
                 *((store.tag(child), store.tag(grand)) for child in children
                   for grand in store.children(child)[:2])]
        leaves = []
        for path in paths:
            attributes = sorted({name for found in store.children_by_path(node, path)
                                 for name in store.attributes(found)})
            leaves += [(path, attribute) for attribute in [None, "missing", *attributes]]
        return Twig([*leaves, leaves[0]])

    def assert_twig_like_the_default(self, store) -> tuple[int, int]:
        """D's one pass against the interface default's call per leaf,
        leaf for leaf, visiting no more nodes, on every node's twig (and
        on its first leaf alone); returns how many leaves were not empty
        and how many visits the one pass saved."""
        checked = saved = 0
        for node in preorder(store):
            whole = self.twig_of(store, node)
            for twig in (whole, Twig(whole.paths[:1])):
                before = store.stats.nodes_visited
                own = store.values_by_twig(node, twig)
                visited = store.stats.nodes_visited - before
                store.values_by_path = types.MethodType(Store.values_by_path, store)
                store.children_by_path = types.MethodType(Store.children_by_path, store)
                try:
                    before = store.stats.nodes_visited
                    default = Store.values_by_twig(store, node, twig)
                    default_visited = store.stats.nodes_visited - before
                finally:
                    del store.values_by_path, store.children_by_path
                assert len(own) == len(twig.paths)
                assert own == default, (node, twig.paths)
                assert visited <= default_visited, (node, twig.paths)
                checked += sum(map(bool, own))
                saved += default_visited - visited
        return checked, saved

    def test_twig_on_every_node_of_the_tiny_document(self, tiny_text):
        store = make_store("D")
        store.load(tiny_text)
        checked, saved = self.assert_twig_like_the_default(store)
        assert checked > 1000 and saved > 1000

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=text_ops)
    def test_twig_after_any_history(self, ops):
        store = make_store("D")
        store.load(MIXED)
        for op in ops:
            apply_text_op(store, op)
        self.assert_twig_like_the_default(store)

    def test_dom_twig_is_its_values_by_path_per_leaf(self, tiny_text):
        """G's navigation answers a twig as the per-leaf calls do, and as
        D answers it on the same node."""
        dom, summary = make_store("G"), make_store("D")
        dom.load(tiny_text)
        summary.load(tiny_text)
        for element, node in zip(preorder(dom), preorder(summary), strict=True):
            twig = self.twig_of(dom, element)
            answer = DomNavigation.values_by_twig(element, twig)
            assert answer == [DomNavigation.values_by_path(element, *path)
                              for path in twig.paths]
            assert answer == summary.values_by_twig(node, twig)

    #: Q10 on D over the small document: the visits of the plan that
    #: proves nothing, and of the twig plan, whose one pass per person
    #: scans ``profile`` and ``address`` once for their seven leaves.
    Q10_ON_D = (781, 325)

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_q1_to_q20_count_what_the_navigator_path_counts(
            self, loaded_stores, system, monkeypatch):
        """The answers and PROFILE facts of every benchmark query are
        those of the plan that proves nothing (every relative path through
        the ``Navigator`` and its kernels), and so are the store's work
        counters — except that D's one pass over a twig of two or more
        leaves visits a shared prefix once, where the default, leaf by
        leaf, visits it once per leaf.  Q10 is the one query with such a
        twig."""
        store, profile = loaded_stores[system], get_profile(system)

        def counters(number: int) -> tuple:
            """``((answer, facts, index lookups), nodes visited, the most
            leaves of any twig)``."""
            compiled = compile_query(query_text(number), store, profile)
            rt = _Runtime(compiled.frame_size, False, compiled.values)
            store.stats.reset()
            items = compiled.run(rt)
            visited = store.stats.nodes_visited
            answer = QueryResult(items, Navigator(store)).serialize()
            leaves = max((count for _name, count in compiled.twigs), default=0)
            return (answer, rt.facts(), store.stats.index_lookups), visited, leaves

        twig_plan = [counters(number) for number in range(1, 21)]
        monkeypatch.setattr(evaluator, "store_bound", lambda *args: False)
        plain = [counters(number) for number in range(1, 21)]
        assert [row[0] for row in twig_plan] == [row[0] for row in plain]
        assert [number for number, row in enumerate(twig_plan, 1) if row[2] > 1] == [10]
        assert not any(row[2] for row in plain)
        visits = [(row[1], twig_row[1]) for row, twig_row in zip(plain, twig_plan)]
        if system == "D":
            assert visits.pop(9) == self.Q10_ON_D
        assert all(twig == navigator for navigator, twig in visits)
