"""The join operator: one build, three probes, one answer.

A correlated ``let`` is planned as a hash, sorted or nested-loop join
depending on the operator and the system profile, and on D the build side
may be a secondary index instead of a per-query build.  Whatever the plan,
the answer must be byte-identical to System G's, which plans nothing and
re-evaluates the inner FLWOR for every outer binding.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmark.queries import query_text
from repro.benchmark.systems import SYSTEMS, get_profile, make_store
from repro.db import connect
from repro.xquery.evaluator import evaluate, evaluate_stream
from repro.xquery.planner import SystemProfile, compile_query
from repro.xquery.sequence import general_compare

OUTER = {
    # name: (extent, key relative to $o, scale that makes `scaled` overlap it)
    "income": ("/site/people/person", "$o/profile/@income", "5000"),
    "increases": ("/site/open_auctions/open_auction", "$o/bidder/increase", "0.1"),
    "id": ("/site/people/person", "$o/@id", None),
    "watches": ("/site/people/person", "$o/watches/watch/@open_auction", None),
}
INNER = {
    # name: (extent, key relative to $i, what a result shows of one row)
    "initial": ("/site/open_auctions/open_auction/initial", "$i/text()", "text()"),
    "increases": ("/site/open_auctions/open_auction", "$i/bidder/increase", "@id"),
    "scaled": ("/site/open_auctions/open_auction/initial",
               "{scale} * exactly-one($i/text())", "text()"),
    "buyer": ("/site/closed_auctions/closed_auction", "$i/buyer/@person", "price/text()"),
    "bidders": ("/site/open_auctions/open_auction", "$i/bidder/personref/@person", "@id"),
}
RETURNS = {
    # name: (inner return, outer return); {shown} is the row's projection.
    # `items` embeds the joined nodes themselves when they are small
    # (<initial>) and reads them through a path when they are whole auctions.
    "items": ("$i", "$l"),
    "count": ("$i", "count($l)"),
    "ctor": ("<k>{{$i/{shown}}}</k>", "$l"),
}
NUMERIC = [(op, outer, inner)
           for op in ("=", "!=", "<", "<=", ">", ">=")
           for outer in ("income", "increases")
           for inner in ("initial", "increases", "scaled")]
STRINGS = [(op, outer, inner)
           for op in ("=", "!=")
           for outer in ("id", "watches")
           for inner in ("buyer", "bidders")]


def join_query(op: str, outer: str, inner: str, ret: str, flipped: bool = False) -> str:
    outer_extent, outer_key, scale = OUTER[outer]
    inner_extent, inner_key, shown = INNER[inner]
    inner_key = inner_key.format(scale=scale)
    inner_ret, outer_ret = RETURNS[ret]
    if ret == "items" and not inner_extent.endswith("/initial"):
        outer_ret = f"$l/{shown}"
    where = (f"{inner_key} {op} {outer_key}" if flipped
             else f"{outer_key} {op} {inner_key}")
    return (f"for $o in {outer_extent} "
            f"let $l := for $i in {inner_extent} where {where} "
            f"return {inner_ret.format(shown=shown)} "
            f"return <r>{{{outer_ret}}}</r>")


def answers(query: str, store, profile) -> tuple[str, str]:
    """The query's serialized answer, eager and streamed."""
    eager = evaluate(compile_query(query, store, profile)).serialize()
    streamed = evaluate_stream(compile_query(query, store, profile)).drain().serialize()
    return eager, streamed


class TestDifferentialMatrix:
    @pytest.mark.parametrize("ret", sorted(RETURNS))
    @pytest.mark.parametrize("op,outer,inner", NUMERIC + STRINGS)
    def test_every_system_equals_eager_g(self, loaded_stores, op, outer, inner, ret):
        query = join_query(op, outer, inner, ret)
        expected = evaluate(compile_query(query, loaded_stores["G"],
                                          get_profile("G"))).serialize()
        for system in sorted(SYSTEMS):
            eager, streamed = answers(query, loaded_stores[system], get_profile(system))
            assert eager == expected, f"{system} eager: {query}"
            assert streamed == expected, f"{system} streamed: {query}"

    @pytest.mark.parametrize("op", ("=", "!=", "<", "<=", ">", ">="))
    def test_inner_key_on_the_left(self, loaded_stores, op):
        """``K_in OP K_out`` is the same join with the operator mirrored."""
        query = join_query(op, "increases", "initial", "items", flipped=True)
        expected = evaluate(compile_query(query, loaded_stores["G"],
                                          get_profile("G"))).serialize()
        for system in "BDF":
            assert answers(query, loaded_stores[system], get_profile(system)) \
                == (expected, expected), f"{system}: {query}"

    @pytest.mark.parametrize("ret", ("count", "items"))
    @pytest.mark.parametrize("op", ("=", "!=", "<", "<=", ">", ">="))
    def test_inner_key_that_reads_the_outer_variable(self, loaded_stores, op, ret):
        """A key on the inner side that also depends on ``$o`` has a
        different value for every pair: nothing can be built once, so no
        join is planned and every system re-evaluates like G."""
        query = ("for $o in /site/people/person "
                 "let $l := for $i in /site/open_auctions/open_auction/initial "
                 f"where 5000 * $i/text() + $o/profile/@income {op} 2 * $o/profile/@income "
                 f"return $i return <r>{{{RETURNS[ret][1]}}}</r>")
        expected = evaluate(compile_query(query, loaded_stores["G"],
                                          get_profile("G"))).serialize()
        assert op == "=" or len(set(expected.split("\n"))) > 1
        for system in sorted(SYSTEMS):
            compiled = compile_query(query, loaded_stores[system], get_profile(system))
            assert not compiled.join_plans, system
            assert answers(query, loaded_stores[system], get_profile(system)) \
                == (expected, expected), f"{system}: {query}"

    def test_the_matrix_is_not_vacuous(self, loaded_stores):
        """Every numeric key pairing joins some rows and rejects others —
        in both directions wherever the two keys' magnitudes overlap (an
        income is above every unscaled bid)."""
        store = loaded_stores["G"]
        for outer in ("income", "increases"):
            for inner in ("initial", "increases", "scaled"):
                two_sided = outer == "increases" or inner == "scaled"
                for op in ("<", ">") if two_sided else (">",):
                    rows = evaluate(compile_query(
                        join_query(op, outer, inner, "count"), store,
                        get_profile("G"))).serialize().split("\n")
                    assert len(set(rows)) > 1, (op, outer, inner)

    def test_index_dropped_degrades_to_the_same_answer(self, small_text):
        """D's index-backed joins fall back to the per-query build when the
        indexes go away mid-plan; the answer does not change."""
        store = make_store("D")
        store.load(small_text)
        profile = get_profile("D")
        for number in (8, 11, 12):
            compiled = compile_query(query_text(number), store, profile)
            assert all(j.index_kind for j in compiled.join_plans.values())
            expected = evaluate(compiled).serialize()
            indexes, store.indexes = store.indexes, None
            try:
                assert evaluate(compiled).serialize() == expected
            finally:
                store.indexes = indexes


class TestPlans:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_not_equal_is_always_nlj(self, loaded_stores, system):
        query = join_query("!=", "income", "initial", "count")
        compiled = compile_query(query, loaded_stores[system], get_profile(system))
        strategies = [plan.strategy for plan in compiled.join_plans.values()]
        assert strategies == ([] if system == "G" else ["nlj"])

    def test_strategy_follows_operator_and_profile(self, loaded_stores):
        expected = {"=": "hash", "!=": "nlj", "<": "sorted", ">=": "sorted"}
        for op, strategy in expected.items():
            query = join_query(op, "income", "initial", "count")
            (on_d,) = compile_query(query, loaded_stores["D"],
                                    get_profile("D")).join_plans.values()
            (on_f,) = compile_query(query, loaded_stores["F"],
                                    get_profile("F")).join_plans.values()
            assert on_d.strategy == strategy
            assert on_f.strategy == ("nlj" if strategy == "sorted" else strategy)

    def test_multi_valued_inner_key_is_never_index_backed(self, loaded_stores):
        """The sorted index keeps one entry per value, so a window over a
        multi-valued field would count a node once per qualifying key."""
        query = join_query(">", "income", "increases", "count")
        (plan,) = compile_query(query, loaded_stores["D"],
                                get_profile("D")).join_plans.values()
        assert (plan.strategy, plan.index_kind) == ("sorted", None)

    def test_explain_shows_the_nested_loop_join(self, small_text):
        with connect(small_text, systems=("B", "D", "G")) as db:
            session = db.session()
            assert "join: nlj on > (per-query build)" in str(session.explain(11, system="B"))
            assert "join: sorted on > via sorted index" in str(session.explain(11, system="D"))
            assert "join:" not in str(session.explain(11, system="G"))


class TestProfileOracle:
    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("system", ("B", "F"))
    def test_nlj_builds_once_and_compares_every_pair(self, small_text, system, stream):
        with connect(small_text, systems=(system,), tracing=True) as db:
            session = db.session()
            (persons,) = session.execute("count(/site/people/person)").fetchall()
            (initials,) = session.execute(
                "count(/site/open_auctions/open_auction/initial)").fetchall()
            cursor = session.execute(11, system=system, stream=stream)
            cursor.fetchall()
            span = cursor.profile().find(
                "evaluator.stream" if stream else "evaluator.eval")
            assert span.attrs["join_builds"] == 1
            assert span.attrs["join_comparisons"] == persons * initials > 0

    def test_indexed_sorted_join_builds_and_compares_nothing(self, small_text):
        with connect(small_text, systems=("D",), tracing=True) as db:
            cursor = db.session().execute(11, system="D", stream=False)
            cursor.fetchall()
            span = cursor.profile().find("evaluator.eval")
            assert span.attrs["join_builds"] == 0
            assert span.attrs["join_comparisons"] == 0

    def test_plan_join_span_names_the_strategy(self, small_text):
        with connect(small_text, systems=("F",), tracing=True) as db:
            cursor = db.session().execute(11, system="F")
            cursor.fetchall()
            span = cursor.profile().find("plan.join")
            assert span.attrs["strategy"] == "nlj"
            assert span.attrs["index_kind"] == "none"


# -- the probes against a brute-force general comparison ---------------------------------

KEYS = st.lists(st.sampled_from(
    ["1", "2", "2.0", "2.5", "-1", "1e2", "0", "NaN", "inf", "-inf",
     "abc", "abd", "x y", "", "true"]), max_size=3)
PROFILES = {
    "nlj": SystemProfile(name="nlj", inequality_join="nlj"),
    "sorted": SystemProfile(name="sorted", inequality_join="sorted"),
    "reeval": SystemProfile(name="reeval", join_rewrite_depth=0),
}


def element(tag: str, body: str) -> str:
    return f"<{tag}>{body}</{tag}>" if body else f"<{tag}/>"


def rows(tag: str, key_lists: list[list[str]]) -> str:
    return "".join(element(tag, "".join(element("k", key) for key in keys))
                   for keys in key_lists)


@given(outers=st.lists(KEYS, min_size=1, max_size=4),
       inners=st.lists(KEYS, max_size=5),
       op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
@settings(max_examples=150, deadline=None)
def test_every_probe_equals_a_brute_force_general_compare(outers, inners, op):
    """Random numeric / non-numeric / empty / NaN key lists: the nlj, sorted
    and hash probes (and the untouched re-evaluating FLWOR) select exactly
    the build rows a pairwise ``general_compare`` filter selects, in
    document order."""
    store = make_store("F")
    store.load(element("site", element("os", rows("o", outers))
                       + element("is", rows("i", inners))))
    query = ("for $o in /site/os/o "
             f"let $l := for $i in /site/is/i where $o/k {op} $i/k return $i "
             "return <r>{$l}</r>")
    expected = "\n".join(
        element("r", rows("i", [inner for inner in inners
                                if general_compare(op, outer, inner, None)]))
        for outer in outers)
    # The same filter with an inner key that also reads the outer row (only
    # the inner keys the outer row shares take part): never built once.
    dependent = query.replace("$i/k ", "$i/k[. = $o/k] ")
    expected_dependent = "\n".join(
        element("r", rows("i", [inner for inner in inners if general_compare(
            op, outer, [key for key in inner
                        if general_compare("=", [key], outer, None)], None)]))
        for outer in outers)
    for name, profile in PROFILES.items():
        assert answers(query, store, profile) == (expected, expected), name
        assert answers(dependent, store, profile) \
            == (expected_dependent, expected_dependent), name
