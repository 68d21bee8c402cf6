"""The emit pass: one closure tree per ``CompiledQuery``, run many times.

What the tree-walking interpreter could not promise and the emitted tree
must: it is built once (``plan.emit``), holds no per-execution state (so
one compiled query runs repeatedly and from several threads at once),
resolves variables statically (an unbound ``$name`` fails at compile time,
a declared function sees only its parameters), and gives the same items
whether drained eagerly or fetched row by row through a cursor.
"""

from __future__ import annotations

import threading
import types

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.benchmark.queries import query_text
from repro.benchmark.systems import SYSTEMS, get_profile
from repro.errors import QueryError, TypeCoercionError
from repro.server import XMarkServer, connect_url, serve_in_thread
from repro.xquery.evaluator import _Runtime, evaluate, evaluate_stream, item_text
from repro.xquery.planner import compile_query


def rowtexts(result) -> list[str]:
    return [item_text(item, result.navigator) for item in result.items]


# -- (a) the reuse contract ------------------------------------------------------------


def reachable_state(*closures) -> list[tuple]:
    """Every object the emitted closures can reach through their cells,
    as ``(id, type, size)``: executing the tree must leave it unchanged."""
    seen: dict[int, object] = {}
    stack = list(closures)
    while stack:
        value = stack.pop()
        if id(value) in seen or isinstance(value, (str, int, float, bool, type(None))):
            continue
        seen[id(value)] = value
        if isinstance(value, types.FunctionType):
            stack.extend(cell.cell_contents for cell in value.__closure__ or ())
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
    return sorted(
        (key, type(value).__name__,
         len(value) if isinstance(value, (list, dict, set)) else 0)
        for key, value in seen.items()
        if isinstance(value, (types.FunctionType, list, dict, set, _Runtime)))


class TestReuseContract:
    @pytest.mark.parametrize("query", [8, 10, 11])
    @pytest.mark.parametrize("system", ["D", "G"])
    def test_one_compiled_query_many_executions(self, loaded_stores, system, query):
        compiled = compile_query(query_text(query), loaded_stores[system],
                                 get_profile(system))
        before = reachable_state(compiled.run, compiled.stream)
        assert before and not any(kind == "_Runtime" for _, kind, _ in before)
        first = rowtexts(evaluate(compiled))
        assert first and rowtexts(evaluate(compiled)) == first
        assert rowtexts(evaluate_stream(compiled).drain()) == first

        answers: list = [None] * 4
        barrier = threading.Barrier(len(answers))

        def worker(slot: int) -> None:
            barrier.wait(timeout=30)
            run = evaluate if slot % 2 else (lambda c: evaluate_stream(c).drain())
            answers[slot] = rowtexts(run(compiled))

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(len(answers))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert answers == [first] * len(answers)
        assert reachable_state(compiled.run, compiled.stream) == before

    def test_a_prepared_query_is_emitted_once(self, small_text):
        with repro.connect(small_text, systems=("D",), tracing=True) as db:
            prepared = db.session().prepare(8, system="D")
            texts = [prepared.execute(stream=stream).serialize()
                     for stream in (False, True, False)]
            assert texts[0] and texts == [texts[0]] * 3
            emits = [span for root in db.tracer.roots
                     for span in root.walk() if span.name == "plan.emit"]
            assert len(emits) == 1 and emits[0].attrs["nodes"] > 10

    def test_emission_is_part_of_the_plan_span(self, small_text):
        with repro.connect(small_text, systems=("D",), tracing=True) as db:
            cursor = db.session().execute(2, system="D", stream=False)
            cursor.fetchall()
            plan = cursor.profile().find("plan")
            assert [child.name for child in plan.children][-1] == "plan.emit"
            assert cursor.compile_seconds >= plan.find("plan.emit").duration > 0


# -- (b) fetchone() k times, then fetchall(): the eager items, item for item -------------

STREAMED_QUERIES = [query_text(number) for number in (2, 8, 13, 14, 17)] + [
    # a self filter, or a multi-context // , downstream of the outermost path
    "(/site/people/person)[position() < 4]/name",
    "for $a in (/site/open_auctions/open_auction)[position() > 2] return $a/initial",
    "/site/regions/*//item/name",
    "/site/regions/europe/item//keyword",
    "/site//parlist//listitem/text",
    "for $i in /site/regions/*//item return <n>{$i/name/text()}</n>",
    "for $k in /site/closed_auctions/closed_auction//parlist//keyword return $k/text()",
    "for $p in /site/people/person where $p//interest return $p/name/text()",
]


@pytest.fixture(scope="module")
def all_systems_db(small_text):
    with repro.connect(small_text, systems=tuple(sorted(SYSTEMS))) as db:
        yield db


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(system=st.sampled_from(sorted(SYSTEMS)),
       query=st.sampled_from(STREAMED_QUERIES), cut=st.floats(0, 1))
def test_a_cursor_cut_anywhere_gives_the_eager_items(all_systems_db, system,
                                                     query, cut):
    store = all_systems_db.store(system)
    expected = rowtexts(evaluate(compile_query(query, store, get_profile(system))))
    k = round(cut * len(expected))
    cursor = all_systems_db.session().execute(query, system=system)
    assert cursor.streaming
    head = [cursor.fetchone() for _ in range(k)]
    rows = head + cursor.fetchall()
    assert [cursor.rowtext(row) for row in rows] == expected
    assert cursor.fetchone() is None


def test_streamed_shapes_are_not_vacuous(all_systems_db):
    """Every generated shape has rows, G agrees with D on each, and the
    multi-context descendant ones do hit the batch-fallback branch."""
    with repro.connect(repro.generate_string(0.002), systems=("D",),
                       tracing=True) as traced:
        session = traced.session()
        for query in STREAMED_QUERIES:
            reference = all_systems_db.session().execute(query, system="G").serialize()
            cursor = session.execute(query, system="D")
            assert cursor.serialize() == reference != ""
        cursor = session.execute("/site/regions/europe/item//keyword", system="D")
        cursor.fetchall()
        span = cursor.profile().find("evaluator.stream")
        assert span.attrs["barriers"] == 1
        extent = len(session.execute("/site/regions/europe/item", system="D").fetchall())
        assert span.attrs["stage_rows"] == {4: extent}


# -- (c) wrong answers that are errors now, on every path ---------------------------------

DYNAMIC_SCOPE = ("declare function local:f($x) { $y/name/text() }; "
                 "for $y in /site/people/person[1] return local:f(0)")
MULTI_ITEM = ("for $p in /site/people/person[1] "
              "return <r>{/site/people/person/profile/@income + 1}</r>")
BUG_CELLS = [
    (DYNAMIC_SCOPE, QueryError, r"unbound variable \$y"),
    ("$undefined", QueryError, r"unbound variable \$undefined"),
    ("for $a in (for $b in /site/people/person return $b) "
     "where $b/name return $a", QueryError, r"unbound variable \$b"),
    (MULTI_ITEM, TypeCoercionError, "sequence of"),
    ("-(/site/people/person/profile/@income)", TypeCoercionError, "sequence of"),
    ("position()", QueryError, "no context item"),
    ("for $p in /site/people/person[1] return last()", QueryError, "no context item"),
    ("declare function local:f() { . }; /site/people/person[local:f()]",
     QueryError, "no context item"),
    ("declare function local:f($x) { 1 }; declare function local:f($x) { 2 }; "
     "local:f(0)", QueryError, "duplicate declaration"),
]
FRACTIONAL = "count(/site/people/person[1.5]) + count((/site/people/person)[2.5])"


@pytest.fixture(scope="module")
def three_systems(small_text):
    """D, G and B in process and, over the same connection, on the wire."""
    database = repro.connect(small_text, systems=("D", "G", "B"))
    server = XMarkServer(queue_depth=64)
    server.add_document("auction", database, owned=True)
    handle = serve_in_thread(server)
    remote = connect_url(handle.url)
    yield database, remote
    remote.close()
    handle.stop()


@pytest.mark.parametrize("system", ["D", "G", "B"])
class TestBugCells:
    @pytest.mark.parametrize("query,error,message", BUG_CELLS)
    def test_typed_error_eager_streamed_and_on_the_wire(
            self, three_systems, system, query, error, message):
        database, remote = three_systems
        for stream in (False, True):
            with pytest.raises(error, match=message):
                database.session().execute(query, system=system,
                                           stream=stream).fetchall()
        with pytest.raises(QueryError, match=message):    # wire code `query`
            remote.session().execute(query, system=system).fetchall()

    def test_unbound_variable_fails_before_the_first_row(self, three_systems, system):
        database, _remote = three_systems
        with pytest.raises(QueryError, match="unbound variable"):
            compile_query(DYNAMIC_SCOPE, database.store(system), get_profile(system))
        with pytest.raises(QueryError, match="unbound variable"):
            database.session().prepare("for $p in /site/people/person "
                                       "return $p/name[$q]", system=system)

    def test_a_fractional_position_selects_nothing(self, three_systems, system):
        database, remote = three_systems
        for connection in (database, remote):
            for stream in (False, True):
                cursor = connection.session().execute(FRACTIONAL, system=system,
                                                      stream=stream)
                assert cursor.serialize() == "0"
        assert database.session().execute(
            "count(/site/people/person[2.0])", system=system).serialize() == "1"

    def test_context_functions_still_work_inside_predicates(self, three_systems, system):
        database, _remote = three_systems
        session = database.session()
        people = int(session.execute("count(/site/people/person)",
                                     system=system).serialize())
        assert session.execute(
            "count(/site/people/person[position() = last()])",
            system=system).serialize() == "1"
        assert session.execute(
            "count(/site/people/person[position() < last()])",
            system=system).serialize() == str(people - 1)
        # a nested FLWOR inside a predicate still sees the predicate's context
        assert session.execute(
            "count(/site/people/person[(for $x in . return $x/name)])",
            system=system).serialize() == str(people)


# -- (d) declared functions: static frames, lazily tied call sites -------------------------


@pytest.mark.parametrize("system", ["D", "G", "B"])
class TestDeclaredFunctions:
    def run(self, stores, system, query) -> str:
        compiled = compile_query(query, stores[system], get_profile(system))
        eager = evaluate(compiled).serialize()
        assert evaluate_stream(compiled).drain().serialize() == eager
        return eager

    def test_recursion(self, loaded_stores, system):
        factorial = ("declare function local:fact($n) "
                     "{ if ($n <= 1) then 1 else $n * local:fact($n - 1) }; ")
        assert self.run(loaded_stores, system, factorial + "local:fact(6)") == "720"
        # each activation has its own frame: the outer $n survives the inner call
        assert self.run(
            loaded_stores, system,
            "declare function local:sum($n) "
            "{ if ($n = 0) then 0 else local:sum($n - 1) + $n }; "
            "local:sum(10)") == "55"

    def test_mutual_recursion_in_either_declaration_order(self, loaded_stores, system):
        even = "declare function local:even($n) { if ($n = 0) then 1 else local:odd($n - 1) }; "
        odd = "declare function local:odd($n) { if ($n = 0) then 0 else local:even($n - 1) }; "
        for prolog in (even + odd, odd + even):
            assert self.run(loaded_stores, system,
                            prolog + "<r>{local:even(10)}/{local:odd(7)}</r>") == "<r>1/1</r>"

    def test_a_parameter_shadows_and_a_caller_binding_is_invisible(self, loaded_stores,
                                                                   system):
        query = ("declare function local:name($p) { $p/name/text() }; "
                 "for $p in /site/people/person[2] "
                 "return local:name(/site/people/person[1])")
        first = self.run(loaded_stores, system, "/site/people/person[1]/name/text()")
        assert self.run(loaded_stores, system, query) == first

    def test_a_function_reads_the_document_inside_a_streamed_loop(self, loaded_stores,
                                                                  system):
        query = ("declare function local:bids($a) { count($a/bidder) }; "
                 "for $a in /site/open_auctions/open_auction return local:bids($a)")
        expected = self.run(
            loaded_stores, system,
            "for $a in /site/open_auctions/open_auction return count($a/bidder)")
        assert self.run(loaded_stores, system, query) == expected

    def test_wrong_arity_and_unknown_names_fail_at_compile_time(self, loaded_stores,
                                                                system):
        store, profile = loaded_stores[system], get_profile(system)
        with pytest.raises(QueryError, match="expects 1"):
            compile_query("declare function local:f($v) { $v }; local:f(1, 2)",
                          store, profile)
        with pytest.raises(QueryError, match="expects 2"):
            compile_query('contains("a")', store, profile)
        with pytest.raises(QueryError, match="unknown function"):
            compile_query("if (1 = 2) then made-up(1) else 0", store, profile)
