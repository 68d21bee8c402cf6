"""One plan per query shape: the plan cache every path shares.

A text's shape is the text with its string and numeric literals lifted
into typed slots; texts of one shape share a compiled plan and bind their
own values per execution.  A plan choice that read a literal while
compiling pins that slot (a text with another value there gets a plan of
its own), and a choice that read an index cardinality counter is checked
again on every reuse.  Whatever plan a text gets, its rows must be the
rows of a fresh compile and of eager System G, which plans nothing.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.benchmark.queries import query_text
from repro.benchmark.systems import get_profile
from repro.cache import PlanCache
from repro.errors import QueryError, QuerySyntaxError
from repro.server import XMarkServer, connect_url, serve_in_thread
from repro.shard import ShardedStore
from repro.shard.scatter import SHARDED_PROFILE, ScatterGatherExecutor
from repro.update.ops import RegisterPerson
from repro.xmlio.parser import parse
from repro.xquery.ast import Literal, walk
from repro.xquery.evaluator import evaluate, evaluate_stream
from repro.xquery.lexer import scan_shape
from repro.xquery.parser import parse_query
from repro.xquery.planner import VARIANTS, compile_query

from test_constructors import programs
from test_joins import SHARD_BACKENDS, correlated_let


@pytest.fixture(scope="module")
def sharded_stores(small_text):
    """Mixed-backend sharded stores at 2 and 6 shards over the small text."""
    stores = {}
    for shards in (2, 6):
        store = stores[f"S{shards}"] = ShardedStore(shards, SHARD_BACKENDS)
        store.load(small_text)
    return stores


def profile_of(name: str):
    return SHARDED_PROFILE if name.startswith("S") else get_profile(name)


def query_slots(text: str) -> set[int]:
    """The slots a query literal fills (the rest are constructor text)."""
    shape = scan_shape(text)
    return {node.slot for node in walk(parse_query(text, shape.spans))
            if isinstance(node, Literal) and node.slot is not None}


def sibling(text: str, every: bool) -> str:
    """A text of the same shape with other values in its query literals'
    slots (``every``: in constructor text's too): an id's number moves on
    by one, another string grows, a number grows."""
    out, last = [], 0
    moving = None if every else query_slots(text)
    for start, (slot, end) in sorted(scan_shape(text).spans.items()):
        if moving is not None and slot not in moving:
            continue
        raw = text[start:end]
        if raw[0] in "\"'":
            body = raw[1:-1]
            moved = re.sub(r"^([a-z_]+)(\d+)$",
                           lambda m: f"{m.group(1)}{int(m.group(2)) + 1}", body)
            raw = raw[0] + (moved if moved != body else body + "z") + raw[0]
        elif raw.isdigit():
            raw = str(int(raw) + 1)
        else:
            raw = repr(float(raw) * 2)
        out.append(text[last:start] + raw)
        last = end
    return "".join(out) + text[last:]


def rows(store, profile, text: str) -> tuple[str, str]:
    """A fresh compile's rows, eager and streamed."""
    eager = evaluate(compile_query(text, store, profile)).serialize()
    streamed = evaluate_stream(compile_query(text, store, profile)).drain()
    return eager, streamed.serialize()


def after_sibling(cache: PlanCache, name: str, store, text: str,
                  every: bool = False):
    """``text``'s rows from ``cache`` after its sibling was cached there:
    ``(eager, streamed, hit)``."""
    profile = profile_of(name)
    try:
        cache.lookup(name, sibling(text, every), store, profile)
    except (QuerySyntaxError, QueryError):
        pass                            # a sibling that does not compile
    compiled, values, hit = cache.lookup(name, text, store, profile)
    eager = evaluate(compiled, values=values).serialize()
    streamed = evaluate_stream(compiled, values=values).drain().serialize()
    return eager, streamed, hit


def check_everywhere(stores: dict, text: str) -> int:
    """The cached rows equal a fresh compile's and eager G's on every
    store, after a sibling with other query literals and after one with
    every slot moved; returns how many executions reused the first
    sibling's plan."""
    expected = evaluate(compile_query(text, stores["G"],
                                      get_profile("G"))).serialize()
    hits = 0
    for name, store in stores.items():
        assert rows(store, profile_of(name), text) == (expected, expected), name
        for every in (False, True):
            eager, streamed, hit = after_sibling(PlanCache(8), name, store,
                                                 text, every)
            assert (eager, streamed) == (expected, expected), f"{name}: {text}"
            hits += hit and not every
    return hits


@pytest.fixture(scope="module")
def all_stores(loaded_stores, sharded_stores):
    return {**loaded_stores, **sharded_stores}


# -- shapes ------------------------------------------------------------------------------


class TestShape:
    def test_texts_differing_in_literals_share_a_shape(self):
        one = scan_shape('/site/people/person[@id = "person0"]/name[1]')
        two = scan_shape("/site/people/person[@id = 'person17']/name[2]")
        assert one.key == two.key
        assert one.values == ("person0", 1) and two.values == ("person17", 2)
        assert one.raws == ('"person0"', "1") and two.raws == ("'person17'", "2")
        assert one.key != scan_shape('/site/people/person[@id = "person0"]/x').key

    def test_slots_are_typed(self):
        keys = {scan_shape(text).key for text in ("1 + $x", "1.5 + $x",
                                                  "1e3 + $x", '"1" + $x')}
        assert len(keys) == 3           # int, float (decimal or double), string

    def test_names_and_comments_hold_no_slots(self):
        shape = scan_shape('(: "no" 12 :) /site/person0/x1[. = 3]')
        assert shape.values == (3,)

    @pytest.mark.parametrize("literal", ['"a""b"', "'it''s'", '"&amp;"',
                                         "1.0E20", "7", "2.50"])
    def test_literal_values_read_as_the_parser_reads_them(self, literal):
        shape = scan_shape(literal)
        body = parse_query(literal, shape.spans).body
        assert shape.values == (body.value,) and body.slot == 0
        assert type(shape.values[0]) is type(body.value)

    def test_doubled_quotes_and_exponents_parse(self):
        assert parse_query('"say ""hi"""').body.value == 'say "hi"'
        assert parse_query("'it''s'").body.value == "it's"
        assert parse_query("1.0E20").body.value == 1e20
        assert parse_query("1e-05").body.value == 1e-05
        assert parse_query("2e+3").body.value == 2000.0

    def test_a_bad_reference_leaves_the_text_slot_free(self):
        shape = scan_shape('("&bogus;", 1)')
        assert shape.values == () and shape.key == ('("&bogus;", 1)',)
        with pytest.raises(QuerySyntaxError) as excinfo:
            parse_query('("&bogus;", 1)', shape.spans)
        assert (excinfo.value.line, excinfo.value.column) == (1, 2)

    @pytest.mark.parametrize("first, second", [
        ('<a>it\'s "3"</a>', '<a>it\'s "4"</a>'),
        ('<a>"a""b"</a>', '<a>"a&quot;b"</a>'),   # one value, two spellings
        ("<a>'x'</a>", '<a>"x"</a>'),
    ])
    def test_constructor_text_is_pinned_by_its_spelling(
            self, loaded_stores, first, second):
        store, profile = loaded_stores["D"], get_profile("D")
        compiled = compile_query(first, store, profile)
        assert compiled.pinned == {0: "text, not a literal"}
        assert scan_shape(first).key == scan_shape(second).key
        cache = PlanCache(4)
        cache.lookup("D", first, store, profile)
        other, values, hit = cache.lookup("D", second, store, profile)
        assert not hit
        assert evaluate(other, values=values).serialize() == \
            evaluate(compile_query(second, store, profile)).serialize()

    @pytest.mark.parametrize("first, second", [
        ("<a>'x'</a>", '<a>"x"</a>'),
        ('<a>"a""b"</a>', '<a>"a&quot;b"</a>'),
        ("<r>1.0 {$p/name/text()}</r>", "<r>1.00 {$p/name/text()}</r>"),
    ])
    def test_a_spelling_gets_partials_of_its_own(
            self, loaded_stores, sharded_stores, first, second):
        """On S, the two spellings are scatter FLWORs whose shard partials
        land in one executor's cache: neither is served the other's."""
        template = "for $p in /site/people/person return {}"
        g = loaded_stores["G"], get_profile("G")
        for sharded in sharded_stores.values():
            cache = PlanCache(4)
            with ScatterGatherExecutor(sharded) as executor:
                sharded.exchange = executor
                try:
                    for body in (first, second):
                        text = template.format(body)
                        compiled, values, _hit = cache.lookup(
                            "S", text, sharded, SHARDED_PROFILE)
                        assert compiled.exchange.kind == "scatter_flwor"
                        assert evaluate(compiled, values=values).serialize() \
                            == evaluate(compile_query(text, *g)).serialize()
                    assert executor.partial_cache.stats.hits == 0
                finally:
                    sharded.exchange = None


# -- the differential cells ----------------------------------------------------------------


@pytest.mark.parametrize("number", range(1, 21))
def test_q1_to_q20_after_a_sibling_answer_as_g(all_stores, number):
    check_everywhere(all_stores, query_text(number))


def test_the_q_cells_are_not_vacuous(all_stores):
    """Most of Q1-Q20 reuse the sibling's plan on most stores (what does
    not: a pinned slot moved — Q20's range-probe bounds here)."""
    hits = sum(check_everywhere(all_stores, query_text(number))
               for number in (1, 4, 6, 8, 9, 14, 15, 17, 20))
    assert hits >= 8 * len(all_stores)


@given(site=st.sampled_from(["top", "function", "quantified", "predicate"]),
       op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
       flipped=st.booleans(), varying_base=st.booleans(),
       ret=st.sampled_from(["row", "key", "invariant", "varying"]),
       threshold=st.integers(0, 60))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_correlated_lets_after_a_sibling_answer_as_g(
        all_stores, site, op, flipped, varying_base, ret, threshold):
    check_everywhere(all_stores, correlated_let(site, op, flipped,
                                                varying_base, ret, threshold))


@given(program=programs())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_constructors_after_a_sibling_answer_as_g(all_stores, program):
    bound, ctor = program
    text = f"let $y := {bound} let $x := {ctor} return $x"
    check_everywhere(all_stores, text)


# -- what is read at execution, and what is pinned -----------------------------------------


class TestBoundAtExecution:
    def test_routed_ids_on_two_shards_share_neither_shard_nor_partial(
            self, small_text):
        with repro.connect(small_text, systems=("D",), shards=2,
                           backends=("D", "G")) as db:
            sharded, session = db.store("S"), db.session()
            owners: dict[int, str] = {}
            for number in range(50):
                owner = sharded.shard_of_id(f"person{number}")
                if owner is not None:
                    owners.setdefault(owner, f"person{number}")
            assert len(owners) == 2
            first, second = owners.values()
            template = query_text(1)
            texts = [template.replace('"person0"', f'"{pid}"')
                     for pid in (first, second)]
            partials = sharded.exchange.partial_cache.stats
            answers = []
            for index, text in enumerate(texts):
                hits = partials.hits
                cursor = session.execute(text, system="S")
                answers.append(cursor.serialize())
                assert cursor.plan_cache_hit == (index == 1)
                assert partials.hits == hits      # no partial was shared
                compiled, values, _hit = db.plan_cache.lookup(
                    "S", text, sharded, db.profiles["S"])
                assert compiled.exchange.ranks(sharded, values) == \
                    [sharded.shard_of_id(values[1])]
            assert answers == [session.execute(text, system="D").serialize()
                               for text in texts]
            assert answers[0] != answers[1]
            # Two ids on one shard: one routed shard, still no partial shared.
            owner = sharded.shard_of_id("person0")
            ids = [f"person{n}" for n in range(1, 50)
                   if sharded.shard_of_id(f"person{n}") == owner][:2]
            hits = partials.hits
            same = [session.execute(template.replace('"person0"', f'"{pid}"'),
                                    system="S").serialize() for pid in ids]
            assert partials.hits == hits and same[0] != same[1]

    def test_an_id_lookup_binds_its_id(self, loaded_stores):
        cache, store, profile = PlanCache(4), loaded_stores["D"], get_profile("D")
        names = []
        for pid in ("person1", "person2", "person3"):
            compiled, values, hit = cache.lookup(
                "D", query_text(1).replace("person0", pid), store, profile)
            assert compiled.path_plans and not compiled.pinned
            names.append(evaluate(compiled, values=values).serialize())
        assert cache.stats.hits == 2 and cache.stats.misses == 1
        assert len(set(names)) == 3


class TestPinned:
    Q5 = ("count(for $i in /site/closed_auctions/closed_auction "
          "where $i/price/text() >= {bound} return $i/price)")

    def test_a_bound_that_changes_the_range_plan_gets_its_own_entry(
            self, loaded_stores):
        store, cache = loaded_stores["D"], PlanCache(4)
        expected = {}
        for bound in (40, 0):
            text = self.Q5.format(bound=bound)
            expected[bound] = evaluate(compile_query(
                text, loaded_stores["G"], get_profile("G"))).serialize()
        selective, values, hit = cache.lookup(
            "D", self.Q5.format(bound=40), store, get_profile("D"))
        assert not hit and selective.range_plans
        assert selective.pinned == {0: "range selectivity"}
        everything, values0, hit = cache.lookup(
            "D", self.Q5.format(bound=0), store, get_profile("D"))
        assert not hit and not everything.range_plans   # every row qualifies
        assert evaluate(selective, values=(40,)).serialize() == expected[40]
        assert evaluate(everything, values=values0).serialize() == expected[0]
        again, _values, hit = cache.lookup(
            "D", self.Q5.format(bound=40), store, get_profile("D"))
        assert hit and again is selective

    @pytest.mark.parametrize("template, first, second, reason", [
        ("count(/site/people/person/profile[@income >= 30000])", "30000",
         "90000", "range probe selectivity"),
        (query_text(11), "5000", "50", "join scale"),
    ])
    def test_a_value_a_plan_folded_in_is_pinned(self, loaded_stores, template,
                                                first, second, reason):
        """A range probe's bound and a join's folded scale are planned
        with: another value compiles its own plan, and both answer as G."""
        store, profile, cache = loaded_stores["D"], get_profile("D"), PlanCache(4)
        answers = set()
        for value in (first, second):
            text = template.replace(first, value)
            compiled, values, hit = cache.lookup("D", text, store, profile)
            assert not hit and reason in compiled.pinned.values()
            answer = evaluate(compiled, values=values).serialize()
            assert answer == evaluate(compile_query(
                text, loaded_stores["G"], get_profile("G"))).serialize()
            answers.add(answer)
        assert len(answers) == 2

    def test_a_shard_program_pins_its_own_slots(self, loaded_stores,
                                                sharded_stores):
        """The exchange plan pins nothing, so the second bound reuses it,
        but each shard planned its range probe with the first bound: a
        shard keeps one program per pinned binding."""
        for name, store in sharded_stores.items():
            cache = PlanCache(4)
            for value, reused in (("40", False), ("300", True), ("40", True)):
                text = self.Q5.format(bound=value)
                compiled, values, hit = cache.lookup(name, text, store,
                                                     SHARDED_PROFILE)
                assert hit == reused
                assert compiled.exchange.kind == "partial_count"
                assert evaluate(compiled, values=values).serialize() == \
                    evaluate(compile_query(text, loaded_stores["G"],
                                           get_profile("G"))).serialize()

    def test_a_shape_keeps_its_newest_variants(self, loaded_stores):
        store, profile, cache = loaded_stores["D"], get_profile("D"), PlanCache(4)
        texts = [f'<a>"{n}"</a>' for n in range(VARIANTS + 1)]
        for text in texts:
            assert not cache.lookup("D", text, store, profile)[2]
        assert len(cache) == 1 and cache.stats.evictions == 1
        assert cache.lookup("D", texts[-1], store, profile)[2]
        assert not cache.lookup("D", texts[0], store, profile)[2]

    def test_system_g_still_plans_nothing(self, loaded_stores):
        for number in range(1, 21):
            compiled = compile_query(query_text(number), loaded_stores["G"],
                                     get_profile("G"))
            assert not (compiled.range_plans or compiled.join_plans
                        or compiled.proofs)
            assert all(plan.kind == "steps"
                       for plan in compiled.path_plans.values())
            # what it reads while emitting: a position, constructor text
            assert set(compiled.pinned.values()) <= {"position",
                                                     "text, not a literal"}

    def test_explain_names_the_slots_and_the_pins(self, small_text):
        with repro.connect(small_text, systems=("D",)) as db:
            explain = db.explain(self.Q5.format(bound=40))
            assert explain["plan"]["slots"] == 1
            assert explain["plan"]["pinned"] == [
                {"slot": 0, "value": 40, "reason": "range selectivity"}]
            assert "shape: 1 slot(s), pinned: #0=40 (range selectivity)" \
                in str(explain)
            assert "pinned: none" in str(db.explain(1))


def _all_profiles_with_income(text: str) -> str:
    return text.replace("<profile>", '<profile income="20000.00">')


class TestProofs:
    QUERY = ("for $p in /site/people/person/profile "
             "where exactly-one($p/@income) >= 50000 return string($p/@income)")

    def test_a_write_that_breaks_a_proof_recompiles(self, small_text):
        document = _all_profiles_with_income(small_text)
        incomeless = parse(
            '<person id="person_noincome"><name>N</name>'
            "<emailaddress>mailto:n@bench.test</emailaddress>"
            "<profile><business>No</business></profile></person>").root
        with repro.connect(document, systems=("D",)) as db, \
                repro.connect(document, systems=("G",)) as g:
            session = db.session()
            first = session.execute(self.QUERY, stream=False)
            assert first.serialize() == \
                g.session().execute(self.QUERY).serialize()
            compiled = db.compile("D", self.QUERY)
            assert compiled.range_plans and compiled.proofs
            with session.transaction() as txn:
                txn.apply(RegisterPerson(incomeless))
            with g.session().transaction() as txn:
                txn.apply(RegisterPerson(incomeless))
            with pytest.raises(QueryError) as expected:
                g.session().execute(self.QUERY).fetchall()
            with pytest.raises(QueryError) as got:
                session.execute(self.QUERY).fetchall()
            assert str(got.value) == str(expected.value)
            assert not db.compile("D", self.QUERY).range_plans
            assert db.plan_cache.stats.invalidations >= 1


# -- one cache under every path --------------------------------------------------------------


TYPO = "for $p in /site/people/persn return $p/name"


@pytest.fixture(scope="module")
def three_ways(tiny_text):
    """The same document direct, behind the service, and over the wire."""
    direct = repro.connect(tiny_text, systems=("D",))
    service = repro.connect(tiny_text, systems=("D",), service=True,
                            max_workers=2)
    served = repro.connect(tiny_text, systems=("D",))
    server = XMarkServer()
    server.add_document("auction", served, owned=True)
    handle = serve_in_thread(server)
    remote = connect_url(handle.url)
    yield {"direct": direct, "service": service, "wire": remote}, served
    remote.close()
    handle.stop()
    service.close()
    direct.close()


class TestEveryPath:
    def test_a_typo_warns_the_same_on_every_connection(self, three_ways):
        connections, _served = three_ways
        warnings = {kind: db.session().prepare(TYPO).warnings
                    for kind, db in connections.items()}
        assert warnings["direct"] and any("persn" in w
                                          for w in warnings["direct"])
        assert warnings["service"] == warnings["direct"]
        assert warnings["wire"] == warnings["direct"]

    def test_prepare_is_an_entry_of_the_one_cache(self, three_ways):
        connections, served = three_ways
        for kind, db in connections.items():
            prepared = db.session().prepare(2)
            if kind != "wire":
                assert prepared.compiled is not None
                assert db.plan_cache.lookup(
                    "D", query_text(2), db.store("D"), db.profiles["D"])[2]
            cursor = prepared.execute()
            assert cursor.serialize()
            assert cursor.plan_cache_hit or kind == "service"
        assert served.plan_cache.stats.hits >= 1

    def test_hits_reach_cursors_and_the_registry(self, three_ways):
        connections, served = three_ways
        for kind, db in connections.items():
            text = query_text(1).replace("person0", f"person{len(kind)}")
            db.session().execute(query_text(1)).fetchall()
            cursor = db.session().execute(text)
            cursor.fetchall()
            if kind == "service":
                assert cursor.plan_cache_hit or cursor.result_cache_hit
            else:
                assert cursor.plan_cache_hit, kind
        for db in (connections["direct"], connections["service"], served):
            gauges = db.registry.snapshot()["gauges"]
            stats = db.plan_cache.stats
            assert gauges['cache.hits{cache="plan"}'] == stats.hits > 0
            assert gauges['cache.misses{cache="plan"}'] == stats.misses
            assert gauges['cache.evictions{cache="plan"}'] == stats.evictions
            assert gauges['cache.hit_rate{cache="plan"}'] == stats.hit_rate
        counters = connections["wire"].stats()["metrics"]["counters"]
        assert any(name.startswith("server.plan_cache_hits_total")
                   for name in counters)

    def test_a_shape_costs_one_entry(self, tiny_text):
        with repro.connect(tiny_text, systems=("D",)) as db:
            session = db.session()
            for number in range(20):
                session.execute(query_text(1).replace(
                    "person0", f"person{number}")).fetchall()
            assert len(db.plan_cache) == 1
            assert db.plan_cache.stats.misses == 1
            assert db.plan_cache.stats.hits == 19
