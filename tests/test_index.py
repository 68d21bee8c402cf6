"""The secondary-index subsystem: build correctness, probe/scan equivalence,
planner access-path choices, and per-document invalidation.

The central property (the contract everything else builds on): **every
indexed probe returns exactly the node set a full scan returns**, on all
seven store architectures, for both the tiny and the small document.  The
scan oracle below never touches an index — it walks the store's navigation
API directly — so an index that lied about an extent or a bucket would be
caught here before it could corrupt a query result.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.benchmark.queries import query_text
from repro.benchmark.systems import SYSTEMS, get_profile, make_store
from repro.index import SortedNumericIndex, ValueIndex, extract_values, normalize_key
from repro.index.indexes import cast_double
from repro.obs.trace import Tracer
from repro.shard.store import ShardedStore
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import SystemProfile, compile_query
from repro.xquery.sequence import COMPARATORS, NodeItem, NodeWindow, try_number

ALL_SYSTEMS = tuple(sorted(SYSTEMS))
INDEXED_SYSTEMS = tuple(s for s in ALL_SYSTEMS
                        if get_profile(s).use_value_index
                        or get_profile(s).use_sorted_index)


def _scan_extent(store, path):
    """The extent of a label path via navigation only (the oracle)."""
    root = store.root()
    if store.tag(root) != path[0]:
        return []
    nodes = [root]
    for tag in path[1:]:
        nodes = [child for node in nodes
                 for child in store.children_by_tag(node, tag)]
    return nodes


def _scan_value_matches(store, extent, accessor, raw):
    """Extent nodes any of whose accessor values equals ``raw`` under
    runtime-casting comparison semantics."""
    key = normalize_key(raw)
    return [
        node for node in extent
        if any(normalize_key(value) == key and normalize_key(value) is not None
               for value in extract_values(store, node, accessor))
    ]


_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


#: Blanks XML allows around a number, and blanks only ``float()`` allows.
_BLANKS = " \t\n\r\x0b\x0c\x1c\xa0 "
_SPELLINGS = ("INF", "-INF", "+INF", "inf", "Inf", "-inf", "infinity",
              "Infinity", "NaN", "nan", "NAN", "-NaN", "+nan")
#: Strings at the edge of ``xs:double``'s lexical space: ASCII and other
#: digits, ``_``, blanks, signs, exponents and every spelling of infinity
#: and NaN, loose and composed into numerals.
LEXICAL_EDGES = st.one_of(
    st.text(alphabet="0123456789١٢５_.+-eE" + _BLANKS + "INFaifnty",
            max_size=8),
    st.builds(lambda lead, sign, body, trail: lead + sign + body + trail,
              st.text(alphabet=_BLANKS, max_size=2),
              st.sampled_from(("", "+", "-")),
              st.one_of(st.sampled_from(_SPELLINGS),
                        st.from_regex(r"[0-9]{0,3}(\.[0-9]{0,2})?([eE][+-]?[0-9]{1,3})?",
                                      fullmatch=True),
                        st.from_regex(r"[0-9]_[0-9]{3}", fullmatch=True)),
              st.text(alphabet=_BLANKS, max_size=2)),
    st.sampled_from(("10", "10.0", "1e1", " 10 ", "person1", "abc", "")),
)

#: The reference: ``xs:double``'s lexical space, XML blanks around it.
_XS_DOUBLE = re.compile(r"[ \t\n\r]*([+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
                        r"(?:[eE][+-]?[0-9]+)?|-?INF|NaN)[ \t\n\r]*")


def reference_cast(text: str) -> float | None:
    match = _XS_DOUBLE.fullmatch(text)
    return None if match is None else float(match[1])


def _scan_range_matches(store, extent, accessor, op, bound):
    """Extent nodes any of whose accessor values satisfies ``value OP
    bound`` numerically (non-castable values never match, as at runtime)."""
    compare = _OPS[op]
    matched = []
    for node in extent:
        for value in extract_values(store, node, accessor):
            key = normalize_key(value)
            if isinstance(key, float) and compare(key, bound):
                matched.append(node)
                break
    return matched


def _dedupe_doc_order(entries):
    seen = set()
    out = []
    for seq, handle in sorted(entries, key=lambda entry: entry[0]):
        if seq not in seen:
            seen.add(seq)
            out.append(handle)
    return out


@pytest.fixture(scope="module")
def tiny_stores(tiny_text):
    """All seven systems loaded with the tiny document."""
    stores = {}
    for name in SYSTEMS:
        store = make_store(name)
        store.load(tiny_text)
        stores[name] = store
    return stores


@pytest.fixture(params=["tiny", "small"], scope="module")
def store_set(request, tiny_stores, loaded_stores):
    """Each document size in turn; every test below runs on both."""
    return tiny_stores if request.param == "tiny" else loaded_stores


# -- build ----------------------------------------------------------------------------


class TestBuild:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_every_store_builds_indexes_at_load(self, store_set, system):
        store = store_set[system]
        indexes = store.indexes
        assert indexes is not None
        assert indexes.nodes_walked > 0
        assert indexes.values and indexes.sorteds
        # B's per-path tables and D's summary serve every path extent
        # themselves; every other store gets the generic path index.
        assert store.native_path_extents == (system in ("B", "D"))
        assert (indexes.paths is None) == store.native_path_extents

    def test_path_index_is_built_where_a_plan_reads_it(self, loaded_stores,
                                                       tiny_text):
        """B and D have no path index; E's plans still read its own, and a
        shard's backend still builds the one its shard profile reads."""
        assert loaded_stores["B"].indexes.paths is None
        assert loaded_stores["D"].indexes.paths is None
        compiled = compile_query('document("auction.xml")/site/people/person/name',
                                 loaded_stores["E"], get_profile("E"))
        plans = [plan for plan in compiled.path_plans.values()
                 if plan.kind == "path_index"]
        assert plans and all(plan.source == "index" for plan in plans)
        sharded = ShardedStore(2, ("F",))
        sharded.load(tiny_text)
        assert sharded.indexes.paths is not None
        for shard in sharded.shard_stores():
            assert shard.indexes.paths is not None
            assert shard.indexes.covers_path(("site", "people", "person"))

    def test_extents_identical_across_architectures(self, store_set):
        """Same spec + same document => same index cardinalities on every
        physical mapping (the builder is store-agnostic)."""
        summaries = {name: store.indexes.summary()
                     for name, store in store_set.items()}
        reference = summaries["G"]
        for name, summary in summaries.items():
            assert summary["nodes_walked"] == reference["nodes_walked"], name
            for mine, theirs in zip(summary["value"], reference["value"]):
                assert (mine["entries"], mine["distinct_keys"]) == \
                       (theirs["entries"], theirs["distinct_keys"]), name
            for mine, theirs in zip(summary["sorted"], reference["sorted"]):
                assert mine["entries"] == theirs["entries"], name

    def test_schema_store_build_parses_no_fragments(self, small_text):
        """The stop-tag walk must keep System C's CLOBs unparsed.  The
        stats counter is reset at the end of mark_loaded, so the observable
        guard is the fragment buffer pool: any parse during the build would
        have populated it."""
        from repro.storage.schema_store import SchemaStore
        store = SchemaStore()
        store.load(small_text)
        assert store.indexes is not None
        assert len(store._frag_xml) > 0        # there were fragments to tempt it
        assert store._frag_cache == {}         # ...and none was parsed

    def test_person_id_extent_matches_document(self, loaded_stores,
                                               small_document):
        persons = small_document.root.find("people").find_all("person")
        for name, store in loaded_stores.items():
            index = store.indexes.value_field(
                ("site", "people", "person"), ("@id",))
            assert index.extent_size == len(persons), name
            assert index.distinct_keys == len(persons), name


# -- the probe == scan property -------------------------------------------------------


class TestProbeEqualsScan:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_value_probe_returns_exact_scan_set(self, store_set, system):
        """Every key of every value index: probe == scan, node for node."""
        store = store_set[system]
        for (path, accessor), index in store.indexes.values.items():
            extent = _scan_extent(store, path)
            assert index.extent_size == len(extent), (path, accessor)
            raws = {raw for node in extent
                    for raw in extract_values(store, node, accessor)}
            for raw in raws:
                probed = [handle for _seq, handle in index.probe(raw)]
                assert probed == _scan_value_matches(store, extent, accessor, raw), \
                    (path, accessor, raw)
        # A key that exists nowhere probes empty.
        index = store.indexes.value_field(("site", "people", "person"), ("@id",))
        assert index.probe("no-such-person") == []

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    @given(bound=st.floats(min_value=-10.0, max_value=200000.0,
                           allow_nan=False, allow_infinity=False),
           op=st.sampled_from(sorted(_OPS)))
    @settings(max_examples=25, deadline=None)
    def test_sorted_range_returns_exact_scan_set(self, store_set, system,
                                                 bound, op):
        """Any bound, any inequality: range probe == numeric scan filter."""
        store = store_set[system]
        for (path, accessor), index in store.indexes.sorteds.items():
            extent = _scan_extent(store, path)
            probed = _dedupe_doc_order(index.pairs(*index.window(op, bound)))
            assert probed == _scan_range_matches(store, extent, accessor, op, bound), \
                (path, accessor, op, bound)

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    @given(bound=st.floats(min_value=-10.0, max_value=200000.0,
                           allow_nan=False, allow_infinity=False),
           op=st.sampled_from(sorted(_OPS) + ["="]),
           scale=st.sampled_from([1.0, 0.5, 3.0, 5000.0]))
    @settings(max_examples=25, deadline=None)
    def test_window_equals_the_materialized_list(self, store_set, system,
                                                 bound, op, scale):
        """Any (op, bound, scale): the bisected window is, item for item,
        the list a linear filter over the index entries materializes —
        through ``len``, truth, iteration, indexing and ``list()`` — and
        it wraps a handle only when one is pulled."""
        compare = {**_OPS, "=": lambda a, b: a == b}[op]
        for index in store_set[system].indexes.sorteds.values():
            expected = [(seq, handle) for key, seq, handle
                        in zip(index._keys, index.seqs, index.handles)
                        if compare(scale * key, bound)]
            start, stop = index.window(op, bound, scale)
            assert list(index.pairs(start, stop)) == expected
            handles = [handle for _seq, handle in expected]
            owner = SimpleNamespace(items_materialized=0)
            window = NodeWindow(index.handles, start, stop, owner)
            assert len(window) == len(expected)
            assert bool(window) == bool(expected)
            assert window.raw() == handles
            assert owner.items_materialized == 0        # nothing pulled yet
            assert [item.handle for item in window] == handles
            assert owner.items_materialized == len(expected)
            materialized = list(window)
            assert type(materialized) is list
            assert all(type(item) is NodeItem for item in materialized)
            assert [item.handle for item in materialized] == handles
            assert [window[i].handle for i in range(len(window))] == handles
            if expected:
                assert window[-1].handle == handles[-1]
            for out_of_range in (len(window), -len(window) - 1):
                with pytest.raises(IndexError):
                    window[out_of_range]
            if scale == 1.0 and op != "=":
                assert index.count(op, bound) == len(expected)

    @given(raws=st.lists(LEXICAL_EDGES, min_size=1, max_size=12),
           probes=st.lists(LEXICAL_EDGES, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_value_and_sorted_probes_equal_the_comparators(self, raws, probes):
        """Over strings at the edge of ``xs:double``'s lexical space, a
        hash probe finds exactly the values the runtime ``=`` matches, and
        a sorted window exactly those ``<`` / ``>=`` order: the indexes and
        the comparators cast with one function."""
        hashed, ordered = ValueIndex(None), SortedNumericIndex(None)
        for seq, raw in enumerate(raws):
            hashed.add(raw, seq, seq)
            ordered.add(raw, seq, seq)
        ordered.freeze()
        for probe in probes:
            assert [seq for seq, _handle in hashed.probe(probe)] == [
                seq for seq, raw in enumerate(raws) if COMPARATORS["="](raw, probe)]
            bound = cast_double(probe)
            if bound is None or bound != bound:
                continue
            for op in ("<", ">="):
                window = ordered.window(op, bound)
                assert sorted(seq for seq, _handle in ordered.pairs(*window)) == [
                    seq for seq, raw in enumerate(raws) if COMPARATORS[op](raw, probe)]

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_path_extents_return_exact_scan_set(self, store_set, system):
        """Every walked label path: the extent a path plan reads (the
        store's own on B and D, the path index's elsewhere) == navigation
        walk."""
        store = store_set[system]
        indexes = store.indexes
        for path in store_set["G"].indexes.paths.paths():
            if store.native_path_extents:
                assert store.nodes_at_path(path) == _scan_extent(store, path), path
            elif indexes.covers_path(path):
                assert indexes.path_extent(path) == _scan_extent(store, path), path

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_uncovered_paths_are_refused_not_guessed(self, store_set, system):
        """Paths through a stop tag are outside the walk: the index must
        say "not covered" rather than return a wrong empty extent."""
        store = store_set[system]
        indexes = store.indexes
        fragment_interior = ("site", "regions", "europe", "item",
                            "description", "parlist", "listitem")
        bogus = ("site", "people", "bogus")
        assert not indexes.covers_path(fragment_interior)
        assert indexes.path_extent(fragment_interior) is None
        if store.native_path_extents:
            # No path index to cover anything; the store's own extents
            # reach through a stop tag, and an absent path is empty.
            assert not indexes.covers_path(bogus)
            assert store.nodes_at_path(fragment_interior) == \
                _scan_extent(store, fragment_interior)
            assert store.nodes_at_path(bogus) == []
            return
        # ...while a merely-absent path under covered territory is an
        # honest empty extent.
        assert indexes.covers_path(bogus) is True
        assert indexes.path_extent(bogus) == []


# -- the one number cast ----------------------------------------------------------------


class TestCast:
    @given(text=LEXICAL_EDGES)
    @example(text="1_000")
    @example(text="١٢")
    @example(text="infinity")
    @example(text=" -INF\n")
    @example(text="\x0c12")
    @example(text="1e400")
    @settings(max_examples=500, deadline=None)
    def test_cast_is_xs_double_lexical_space(self, text):
        """The comparators' cast and the index key agree with a regex of
        the lexical space on every string: a number there, None (a string
        key) outside it, and NaN never a key."""
        expected = reference_cast(text)
        for cast in (cast_double, try_number):
            value = cast(text)
            if expected is None or expected == expected:
                assert value == expected, (cast, text)
            else:
                assert value != value, (cast, text)
        assert normalize_key(text) == (
            text if expected is None else expected if expected == expected else None)

    def test_an_id_fails_without_raising(self):
        """An id, a word, a Python-only spelling: no exception is raised
        anywhere inside the cast (the cast is a test, not a caught
        ``ValueError``)."""
        raised = []

        def watch(frame, event, arg):
            if event == "exception":
                raised.append(arg[0])
            return watch

        for text in ("person1234", "item0", "open_auction7", "abc", "inf",
                     "nan", "", "1_000", "١٢", " 12 ", "$5"):
            sys.settrace(watch)
            try:
                value, key = try_number(text), normalize_key(text)
            finally:
                sys.settrace(None)
            assert (value, key) == ((12.0, 12.0) if text == " 12 " else (None, text))
        assert raised == []
        sys.settrace(watch)
        try:
            assert cast_double("1.2.3") is None     # only a numeral can raise
        finally:
            sys.settrace(None)
        assert raised == [ValueError]


# -- planner choices ------------------------------------------------------------------


def _scan_profile(system: str) -> SystemProfile:
    from dataclasses import replace
    profile = get_profile(system)
    return replace(profile, name=profile.name + "-scan",
                   use_id_index=False, use_path_index=False,
                   use_value_index=False, use_sorted_index=False)


class TestPlannerChoices:
    def test_q1_value_probe_on_e(self, loaded_stores):
        compiled = compile_query(query_text(1), loaded_stores["E"], get_profile("E"))
        plans = [p for p in compiled.path_plans.values() if p.kind == "value_probe"]
        assert len(plans) == 1
        assert plans[0].prefix == ("site", "people", "person")
        assert plans[0].accessor == ("@id",)
        assert plans[0].est_rows < plans[0].scan_rows

    def test_q5_range_plan_with_cost_stats(self, loaded_stores):
        compiled = compile_query(query_text(5), loaded_stores["D"], get_profile("D"))
        assert len(compiled.range_plans) == 1
        plan = next(iter(compiled.range_plans.values()))
        assert plan.path == ("site", "closed_auctions", "closed_auction")
        assert plan.accessor == ("price", "text()")
        assert plan.op == ">=" and plan.bound == 40.0
        assert plan.est_rows < plan.scan_rows

    def test_q8_hash_join_is_index_backed(self, loaded_stores):
        for system in ("A", "D"):
            compiled = compile_query(query_text(8), loaded_stores[system],
                                     get_profile(system))
            joins = list(compiled.join_plans.values())
            assert len(joins) == 1
            assert joins[0].strategy == "hash"
            assert joins[0].index_kind == "value"
            assert joins[0].index_accessor == ("buyer", "@person")

    def test_q12_sorted_join_served_from_index_on_d(self, loaded_stores):
        compiled = compile_query(query_text(12), loaded_stores["D"], get_profile("D"))
        joins = [j for j in compiled.join_plans.values() if j.strategy == "sorted"]
        assert len(joins) == 1
        assert joins[0].index_kind == "sorted"
        assert joins[0].index_scale == 5000.0
        assert joins[0].index_path == ("site", "open_auctions", "open_auction",
                                       "initial")

    def test_q20_income_predicates_become_range_probes(self, loaded_stores):
        compiled = compile_query(query_text(20), loaded_stores["D"], get_profile("D"))
        probes = [p for p in compiled.path_plans.values() if p.kind == "range_probe"]
        assert {(p.op, p.bound) for p in probes} == {(">=", 100000.0), ("<", 30000.0)}

    def test_exactly_one_over_optional_field_is_not_index_backed(self, loaded_stores):
        """exactly-one() raises on profiles without @income; an index probe
        would silently skip them, so the planner must refuse the rewrite
        (the raw-cardinality counters prove the wrapper can raise here)."""
        from repro.errors import QueryError
        query = ('for $f in document("auction.xml")/site/people/person/profile '
                 'where exactly-one($f/@income) > 5000 return $f/@income')
        store = loaded_stores["D"]
        income = store.indexes.sorted_field(
            ("site", "people", "person", "profile"), ("@income",))
        assert income.nodes_empty > 0      # the document that makes it unsafe
        compiled = compile_query(query, store, get_profile("D"))
        assert not compiled.range_plans
        with pytest.raises(QueryError, match="exactly-one"):
            evaluate(compiled)
        with pytest.raises(QueryError, match="exactly-one"):
            evaluate(compile_query(query, store, _scan_profile("D")))

    def test_safe_cardinality_wrapper_keeps_index_backing(self, loaded_stores):
        """Q12's exactly-one($i/text()) over open_auction/initial is provably
        single-valued, so the sorted join stays index-backed."""
        store = loaded_stores["D"]
        initial = store.indexes.sorted_field(
            ("site", "open_auctions", "open_auction", "initial"), ("text()",))
        assert initial.nodes_empty == 0 and initial.nodes_multi == 0
        compiled = compile_query(query_text(12), store, get_profile("D"))
        assert any(j.index_kind == "sorted" for j in compiled.join_plans.values())

    def test_scan_profiles_plan_no_probes(self, loaded_stores):
        for system in ("D", "E"):
            compiled = compile_query(query_text(1), loaded_stores[system],
                                     _scan_profile(system))
            kinds = {p.kind for p in compiled.path_plans.values()}
            assert kinds == {"steps"}
            assert not compiled.range_plans

    def test_scan_only_systems_never_probe(self, loaded_stores):
        for system in ("F", "G"):
            for query in (1, 5, 20):
                compiled = compile_query(query_text(query), loaded_stores[system],
                                         get_profile(system))
                assert {p.kind for p in compiled.path_plans.values()} == {"steps"}
                assert not compiled.range_plans


# -- end-to-end equivalence: indexed plans == scan plans ------------------------------


class TestIndexedExecutionMatchesScan:
    @pytest.mark.parametrize("system", INDEXED_SYSTEMS)
    @pytest.mark.parametrize("query", (1, 2, 5, 8, 12, 20))
    def test_same_results_with_and_without_indexes(self, loaded_stores,
                                                   system, query):
        store = loaded_stores[system]
        indexed = evaluate(compile_query(query_text(query), store,
                                         get_profile(system)))
        scanned = evaluate(compile_query(query_text(query), store,
                                         _scan_profile(system)))
        assert indexed.serialize() == scanned.serialize()

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    @pytest.mark.parametrize("query", (1, 5))
    def test_indexes_buy_store_accesses_not_just_time(self, loaded_stores,
                                                      system, query):
        """The exact-match and range queries under each system's own
        profile against its scan-only twin: same answer, and where the
        profile enables an index, at least one probe and strictly fewer
        store accesses (every counter the architecture bumps, summed) —
        ``items_materialized`` cannot carry this: it counts index-window
        wraps only, so a scan's is zero.  F and G never probe."""
        store = loaded_stores[system]
        stats = store.stats

        def accesses() -> int:
            return (stats.nodes_visited + stats.index_lookups
                    + stats.table_lookups)

        def run(profile):
            tracer = Tracer()
            before = accesses()
            with tracer.span("run") as root:
                result = evaluate(compile_query(query_text(query), store,
                                                profile), tracer=tracer)
            probes = root.find("evaluator.eval").attrs["index_probes"]
            return result.serialize(), probes, accesses() - before

        answer, probes, cost = run(get_profile(system))
        scan_answer, scan_probes, scan_cost = run(_scan_profile(system))
        assert answer == scan_answer
        assert scan_probes == 0
        if system in INDEXED_SYSTEMS:
            assert probes > 0
            assert cost < scan_cost
        else:
            assert probes == 0 and cost == scan_cost

    def test_probes_count_as_index_lookups(self, loaded_stores):
        store = loaded_stores["E"]
        compiled = compile_query(query_text(1), store, get_profile("E"))
        before = store.stats.index_lookups
        evaluate(compiled)
        assert store.stats.index_lookups > before


# -- invalidation ---------------------------------------------------------------------


class TestInvalidation:
    def test_dropped_indexes_degrade_to_scan_results(self, small_text):
        """A compiled plan survives index invalidation: the evaluator falls
        back to the scan and the results stay identical."""
        store = make_store("E")
        store.load(small_text)
        profile = get_profile("E")
        plans = {q: compile_query(query_text(q), store, profile)
                 for q in (1, 2, 5, 8)}
        with_indexes = {q: evaluate(c).serialize() for q, c in plans.items()}
        store.drop_indexes()
        assert store.indexes is None
        without = {q: evaluate(c).serialize() for q, c in plans.items()}
        assert with_indexes == without

    def test_service_commit_maintains_indexes_with_results(self, tiny_text):
        """A commit through the service keeps the store's IndexSet (it is
        maintained by deltas, not dropped), and the served answers match a
        scan over the updated document."""
        from repro.db import connect
        from repro.update import RegisterPerson, UpdateStream

        with connect(tiny_text, systems=("D",), service=True,
                     max_workers=2) as db:
            service = db.service
            store = db.store("D")
            indexes = store.indexes
            assert indexes is not None
            for query in (1, 5, 8):
                service.execute("D", query)
            db.apply_transaction(
                [RegisterPerson(UpdateStream(store).build_person())])
            assert store.indexes is indexes
            for query in (1, 5, 8):
                scan = compile_query(query_text(query), store,
                                     _scan_profile("D"))
                assert service.execute("D", query).result.serialize() == \
                    evaluate(scan).serialize()
