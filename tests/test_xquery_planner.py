"""Tests for the per-system planner: access paths, joins, optimization effort."""

import pytest

from repro.benchmark.queries import query_text
from repro.benchmark.systems import get_profile, make_store
from repro.xquery.ast import LetClause, walk
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import SystemProfile, compile_query

Q8_LIKE = """
for $p in /site/people/person
let $a := for $t in /site/closed_auctions/closed_auction
          where $t/buyer/@person = $p/@id
          return $t
return count($a)
"""

Q11_LIKE = """
for $p in /site/people/person
let $l := for $i in /site/open_auctions/open_auction/initial
          where $p/profile/@income > 5000 * exactly-one($i/text())
          return $i
return count($l)
"""


def _join_plans(compiled):
    return list(compiled.join_plans.values())


class TestAccessPaths:
    def test_id_lookup_annotation(self, loaded_stores):
        store = loaded_stores["D"]
        compiled = compile_query(query_text(1), store, get_profile("D"))
        kinds = {plan.kind for plan in compiled.path_plans.values()}
        assert "id_lookup" in kinds

    def test_no_id_lookup_without_index(self, loaded_stores):
        store = loaded_stores["F"]
        compiled = compile_query(query_text(1), store, get_profile("F"))
        kinds = {plan.kind for plan in compiled.path_plans.values()}
        assert "id_lookup" not in kinds

    def test_path_index_for_summary_store(self, loaded_stores):
        store = loaded_stores["D"]
        compiled = compile_query("/site/people/person/name", store, get_profile("D"))
        kinds = {plan.kind for plan in compiled.path_plans.values()}
        assert "path_index" in kinds

    def test_id_lookup_execution_matches_scan(self, loaded_stores):
        for system in ("A", "D", "F"):
            store = loaded_stores[system]
            compiled = compile_query(query_text(1), store, get_profile(system))
            result = evaluate(compiled)
            assert len(result) == 1


class TestJoinPlanning:
    def test_hash_join_detected(self, loaded_stores):
        compiled = compile_query(Q8_LIKE, loaded_stores["D"], get_profile("D"))
        plans = _join_plans(compiled)
        assert len(plans) == 1
        assert plans[0].strategy == "hash"
        assert plans[0].op == "="

    def test_sorted_join_for_inequality_on_d(self, loaded_stores):
        compiled = compile_query(Q11_LIKE, loaded_stores["D"], get_profile("D"))
        plans = _join_plans(compiled)
        assert len(plans) == 1
        assert plans[0].strategy == "sorted"

    def test_inequality_stays_nlj_on_relational(self, loaded_stores):
        for system in ("A", "B", "C"):
            compiled = compile_query(Q11_LIKE, loaded_stores[system], get_profile(system))
            plans = _join_plans(compiled)
            assert [(p.strategy, p.op, p.index_kind) for p in plans] == [("nlj", ">", None)]

    def test_no_rewrites_for_g(self, loaded_stores):
        compiled = compile_query(Q8_LIKE, loaded_stores["G"], get_profile("G"))
        assert _join_plans(compiled) == []

    def test_c_depth_limit_on_q9(self, loaded_stores):
        # The paper's Q9 anomaly: C decorrelates only the first join.
        compiled_c = compile_query(query_text(9), loaded_stores["C"], get_profile("C"))
        compiled_d = compile_query(query_text(9), loaded_stores["D"], get_profile("D"))
        assert len(compiled_c.join_plans) == 1
        assert len(compiled_d.join_plans) == 2

    def test_join_results_identical_with_and_without_rewrite(self, loaded_stores):
        store = loaded_stores["D"]
        with_join = evaluate(compile_query(Q8_LIKE, store, get_profile("D")))
        naive = SystemProfile(name="naive", optimizer="none", join_rewrite_depth=0)
        without = evaluate(compile_query(Q8_LIKE, store, naive))
        assert with_join.items == without.items

    def test_sorted_join_results_identical(self, loaded_stores):
        store = loaded_stores["D"]
        with_join = evaluate(compile_query(Q11_LIKE, store, get_profile("D")))
        naive = SystemProfile(name="naive", optimizer="none", join_rewrite_depth=0)
        without = evaluate(compile_query(Q11_LIKE, store, naive))
        assert with_join.items == without.items


#: Table 2's metadata column: catalog lookups per compiled query, Q1-Q20,
#: over the tiny document (f=0.001).  D has no catalog.
METADATA_ACCESSES = {
    "A": (3, 2, 5, 6, 3, 2, 4, 5, 9, 14, 5, 6, 3, 3, 1, 3, 3, 2, 4, 9),
    "B": (816, 818, 3257, 2444, 1631, 817, 2440, 1636, 3268, 9768, 1637,
          2450, 1632, 2440, 11, 1631, 1631, 818, 3256, 832),
    "C": (5, 5, 11, 10, 5, 3, 4, 10, 18, 30, 10, 12, 6, 4, 12, 14, 5, 4, 6,
          21),
    "D": (0,) * 20,
}


@pytest.mark.parametrize("system", sorted(METADATA_ACCESSES))
def test_metadata_accesses_are_pinned(tiny_text, system):
    store = make_store(system)
    store.load(tiny_text)
    counts = tuple(
        compile_query(query_text(number), store,
                      get_profile(system)).metadata_accesses
        for number in range(1, 21))
    assert counts == METADATA_ACCESSES[system]


class TestCompileEffort:
    def test_b_touches_more_metadata_than_a(self, loaded_stores):
        # Table 2: the fragmenting mapping's compile-time metadata weight.
        compiled_a = compile_query(query_text(2), loaded_stores["A"], get_profile("A"))
        compiled_b = compile_query(query_text(2), loaded_stores["B"], get_profile("B"))
        assert compiled_b.metadata_accesses > compiled_a.metadata_accesses

    def test_exhaustive_optimizer_considers_most_plans(self, loaded_stores):
        compiled_a = compile_query(query_text(3), loaded_stores["A"], get_profile("A"))
        compiled_b = compile_query(query_text(3), loaded_stores["B"], get_profile("B"))
        compiled_f = compile_query(query_text(3), loaded_stores["F"], get_profile("F"))
        assert compiled_a.plans_considered > compiled_b.plans_considered
        assert compiled_b.plans_considered > compiled_f.plans_considered

    def test_warning_for_unknown_tag(self, loaded_stores):
        store = loaded_stores["D"]  # has known_tags()
        compiled = compile_query("/site/people/persn", store, get_profile("D"))
        assert any("persn" in w for w in compiled.warnings)

    def test_no_warning_for_valid_paths(self, loaded_stores):
        compiled = compile_query(query_text(1), loaded_stores["D"], get_profile("D"))
        assert compiled.warnings == []

    def test_no_warnings_without_known_tags(self, loaded_stores):
        compiled = compile_query("/site/peple", loaded_stores["F"], get_profile("F"))
        assert compiled.warnings == []
