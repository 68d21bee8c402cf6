"""Ablations on the design choices DESIGN.md calls out.

Each ablation isolates one architectural feature by re-running a query with
the feature disabled through the profile system:

* ID index on/off              -> Q1 (exact match)
* structural summary on/off    -> Q6 (regular paths) on System D's store
* join rewrite on/off          -> Q8 (reference chasing)
* sorted vs nested-loop join   -> Q11 (value join) on System D, three
  points: the index-backed sorted probe, the build-once nested loop (one
  comparison per pair), and no join operator at all (the inner FLWOR
  re-evaluated, both key paths re-navigated, per pair)
"""

import pytest

from repro.benchmark.queries import query_text
from repro.benchmark.systems import get_profile
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import SystemProfile, compile_query


def _run(store, query_number, profile):
    compiled = compile_query(query_text(query_number), store, profile)
    return evaluate(compiled)


def bench_q1_with_id_index(benchmark, runner):
    store = runner.store("D")
    profile = get_profile("D")
    benchmark.pedantic(lambda: _run(store, 1, profile), rounds=3, iterations=1)


def bench_q1_without_id_index(benchmark, runner):
    store = runner.store("D")
    profile = SystemProfile(name="D-noid", use_id_index=False, use_path_index=True)
    benchmark.pedantic(lambda: _run(store, 1, profile), rounds=3, iterations=1)


def bench_q6_with_summary(benchmark, runner):
    """System D's store, summary-backed descendant resolution."""
    store = runner.store("D")
    benchmark.pedantic(lambda: _run(store, 6, get_profile("D")), rounds=3, iterations=1)


def bench_q6_without_summary(benchmark, runner):
    """Same document on the pure-traversal store (F) — the ablated baseline."""
    store = runner.store("F")
    benchmark.pedantic(lambda: _run(store, 6, get_profile("F")), rounds=3, iterations=1)


def bench_q8_with_join_rewrite(benchmark, runner):
    store = runner.store("E")
    benchmark.pedantic(lambda: _run(store, 8, get_profile("E")), rounds=3, iterations=1)


def bench_q8_without_join_rewrite(benchmark, runner):
    store = runner.store("E")
    naive = SystemProfile(name="E-naive", join_rewrite_depth=0, use_id_index=False)
    benchmark.pedantic(lambda: _run(store, 8, naive), rounds=3, iterations=1)


def bench_q11_sorted_join(benchmark, runner):
    store = runner.store("D")
    benchmark.pedantic(lambda: _run(store, 11, get_profile("D")), rounds=2, iterations=1)


Q11_NLJ = SystemProfile(name="D-nlj", inequality_join="nlj",
                        use_id_index=True, use_path_index=True)
Q11_REEVAL = SystemProfile(name="D-reeval", join_rewrite_depth=0,
                           use_id_index=True, use_path_index=True)


def bench_q11_nested_loop(benchmark, runner):
    store = runner.store("D")
    benchmark.pedantic(lambda: _run(store, 11, Q11_NLJ), rounds=2, iterations=1)


def bench_q11_reevaluated(benchmark, runner):
    store = runner.store("D")
    benchmark.pedantic(lambda: _run(store, 11, Q11_REEVAL), rounds=2, iterations=1)


def bench_ablation_shapes(benchmark, runner):
    """Assert every ablation moves latency the expected direction."""
    import time

    def timed(fn):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    store_d = runner.store("D")
    store_e = runner.store("E")
    store_f = runner.store("F")

    def run_all():
        naive_e = SystemProfile(name="E-naive", join_rewrite_depth=0, use_id_index=False)
        return {
            "q6_summary": timed(lambda: _run(store_d, 6, get_profile("D"))),
            "q6_traversal": timed(lambda: _run(store_f, 6, get_profile("F"))),
            "q8_join": timed(lambda: _run(store_e, 8, get_profile("E"))),
            "q8_naive": timed(lambda: _run(store_e, 8, naive_e)),
            "q11_sorted": timed(lambda: _run(store_d, 11, get_profile("D"))),
            "q11_nlj": timed(lambda: _run(store_d, 11, Q11_NLJ)),
            "q11_reeval": timed(lambda: _run(store_d, 11, Q11_REEVAL)),
        }

    times = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for key, value in times.items():
        benchmark.extra_info[key + "_ms"] = round(value * 1000, 2)
    assert times["q8_join"] < times["q8_naive"], "hash join must beat re-evaluation"
    # Plain ordering only (measured 2.0 / 5.4 / 63 ms): ms-scale cells on a
    # shared runner do not carry a multiplier.
    assert times["q11_sorted"] < times["q11_nlj"] < times["q11_reeval"], \
        "sorted probe < build-once NLJ < inner FLWOR re-evaluated per pair"
