"""Smoke test of the ledger itself: shape, names, determinism (f=0.002).

Runs every workload once untraced and once traced in ``--smoke`` size and
checks the output against ``BENCHMARK.json`` — not the numbers, which mean
nothing at this size.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT / "benchmarks")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from ledger import cli, core, pin                       # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE = core.Context(seed=2002, seconds=1.0, smoke=True)


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 5
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    runs = 4 + 22 * len(BENCHMARK["workloads"])
    assert 1 <= BENCHMARK["run_seconds"] <= 60 and runs * 30 <= 3420


@pytest.fixture(scope="module")
def smoke_results():
    """Every workload once untraced and once traced, in this process."""
    return {(workload, traced): cli.run_one(workload, SMOKE, traced)
            for workload in cli.WORKLOADS for traced in (False, True)}


@pytest.mark.parametrize("workload", cli.WORKLOADS)
@pytest.mark.parametrize("traced", (False, True))
def test_smoke_run_reports_every_metric(smoke_results, workload, traced):
    specs = cli.PER_LAYER if traced else cli.END_TO_END
    result, detail = smoke_results[(workload, traced)]
    assert result["correct"] and result["failed"] == 0, detail["reasons"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(specs)
    for name, value in result["metrics"].items():
        assert value["unit"] == specs[name]["unit"]
        assert isinstance(value["value"], (int, float))
        assert traced or value["value"] > 0, name        # end-to-end: never 0
    json.dumps(result)                                   # one JSON line
    if traced:
        assert (core.OUT / f"trace-{workload}.jsonl").stat().st_size > 0
        assert result["metrics"]["obs.harness_trace_overhead_ratio"]["value"] > 0


def test_every_per_layer_metric_is_measured_somewhere(smoke_results):
    measured = {name for (_w, traced), (result, _d) in smoke_results.items() if traced
                for name, value in result["metrics"].items() if value["value"] != 0}
    # Counts that are rightly 0 when nothing goes wrong or nothing is skipped.
    may_be_zero = {"server.busy_replies", "obs.unverified_reads"}
    assert set(cli.PER_LAYER) - measured <= may_be_zero


def test_request_lists_follow_the_seed():
    for workload in cli.WORKLOADS:
        module = cli.module_for(workload)
        same = [module.request_list(core.Context(7, 1.0, True), workload)
                for _ in range(2)]
        other = module.request_list(core.Context(8, 1.0, True), workload)
        assert same[0] == same[1], workload
        assert same[0] != other, workload


def test_pins_match_live_system_g_at_smoke_scale():
    sha, queries = pin.pins_for(core.SMOKE_SCALE)
    pins = core.load_pins()
    key = core.scale_key(core.SMOKE_SCALE)
    assert pins["documents"][key] == sha
    assert pins["queries"][key] == queries
