#!/usr/bin/env python3
"""Compare two ledger reports: ``diff.py A.json B.json`` (A the base).

One row per workload x end-to-end metric, with a verdict:

* ``unresolved`` - either side's spread (q3 - q1 over its median) is wider
  than the metric's bound, so the two medians cannot be told apart;
* ``worse`` / ``better`` - B's median is beyond A's by more than the bound;
* ``same`` - otherwise.

Exits 1 on any ``worse`` row, or when a workload's ``failed_ops_ratio`` rose.
The reports are what ``run.py --json OUT`` writes; use ``--runs N`` there so
that the quartiles are between runs and not between one run's rounds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def relative_spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def verdict(base: dict, other: dict, spec: dict) -> tuple[str, float]:
    """``(verdict, change)``: change > 0 means B is worse, as a share of A."""
    change = (other["median"] - base["median"]) / base["median"]
    if spec["better"] == "higher":
        change = -change
    bound = spec["bound"]
    if max(relative_spread(base), relative_spread(other)) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(base: dict, other: dict, specs: list[dict]) -> tuple[list[tuple], bool]:
    rows, failed = [], False
    for name, entry in base["workloads"].items():
        theirs = other["workloads"].get(name)
        if theirs is None:
            rows.append((name, "-", "missing", 0.0, 0.0, 0.0))
            failed = True
            continue
        for spec in specs:
            a, b = entry["end_to_end"][spec["name"]], theirs["end_to_end"][spec["name"]]
            word, change = verdict(a, b, spec)
            rows.append((name, spec["name"], word, a["median"], b["median"], change))
            failed = failed or word == "worse"
        if theirs["failed_ops_ratio"] > entry["failed_ops_ratio"]:
            rows.append((name, "failed_ops_ratio", "worse", entry["failed_ops_ratio"],
                         theirs["failed_ops_ratio"], 0.0))
            failed = True
    return rows, failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, other = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    specs = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    rows, failed = compare(base, other, specs)
    print(f"{'workload':<22}{'metric':<22}{'verdict':<12}{'A':>12}{'B':>12}{'B worse by':>12}")
    for name, metric, word, a, b, change in rows:
        print(f"{name:<22}{metric:<22}{word:<12}{a:>12.4f}{b:>12.4f}{change:>11.1%}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
