"""Shared benchmark fixtures.

Benchmarks run at reduced scale (PAPER_SCALE = 0.005, a ~500 kB document;
Figure 4 uses 0.001/0.01 exactly as the paper's 100 kB / 1 MB).  Absolute
times are not comparable with the paper's 2002 hardware — the *shape*
(orderings, ratios, crossovers) is what each bench regenerates; see
EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.benchmark.runner import BenchmarkRunner
from repro.xmlgen.generator import generate_string

PAPER_SCALE = 0.005
FIGURE4_SMALL = 0.001   # the paper's 100 kB document
FIGURE4_LARGE = 0.01    # the paper's 1 MB document


@pytest.fixture(scope="session")
def bench_text() -> str:
    return generate_string(PAPER_SCALE)


@pytest.fixture(scope="session")
def runner(bench_text) -> BenchmarkRunner:
    """All seven systems loaded with the benchmark document."""
    return BenchmarkRunner(bench_text)


@pytest.fixture(scope="session")
def runner_4x() -> BenchmarkRunner:
    """Systems A-F on a document four times the benchmark one: the second
    point a growth-rate claim (quadratic vs n log n) needs."""
    return BenchmarkRunner(generate_string(4 * PAPER_SCALE),
                           systems=("A", "B", "C", "D", "E", "F"))


@pytest.fixture(scope="session")
def figure4_runners() -> dict[float, BenchmarkRunner]:
    return {
        scale: BenchmarkRunner(generate_string(scale), systems=("G",))
        for scale in (FIGURE4_SMALL, FIGURE4_LARGE)
    }
