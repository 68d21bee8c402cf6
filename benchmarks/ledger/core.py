"""Shared pieces of the ledger: statistics, samples, the oracle, set-up timing.

The harness talks to the program only through its public entry points
(``repro.connect``, sessions, cursors, ``compile_query``/``evaluate``, the
service, the scatter executor, the wire client).  Everything that decides
*what* is offered and *whether an answer is right* lives in this directory.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import re
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import unescape

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
OUT = LEDGER / "out"
PINS_PATH = LEDGER / "pins.json"
SMOKE_SCALE = 0.002

#: How many times a run sets up from scratch; ``setup_s`` is the median.
SETUP_REPEATS = 3


# -- run context ------------------------------------------------------------------


@dataclass
class Context:
    """One invocation: the seed, how long to measure, and the mode."""

    seed: int
    seconds: float
    smoke: bool = False

    def scale(self, full: float) -> float:
        return SMOKE_SCALE if self.smoke else full

    def size(self, full: int, smoke: int) -> int:
        """A request count: the fixed full-size one, or the smoke one."""
        return smoke if self.smoke else full

    @property
    def setup_repeats(self) -> int:
        return 1 if self.smoke else SETUP_REPEATS


# -- statistics -------------------------------------------------------------------


median = statistics.median


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, p: float) -> float:
    """The ``p``-th percentile by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def p95(values) -> float:
    """p95 — or, with fewer than 200 samples, the highest of p90 / p75 /
    the median that still has ten samples beyond it."""
    for p in (95, 90, 75):
        if len(values) * (100 - p) >= 1000:
            return percentile(values, p)
    return median(values)


# -- the machine's speed ----------------------------------------------------------
#
# This sandbox's cores change speed by up to 45 % for seconds at a time (a
# fixed pure-Python loop measured 124-184 ms here within one minute), which
# no amount of repetition inside a 10-second run averages out.  So every
# timing is reported *at reference speed*: a small fixed kernel of
# interpreter work is timed beside the measurements, and each measured time
# is multiplied by (reference kernel time / kernel time measured around it).
# The kernel is harness code, so a change to the program cannot move it.  On
# recorded series this cut the run-to-run spread of a query's median from
# 10-13 % to 2-4 %.

#: Seconds the calibration kernel takes at reference speed.
REFERENCE_KERNEL_S = 0.008


def _kernel() -> int:
    counts: dict = {}
    pairs = []
    for i in range(20000):
        key = "k%d" % (i % 257)
        counts[key] = counts.get(key, 0) + i
        pairs.append((i, key))
    pairs.sort(key=lambda pair: pair[1])
    return sum(counts.values()) + len("".join(key for _, key in pairs[:2000]))


class Speed:
    """Calibration marks over time; ``factor(at)`` scales a time measured
    at ``at`` to reference speed (interpolating between the marks around it)."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []

    def mark(self) -> None:
        best = None
        for _ in range(2):
            started = time.perf_counter()
            _kernel()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        self.marks.append((time.perf_counter(), best))

    def timed(self, call):
        """Run ``call()`` between two marks: ``(its result, its seconds at
        reference speed)`` — for one-off timings such as a set-up."""
        self.mark()
        started = time.perf_counter()
        result = call()
        ended = time.perf_counter()
        self.mark()
        return result, (ended - started) * self.factor((started + ended) / 2.0)

    def mark_if_due(self, every: float = 0.12) -> None:
        if time.perf_counter() - self.marks[-1][0] >= every:
            self.mark()

    def factor(self, at: float) -> float:
        marks = self.marks
        low = bisect.bisect_right(marks, (at, math.inf))
        if low == 0:
            kernel = marks[0][1]
        elif low == len(marks):
            kernel = marks[-1][1]
        else:
            (t0, k0), (t1, k1) = marks[low - 1], marks[low]
            kernel = k0 + (k1 - k0) * (at - t0) / (t1 - t0)
        return REFERENCE_KERNEL_S / kernel


# -- the oracle -------------------------------------------------------------------


def digest_lines(lines) -> str:
    """SHA-256 of a result's ``rowtext`` lines — the unit of comparison."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def person_names(document: str) -> dict[str, str]:
    """``person id -> name`` read from the document text with a regex — the
    load generator's ids and the point-lookup oracle, no engine involved."""
    people = document[document.index("<people>"):document.index("</people>")]
    return {person: unescape(name, {"&quot;": '"', "&apos;": "'"})
            for person, name in re.findall(
                r'<person id="(person\d+)"><name>([^<]*)</name>', people)}


def scale_key(scale: float) -> str:
    return repr(float(scale))


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Oracle:
    """Answers pinned from eager System G, plus a regex point-lookup oracle.

    ``pins.json`` holds, per scale factor, the SHA-256 of the generated
    document and of every Q1-Q20 result as eager System G computed it
    (``run.py --pin``; G needs ~2 minutes at f=0.1, which is why the pin
    is committed and not recomputed in every run).  Point lookups are
    answered from the document text directly — no engine involved.
    """

    def __init__(self, scale: float, document: str) -> None:
        pins = load_pins()
        key = scale_key(scale)
        #: What the document's SHA-256 has to be (``None``: scale not pinned).
        self.pinned_document = pins["documents"].get(key)
        self.document_ok = (hashlib.sha256(document.encode("utf-8")).hexdigest()
                            == self.pinned_document)
        self._queries = pins["queries"].get(key, {})
        self._names = person_names(document)
        self._points: dict[str, str] = {}

    def query(self, number: int) -> str:
        return self._queries[str(number)]

    def point(self, text: str) -> str:
        """Expected digest of the point lookup ``text`` (Q1 with some id)."""
        cached = self._points.get(text)
        if cached is None:
            person = re.search(r'@id = "(person\d+)"', text).group(1)
            cached = self._points[text] = digest_lines([self._names[person]])
        return cached

    def expected(self, kind: str, text: str) -> str:
        if kind == "point":
            return self.point(text)
        return self.query(int(kind[1:]))


# -- samples ----------------------------------------------------------------------


@dataclass
class Round:
    """One pass over a workload's fixed request list.

    Operations are added as measured, with the time they ended;
    :meth:`close` converts them to reference speed once the calibration
    mark after the round exists.
    """

    cells: dict = field(default_factory=dict)   # query cell -> [ms, ...]
    commits: dict = field(default_factory=dict)  # commit kind -> [ms, ...]
    seconds: float = 0.0                        # measured time of the pass
    ops: int = 0
    wall: tuple[float, float] | None = None     # concurrent clients: first start, last end
    raw_ms: list = field(default_factory=list)  # query latencies as measured
    raw_seconds: float = 0.0                    # the pass as measured
    _raw: list = field(default_factory=list)

    def add(self, cell, ms: float, at: float) -> None:
        self._raw.append((self.cells, cell, ms, at))

    def add_commit(self, kind: str, ms: float, at: float) -> None:
        """A commit (or checkpoint) counts as an operation and its time as
        measured time, but it is no query cell: ``query_geomean_ms`` stays
        the readers' view."""
        self._raw.append((self.commits, kind, ms, at))

    def close(self, speed: Speed) -> None:
        raw_seconds = 0.0
        for group, key, ms, at in self._raw:
            scaled = ms * speed.factor(at)
            group.setdefault(key, []).append(scaled)
            self.seconds += scaled / 1000.0
            raw_seconds += ms / 1000.0
            if group is self.cells:
                self.raw_ms.append(ms)
        self.ops = len(self._raw)
        self._raw = []
        if self.wall is not None:       # clients overlapped: wall clock, not the sum
            start, end = self.wall
            raw_seconds = end - start
            self.seconds = raw_seconds * speed.factor((start + end) / 2.0)
        self.raw_seconds = raw_seconds


@dataclass
class Tally:
    """Operations attempted / failed, with the first few reasons kept."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 8:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> None:
        if condition:
            self.ok()
        else:
            self.fail(reason)


def fetch(session, system: str | None, query) -> list[str]:
    """One query as a client issues it: execute, fetch every row, render
    every row — the unit every workload times."""
    cursor = session.execute(query, system=system)
    return [cursor.rowtext(row) for row in cursor.fetchall()]


def cell_medians(rounds: list[Round]) -> dict:
    pooled: dict = {}
    for rnd in rounds:
        for cell, values in rnd.cells.items():
            pooled.setdefault(cell, []).extend(values)
    return {cell: median(values) for cell, values in pooled.items()}


def query_latencies(rounds: list[Round]) -> list[float]:
    return [ms for rnd in rounds for values in rnd.cells.values() for ms in values]


def summarize(rounds: list[Round]) -> dict:
    """The two timing metrics every workload reports, from its rounds.

    ``query_geomean_ms``: geometric mean latency over every measured query
    of the run — what a typical request costs its client.  A geometric mean
    over requests, not a median: the mixes are bimodal (a cache hit costs
    0.05 ms, a miss 5 ms), and a median flips between the modes where the
    mean of logarithms moves smoothly with the hit ratio.
    ``throughput_ops_s``: completed operations over measured seconds; for
    the single-threaded workloads this is the inverse of the paper's Table 3
    total, so Q10-Q12 dominate it.  ``spread`` holds both per round (for
    quartiles), ``as_measured`` both without the reference-speed scaling,
    ``cells`` the per-cell medians in ms.
    """
    ops = sum(r.ops for r in rounds)
    return {
        "query_geomean_ms": geomean(query_latencies(rounds)),
        "throughput_ops_s": ops / sum(r.seconds for r in rounds),
        "spread": {
            "query_geomean_ms": [geomean(query_latencies([r])) for r in rounds],
            "throughput_ops_s": [r.ops / r.seconds for r in rounds],
        },
        "as_measured": {
            "query_geomean_ms": geomean(ms for r in rounds for ms in r.raw_ms),
            "throughput_ops_s": ops / sum(r.raw_seconds for r in rounds),
        },
        "cells": {"/".join(cell) if isinstance(cell, tuple) else cell: value
                  for cell, value in sorted(cell_medians(rounds).items())},
    }


# -- set-up, memory ---------------------------------------------------------------


def timed_setups(ctx: Context, speed: Speed, build, close):
    """Set up ``ctx.setup_repeats`` times; keep the last state.

    ``build()`` returns the workload's live state; ``close(state)`` tears
    one down.  Returns ``(state, [seconds, ...])`` at reference speed —
    ``setup_s`` is the median, so one slow start does not set it.
    """
    times = []
    state = None
    for _ in range(ctx.setup_repeats):
        if state is not None:
            close(state)
            state = None
        gc.collect()
        state, seconds = speed.timed(build)
        times.append(seconds)
    settle()
    return state, times


def settle() -> None:
    """After set-up: the loaded stores are millions of long-lived objects;
    keep the cyclic collector from re-walking them inside timed regions
    (a full collection in the middle of Q10 cost 230 ms when it did)."""
    gc.collect()
    gc.freeze()


def end_to_end(rounds: list[Round], setups: list[float], rss_mb: float,
               size_ratio: float) -> dict:
    """The five end-to-end metrics (plus ``spread``, ``as_measured`` and
    ``cells`` for the run's detail file) every workload reports."""
    summary = summarize(rounds)
    summary["setup_s"] = median(setups)
    summary["spread"]["setup_s"] = setups
    summary["peak_rss_mb"] = rss_mb
    summary["stored_bytes_ratio"] = size_ratio
    return summary


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mean_size_ratio(load_reports: dict) -> float:
    ratios = [report.size_ratio for report in load_reports.values()
              if report.database_bytes]
    return sum(ratios) / len(ratios)


def run_rounds(ctx: Context, speed: Speed, one_round) -> list[Round]:
    """Warm up once, then repeat ``one_round(index)`` for ``ctx.seconds``.

    Whole rounds only: every round is the same request list, so a faster
    program completes more rounds, never a different mix.  ``gc.collect()``
    and the calibration marks run between rounds, never inside an operation.
    """
    gc.collect()
    speed.mark()
    one_round(0).close(speed)                   # untimed warm-up pass
    rounds: list[Round] = []
    measured = 0.0
    index = 1
    while not rounds or (measured < ctx.seconds and not ctx.smoke):
        gc.collect()
        speed.mark()
        started = time.perf_counter()
        rnd = one_round(index)
        measured += time.perf_counter() - started
        speed.mark()
        rnd.close(speed)
        rounds.append(rnd)
        index += 1
    return rounds


def run_threads(bodies) -> tuple[float, float]:
    """Run every ``body()`` on a thread of its own, released together;
    returns the wall clock ``(first start, last end)`` of the pass."""
    barrier = threading.Barrier(len(bodies))
    walls: list = []

    def client(body) -> None:
        barrier.wait()
        started = time.perf_counter()
        body()
        walls.append((started, time.perf_counter()))

    threads = [threading.Thread(target=client, args=(body,)) for body in bodies]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return min(start for start, _ in walls), max(end for _, end in walls)
