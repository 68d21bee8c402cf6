"""``single_user_large`` and ``single_user_systems``: the paper's protocol.

One user, one query at a time, ``session.execute(q).fetchall()`` plus
``rowtext`` on every row.  ``xquery`` + ``storage`` + ``db`` do all the work;
``server``, ``service`` and ``wal`` do none.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import repro
from repro.benchmark.queries import query_text
from repro.benchmark.systems import get_profile

from ledger import core, layers, load
from ledger.spans import SpanRecorder

CONFIG = {
    # f=0.1 (~9.8 MB): 5x the largest scale any BENCH_*.json uses.  Also
    # asks for the first row only of four large-result queries, so the
    # streaming cursor is part of the geomean.
    "single_user_large": {"scale": 0.1, "systems": ("D",), "first_row": True},
    # f=0.01 (1 MB, the paper's Fig. 4 size) on four architectures:
    # relational per-path tables, arrays+summary, pure traversal, naive DOM.
    "single_user_systems": {"scale": 0.01, "systems": ("B", "D", "F", "G"),
                            "first_row": False},
}

POINT_QUERIES = (1, 5, 6, 7, 15, 16, 17, 18)
JOIN_QUERIES = (8, 9, 10, 11, 12)


@dataclass
class State:
    document: str
    database: object
    session: object


def _build(scale: float, systems) -> State:
    document = repro.generate_string(scale)
    database = repro.connect(document, systems=systems)
    return State(document, database, database.session())


def _close(state: State) -> None:
    state.session.close()
    state.database.close()


def _first_row(session, system: str, number: int) -> str | None:
    cursor = session.execute(number, system=system)
    row = cursor.fetchone()
    line = None if row is None else cursor.rowtext(row)
    cursor.close()
    return line


def _one_round(state: State, cells, first_row: bool, oracle: core.Oracle,
               tally: core.Tally, speed: core.Speed) -> core.Round:
    rnd = core.Round()
    session = state.session
    first_lines: dict[int, str | None] = {}
    for system, number in cells:
        cell = (system, f"Q{number:02d}")
        speed.mark_if_due()
        try:
            started = time.perf_counter()
            lines = core.fetch(session, system, number)
            ended = time.perf_counter()
        except Exception as exc:            # a failed query is a failed op
            tally.fail(f"{cell}: {exc!r}")
            continue
        rnd.add(cell, (ended - started) * 1000.0, ended)
        tally.check(core.digest_lines(lines) == oracle.query(number),
                    f"{cell}: result differs from pinned System G")
        first_lines[number] = lines[0] if lines else None
    if first_row:
        system = cells[0][0]
        for number in load.FIRST_ROW_QUERIES:
            cell = (system, f"Q{number:02d}.first")
            try:
                started = time.perf_counter()
                line = _first_row(session, system, number)
                ended = time.perf_counter()
            except Exception as exc:
                tally.fail(f"{cell}: {exc!r}")
                continue
            rnd.add(cell, (ended - started) * 1000.0, ended)
            tally.check(line == first_lines.get(number),
                        f"{cell}: first row differs from the full fetch")
    return rnd


def _cells(ctx: core.Context, name: str, index: int):
    """Round ``index``'s order of the (system, query) cells.  Every round
    has its own, so a cheap query is not always measured behind the same
    expensive one — what a cell's median sees is a mix of predecessors,
    whatever the seed."""
    return load.query_round(random.Random(f"{ctx.seed}/{name}/{index}"),
                            systems=CONFIG[name]["systems"])


def request_list(ctx: core.Context, name: str) -> bytes:
    return b"\n".join(load.request_list_bytes(_cells(ctx, name, index))
                      for index in range(3))


def run(ctx: core.Context, name: str):
    config = CONFIG[name]
    scale = ctx.scale(config["scale"])
    tally = core.Tally()
    speed = core.Speed()
    state, setups = core.timed_setups(
        ctx, speed, lambda: _build(scale, config["systems"]), _close)
    try:
        oracle = core.Oracle(scale, state.document)
        tally.check(oracle.document_ok, "document differs from its pinned SHA-256")
        tally.check(not state.database.failed_loads,
                    f"failed loads: {state.database.failed_loads}")
        rounds = core.run_rounds(ctx, speed, lambda index: _one_round(
            state, _cells(ctx, name, index), config["first_row"], oracle,
            tally, speed))
        summary = core.end_to_end(
            rounds, setups, core.peak_rss_mb(),
            core.mean_size_ratio(state.database.load_reports))
    finally:
        _close(state)
    return tally, summary


# -- the traced pass ----------------------------------------------------------------


def _ladder(spans: SpanRecorder, state: State, cells, first_row: bool,
            raw_first: bool) -> dict:
    """One request list up two rungs: raw evaluator and ``Database``.
    Which rung runs first alternates between passes, so neither always
    finds the caches warm.  Returns the counts the raw rung exposes."""
    counts = {"plans": 0, "metadata": 0, "rows": 0}

    def raw(system: str, number: int, request: str) -> None:
        store = state.database.store(system)
        with spans.span("rung.raw", "raw", request):
            with spans.span("raw.compile", "xquery", request):
                compiled = repro.compile_query(query_text(number), store,
                                               get_profile(system))
            with spans.span("raw.evaluate", "xquery", request):
                result = repro.evaluate(compiled)
            with spans.span("raw.rowtext", "xmlio", request):
                result.serialize()
        counts["plans"] += compiled.plans_considered
        counts["metadata"] += compiled.metadata_accesses
        counts["rows"] += len(result)

    def facade(system: str, number: int, request: str) -> None:
        with spans.span("rung.db", "db", request):
            core.fetch(state.session, system, number)

    for system, number in cells:
        request = f"{system}/Q{number:02d}"
        spans.speed.mark_if_due()
        for rung in ((raw, facade) if raw_first else (facade, raw)):
            rung(system, number, request)
    if first_row:
        system = cells[0][0]
        for number in load.FIRST_ROW_QUERIES:
            with spans.span("db.first_row", "xquery", f"{system}/Q{number:02d}"):
                _first_row(state.session, system, number)
    return counts


def trace(ctx: core.Context, name: str):
    config = CONFIG[name]
    scale = ctx.scale(config["scale"])
    systems = config["systems"]
    tally = core.Tally()
    speed = core.Speed()
    spans = SpanRecorder(speed)
    document, out = layers.document_layers(spans, scale)
    database, stores = layers.connect(spans, document, systems=systems)
    out.update(stores)
    state = State(document, database, database.session())
    core.settle()
    try:
        oracle = core.Oracle(scale, document)
        tally.check(oracle.document_ok, "document differs from its pinned SHA-256")
        half = core.Context(ctx.seed, ctx.seconds / 2.0, ctx.smoke)
        untraced = core.run_rounds(half, speed, lambda index: _one_round(
            state, _cells(ctx, name, index), config["first_row"], oracle,
            tally, speed))
        cells = _cells(ctx, name, 0)
        budget = time.perf_counter() + ctx.seconds / 2.0
        counts = _ladder(spans, state, cells, config["first_row"], True)
        passes = 1
        while time.perf_counter() < budget and not ctx.smoke:
            _ladder(spans, state, cells, config["first_row"], passes % 2 == 0)
            passes += 1
        speed.mark()
    finally:
        _close(state)
    spans.write(core.OUT / f"trace-{name}.jsonl")

    raw = spans.by_request("rung.raw")
    facade = spans.by_request("rung.db")
    compiles = spans.by_request("raw.compile")
    evaluates = spans.by_request("raw.evaluate")
    out["xquery.compile_ms.total"] = sum(compiles.values()) * 1000.0
    out["xquery.plans_considered"] = counts["plans"]
    out["storage.metadata_accesses"] = counts["metadata"]
    out["xmlio.serialize_s"] = sum(spans.by_request("raw.rowtext").values())
    out["xmlio.rows_serialized"] = counts["rows"]
    for system in systems:
        per_query = {n: evaluates[f"{system}/Q{n:02d}"] * 1000.0
                     for n in load.ALL_QUERIES}
        out[f"xquery.execute_geomean_ms.{system}"] = core.geomean(per_query.values())
        if system != "D":
            out[f"xquery.join_ms.{system}"] = sum(per_query[n] for n in JOIN_QUERIES)
        elif name == "single_user_large":
            for n, ms in per_query.items():
                out[f"xquery.execute_ms.Q{n:02d}"] = ms
    out["db.facade_self_ratio"] = (
        (sum(facade.values()) - sum(raw.values())) / sum(raw.values()))
    point = [f"D/Q{n:02d}" for n in POINT_QUERIES]
    out["db.facade_self_ms.point"] = 1000.0 * sum(
        facade[r] - raw[r] for r in point) / len(point)
    if config["first_row"]:
        out["xquery.first_row_ms"] = core.geomean(
            v * 1000.0 for v in spans.by_request("db.first_row").values())
    # Like with like: the fastest untraced sample of each full-fetch cell.
    untraced_ms = sum(min(ms for rnd in untraced for ms in rnd.cells.get(cell, ()))
                      for cell in untraced[0].cells if not cell[1].endswith(".first"))
    out["obs.harness_trace_overhead_ratio"] = sum(facade.values()) * 1000.0 / untraced_ms
    return tally, out
