"""``served_mix``: short requests over the wire to a served System D.

Requests cost 1-5 ms in the engine, so framing, the asyncio -> worker-pool
hand-off and paging are most of the latency: ``server`` does most of the work
here and none in the single-user workloads.  Closed loop, two harness threads
with one ``xmark://`` connection each (``nproc`` is 2).
"""

from __future__ import annotations

import gc
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass

import repro
from repro.benchmark.systems import get_profile
from repro.errors import ServerBusyError
from repro.server import protocol
from repro.server.client import WireClient, parse_url

from ledger import core, layers, load
from ledger.spans import SpanRecorder

SCALE = 0.02
CLIENTS = 2
REQUESTS_PER_CLIENT = 150               # per round: short rounds, so the
                                        # calibration marks around them stay close
POINT_SHARE = 0.5
BUSY_RETRIES = 20                       # bounded: then the request failed


@dataclass
class State:
    child: subprocess.Popen
    ready: dict
    databases: list
    sessions: list


def _spawn(scale: float) -> tuple[subprocess.Popen, dict]:
    child = subprocess.Popen(
        [sys.executable, str(core.LEDGER / "serve_child.py"), repr(scale)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    if not line:
        child.wait(timeout=30)
        raise RuntimeError(f"serve_child exited {child.returncode} before ready")
    return child, json.loads(line)


def _build(scale: float) -> State:
    child, ready = _spawn(scale)
    databases = [repro.connect(ready["url"]) for _ in range(CLIENTS)]
    return State(child, ready, databases, [d.session() for d in databases])


def _close(state: State) -> None:
    for database in state.databases:
        try:
            database.close()
        except OSError:
            pass
    child = state.child
    try:
        child.stdin.write("stop\n")
        child.stdin.close()
        child.wait(timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        child.kill()
        child.wait()
    child.stdout.close()


def _child_rss(state: State) -> float:
    state.child.stdin.write("rss\n")
    state.child.stdin.flush()
    return json.loads(state.child.stdout.readline())["peak_rss_mb"]


def _fetch(session, text: str) -> list[str]:
    """One request through the client API, busy replies retried (bounded)."""
    for attempt in range(BUSY_RETRIES + 1):
        try:
            return core.fetch(session, None, text)
        except ServerBusyError:
            if attempt == BUSY_RETRIES:
                raise
            time.sleep(0.001 * (attempt + 1))
    raise AssertionError("unreachable")


def _client(session, requests, oracle, out: list) -> None:
    """One closed-loop client: ``out`` gets a (kind, ms, ok, end time) row
    per request — (kind, None, False, reason) for a failed one."""
    for kind, _system, text in requests:
        started = time.perf_counter()
        try:
            lines = _fetch(session, text)
        except Exception as exc:            # refused or failed: a failed op
            out.append((kind, None, False, f"{kind}: {exc!r}"))
            continue
        ended = time.perf_counter()
        ok = core.digest_lines(lines) == oracle.expected(kind, text)
        out.append((kind, (ended - started) * 1000.0, ok, ended))


def run_clients(sessions, lists, oracle, tally: core.Tally) -> core.Round:
    """One round: every client replays its list; the round's time is the
    wall clock from the first start to the last end."""
    outs = [[] for _ in sessions]
    rnd = core.Round()
    rnd.wall = core.run_threads([
        lambda s=session, r=requests, o=out: _client(s, r, oracle, o)
        for session, requests, out in zip(sessions, lists, outs)])
    for out in outs:
        for kind, ms, ok, at in out:
            if ms is None:
                tally.fail(at)
                continue
            rnd.add(kind, ms, at)
            tally.check(ok, f"{kind}: wrong rows over the wire")
    return rnd


def _lists(ctx: core.Context, view: load.DocView, index: int):
    """Round ``index``'s request list of each client: always the same
    multiset, in an order (and with a popular person) of the round's own."""
    per_client = ctx.size(REQUESTS_PER_CLIENT, 40)
    return [load.read_mix(view, random.Random(f"{ctx.seed}/served/{client}/{index}"),
                          per_client, point_share=POINT_SHARE,
                          point_ids=len(view.person_ids))
            for client in range(CLIENTS)]


def request_list(ctx: core.Context, name: str) -> bytes:
    view = load.DocView(repro.generate_string(ctx.scale(SCALE)))
    return b"\n--\n".join(load.request_list_bytes(r)
                          for index in range(2) for r in _lists(ctx, view, index))


def run(ctx: core.Context, name: str):
    scale = ctx.scale(SCALE)
    document = repro.generate_string(scale)     # the harness's copy: ids, oracle
    oracle = core.Oracle(scale, document)
    view = load.DocView(document)
    tally = core.Tally()
    tally.check(oracle.document_ok, "document differs from its pinned SHA-256")
    speed = core.Speed()
    state, setups = core.timed_setups(ctx, speed, lambda: _build(scale), _close)
    try:
        tally.check(state.ready["document_sha256"] == oracle.pinned_document,
                    "served document differs from the pin")
        rounds = core.run_rounds(ctx, speed, lambda index: run_clients(
            state.sessions, _lists(ctx, view, index), oracle, tally))
        summary = core.end_to_end(rounds, setups, _child_rss(state),
                                  state.ready["size_ratio"])
    finally:
        _close(state)
    return tally, summary


# -- the traced pass ----------------------------------------------------------------


def _wire_fetch(client: WireClient, text: str, frames: list) -> list[str]:
    """The same request at the lowest client entry point, keeping every
    payload for the codec measurement."""
    request = {"kind": "execute", "system": "D", "query": text, "fetch": True}
    reply = client.request(request)
    frames.append((request, reply))
    rows = list(reply.get("rows", ()))
    cursor_id = reply["cursor_id"]
    while not reply.get("done", True):
        request = {"kind": "fetch", "cursor_id": cursor_id}
        reply = client.request(request)
        frames.append((request, reply))
        rows.extend(reply["rows"])
    return rows


def trace(ctx: core.Context, name: str):
    scale = ctx.scale(SCALE)
    tally = core.Tally()
    speed = core.Speed()
    spans = SpanRecorder(speed)
    document, out = layers.document_layers(spans, scale)
    oracle = core.Oracle(scale, document)
    view = load.DocView(document)
    lists = _lists(ctx, view, 0)
    local, stores = layers.connect(spans, document, systems=("D",))  # rungs below the wire
    out.update(stores)
    core.settle()
    state = _build(scale)
    try:
        half = core.Context(ctx.seed, ctx.seconds / 2.0, ctx.smoke)
        untraced = core.run_rounds(half, speed, lambda index: run_clients(
            state.sessions, _lists(ctx, view, index), oracle, tally))
        latencies = core.query_latencies(untraced)
        out["server.request_p50_ms"] = core.median(latencies)
        out["server.request_p95_ms"] = core.p95(latencies)

        # One client from here on: the ladder replays client 0's list, and
        # an untraced pass of the same list through the client API is what
        # the ladder's top rung is compared with.
        gc.collect()
        speed.mark()
        single = run_clients(state.sessions[:1], lists[:1], oracle, tally)
        speed.mark()
        single.close(speed)
        host, port, doc_name = parse_url(state.ready["url"])
        client, connect_s = speed.timed(
            lambda: WireClient(host, port, document=doc_name))
        out["server.connect_ms"] = connect_s * 1000.0
        store = local.store("D")
        profile = get_profile("D")
        frames: list = []
        requests = lists[0]
        gc.collect()
        with local.session() as session:
            for index, (kind, _system, text) in enumerate(requests):
                speed.mark_if_due()
                with spans.span("rung.raw", "raw", index):
                    repro.evaluate(repro.compile_query(text, store, profile)).serialize()
                with spans.span("rung.db", "db", index):
                    core.fetch(session, None, text)
                with spans.span("rung.wire", "server", index):
                    rows = _wire_fetch(client, text, frames)
                tally.check(core.digest_lines(rows) == oracle.expected(kind, text),
                            f"{kind}: wrong rows from WireClient.request")
        speed.mark()
        stats = client.request({"kind": "stats"})
        client.close()
    finally:
        _close(state)
        local.close()
    spans.write(core.OUT / f"trace-{name}.jsonl")

    facade, wire = spans.by_request("rung.db"), spans.by_request("rung.wire")
    count = len(requests)
    out["server.roundtrip_self_ms"] = 1000.0 * core.median(
        wire[r] - facade[r] for r in wire)

    def codec() -> list:
        encoded = [(protocol.encode_frame(req), protocol.encode_frame(rep))
                   for req, rep in frames]
        for req, rep in encoded:
            protocol.decode_payload(req[protocol.HEADER_SIZE:])
            protocol.decode_payload(rep[protocol.HEADER_SIZE:])
        return encoded

    encoded, codec_s = speed.timed(codec)
    out["server.codec_us_per_frame"] = codec_s * 1e6 / (2 * len(frames))
    out["server.bytes_per_reply"] = sum(len(rep) for _, rep in encoded) / len(encoded)
    out["server.frames_per_query"] = 2.0 * len(frames) / count
    counters = stats["metrics"]["counters"]
    out["server.busy_replies"] = counters.get("server.busy_total", 0)
    out["server.request_ms_p50_reported"] = stats["metrics"]["histograms"][
        "server.request_ms"]["p50_ms"]
    out["obs.harness_trace_overhead_ratio"] = sum(wire.values()) / single.seconds
    return tally, out
