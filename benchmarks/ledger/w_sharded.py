"""``sharded_service_mix``: the query service over D plus a 2-shard store.

Two closed-loop harness threads share one ``QueryService``-fronted connection
(``service=True, max_workers=2``) serving System D and the sharded
pseudo-system S.  Point lookups over every person on both systems make ~1000
distinct texts: more than the 128-entry plan cache holds, just inside the
1024-entry result cache.  2 % of the operations are single-op commits, and
they are what makes the hit rate matter: each one drains both systems'
admission gates and re-keys or drops the cached results it may have changed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import repro
from repro.benchmark.queries import query_text
from repro.benchmark.systems import get_profile
from repro.shard.scatter import ScatterGatherExecutor

from ledger import core, layers, load
from ledger.spans import SpanRecorder

SCALE = 0.02
SYSTEMS = ("D", "S")
REQUESTS_PER_CLIENT = 150               # per round: short rounds, so the
                                        # calibration marks around them stay close
COMMIT_SHARE = 0.02
POINT_SHARE = 0.30 / 0.98               # of the reads: 30 % of all operations
#: Exact read checking needs the answer at every document version a read
#: may have seen; the shadow database computes them after the run, and this
#: many versions (about two rounds) is what the run's time allows.  Later
#: reads are checked where the answer cannot change (point lookups) and
#: counted as unverified otherwise; the final state is compared in full.
VERIFY_VERSIONS = 24


@dataclass
class State:
    document: str
    database: object
    sessions: list


def _connect(document: str, **options):
    return repro.connect(document, systems=("D",), shards=2, backends=("F",),
                         service=True, max_workers=2, **options)


def _build(scale: float) -> State:
    document = repro.generate_string(scale)
    database = _connect(document)
    return State(document, database, [database.session() for _ in range(2)])


def _close(state: State) -> None:
    state.database.close()


class Versions:
    """How many commits have started / been acknowledged — what a reader
    needs to bound the document versions its answer may reflect."""

    def __init__(self) -> None:
        self.started = 0
        self.committed = 0
        self.ops: list[list] = []       # ops[v] took version v to v + 1


def _lists(ctx: core.Context, view: load.DocView, index: int, persons: int):
    """Round ``index``'s reads of each client (the same multiset every
    round, in the round's own order, over the first ``persons`` persons —
    the ones the oracle knows) and how many commits go with them."""
    per_client = ctx.size(REQUESTS_PER_CLIENT, 40)
    commits = max(1, round(2 * per_client * COMMIT_SHARE))
    reads = [load.read_mix(view, random.Random(f"{ctx.seed}/sharded/{client}/{index}"),
                           per_client - (commits if client == 0 else 0),
                           point_share=POINT_SHARE, systems=SYSTEMS,
                           point_ids=persons)
             for client in range(2)]
    return reads, commits


def _with_commits(reads: list, commits: list) -> list:
    """The writer client's list: its reads with this round's commits spread
    evenly through them.  Evenly, not at random: how long a cached result
    lives before the next commit drops it decides the hit ratio, and the hit
    ratio (a hit is 100x cheaper than a miss) decides the round."""
    out = list(reads)
    stride = len(reads) / len(commits)
    for index in reversed(range(len(commits))):
        out.insert(int((index + 0.5) * stride), ("commit", None, commits[index]))
    return out


def request_list(ctx: core.Context, name: str) -> bytes:
    view = load.DocView(repro.generate_string(ctx.scale(SCALE)))
    reads, commits = _lists(ctx, view, 0, len(view.person_ids))
    rng = random.Random(f"{ctx.seed}/sharded/commits")
    writer = _with_commits(reads[0], load.commit_list(view, rng, commits, 0.0))
    flat = [entry[2] if entry[0] == "commit" else entry for entry in writer]
    return load.request_list_bytes(flat) + b"\n--\n" + load.request_list_bytes(reads[1])


def _client(session, requests, versions: Versions, out: list) -> None:
    for kind, system, payload in requests:
        seen = versions.committed
        started = time.perf_counter()
        try:
            if kind == "commit":
                versions.started += 1
                with session.transaction() as txn:
                    for op in payload:
                        txn.apply(op)
                versions.ops.append(payload)
                versions.committed += 1
                digest = None
            else:
                digest = core.digest_lines(core.fetch(session, system, payload))
        except Exception as exc:
            out.append((kind, system, payload, None, None, repr(exc), None))
            continue
        ended = time.perf_counter()
        out.append((kind, system, payload, (ended - started) * 1000.0, digest,
                    (seen, versions.started), ended))


def _one_round(state: State, lists, versions: Versions, tally: core.Tally,
               reads_log: list) -> core.Round:
    outs = [[], []]
    rnd = core.Round()
    rnd.wall = core.run_threads([
        lambda i=i: _client(state.sessions[i], lists[i], versions, outs[i])
        for i in range(2)])
    for out in outs:
        for kind, system, payload, ms, digest, window, at in out:
            if ms is None:
                tally.fail(f"{kind}: {window}")
            elif kind == "commit":
                rnd.add_commit(payload[0].kind, ms, at)
                tally.ok()
            else:
                rnd.add((kind, system), ms, at)
                reads_log.append((kind, payload, digest, window))
    return rnd


def _verify(document: str, oracle: core.Oracle, versions: Versions,
            reads_log: list, state: State, tally: core.Tally) -> int:
    """Check every logged read against the versions it may have seen.

    A direct System D connection (no service, no shards, no caches) replays
    the acknowledged commits in order and answers, per version, the queries
    some read needs.  Version 0 answers also have to equal the pins, which
    ties the shadow to eager System G.  Returns the unverified-read count.
    """
    wanted: dict[int, set] = {}
    for kind, text, _digest, (low, high) in reads_log:
        if kind != "point":
            for version in range(low, high + 1):
                wanted.setdefault(version, set()).add((kind, text))
    answers: dict = {}
    unverified = 0
    with repro.connect(document, systems=("D",)) as shadow, \
            shadow.session() as session:
        def answer(version: int, keys) -> None:
            for kind, text in keys:
                answers[(version, kind)] = core.digest_lines(
                    core.fetch(session, "D", text))
        last = min(len(versions.ops), VERIFY_VERSIONS)
        for version in range(last + 1):
            if version:
                shadow.apply_transaction(versions.ops[version - 1])
            answer(version, wanted.get(version, ()))
        for (version, kind), digest in answers.items():
            if version == 0:
                tally.check(digest == oracle.query(int(kind[1:])),
                            f"shadow {kind} differs from pinned System G")
        for kind, text, digest, (low, high) in reads_log:
            if kind == "point":
                tally.check(digest == oracle.point(text), "point lookup: wrong name")
            elif high > last:
                tally.ok()
                unverified += 1
            else:
                allowed = {answers[(v, kind)] for v in range(low, high + 1)}
                tally.check(digest in allowed,
                            f"{kind}: stale or wrong at versions {low}..{high}")
        # The final state, in full, on both served systems.
        for version in range(last, len(versions.ops)):
            shadow.apply_transaction(versions.ops[version])
        tally.check(shadow.document_digest() == state.database.document_digest("D"),
                    "digest chain differs from the shadow's")
        for number in load.MIX_QUERIES:
            expected = core.digest_lines(core.fetch(session, "D", query_text(number)))
            for system in SYSTEMS:
                got = core.digest_lines(core.fetch(state.sessions[0], system,
                                               query_text(number)))
                tally.check(got == expected, f"final Q{number} on {system} differs")
    return unverified


def _measure(ctx: core.Context, speed: core.Speed, state: State,
             tally: core.Tally):
    oracle = core.Oracle(ctx.scale(SCALE), state.document)
    tally.check(oracle.document_ok, "document differs from its pinned SHA-256")
    view = load.DocView(state.document)
    persons = len(view.person_ids)      # new persons are never looked up
    rng = random.Random(f"{ctx.seed}/sharded/commits")
    versions = Versions()
    reads_log: list = []

    def one_round(index: int) -> core.Round:
        reads, commits = _lists(ctx, view, index, persons)
        ops = load.commit_list(view, rng, commits, txn_share=0.0)
        lists = [_with_commits(reads[0], ops), reads[1]]
        return _one_round(state, lists, versions, tally, reads_log)

    rounds = core.run_rounds(ctx, speed, one_round)
    rss = core.peak_rss_mb()                    # before the shadow is built
    unverified = _verify(state.document, oracle, versions, reads_log, state, tally)
    return rounds, rss, unverified


def run(ctx: core.Context, name: str):
    scale = ctx.scale(SCALE)
    tally = core.Tally()
    speed = core.Speed()
    state, setups = core.timed_setups(ctx, speed, lambda: _build(scale), _close)
    try:
        tally.check(not state.database.failed_loads,
                    f"failed loads: {state.database.failed_loads}")
        rounds, rss, _unverified = _measure(ctx, speed, state, tally)
        summary = core.end_to_end(
            rounds, setups, rss,
            core.mean_size_ratio(state.database.load_reports))
    finally:
        _close(state)
    return tally, summary


# -- the traced pass ----------------------------------------------------------------


def trace(ctx: core.Context, name: str):
    scale = ctx.scale(SCALE)
    tally = core.Tally()
    speed = core.Speed()
    spans = SpanRecorder(speed)
    document, out = layers.document_layers(spans, scale)
    out.update(layers.shard_layers(spans, document, 2, ("F",)))
    database, stores = layers.connect(
        spans, document, systems=("D",), shards=2, backends=("F",),
        service=True, max_workers=2)
    out.update(stores)
    state = State(document, database, [database.session() for _ in range(2)])
    core.settle()
    try:
        service = database.service
        caches0 = service.cache_stats()
        half = core.Context(ctx.seed, ctx.seconds / 2.0, ctx.smoke)
        rounds, _rss, unverified = _measure(half, speed, state, tally)
        caches1 = service.cache_stats()
        latencies = core.query_latencies(rounds)
        commits = [ms for r in rounds for v in r.commits.values() for ms in v]
        out["service.request_p50_ms"] = core.median(latencies)
        out["service.request_p95_ms"] = core.p95(latencies)
        out["service.commit_ms_mean"] = sum(commits) / len(commits)
        out["service.queue_wait_p50_ms"] = service.metrics.snapshot()[
            "queue_wait"]["p50_ms"]
        for cache in ("plan", "result"):
            now, then = caches1[f"{cache}_cache"], caches0[f"{cache}_cache"]
            lookups = (now["hits"] + now["misses"]) - (then["hits"] + then["misses"])
            out[f"service.{cache}_cache_hit_ratio"] = (
                (now["hits"] - then["hits"]) / lookups if lookups else 0.0)
        out["service.invalidations"] = (caches1["result_cache"]["invalidations"]
                                        - caches0["result_cache"]["invalidations"])
        out["obs.unverified_reads"] = unverified
    finally:
        _close(state)

    # The ladder: every distinct text once, so nothing below is a cache hit.
    # raw or scatter executor -> QueryService, single-threaded.  There is no
    # session rung: a second execution of a text finds the service's plan
    # and partial caches warm, so it would undercut the rung below it.
    with _connect(document, result_cache_size=0) as cold, \
            repro.connect(document, systems=("F",)) as flat:
        sharded = cold.store("S")
        executor = ScatterGatherExecutor(sharded)
        session = cold.session()
        view = load.DocView(document)
        texts = [(f"Q{n:02d}", query_text(n)) for n in load.MIX_QUERIES]
        texts += [(p, load.point_text(p)) for p in view.person_ids[:32]]
        core.settle()
        try:
            for kind, text in texts:
                speed.mark_if_due()
                for system in SYSTEMS:
                    request = f"{system}/{kind}"
                    if system == "D":
                        with spans.span("rung.raw", "raw", request):
                            repro.evaluate(repro.compile_query(
                                text, cold.store("D"), get_profile("D"))).serialize()
                    else:
                        with spans.span("rung.scatter", "shard", request):
                            executor.execute(text).result.serialize()
                        if kind.startswith("Q"):
                            with spans.span("flat.F", "raw", kind):
                                repro.evaluate(repro.compile_query(
                                    text, flat.store("F"), get_profile("F"))).serialize()
                    with spans.span("rung.service", "service", request):
                        cold.service.execute(system, text).result.serialize()
            # Commits, serially: how many shard index rebuilds each leaves behind.
            rng = random.Random(f"{ctx.seed}/sharded/ladder")
            rebuilds = 0
            for ops in load.commit_list(view, rng, ctx.size(12, 4), txn_share=0.0):
                with spans.span("rung.commit", "service", ops[0].kind):
                    with session.transaction() as txn:
                        txn.apply(ops[0])
                rebuilds += sum(sharded.shard_indexes_dirty(rank)
                                for rank in range(sharded.shard_count))
                core.fetch(session, "S", query_text(2))
            speed.mark()
        finally:
            executor.close()
    spans.write(core.OUT / f"trace-{name}.jsonl")

    raw = spans.by_request("rung.raw")
    scatter = spans.by_request("rung.scatter")
    service_rung = spans.by_request("rung.service")
    below = {**raw, **scatter}
    out["service.execute_self_ms"] = 1000.0 * core.median(
        service_rung[r] - below[r] for r in service_rung)
    queries = {r: v for r, v in scatter.items() if r.startswith("S/Q")}
    out["shard.execute_geomean_ms"] = core.geomean(v * 1000.0 for v in queries.values())
    out["shard.speedup_vs_F"] = (sum(spans.by_request("flat.F").values())
                                 / sum(queries.values()))
    out["shard.index_rebuilds"] = rebuilds
    out["obs.harness_trace_overhead_ratio"] = 1.0 + (
        len(service_rung) * _span_cost() / sum(service_rung.values()))
    return tally, out


def _span_cost() -> float:
    """Seconds one empty span costs, measured here and now."""
    probe = SpanRecorder(core.Speed())
    started = time.perf_counter()
    for _ in range(2000):
        with probe.span("probe", "obs"):
            pass
    return (time.perf_counter() - started) / 2000
