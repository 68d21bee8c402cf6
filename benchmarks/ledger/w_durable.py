"""``durable_updates``: WAL-logged commits beside reads, then a crash.

A direct connection over Systems D and B with ``durable=<dir>,
sync="commit"`` (the flush policy is fixed).  Each round commits, reads,
checkpoints, commits and reads again; ``update``, ``index`` maintenance and
``wal`` do most of the work.  After the last round the harness takes a *crash
image* of the durable directory — only the bytes that were fsynced — recovers
from it, and requires every acknowledged commit back.

One thread: a direct connection has no reader/writer isolation (a commit
poisons open streaming cursors, and a concurrent eager read may see a store
mid-mutation), so reads and commits alternate in blocks.  That also makes
every read's document version known, which is what lets each one be checked.
"""

from __future__ import annotations

import os
import random
import shutil
import stat
import time
from dataclasses import dataclass
from pathlib import Path

import repro
from repro.benchmark.queries import query_text
from repro.update.engine import apply_update

from ledger import core, layers, load
from ledger.spans import SpanRecorder

SCALE = 0.02
SYSTEMS = ("D", "B")
COMMITS_PER_BLOCK = 50                  # two blocks per round


class FlushLog:
    """Wraps ``os.fsync`` to remember each file's size at its last flush.

    Killing the process would leave unflushed writes in the operating
    system's cache, where a restart still finds them; a power cut would not.
    The crash image keeps, of every file, only the prefix that had been
    fsynced — keyed by inode, so a file flushed under a temporary name and
    then renamed into place keeps its flushed size.
    """

    def __init__(self) -> None:
        self.sizes: dict[int, int] = {}
        self._real = os.fsync

    def __call__(self, fd) -> None:
        self._real(fd)
        info = os.fstat(fd if isinstance(fd, int) else fd.fileno())
        if stat.S_ISREG(info.st_mode):
            self.sizes[info.st_ino] = info.st_size

    def __enter__(self) -> "FlushLog":
        os.fsync = self
        return self

    def __exit__(self, *exc_info) -> None:
        os.fsync = self._real

    def crash_image(self, source: Path, target: Path) -> None:
        """Copy ``source`` (its database still open) to ``target`` and cut
        every copied file back to its flushed size."""
        shutil.rmtree(target, ignore_errors=True)
        for directory, _dirs, files in os.walk(source):
            mirrored = target / Path(directory).relative_to(source)
            mirrored.mkdir(parents=True, exist_ok=True)
            for name in files:
                original = Path(directory) / name
                info = original.stat()
                flushed = min(self.sizes.get(info.st_ino, 0), info.st_size)
                shutil.copyfile(original, mirrored / name)
                os.truncate(mirrored / name, flushed)


@dataclass
class State:
    document: str
    directory: Path
    database: object
    session: object


def _fresh_directory(tag: str) -> Path:
    directory = core.OUT / f"durable-{os.getpid()}-{tag}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.parent.mkdir(parents=True, exist_ok=True)
    return directory


def _build(scale: float, counter: list) -> State:
    counter.append(None)
    directory = _fresh_directory(str(len(counter)))
    document = repro.generate_string(scale)
    database = repro.connect(document, systems=SYSTEMS,
                             durable=str(directory), sync="commit")
    return State(document, directory, database, database.session())


def _close(state: State) -> None:
    state.database.close()
    shutil.rmtree(state.directory, ignore_errors=True)


def _commit(session, ops) -> None:
    with session.transaction() as txn:
        for op in ops:
            txn.apply(op)


def _commit_kind(ops) -> str:
    return ops[0].kind if len(ops) == 1 else f"txn{len(ops)}"


def _reads(ctx: core.Context, index: int) -> list:
    """Round ``index``'s two read blocks: each is one pass over the query
    mix in the round's own order.  Uniform, not Zipf: a direct connection
    caches nothing, so popularity would only starve the tail of samples."""
    rng = random.Random(f"{ctx.seed}/durable/reads/{index}")
    queries = load.MIX_QUERIES[:ctx.size(len(load.MIX_QUERIES), 6)]
    blocks = []
    for _ in range(2):
        block = [(f"Q{q:02d}", "D", query_text(q)) for q in queries]
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def request_list(ctx: core.Context, name: str) -> bytes:
    view = load.DocView(repro.generate_string(ctx.scale(SCALE)))
    rng = random.Random(f"{ctx.seed}/durable/commits")
    commits = load.commit_list(view, rng, 2 * ctx.size(COMMITS_PER_BLOCK, 10))
    return (load.request_list_bytes(commits) + b"\n--\n"
            + b"\n".join(load.request_list_bytes(b) for b in _reads(ctx, 0)))


class Workload:
    """The round loop, shared by the untraced run and the traced pass."""

    def __init__(self, ctx: core.Context, speed: core.Speed, state: State,
                 tally: core.Tally, spans: SpanRecorder | None = None) -> None:
        self.ctx, self.speed, self.state, self.tally = ctx, speed, state, tally
        self.spans = spans
        self.oracle = core.Oracle(ctx.scale(SCALE), state.document)
        tally.check(self.oracle.document_ok, "document differs from its pinned SHA-256")
        self.view = load.DocView(state.document)
        self.rng = random.Random(f"{ctx.seed}/durable/commits")
        self.acknowledged: list[list] = []      # every acknowledged commit's ops
        self.checkpoints: list[tuple[float, float]] = []   # (ms, next commit's ms)

    def _timed(self, name: str, layer: str, request, call) -> tuple[float, float]:
        """``(milliseconds, end time)`` of ``call()``, in a span when traced."""
        self.speed.mark_if_due()
        if self.spans is None:
            started = time.perf_counter()
            call()
            ended = time.perf_counter()
        else:
            with self.spans.span(name, layer, request) as span:
                call()
            started, ended = span["start"], span["end"]
        return (ended - started) * 1000.0, ended

    def _commit_block(self, rnd: core.Round, commits: list) -> None:
        session = self.state.session
        for ops in commits:
            kind = _commit_kind(ops)
            try:
                ms, at = self._timed("db.commit", "update", kind,
                                     lambda: _commit(session, ops))
            except Exception as exc:
                self.tally.fail(f"commit {kind}: {exc!r}")
                continue
            self.acknowledged.append(ops)
            rnd.add_commit(kind, ms, at)
            self.tally.ok()
            if self.checkpoints and self.checkpoints[-1][1] is None:
                self.checkpoints[-1] = (self.checkpoints[-1][0], ms)

    def _read_block(self, rnd: core.Round, block: list) -> None:
        """Timed reads on D; then, untimed, the same queries on B — the
        relational architecture, at the same version — must agree.  Before
        the first commit both must also equal the pins."""
        session = self.state.session
        seen: dict[str, str] = {}
        for kind, system, text in block:
            lines = []
            try:
                ms, at = self._timed("db.read", "db", kind,
                                     lambda: lines.extend(core.fetch(session, system, text)))
            except Exception as exc:
                self.tally.fail(f"read {kind}: {exc!r}")
                continue
            rnd.add((kind, system), ms, at)
            digest = core.digest_lines(lines)
            if kind not in seen:
                seen[kind] = core.digest_lines(core.fetch(session, "B", text))
            self.tally.check(digest == seen[kind], f"{kind}: D and B disagree")
            if not self.acknowledged:
                self.tally.check(digest == self.oracle.query(int(kind[1:])),
                                 f"{kind}: differs from pinned System G")

    def one_round(self, index: int) -> core.Round:
        rnd = core.Round()
        read_blocks = _reads(self.ctx, index)
        if index == 0:
            # Warm-up: reads only, at version 0, so they are pin-checked and
            # the measured rounds all start with the same number of commits.
            for block in read_blocks:
                self._read_block(rnd, block)
            return rnd
        block_size = self.ctx.size(COMMITS_PER_BLOCK, 10)
        commits = load.commit_list(self.view, self.rng, 2 * block_size)
        self._commit_block(rnd, commits[:block_size])
        self._read_block(rnd, read_blocks[0])
        ms, at = self._timed("db.checkpoint", "wal", index,
                             self.state.database.checkpoint)
        self.checkpoints.append((ms * self.speed.factor(at), None))
        rnd.add_commit("checkpoint", ms, at)
        self._commit_block(rnd, commits[block_size:])
        self._read_block(rnd, read_blocks[1])
        return rnd

    def crash_and_recover(self, flushes: FlushLog) -> dict:
        """Crash image -> reconnect -> first query; every acknowledged
        commit must be back, and the recovered answers must be the live ones.
        Returns the recovery layer metrics (seconds at reference speed)."""
        state, tally = self.state, self.tally
        live_digest = state.database.document_digest()
        image = _fresh_directory("image")

        def reconnect():
            database = repro.connect(None, systems=SYSTEMS, durable=str(image))
            session = database.session()
            core.fetch(session, "D", query_text(1))
            return database, session

        try:
            flushes.crash_image(state.directory, image)
            try:
                (recovered, session), recovery_s = self.speed.timed(reconnect)
            except Exception as exc:        # nothing came back at all
                for _ in self.acknowledged:
                    tally.fail(f"recovery failed, acknowledged commit lost: {exc!r}")
                return {}
            try:
                report = recovered.recovery
                for _ in range(len(self.acknowledged) - report.last_lsn):
                    tally.fail("acknowledged commit missing after recovery")
                tally.check(recovered.document_digest() == live_digest,
                            "recovered digest differs from the last acknowledged commit's")
                for number in load.MIX_QUERIES:
                    text = query_text(number)
                    tally.check(
                        core.digest_lines(core.fetch(session, "D", text))
                        == core.digest_lines(core.fetch(state.session, "D", text)),
                        f"Q{number}: recovered answer differs from the live one")
            finally:
                recovered.close()
        finally:
            shutil.rmtree(image, ignore_errors=True)
        factor = self.speed.factor(time.perf_counter())
        return {"wal.recovery_s": recovery_s,
                "wal.recover_replay_s": report.replay_seconds * factor,
                "wal.recover_snapshot_s": report.load_seconds * factor}


def run(ctx: core.Context, name: str):
    scale = ctx.scale(SCALE)
    tally = core.Tally()
    speed = core.Speed()
    counter: list = []
    with FlushLog() as flushes:
        state, setups = core.timed_setups(
            ctx, speed, lambda: _build(scale, counter), _close)
        try:
            tally.check(not state.database.failed_loads,
                        f"failed loads: {state.database.failed_loads}")
            workload = Workload(ctx, speed, state, tally)
            rounds = core.run_rounds(ctx, speed, workload.one_round)
            rss = core.peak_rss_mb()
            workload.crash_and_recover(flushes)
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
    directory = _fresh_directory("trace")
    with FlushLog() as flushes:
        database, stores = layers.connect(spans, document, systems=SYSTEMS,
                                          durable=str(directory), sync="commit")
        out.update(stores)
        state = State(document, directory, database, database.session())
        core.settle()
        try:
            half = core.Context(ctx.seed, ctx.seconds / 2.0, ctx.smoke)
            workload = Workload(half, speed, state, tally)
            rounds = core.run_rounds(half, speed, workload.one_round)
            counters = database.registry.snapshot()["counters"]
            commits = [ms for r in rounds for v in r.commits.values() for ms in v]
            reads = core.query_latencies(rounds)
            logged = len(workload.acknowledged)
            out["update.commit_p50_ms"] = core.median(commits)
            out["update.commit_p95_ms"] = core.p95(commits)
            out["db.read_p50_ms"] = core.median(reads)
            out["wal.fsyncs_per_commit"] = counters['wal.fsyncs_total{stream="0"}'] / logged
            out["wal.bytes_per_commit"] = counters['wal.bytes_total{stream="0"}'] / logged
            out["wal.checkpoint_s"] = core.median(
                ms for ms, _ in workload.checkpoints) / 1000.0
            out["wal.checkpoint_stall_ms"] = core.median(
                ms + following for ms, following in workload.checkpoints)
            out["wal.snapshot_bytes"] = max(
                p.stat().st_size for p in (directory / "snapshots").iterdir())

            # The same round once more with a span around every operation.
            workload.spans = spans
            speed.mark()
            traced = workload.one_round(len(rounds) + 1)
            speed.mark()
            traced.close(speed)
            out["obs.harness_trace_overhead_ratio"] = (
                traced.seconds / core.median(r.seconds for r in rounds))
            workload.spans = None

            out.update(workload.crash_and_recover(flushes))
            live_digest = database.document_digest()
        finally:
            database.close()
            shutil.rmtree(directory, ignore_errors=True)
    spans.write(core.OUT / f"trace-{name}.jsonl")

    # Cold rebuild: what recovery competes with — generate, bulkload and
    # re-apply every acknowledged commit on a connection without a WAL.
    plain_ms: list = []

    def rebuild() -> str:
        plain = repro.connect(repro.generate_string(scale), systems=SYSTEMS)
        with plain, plain.session() as session:
            for ops in workload.acknowledged:
                before = time.perf_counter()
                _commit(session, ops)
                plain_ms.append((time.perf_counter() - before) * 1000.0)
            core.fetch(session, "D", query_text(1))
            return plain.document_digest()

    digest, out["wal.cold_rebuild_s"] = speed.timed(rebuild)
    factor = speed.factor(time.perf_counter())
    tally.check(digest == live_digest,
                "cold rebuild digest differs from the durable connection's")
    out["wal.recover_vs_rebuild_ratio"] = (out.get("wal.recovery_s", 0.0)
                                           / out["wal.cold_rebuild_s"])
    out["wal.commit_self_ms"] = (out["update.commit_p50_ms"]
                                 - core.median(plain_ms) * factor)

    # One store, one op at a time, straight through the update engine.
    per_kind: dict[str, list] = {}
    index_s = []
    with repro.connect(document, systems=("D",)) as single:
        store = single.store("D")
        speed.mark()
        for ops in workload.acknowledged:
            for op in ops:
                before = time.perf_counter()
                changes = apply_update(store, op)
                per_kind.setdefault(op.kind, []).append(
                    (time.perf_counter() - before) * 1000.0)
                index_s.append(changes.index_seconds)
        speed.mark()
        factor = speed.factor(time.perf_counter())
    for kind, values in per_kind.items():
        out[f"update.apply_ms.{kind}"] = core.median(values) * factor
    out["index.maintain_ms_per_op"] = 1000.0 * factor * sum(index_s) / len(index_s)
    return tally, out
