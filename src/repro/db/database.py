"""The embedded database: one facade over every execution path.

``repro.connect()`` is the library's front door.  Behind one API —
sessions, prepared queries, streaming cursors, transactions — it routes
to whichever engine the connect options selected:

* **direct** (the default): each requested system letter is bulkloaded
  into its own store; queries compile per system and execute in-process,
  with cursors streaming straight off the evaluator's lazy pipeline.
  ``shards=N`` additionally partitions the document into a
  :class:`~repro.shard.store.ShardedStore`, one more system under the
  pseudo-system name ``"S"`` whose plans fan out over a
  :class:`~repro.shard.scatter.ScatterGatherExecutor`.
* **service** (``service=True``): a direct connection plus a
  :class:`~repro.service.QueryService`'s result cache — an execution
  first probes the cache, and a miss evaluates eagerly and fills it —
  including the sharded pseudo-system when ``shards`` is also given.

Whatever the route, one method (``Database._run``) admits, plans,
evaluates, times and traces every execution, and the connection owns
the stores, the update lock, the one :class:`ReadWriteLock` that keeps
readers off a commit, the one :class:`~repro.update.commit.WritePath`
every commit takes, the metrics registry, the query log and the one
:class:`~repro.cache.PlanCache` — one plan per query shape, so texts
that differ only in their literals compile once.  ``Cursor.fetchall()``
returns exactly what the legacy entry points returned, and every write
goes through the update engine, so digests, indexes, and caches stay
consistent.  See docs/API.md.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext

from repro.benchmark.queries import query_text as benchmark_query_text
from repro.benchmark.systems import SHARD_SYSTEM, SYSTEMS, load_stores
from repro.cache import PLAN_SHAPES_PER_SYSTEM, PlanCache, track
from repro.db.cursor import Cursor
from repro.db.session import Session
from repro.errors import (
    BenchmarkError, ClosedSessionError, DurabilityError, UnknownSystemError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.querylog import QueryLogWriter
from repro.obs.trace import NULL_SPAN, NULL_TRACER, TraceLogWriter, Tracer
from repro.storage.interface import Store
from repro.update.commit import WritePath
from repro.update.ops import UpdateOp
from repro.xquery.evaluator import evaluate, evaluate_stream
from repro.xquery.planner import CompiledQuery


def connect(
    document: str | None,
    *,
    systems: tuple[str, ...] = ("D",),
    shards: int | None = None,
    backends: tuple[str, ...] = ("F",),
    service: bool = False,
    max_workers: int = 8,
    result_cache_size: int = 1024,
    tracing: bool = False,
    trace_log: str | None = None,
    query_log: str | QueryLogWriter | None = None,
    durable: str | None = None,
    sync: str = "commit",
) -> "Database":
    """Open an embedded database over a generated (or any) XML document.

    ``systems`` names the benchmark architectures to load (A-G);
    ``shards=N`` additionally serves a scatter-gather deployment of the
    ``backends`` architectures as pseudo-system ``"S"``;
    ``service=True`` adds a result cache in front of every execution
    (``db.service``).  The connection's one plan cache holds 128
    query shapes per serving system, on every kind of connection.
    ``max_workers`` caps the reads one connection runs at once (every
    kind of connection); ``result_cache_size`` sizes the service's cache
    and is ignored on a plain direct connection.

    ``tracing=True`` records a span tree per query/transaction —
    inspect it with ``cursor.profile()`` or ``db.tracer.roots``;
    ``trace_log`` additionally appends each finished tree to a
    JSON-lines workload log.  Off by default: the disabled path costs
    one attribute read per instrumentation point.  ``query_log`` (a path,
    or a :class:`~repro.obs.querylog.QueryLogWriter` the caller closes)
    makes the connection append one flat JSON record per finished or
    failed execution, on every kind of connection and for a wire server
    in front of it — the structured workload log the tuning advisor
    ingests (docs/OBSERVABILITY.md).

    ``durable=directory`` makes the connection crash-consistent: every
    commit is logged and fsynced to a write-ahead log in ``directory``
    *before* it applies in memory (``sync="commit"``, the only policy, is
    accepted for callers that name it).  Reconnecting to an
    existing durable directory recovers it into the serving stores —
    each loads the snapshot once, then the WAL replays over them — and
    serves the recovered state; ``document`` may then be ``None``, and
    when given it must be the deployment's original base document
    (lineages are never silently forked).  See docs/DURABILITY.md.

    A ``document`` of the form ``xmark://host:port/doc`` connects to a
    running wire server instead (``xmark serve``): the returned
    :class:`~repro.server.client.RemoteDatabase` serves the same
    sessions / prepared queries / cursors / transactions over the
    network, and the other keywords (which configure an in-process
    engine) do not apply.  See docs/SERVING.md.
    """
    if isinstance(document, str) and document.startswith("xmark://"):
        from repro.server.client import connect_url
        return connect_url(document, tracing=tracing, trace_log=trace_log)
    if sync != "commit":
        raise DurabilityError(
            f"unknown WAL sync mode {sync!r}; every commit is fsynced "
            "(sync='commit')")
    return Database(
        document,
        systems=tuple(systems),
        shards=shards,
        backends=tuple(backends),
        service=service,
        max_workers=max_workers,
        result_cache_size=result_cache_size,
        tracing=tracing,
        trace_log=trace_log,
        query_log=query_log,
        durable=durable,
    )


class ReadWriteLock:
    """The connection's reader/writer exclusion, confined to threads:
    at most ``max_readers`` readers or one writer, a queued writer first.

    A reader holds the read side for one bounded piece of work (a query,
    a compile, one fetch call), never twice on one thread: the inner read
    would wait for a queued writer, the writer for the outer read.  A
    writer waits for running reads, then holds the mutex for its turn.
    """

    def __init__(self, max_readers: int) -> None:
        self.max_readers = max_readers
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._readers = 0
        self._writers = 0               # queued, waiting for reads to drain

    def acquire_read(self) -> None:
        with self._mutex:
            while self._writers or self._readers >= self.max_readers:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._mutex:
            self._readers -= 1
            # a queued writer once the reads drained; readers at the cap
            if (self._writers and not self._readers
                    or self._readers == self.max_readers - 1):
                self._cond.notify_all()

    def read(self) -> "ReadWriteLock":
        """The read side: the lock's own ``with`` (no generator's cost)."""
        return self

    def __enter__(self) -> None:
        self.acquire_read()

    def __exit__(self, *exc_info) -> None:
        self.release_read()

    @contextmanager
    def write(self):
        with self._mutex:
            self._writers += 1
            try:
                while self._readers:
                    self._cond.wait()
            finally:
                self._writers -= 1
            try:
                yield
            finally:
                self._cond.notify_all()


class Database:
    """A connected embedded database; open sessions with :meth:`session`.

    Every execution — a session's, a prepared query's, a service's, a
    wire server's — runs through one path (:meth:`_run`), which counts it
    in ``db.queries_total`` (a failure also in ``db.errors_total``) and
    writes its record to the connection's query log, if it has one.
    """

    def __init__(
        self,
        document: str | None,
        *,
        systems: tuple[str, ...] = ("D",),
        shards: int | None = None,
        backends: tuple[str, ...] = ("F",),
        service: bool = False,
        max_workers: int = 8,
        result_cache_size: int = 1024,
        tracing: bool = False,
        trace_log: str | None = None,
        query_log: str | QueryLogWriter | None = None,
        durable: str | None = None,
    ) -> None:
        for name in systems:
            if name not in SYSTEMS:
                raise UnknownSystemError(name, tuple(SYSTEMS))
        if shards is not None and shards <= 0:
            raise BenchmarkError(f"shards must be positive, got {shards}")
        if max_workers <= 0:
            raise BenchmarkError(
                f"max_workers must be positive, got {max_workers}")
        self.shard_system = SHARD_SYSTEM if shards is not None else None
        self._closed = False
        #: The write path's lock: every commit, checkpoint and close()
        #: holds it.
        self._update_lock = threading.RLock()
        #: Every read takes its read side; every commit and close() its
        #: write side, inside the update lock.
        self.rwlock = ReadWriteLock(max_workers)
        self.service = None
        #: The route an execution's trace and query-log record name.
        self._route = "service" if service else "direct"
        self._scatter = None
        self._durability = None
        self._trace_writer = (TraceLogWriter(trace_log)
                              if tracing and trace_log else None)
        # A path opens a writer the connection owns and closes.
        self._owns_query_log = query_log is not None and not hasattr(
            query_log, "record")
        #: The one query log: a record per finished or failed execution.
        self.query_log = (QueryLogWriter(query_log) if self._owns_query_log
                          else query_log)
        try:
            self._open(document, systems, shards, backends, service,
                       result_cache_size, tracing, durable)
        except BaseException:
            self.close()                # the logs, a WAL, a scatter pool
            raise

    def _open(self, document, systems, shards, backends, service,
              result_cache_size, tracing, durable) -> None:
        """Everything the constructor does after opening its logs."""
        self.tracer = (Tracer(on_root=self._trace_writer)
                       if tracing else NULL_TRACER)
        #: Unified metrics: ``db.*``, the caches' gauges, ``wal.*``,
        #: ``recovery.*`` and a service's latency histograms.
        self.registry = MetricsRegistry()

        self.recovery = None            # RecoveryReport when a reconnect replayed
        recovery = None
        if durable is not None:
            document, recovery = self._open_durable(durable, document)
        elif document is None:
            raise BenchmarkError(
                "document may only be omitted when reconnecting to an "
                "existing durable directory")

        # A reconnect loads the snapshot's text as a cold connect loads
        # its document; the WAL suffix replays over the stores afterwards.
        loading = (self.tracer.span("recovery.load_snapshot",
                                    lsn=self.recovery.snapshot_lsn)
                   if recovery is not None else nullcontext())
        started = time.perf_counter()
        with loading:
            (self.stores, self.load_reports, self.failed_loads,
             self._scatter, self.profiles) = load_stores(
                document, tuple(systems), shards, tuple(backends),
                tracer=self.tracer)
        #: The one plan cache: direct executions, prepared queries, the
        #: service and a wire server in front all look plans up here.
        self.plan_cache = PlanCache(
            PLAN_SHAPES_PER_SYSTEM * (len(systems) + (shards is not None)))
        track(self.registry, "plan", self.plan_cache.stats)
        if service:
            # On demand: a plain direct connection (and the process
            # serving one) never loads the service package.
            from repro.service import QueryService
            self.service = QueryService(
                self, result_cache_size=result_cache_size)
        #: The one write path, behind the write side.  The only per-kind
        #: choice: a service re-keys its result cache after a commit.
        self._write_path = WritePath(
            self.stores, self._update_lock,
            source=self._route,
            tracer=self.tracer, exclusion=self.rwlock.write,
            invalidate=(self.service._rekey_results if self.service
                        else lambda _old_digests, _changes: {}),
            durability=self._durability)
        #: The text the stores loaded (a reconnect's: the snapshot's).
        self.document = document
        self._serving = tuple(self.stores)
        if durable is not None:
            self._finish_durable(recovery, time.perf_counter() - started)

    # -- durability -----------------------------------------------------------------

    def _open_durable(self, durable, document):
        """Open the durable directory's manager.  Returns the document to
        load and, for an existing deployment, its :class:`Recovery`
        (read, not yet applied) — after refusing a forked lineage,
        before anything loads."""
        from repro.storage.interface import document_digest as content_of
        from repro.storage.wal import DurabilityManager, Recovery
        self._durability = manager = DurabilityManager(
            durable, tracer=self.tracer, registry=self.registry)
        if not manager.exists(durable):
            if document is None:
                raise DurabilityError(
                    f"{durable} holds no durable deployment; a document is "
                    "required to create one")
            return document, None
        base_digest = manager.manifest["base_digest"]
        if document is not None and content_of(document) != base_digest:
            raise DurabilityError(
                f"{durable} was created from a different base document "
                f"(base digest {base_digest}); refusing to fork the lineage")
        recovery = Recovery(manager)
        self.recovery = recovery.report
        return recovery.document(), recovery

    def _finish_durable(self, recovery, load_seconds: float) -> None:
        """After the stores loaded: write a fresh durable directory's base
        snapshot, or replay a reconnect's WAL suffix over the serving
        stores and reattach its WAL."""
        manager = self._durability
        if not self.stores:
            raise DurabilityError(
                "no system loaded successfully; cannot serve "
                f"{manager.directory}")
        if recovery is None:
            manager.initialize(self._snapshot(0, self.document))
        else:
            self.recovery.load_seconds = load_seconds
            recovery.replay(self.stores, tracer=self.tracer)
            self.recovery.count(self.registry)
            manager.attach(self.recovery)

    @property
    def durability(self):
        """The connection's :class:`~repro.storage.wal.DurabilityManager`
        (``None`` on a non-durable connection)."""
        return self._durability

    def _snapshot(self, lsn: int, document: str | None = None) -> dict:
        """The serving state as of commit ``lsn``: the default system's
        serialization, which every shape loads.  Caller holds the
        update lock (or is still constructing)."""
        from repro.storage.wal.snapshot import store_snapshot
        return store_snapshot(lsn, self.store(self.default_system()),
                              document)

    def checkpoint(self) -> dict:
        """Snapshot the current committed state and compact the WAL.

        Holds the connection's update lock — the one every commit takes —
        so the LSN and the store state it snapshots describe the same
        commit; it only reads the stores, so readers run on.  Writes a
        snapshot at the last logged LSN, flips the manifest to it,
        truncates the WAL down to the records the snapshot does not
        cover, and drops the superseded snapshot.  Returns the manager's
        compaction report.
        """
        with self._write_path.lock:
            # Under the lock: a close() that won it refuses this one.
            self._require_open()
            if self._durability is None:
                raise DurabilityError(
                    "connection is not durable; connect(durable=<dir>) first")
            report = self._durability.checkpoint(
                self._snapshot(self._durability.last_lsn))
        self.registry.counter("db.checkpoints_total").inc()
        return report

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Close the connection: running reads finish, the WAL and the
        scatter executor shut, and every session and new cursor refuses
        further work."""
        # The write path's lock: one closer wins, a commit in flight
        # finishes first, and one that waited for the lock is refused.
        # The write side waits for running reads; a read that queued
        # behind it finds the connection closed.
        with self._update_lock:
            if self._closed:
                return
            self._closed = True
            with self.rwlock.write():
                if self._durability is not None:
                    self._durability.close()
        if self._scatter is not None:
            self._scatter.close()
        if self._trace_writer is not None:
            self._trace_writer.close()
        if self._owns_query_log:
            self.query_log.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ClosedSessionError("database connection is closed")

    def session(self, tenant: str | None = None) -> Session:
        """A new session over this connection (cheap; open many).

        ``tenant`` labels the session's executions in the connection's
        per-tenant query counter."""
        self._require_open()
        return Session(self, tenant)

    # -- introspection --------------------------------------------------------------

    @property
    def systems(self) -> tuple[str, ...]:
        """The system names this connection serves, default first."""
        return self._serving

    def default_system(self) -> str:
        if not self._serving:
            raise BenchmarkError("no system loaded successfully")
        return self._serving[0]

    def resolve_system(self, system: str | None) -> str:
        if system is None:
            return self.default_system()
        if system not in self.stores and system not in self.failed_loads:
            raise UnknownSystemError(system, self._serving)
        return system

    def store(self, system: str) -> Store:
        """The live store behind one system (legacy interop surface)."""
        name = self.resolve_system(system)
        try:
            return self.stores[name]
        except KeyError:
            reason = self.failed_loads.get(name, "not loaded")
            raise BenchmarkError(f"system {name} unavailable: {reason}") from None

    def document_digest(self, system: str | None = None) -> str | None:
        """The current document digest of one serving system."""
        with self.rwlock.read():
            return self.store(self.resolve_system(system)).document_digest()

    def query_text(self, query: int | str) -> str:
        """Resolve a benchmark query number (or pass raw XQuery through)."""
        if isinstance(query, int):
            return benchmark_query_text(query)
        return query

    # -- execution ------------------------------------------------------------------

    def compile(self, system: str, text: str) -> CompiledQuery:
        """The plan of one query text on one serving system, from the
        connection's plan cache (compiled there on a miss) — what a
        prepared query holds.  It serves every text of its shape."""
        name = self.resolve_system(system)
        with self.rwlock.read():
            self._require_open()
            return self._plan(name, text)[0]

    def _plan(self, name: str, text: str):
        """``(compiled, values, hit)``: one text's plan from the plan
        cache; the caller holds the read side."""
        return self.plan_cache.lookup(name, text, self.store(name),
                                      self.profiles[name], self.tracer)

    def explain(self, query: int | str, *, system: str | None = None):
        """Describe how a query would run — plan, indexes, shard route,
        streaming barriers — without executing it."""
        from repro.obs.explain import explain_query
        name = self.resolve_system(system)
        with self.rwlock.read():
            self._require_open()
            return explain_query(self, name, query)

    def _admit(self, system: str | None, query: int | str,
               tenant: str | None) -> tuple[str, str, float]:
        """``(system, text, submitted)`` of one execution, counted in
        ``db.queries_total`` (per ``tenant`` when given); ``submitted``
        is read before the read side, so it times the queue wait."""
        self._require_open()
        name = self.resolve_system(system)
        text = self.query_text(query)
        labels = {"system": name} if tenant is None else {
            "system": name, "tenant": tenant}
        self.registry.counter("db.queries_total", **labels).inc()
        return name, text, time.perf_counter()

    def execute(self, system: str | None, query: int | str, *,
                stream: bool = True,
                tenant: str | None = None) -> Cursor:
        """Route one query to the connection's engine; returns a cursor.

        ``stream=True`` (the default) gives a lazily-produced cursor on
        direct connections, which takes the read side once per fetch
        call; a service connection materializes (its result cache needs
        complete results) and streams from the finished sequence.
        Either way the plan comes from the connection's plan cache
        (``cursor.plan_cache_hit``).  ``tenant`` labels the connection's
        ``db.queries_total`` counter (per-caller accounting; no isolation
        semantics).
        """
        name, text, submitted = self._admit(system, query, tenant)
        with self.rwlock.read():
            return self._run(name, text, stream, submitted, self._route)

    def _first_page(self, system: str | None, query: int | str,
                    tenant: str | None, read):
        """``read(cursor)`` of one execution for a wire server, under the
        read side the execution took (``read`` must not take it again),
        so no commit poisons the cursor before its first page.  The
        server logs the cursor when it finishes it (:meth:`_log_query`)."""
        name, text, submitted = self._admit(system, query, tenant)
        with self.rwlock.read():
            return read(self._run(name, text, True, submitted, "server"))

    def _run(self, name: str, text: str, stream: bool, submitted: float,
             route: str) -> Cursor:
        """The one execution path; the caller holds the read side.

        A service connection answers from its result cache when it can
        and otherwise evaluates eagerly into it; a direct one streams when
        asked.  ``route`` (``direct``, ``service``, ``server``) names the
        execution in its trace and query-log record.  A failure is counted
        in ``db.errors_total`` and logged, then raised."""
        self._require_open()            # a close() that ran while this queued
        store = self.store(name)
        tracer = self.tracer
        service = self.service
        wall0 = time.perf_counter()
        root = (tracer.begin("query", system=name, source=route, query=text,
                             stream=stream,
                             queue_ms=round((wall0 - submitted) * 1000.0, 3))
                if tracer.enabled else None)
        cached = False
        try:
            with tracer.activate(root):
                if service is not None:
                    key = service.result_cache.key(
                        name, text, store.document_digest() or "")
                    result, cached = service.result_cache.lookup(key)
                if not cached:
                    cpu0 = time.process_time()
                    compiled, values, hit = self._plan(name, text)
                    cpu1 = time.process_time()
                    wall1 = time.perf_counter()
                    if root is not None:
                        root.set(plan_cache_hit=hit)
                    if stream and service is None:
                        # After a commit the suspended pipeline would hold
                        # pre-commit handles: the cursor refuses to go on.
                        opened = self._write_path.writes
                        streamed = evaluate_stream(compiled, tracer=tracer,
                                                   values=values)
                        return Cursor(
                            iter(streamed), streamed.navigator,
                            system=name, query_text=text, streaming=True,
                            source=self._route,
                            compile_seconds=0.0 if hit else wall1 - wall0,
                            compile_cpu_seconds=0.0 if hit else cpu1 - cpu0,
                            queue_seconds=wall0 - submitted,
                            metadata_accesses=compiled.metadata_accesses,
                            plans_considered=compiled.plans_considered,
                            plan_cache_hit=hit,
                            span=root,  # unfinished: the cursor finishes it
                            reading=self.rwlock.read,
                            stale=lambda: self._write_path.writes != opened,
                            on_end=lambda cursor, error: self._ended(
                                cursor, error, route, submitted),
                        )
                    result = evaluate(compiled, tracer=tracer, values=values)
                    cpu2 = time.process_time()
                    if service is not None:
                        service.result_cache.put(key, result)
        except Exception as exc:
            self.registry.counter("db.errors_total", system=name).inc()
            if root is not None:
                root.set(error=type(exc).__name__).finish()
            if route != "server":       # a server logs its own failures
                self._log_query(route, submitted, error=exc, system=name,
                                query_text=text)
            raise
        wall2 = time.perf_counter()
        rows = len(result.items)
        if cached:
            cursor = Cursor(
                result.items, result.navigator,
                system=name, query_text=text, streaming=False,
                source=self._route, queue_seconds=wall0 - submitted,
                result_cache_hit=True, span=root)
        else:
            cursor = Cursor(
                result.items, result.navigator,
                system=name, query_text=text, streaming=False,
                source=self._route,
                compile_seconds=0.0 if hit else wall1 - wall0,
                compile_cpu_seconds=0.0 if hit else cpu1 - cpu0,
                execute_seconds=wall2 - wall1,
                execute_cpu_seconds=cpu2 - cpu1,
                queue_seconds=wall0 - submitted,
                metadata_accesses=compiled.metadata_accesses,
                plans_considered=compiled.plans_considered,
                plan_cache_hit=hit,
                span=root,
            )
        if root is not None:
            if service is not None:
                root.set(result_cache_hit=cached)
            root.set(rows=rows).finish()
        if service is not None:
            service.metrics.record(wall2 - submitted, cursor.compile_seconds,
                                   wall0 - submitted, name)
        if route != "server":
            self._log_query(route, submitted, cursor, rows=rows)
        return cursor

    def _ended(self, cursor: Cursor, error: BaseException | None,
               route: str, submitted: float) -> None:
        """A streaming execution ran out, was closed, or failed."""
        if error is not None:
            self.registry.counter("db.errors_total",
                                  system=cursor.system).inc()
        if route != "server":           # a server logs the cursors it finishes
            self._log_query(route, submitted, cursor, error=error)

    def _log_query(self, source: str, submitted: float,
                   cursor: Cursor | None = None, *,
                   error: BaseException | str | None = None,
                   **fields) -> None:
        """Build one query-log record and write it (docs/OBSERVABILITY.md).

        ``source`` is the route: ``direct``, ``service`` or ``server``.
        A cursor gives the record its identity, rows, queue wait, cache
        flags and finished span tree; ``fields`` add to or override them
        (a server's wire fields; the system and text of an execution that
        failed before its cursor).  ``duration_ms`` defaults to the time
        since ``submitted``."""
        log = self.query_log
        if log is None:
            return
        span = None
        if cursor is not None:
            span = cursor.profile()
            fields = {"system": cursor.system,
                      "query_text": cursor.query_text,
                      "rows": cursor.rowcount,
                      "queue_ms": round(cursor.queue_seconds * 1000.0, 3),
                      "plan_cache_hit": cursor.plan_cache_hit,
                      "result_cache_hit": cursor.result_cache_hit,
                      **fields}
        if error is not None:
            fields["error"] = (error if isinstance(error, str)
                               else type(error).__name__)
        fields.setdefault("duration_ms", round(
            (time.perf_counter() - submitted) * 1000.0, 3))
        log.record(source=source, span=None if span is NULL_SPAN else span,
                   **fields)

    # -- the write path -------------------------------------------------------------

    def apply_transaction(self, ops: list[UpdateOp]) -> dict:
        """Commit a batch of update operations as one unit (one digest
        advance per store, over the batch token) through the
        connection's one write path — the sequence is
        :meth:`repro.update.commit.WritePath.commit`'s.

        The commit holds the connection's write side for the whole batch
        (readers never observe an intermediate document); a service
        connection re-keys its result cache, a direct one poisons its
        open streaming cursors.  There is no rollback: on failure the
        committed prefix stays applied, digests advance over exactly the
        applied operations, and a :class:`~repro.errors.TransactionError`
        reports how far the batch got.
        """
        with self._write_path.lock:
            # Under the lock: a close() that won it refuses this commit.
            self._require_open()
            return self._write_path.commit(ops)
