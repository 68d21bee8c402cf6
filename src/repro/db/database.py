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
* **service** (``service=True``): queries run through a
  :class:`~repro.service.QueryService` over the same stores — per-system
  admission control and a result cache, each query run on the caller's
  thread — including the sharded pseudo-system when ``shards`` is also
  given.

Whatever the route, the connection owns the stores, the update lock,
the one :class:`~repro.update.commit.WritePath` every commit takes, the
metrics registry and the one :class:`~repro.cache.PlanCache` — one plan
per query shape, so texts that differ only in their literals compile
once.  ``Cursor.fetchall()`` returns exactly what the legacy entry
points returned, and every write goes through the update engine, so
digests, indexes, and caches stay consistent.  See docs/API.md.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import nullcontext

from repro.benchmark.queries import query_text as benchmark_query_text
from repro.benchmark.systems import SHARD_SYSTEM, SYSTEMS, load_stores
from repro.cache import PLAN_SHAPES_PER_SYSTEM, PlanCache, track
from repro.db.cursor import Cursor
from repro.db.session import Session
from repro.errors import (
    BenchmarkError, ClosedSessionError, DurabilityError, UnknownSystemError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, TraceLogWriter, Tracer
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
    query_log: str | None = None,
    durable: str | None = None,
    sync: str = "commit",
) -> "Database":
    """Open an embedded database over a generated (or any) XML document.

    ``systems`` names the benchmark architectures to load (A-G);
    ``shards=N`` additionally serves a scatter-gather deployment of the
    ``backends`` architectures as pseudo-system ``"S"``;
    ``service=True`` puts a concurrent query service (admission control
    + a result cache) in front of everything.  The connection's one plan
    cache holds 128 query shapes per serving system, on every kind of
    connection.  ``max_workers`` and ``result_cache_size`` size the
    service layer and are ignored on a plain direct connection.

    ``tracing=True`` records a span tree per query/transaction —
    inspect it with ``cursor.profile()`` or ``db.tracer.roots``;
    ``trace_log`` additionally appends each finished tree to a
    JSON-lines workload log.  Off by default: the disabled path costs
    one attribute read per instrumentation point.  ``query_log`` makes
    a service connection (``service=True``) append one flat JSON record
    per completed query — the structured workload log the tuning
    advisor ingests (docs/OBSERVABILITY.md); a direct connection refuses
    it with :class:`~repro.errors.BenchmarkError`, since no log would be
    written.

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


class Database:
    """A connected embedded database; open sessions with :meth:`session`."""

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
        query_log: str | None = None,
        durable: str | None = None,
    ) -> None:
        for name in systems:
            if name not in SYSTEMS:
                raise UnknownSystemError(name, tuple(SYSTEMS))
        if shards is not None and shards <= 0:
            raise BenchmarkError(f"shards must be positive, got {shards}")
        if service and max_workers <= 0:
            raise BenchmarkError(
                f"max_workers must be positive, got {max_workers}")
        if query_log is not None and not service:
            raise BenchmarkError(
                "query_log needs a service connection (service=True)")
        self.shard_system = SHARD_SYSTEM if shards is not None else None
        self._closed = False
        #: The write path's lock: every commit, checkpoint and close()
        #: holds it.
        self._update_lock = threading.RLock()
        self.service = None
        self._scatter = None
        self._trace_writer = (TraceLogWriter(trace_log)
                              if tracing and trace_log else None)
        self.tracer = (Tracer(on_root=self._trace_writer)
                       if tracing else NULL_TRACER)
        #: Unified metrics: ``db.*``, the caches' gauges, ``wal.*``,
        #: ``recovery.*`` and a service's ``service.*``.
        self.registry = MetricsRegistry()
        #: Live streaming cursors, poisoned when a transaction commits
        #: (their suspended pipelines hold pre-commit store handles).
        self._streaming_cursors: "weakref.WeakSet[Cursor]" = weakref.WeakSet()

        self._durability = None
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
                self, max_workers=max_workers,
                result_cache_size=result_cache_size, query_log=query_log)
        #: The one write path.  A service's admission gates are its
        #: reader exclusion and its result cache is what a commit
        #: re-keys; a direct connection has no readers to wait for and
        #: poisons its streaming cursors.
        if self.service is None:
            self._write_path = WritePath(
                self.stores, self._update_lock, source="direct",
                tracer=self.tracer, invalidate=self._poison_cursors,
                durability=self._durability)
        else:
            self._write_path = WritePath(
                self.stores, self._update_lock, source="service",
                tracer=self.tracer, exclusion=self.service._exclusive,
                invalidate=self.service._rekey_results,
                durability=self._durability)
        #: The text the stores loaded (a reconnect's: the snapshot's).
        self.document = document
        self._serving = tuple(self.stores)
        if durable is not None:
            try:
                self._finish_durable(recovery,
                                     time.perf_counter() - started)
            except BaseException:
                self.close()
                raise

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
        commit; readers are unaffected.  Writes a snapshot at the last
        logged LSN, flips the manifest to it, truncates the WAL down to
        the records the snapshot does not cover, and drops the
        superseded snapshot.  Returns the manager's compaction report.
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
        """Close the connection: the service waits for its running reads,
        the WAL and the scatter executor shut, and every session and new
        cursor refuses further work."""
        # The write path's lock: one closer wins, a commit in flight
        # finishes first, and one that waited for the lock is refused.
        with self._update_lock:
            if self._closed:
                return
            self._closed = True
            if self.service is not None:
                self.service.close()
            if self._durability is not None:
                self._durability.close()
        if self._scatter is not None:
            self._scatter.close()
        if self._trace_writer is not None:
            self._trace_writer.close()

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
        return self.plan_cache.lookup(name, text, self.store(name),
                                      self.profiles[name], self.tracer)[0]

    def explain(self, query: int | str, *, system: str | None = None):
        """Describe how a query would run — plan, indexes, shard route,
        streaming barriers — without executing it."""
        from repro.obs.explain import explain_query
        self._require_open()
        return explain_query(self, self.resolve_system(system), query)

    def _count_query(self, system: str, tenant: str | None) -> None:
        labels = {"system": system}
        if tenant is not None:
            labels["tenant"] = tenant
        self.registry.counter("db.queries_total", **labels).inc()

    def execute(self, system: str | None, query: int | str, *,
                stream: bool = True,
                tenant: str | None = None) -> Cursor:
        """Route one query to the connection's engine; returns a cursor.

        ``stream=True`` (the default) gives a lazily-produced cursor on
        direct connections; a service connection materializes (its caches
        need complete results) and streams from the finished sequence.
        Either way the plan comes from the connection's plan cache
        (``cursor.plan_cache_hit``).  ``tenant`` labels the connection's
        ``db.queries_total`` counter (per-caller accounting; no isolation
        semantics).
        """
        self._require_open()
        name = self.resolve_system(system)
        text = self.query_text(query)
        self._count_query(name, tenant)
        tracer = self.tracer
        if self.service is not None:
            outcome = self.service.execute(name, text)
            result = outcome.result
            return Cursor(
                result.items, result.navigator,
                system=name, query_text=text, streaming=False,
                source="service",
                compile_seconds=outcome.compile_seconds,
                execute_seconds=outcome.execute_seconds,
                plan_cache_hit=outcome.plan_cache_hit,
                result_cache_hit=outcome.result_cache_hit,
                span=outcome.span,
            )
        store = self.store(name)
        root = (tracer.begin("query", system=name, source="direct",
                             query=text, stream=stream)
                if tracer.enabled else None)
        with tracer.activate(root):
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            compiled, values, hit = self.plan_cache.lookup(
                name, text, store, self.profiles[name], tracer)
            cpu1 = time.process_time()
            wall1 = time.perf_counter()
            if root is not None:
                root.set(plan_cache_hit=hit)
            if stream:
                streamed = evaluate_stream(compiled, tracer=tracer,
                                           values=values)
                cursor = Cursor(
                    iter(streamed), streamed.navigator,
                    system=name, query_text=text, streaming=True,
                    source="direct",
                    compile_seconds=0.0 if hit else wall1 - wall0,
                    compile_cpu_seconds=0.0 if hit else cpu1 - cpu0,
                    metadata_accesses=compiled.metadata_accesses,
                    plans_considered=compiled.plans_considered,
                    plan_cache_hit=hit,
                    span=root,          # unfinished: the cursor finishes it
                )
                # Under the commit lock: a commit poisons exactly the
                # cursors registered before it swapped the set.
                with self._update_lock:
                    self._streaming_cursors.add(cursor)
                return cursor
            result = evaluate(compiled, tracer=tracer, values=values)
            cpu2 = time.process_time()
            wall2 = time.perf_counter()
        if root is not None:
            root.set(rows=len(result.items)).finish()
        return Cursor(
            result.items, result.navigator,
            system=name, query_text=text, streaming=False,
            source="direct",
            compile_seconds=0.0 if hit else wall1 - wall0,
            compile_cpu_seconds=0.0 if hit else cpu1 - cpu0,
            execute_seconds=wall2 - wall1,
            execute_cpu_seconds=cpu2 - cpu1,
            metadata_accesses=compiled.metadata_accesses,
            plans_considered=compiled.plans_considered,
            plan_cache_hit=hit,
            span=root,
        )

    # -- the write path -------------------------------------------------------------

    def apply_transaction(self, ops: list[UpdateOp]) -> dict:
        """Commit a batch of update operations as one unit (one digest
        advance per store, over the batch token) through the
        connection's one write path — the sequence is
        :meth:`repro.update.commit.WritePath.commit`'s.

        A service connection drains every system's admission gate for
        the whole batch (readers never observe an intermediate document)
        and re-keys its result cache; a direct connection poisons its
        open streaming cursors.  There is no rollback: on failure the
        committed prefix stays applied, digests advance over exactly the
        applied operations, and a :class:`~repro.errors.TransactionError`
        reports how far the batch got.
        """
        with self._write_path.lock:
            # Under the lock: a close() that won it refuses this commit.
            self._require_open()
            return self._write_path.commit(ops)

    def _poison_cursors(self, _old_digests, _changes) -> dict:
        """A direct connection's post-commit invalidation (a service
        connection's cursors are materialized; its result cache is
        re-keyed instead).  A suspended streaming pipeline holds
        pre-commit store handles; resuming it over the mutated store
        could yield rows matching neither document state.  The set is
        swapped, not cleared after a copy, so a cursor registered
        meanwhile is never dropped unpoisoned."""
        with self._update_lock:
            cursors, self._streaming_cursors = (self._streaming_cursors,
                                                weakref.WeakSet())
        for cursor in list(cursors):
            if not cursor._exhausted:
                cursor.invalidate(
                    "streaming cursor invalidated by a transaction commit "
                    "on this connection; re-execute the query")
        return {}
