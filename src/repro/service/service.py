"""The concurrent query service.

One :class:`QueryService` owns a set of loaded stores (Systems A-G) and
serves queries against them from a bounded thread pool:

* ``submit()`` returns a future; ``submit_batch()`` fans a list out;
  ``execute()`` is the synchronous convenience.
* A per-system semaphore provides admission control: at most
  ``per_system_limit`` queries execute on one store simultaneously, so a
  burst against System A cannot starve System D's clients.
* Compiled plans are reused through a :class:`~repro.cache.PlanCache`
  (keyed on system + query shape: every text that differs only in its
  literals shares one plan); results through a
  :class:`~repro.service.cache.ResultCache` (keyed on system + query text
  + the loaded document's content digest, so :meth:`reload_document`
  invalidates exactly the stale entries).  An embedding
  :class:`repro.db.Database` executes, prepares and serves the wire
  through this same plan cache.  Secondary indexes are per-document state
  like cached results: a reload drops the superseded stores' index sets in
  the same pass (see :meth:`reload_document`), and :meth:`index_stats`
  reports what the serving stores built.
* Closed-loop multi-client experiments come from :meth:`run_workload`, which
  drives a deterministic :class:`~repro.service.workload.WorkloadGenerator`
  stream with one thread per client, honouring per-request think times.

See docs/SERVING.md for the full serving-layer guide (API, cache keying
and invalidation semantics, and how to read ``serve-bench`` output).

Plan reuse is safe because compiled plans are read-only after compilation
(see :class:`repro.xquery.planner.CompiledQuery`) and the stores' read paths
keep no shared mutable scratch; execution state lives in the runtime object
the evaluator creates per call and hands to the plan's emitted closures.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace as dataclass_replace

from repro.benchmark.queries import QUERIES
from repro.benchmark.systems import load_stores
from repro.cache import PlanCache, track
from repro.errors import BenchmarkError, DurabilityError
from repro.obs.trace import NULL_TRACER
from repro.service.cache import ResultCache
from repro.service.invalidation import (
    affected, footprint_fallbacks, query_footprint,
)
from repro.service.metrics import ServiceMetrics
from repro.service.workload import ClientRequest, WorkloadGenerator, WorkloadSpec
from repro.shard.scatter import ScatterGatherExecutor
from repro.shard.store import DEFAULT_BACKEND, ShardedStore
from repro.storage.bulkload import BulkloadReport
from repro.storage.interface import Store, document_digest
from repro.update.commit import WritePath
from repro.update.engine import ChangeSet
from repro.update.ops import UpdateOp
from repro.update.stream import UpdateStream
from repro.xquery.evaluator import QueryResult, evaluate


@dataclass(frozen=True, slots=True)
class ShardSpec:
    """Configuration of the service's sharded deployment.

    When given to :class:`QueryService`, the service additionally serves a
    pseudo-system (``name``, default ``"S"``) backed by a
    :class:`~repro.shard.store.ShardedStore` over ``shards`` instances of
    the ``backends`` architectures, whose exchange plans fan out over a
    :class:`~repro.shard.scatter.ScatterGatherExecutor`.  It is served
    like any other system — same plan cache, same result cache, same
    admission permit held per read; scatter subtasks additionally pass
    per-shard admission (``per_shard_limit``), and commits drain the
    system's gate with every other system's — the same torn-read
    guarantee the unsharded systems get.
    """

    shards: int = 2
    backends: tuple[str, ...] = (DEFAULT_BACKEND,)
    name: str = "S"
    per_shard_limit: int = 2
    partial_cache_size: int = 512


@dataclass(frozen=True, slots=True)
class QueryOutcome:
    """What one served query cost and where the work was saved."""

    system: str
    query_text: str
    result_size: int
    compile_seconds: float
    execute_seconds: float
    queue_seconds: float
    submitted: float
    finished: float
    plan_cache_hit: bool
    result_cache_hit: bool
    result: QueryResult
    span: object = None                 # the service.query root span when traced

    @property
    def latency_seconds(self) -> float:
        """Client-visible latency: submission to completion."""
        return self.finished - self.submitted


class QueryService:
    """Multi-user query serving over the benchmark's store architectures."""

    def __init__(
        self,
        document: str,
        systems: tuple[str, ...] = ("D",),
        *,
        max_workers: int = 8,
        per_system_limit: int | None = None,
        plan_cache_size: int = 128,
        result_cache_size: int = 1024,
        shard_spec: ShardSpec | None = None,
        tracer=NULL_TRACER,
        durability=None,
        query_log=None,
    ) -> None:
        if max_workers <= 0:
            raise BenchmarkError(f"max_workers must be positive, got {max_workers}")
        self.shard_spec = shard_spec
        self.tracer = tracer
        self._shard_executor: ScatterGatherExecutor | None = None
        self.stores: dict[str, Store] = {}
        #: Per serving name, the profile its queries compile under.
        self.profiles: dict = {}
        self.load_reports: dict[str, BulkloadReport] = {}
        self.failed_loads: dict[str, str] = {}
        # Writers serialize globally on this lock; reloads, checkpoints
        # and close() take it too.  Lock order: update lock -> admission
        # gates -> cache lock.
        self._update_lock = threading.RLock()
        #: The one write path; an embedding Database commits and
        #: checkpoints through this same object.
        self.write_path = WritePath(
            self.stores, self._update_lock, source="service", tracer=tracer,
            exclusion=self._exclusive, invalidate=self._rekey_results,
            durability=durability)
        self._load(document, systems)
        limit = per_system_limit if per_system_limit is not None else max_workers
        if limit <= 0:
            raise BenchmarkError(f"per_system_limit must be positive, got {limit}")
        self.per_system_limit = limit
        served = systems + ((shard_spec.name,) if shard_spec is not None else ())
        self._admission = {name: threading.BoundedSemaphore(limit) for name in served}
        # One cache for every system's plans, the sharded one's included:
        # ``plan_cache_size`` entries per serving system.
        self.plan_cache = PlanCache(plan_cache_size * len(served))
        self.result_cache = ResultCache(result_cache_size)
        self.metrics = ServiceMetrics()
        self._track_caches()
        # Structured per-query JSON-lines log (docs/OBSERVABILITY.md);
        # a path constructs a writer the service owns and closes.
        self._owns_query_log = query_log is not None and not hasattr(
            query_log, "record")
        if self._owns_query_log:
            from repro.obs.querylog import QueryLogWriter
            query_log = QueryLogWriter(query_log)
        self.query_log = query_log
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="xmark-query")
        self._closed = False
        self._update_stream: UpdateStream | None = None

    # -- lifecycle ----------------------------------------------------------------

    def _load(self, document: str,
              systems: tuple[str, ...]) -> ScatterGatherExecutor | None:
        """Load the stores; returns the superseded scatter executor, if any.

        The caller owns closing it: an in-flight scatter query may still
        hold a reference, so the close must wait behind the shard system's
        drained admission gate (:meth:`reload_document`), never happen
        here mid-swap.
        """
        spec = self.shard_spec
        plain = tuple(name for name in systems
                      if spec is None or name != spec.name)
        stores, reports, failed, executor, profiles = load_stores(
            document, plain, spec, tracer=self.tracer,
            recovered=getattr(self.durability, "recovered", None))
        self.stores.update(stores)
        self.profiles.update(profiles)
        self.load_reports.update(reports)
        self.failed_loads.update(failed)
        superseded = None
        if executor is not None:
            superseded, self._shard_executor = self._shard_executor, executor
        return superseded

    def reload_document(self, document: str) -> None:
        """Replace the loaded document on every serving system.

        Compiled plans are bound to the old store instances and every cached
        result to the old digest, so both caches shed exactly that state —
        the invalidation contract the result cache exists for.  The
        superseded stores' secondary indexes are dropped in the same pass:
        per-document state (indexes, cached results) is invalidated
        together, and the fresh stores rebuild their indexes at load.

        Reloading does not drain the pool: a query already executing keeps
        its reference to the old store and may finish (and briefly re-cache)
        against the old digest; with the old indexes dropped, any
        index-backed plan it carries degrades to its scan equivalent —
        same results, no stale index reads.  Callers needing a hard
        cut-over should let outstanding futures complete before reloading.

        Reloading the *same* content is a no-op: when every serving store's
        digest already equals the new text's digest there is no stale state
        to shed, so stores, plans, results, and indexes all survive.

        Reloads serialize with commits (the update lock): a reload
        racing a commit could otherwise swap the store set mid-write and
        fork the serving systems' document lineages.
        """
        self._require_open()
        with self._update_lock:
            new_digest = document_digest(document)
            if (self.stores and not self.failed_loads
                    and all(store.document_digest() == new_digest
                            for store in self.stores.values())):
                return
            if self.durability is not None:
                raise DurabilityError(
                    "a durable service cannot reload a different document; "
                    "the WAL lineage would fork")
            systems = tuple(self._admission)
            old_stores = list(self.stores.values())
            old_digests = {store.document_digest() for store in old_stores}
            # Overwrite the store map in place rather than clear-then-load:
            # readers resolve stores without the update lock, and a cleared
            # map would make every serving system flicker "unavailable"
            # for the duration of the bulkloads.  The dict object itself is
            # shared with embedded connections, so its identity must hold.
            self.load_reports.clear()
            self.failed_loads.clear()
            superseded = self._load(document, systems)
            for name in [name for name in self.stores
                         if name in self.failed_loads]:
                del self.stores[name]   # the old store must not keep serving
            if superseded is not None:
                # An in-flight query's plan may still be bound to the
                # superseded executor (it compiled before the swap).
                # Readers hold one admission permit for their whole
                # execution, so draining the shard system's gate proves no
                # such holder remains — only then is close() safe.
                spec = self.shard_spec
                if spec is not None and spec.name in self._admission:
                    with self._exclusive(spec.name):
                        pass
                superseded.close()
            self.plan_cache.clear()
            self._update_stream = None
            for store in old_stores:
                store.drop_indexes()
            for digest in old_digests:
                if digest:
                    self.result_cache.invalidate_document(digest)

    # -- the write path ------------------------------------------------------------

    @property
    def durability(self):
        """The :class:`~repro.storage.wal.DurabilityManager` every commit
        logs to before it applies (``None``: not durable)."""
        return self.write_path.durability

    @property
    def updates_applied(self) -> int:
        return self.write_path.commits

    @contextmanager
    def _exclusive(self, *systems: str):
        """Drain and hold every admission permit of the named systems —
        of every serving system when none is named (the write path's
        reader exclusion).

        Readers hold one permit for the duration of their execution, so
        holding all of them is a write lock: the writer waits for
        in-flight reads, and no reader observes a half-applied document
        or two systems at different versions.
        """
        held = []
        try:
            for name in systems or tuple(self.stores):
                gate = self._admission[name]
                for _ in range(self.per_system_limit):
                    gate.acquire()
                    held.append(gate)
            yield
        finally:
            for gate in held:
                gate.release()

    def _rekey_results(self, old_digests: dict[str, str],
                       changes: ChangeSet | None) -> dict[str, dict]:
        """The write path's invalidation: re-key the result cache
        path-selectively.  Entries whose query the union change footprint
        cannot affect stay cached under the new digest, the rest are
        dropped; after a refused commit (``changes is None``) the applied
        prefix's stores lose their cached results conservatively.
        Compiled plans survive either way — they resolve index probes
        through the store at execution time, so a maintained (or
        rebuilt, or dropped) IndexSet never leaves them wrong, only
        differently fast."""
        if changes is None:
            for digest in old_digests.values():
                self.result_cache.invalidate_document(digest)
            return {}
        cells = {}
        for name, old_digest in old_digests.items():
            with self.tracer.span("service.invalidate", system=name) as inv:
                kept, dropped = self.result_cache.rekey_document(
                    name, old_digest, changes.digest,
                    lambda text: not affected(query_footprint(text), changes))
                inv.set(results_kept=kept, results_dropped=dropped,
                        footprint=len(changes.changed_tokens))
            cells[name] = {"results_kept": kept, "results_dropped": dropped}
        return cells

    def apply_update(self, op: UpdateOp) -> dict:
        """Commit one update operation (WAL ``kind="op"``: the digest
        chains over the op's own token); see :meth:`apply_transaction`."""
        self._require_open()
        return self.write_path.commit([op], "op")

    def apply_transaction(self, ops: list[UpdateOp]) -> dict:
        """Commit a batch of update operations as one atomic unit
        (:meth:`repro.update.commit.WritePath.commit`, ``kind="txn"``).

        Every serving system's admission gate is drained and held for
        the whole commit, the digest advances *once* per store over the
        batch token, and the result cache is re-keyed in one pass over
        the union change footprint.  No rollback: on failure the applied
        prefix stays and :class:`~repro.errors.TransactionError` reports
        how far the batch got.
        """
        self._require_open()
        return self.write_path.commit(ops, "txn")

    def apply_next_update(self) -> dict:
        """Generate and apply the next operation of the service's
        deterministic update stream (the mixed workload's write slot)."""
        with self._update_lock:
            if self._update_stream is None:
                first = next(iter(self.stores))
                self._update_stream = UpdateStream(self.stores[first])
            op = self._update_stream.next_op()
            self._update_stream.note_applied(op)
            return self.apply_update(op)

    def close(self) -> None:
        # The flag flips under the update lock so concurrent closers agree
        # on exactly one winner; the pool drain stays outside it because
        # in-flight work may touch the admission gates and caches.
        with self._update_lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=True)
        if self._shard_executor is not None:
            self._shard_executor.close()
        if self.query_log is not None and self._owns_query_log:
            self.query_log.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise BenchmarkError("query service is closed")

    # -- submission ----------------------------------------------------------------

    def store(self, system: str) -> Store:
        try:
            return self.stores[system]
        except KeyError:
            reason = self.failed_loads.get(system, "not loaded")
            raise BenchmarkError(f"system {system} unavailable: {reason}") from None

    def _query_text(self, query: int | str) -> str:
        if isinstance(query, int):
            try:
                return QUERIES[query].text
            except KeyError:
                raise BenchmarkError(f"unknown query number {query}") from None
        return query

    def submit(self, system: str, query: int | str) -> "Future[QueryOutcome]":
        """Enqueue one query (a benchmark number or raw XQuery text)."""
        self._require_open()
        self.store(system)  # fail fast on unavailable systems
        text = self._query_text(query)
        submitted = time.perf_counter()
        return self._pool.submit(self._serve, system, text, submitted)

    def submit_batch(self, requests: list[tuple[str, int | str]]) -> list["Future[QueryOutcome]"]:
        return [self.submit(system, query) for system, query in requests]

    def execute(self, system: str, query: int | str) -> QueryOutcome:
        return self.submit(system, query).result()

    # -- the worker body ------------------------------------------------------------

    def _serve(self, system: str, text: str, submitted: float) -> QueryOutcome:
        tracer = self.tracer
        root = (tracer.begin("service.query", system=system, query=text)
                if tracer.enabled else None)
        with tracer.activate(root):
            gate = self._admission[system]
            with tracer.span("service.admission") as admission:
                gate.acquire()
                started = time.perf_counter()
                admission.set(queue_ms=round((started - submitted) * 1000.0, 3))
            try:
                outcome = self._run_query(system, text, submitted, started)
            except Exception as exc:
                self.metrics.record_error(system=system)
                if root is not None:
                    root.set(error=type(exc).__name__).finish()
                if self.query_log is not None:
                    self.query_log.record(
                        source="service", span=root, system=system,
                        query_text=text, error=type(exc).__name__,
                        duration_ms=round(
                            (time.perf_counter() - submitted) * 1000.0, 3))
                raise
            finally:
                gate.release()
        self.metrics.record(
            started=submitted,
            finished=outcome.finished,
            compile_seconds=outcome.compile_seconds,
            queue_seconds=outcome.queue_seconds,
            plan_cache_hit=outcome.plan_cache_hit,
            result_cache_hit=outcome.result_cache_hit,
            system=system,
        )
        if root is not None:
            root.set(result_size=outcome.result_size,
                     plan_cache_hit=outcome.plan_cache_hit,
                     result_cache_hit=outcome.result_cache_hit).finish()
            outcome = dataclass_replace(outcome, span=root)
        if self.query_log is not None:
            self.query_log.record(
                source="service", span=root, system=system,
                query_text=text, rows=outcome.result_size,
                duration_ms=round(
                    (outcome.finished - outcome.submitted) * 1000.0, 3),
                queue_ms=round(outcome.queue_seconds * 1000.0, 3),
                plan_cache_hit=outcome.plan_cache_hit,
                result_cache_hit=outcome.result_cache_hit)
        return outcome

    def _run_query(self, system: str, text: str, submitted: float,
                   started: float) -> QueryOutcome:
        store = self.store(system)
        digest = store.document_digest() or ""
        result_key = ResultCache.key(system, text, digest)
        with self.tracer.span("service.result_cache") as cache_span:
            cached_result, cache_hit = self.result_cache.lookup(result_key)
            cache_span.set(hit=cache_hit)
        if cache_hit:
            finished = time.perf_counter()
            return QueryOutcome(
                system=system, query_text=text,
                result_size=len(cached_result),
                compile_seconds=0.0, execute_seconds=0.0,
                queue_seconds=started - submitted,
                submitted=submitted, finished=finished,
                plan_cache_hit=False, result_cache_hit=True,
                result=cached_result,
            )

        compile_start = time.perf_counter()
        with self.tracer.span("service.plan_cache") as plan_span:
            # Only a plan of the current store serves: a reload racing this
            # request compiles afresh, so the result matches the digest in
            # the result cache's key.
            compiled, values, plan_hit = self.plan_cache.lookup(
                system, text, store, self.profiles[system], self.tracer)
            plan_span.set(hit=plan_hit)
        compile_end = time.perf_counter()
        result = evaluate(compiled, tracer=self.tracer, values=values)
        finished = time.perf_counter()
        self.result_cache.put(result_key, result)
        return QueryOutcome(
            system=system, query_text=text,
            result_size=len(result),
            compile_seconds=0.0 if plan_hit else compile_end - compile_start,
            execute_seconds=finished - compile_end,
            queue_seconds=started - submitted,
            submitted=submitted, finished=finished,
            plan_cache_hit=plan_hit, result_cache_hit=False,
            result=result,
        )

    # -- workload driving ------------------------------------------------------------

    def run_workload(self, workload: WorkloadSpec | WorkloadGenerator,
                     *, reset_metrics: bool = True) -> dict:
        """Drive a closed-loop multi-client workload; returns the metrics snapshot.

        One driver thread per client replays that client's deterministic
        stream: sleep the request's think time, submit, wait for completion.
        Overlap between clients is what the service's pool and admission
        control are being measured on.
        """
        self._require_open()
        generator = (workload if isinstance(workload, WorkloadGenerator)
                     else WorkloadGenerator(workload))
        for system in generator.spec.systems:
            self.store(system)  # every targeted system must be serving
        if reset_metrics:
            # Swap under the update lock: driver threads from a previous
            # workload may still be publishing into the old snapshot.
            with self._update_lock:
                self.metrics = ServiceMetrics()
                self._track_caches()
        plan_baseline = self.plan_cache.stats.copy()
        result_baseline = self.result_cache.stats.copy()
        streams = generator.streams()
        failures: list[BaseException] = []
        update_seconds: list[float] = []

        def drive(stream: list[ClientRequest]) -> None:
            for request in stream:
                if request.think_seconds > 0:
                    time.sleep(request.think_seconds)
                try:
                    if request.kind == "update":
                        started = time.perf_counter()
                        self.apply_next_update()
                        update_seconds.append(time.perf_counter() - started)
                    else:
                        self.submit(request.system, request.query).result()
                except BaseException as exc:  # surfaced after the run
                    failures.append(exc)
                    return

        clients = [threading.Thread(target=drive, args=(stream,), daemon=True)
                   for stream in streams]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        if failures:
            raise failures[0]
        snapshot = self.metrics.snapshot()
        snapshot["clients"] = generator.spec.clients
        snapshot["updates"] = {
            "count": len(update_seconds),
            "mean_ms": round(
                sum(update_seconds) / len(update_seconds) * 1000.0, 3)
            if update_seconds else 0.0,
            "max_ms": round(max(update_seconds) * 1000.0, 3)
            if update_seconds else 0.0,
        }
        # Cache counters are service-lifetime; report this window's deltas so
        # hit rates describe the same interval as the latency/qps numbers.
        snapshot["plan_cache"] = self.plan_cache.stats.since(plan_baseline).as_dict()
        snapshot["result_cache"] = self.result_cache.stats.since(result_baseline).as_dict()
        return snapshot

    # -- reporting -------------------------------------------------------------------

    @property
    def registry(self):
        """The service's unified :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self.metrics.registry

    def _track_caches(self) -> None:
        """The caches' counters as live gauges of the current registry."""
        track(self.registry, "plan", self.plan_cache.stats)
        track(self.registry, "result", self.result_cache.stats)

    def export_metrics(self, *, as_text: bool = False):
        """One registry view of everything the service measures: the
        JSON-ready snapshot, or the text rendering (``as_text=True``)."""
        registry = self.registry
        registry.gauge("service.updates_applied").set(self.updates_applied)
        registry.gauge("service.footprint_fallbacks").set(
            footprint_fallbacks())
        return registry.render_text() if as_text else registry.snapshot()

    def cache_stats(self) -> dict:
        return {
            "plan_cache": self.plan_cache.stats.as_dict(),
            "result_cache": self.result_cache.stats.as_dict(),
        }

    def index_stats(self) -> dict:
        """Per-system secondary-index summaries (what was built at load)."""
        return {
            name: store.indexes.summary()
            for name, store in self.stores.items()
            if store.indexes is not None
        }

    def shard_stats(self) -> dict:
        """The sharded deployment's partition layout and cache counters
        (empty when the service runs without a :class:`ShardSpec`)."""
        if self.shard_spec is None or self.shard_spec.name not in self.stores:
            return {}
        sharded: ShardedStore = self.stores[self.shard_spec.name]
        return {
            "partition": sharded.partition_summary(),
            "shard_digests": [sharded.shard_digest(rank)
                              for rank in range(sharded.shard_count)],
            "plan_cache": self.plan_cache.stats.as_dict(),
            "partial_cache": sharded.exchange.partial_cache.stats.as_dict(),
        }
