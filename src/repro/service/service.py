"""The concurrent query service.

One :class:`QueryService` owns a set of loaded stores (Systems A-G) and
serves queries against them from a bounded thread pool:

* ``submit()`` returns a future; ``execute()`` is the synchronous
  convenience.
* A per-system semaphore provides admission control: at most
  ``per_system_limit`` queries execute on one store simultaneously, so a
  burst against System A cannot starve System D's clients.
* Compiled plans are reused through a :class:`~repro.cache.PlanCache`
  (keyed on system + query shape: every text that differs only in its
  literals shares one plan); results through a
  :class:`~repro.service.cache.ResultCache` (keyed on system + query text
  + the loaded document's content digest, so a commit re-keys exactly the
  entries its changes cannot affect).  An embedding
  :class:`repro.db.Database` executes, prepares and serves the wire
  through this same plan cache.
* Commits go through the one :class:`~repro.update.commit.WritePath`,
  which drains every admission gate for the duration of the write.

See docs/SERVING.md for the full serving-layer guide (API, cache keying
and invalidation semantics).

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
from repro.errors import BenchmarkError
from repro.obs.trace import NULL_TRACER
from repro.service.cache import ResultCache
from repro.service.invalidation import (
    affected, footprint_fallbacks, query_footprint,
)
from repro.service.metrics import ServiceMetrics
from repro.shard.store import DEFAULT_BACKEND
from repro.storage.interface import Store
from repro.update.commit import WritePath
from repro.update.engine import ChangeSet
from repro.update.ops import UpdateOp
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
        limit = per_system_limit if per_system_limit is not None else max_workers
        if limit <= 0:
            raise BenchmarkError(f"per_system_limit must be positive, got {limit}")
        self.per_system_limit = limit
        self.shard_spec = shard_spec
        self.tracer = tracer
        plain = tuple(name for name in systems
                      if shard_spec is None or name != shard_spec.name)
        (self.stores, self.load_reports, self.failed_loads,
         self._shard_executor, self.profiles) = load_stores(
            document, plain, shard_spec, tracer=tracer,
            recovered=getattr(durability, "recovered", None))
        # Writers serialize globally on this lock; checkpoints and close()
        # take it too.  Lock order: update lock -> admission gates -> cache
        # lock.
        self._update_lock = threading.RLock()
        #: The one write path; an embedding Database commits and
        #: checkpoints through this same object.
        self.write_path = WritePath(
            self.stores, self._update_lock, source="service", tracer=tracer,
            exclusion=self._exclusive, invalidate=self._rekey_results,
            durability=durability)
        served = systems + ((shard_spec.name,) if shard_spec is not None else ())
        self._admission = {name: threading.BoundedSemaphore(limit) for name in served}
        # One cache for every system's plans, the sharded one's included:
        # ``plan_cache_size`` entries per serving system.
        self.plan_cache = PlanCache(plan_cache_size * len(served))
        self.result_cache = ResultCache(result_cache_size)
        self.metrics = ServiceMetrics()
        track(self.registry, "plan", self.plan_cache.stats)
        track(self.registry, "result", self.result_cache.stats)
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
    def _exclusive(self):
        """Drain and hold every admission permit of every serving system
        (the write path's reader exclusion).

        Readers hold one permit for the duration of their execution, so
        holding all of them is a write lock: the writer waits for
        in-flight reads, and no reader observes a half-applied document
        or two systems at different versions.
        """
        held = []
        try:
            for name in tuple(self.stores):
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

    # -- lifecycle ----------------------------------------------------------------

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
        try:
            return self._pool.submit(self._serve, system, text, submitted)
        except RuntimeError:
            self._require_open()    # close() shut the pool down meanwhile
            raise

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

    # -- reporting -------------------------------------------------------------------

    @property
    def registry(self):
        """The service's unified :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self.metrics.registry

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
