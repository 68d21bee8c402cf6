"""The concurrent query service.

A :class:`QueryService` sits over one connection
(``repro.connect(..., service=True)`` builds it) and adds what serving
many client threads needs; the connection keeps its stores, update
lock, plan cache, metrics registry and its one write path:

* ``execute()`` runs one query on the thread that asked for it — under
  the GIL a hand-off to a worker pool overlaps nothing, it only queues —
  under the read side of the connection's reader/writer lock, which
  caps the reads running at once and keeps them off a commit.
* Results are reused through a :class:`~repro.service.cache.ResultCache`
  (keyed on system + query text + the loaded document's content digest,
  so a commit re-keys exactly the entries its changes cannot affect —
  the write path's invalidation); plans come from the connection's
  :class:`~repro.cache.PlanCache`.
* :class:`~repro.service.metrics.ServiceMetrics` records every query
  into the connection's registry, and a query log takes one line each.

See docs/SERVING.md for the full serving-layer guide (API, cache keying
and invalidation semantics).

Plan reuse is safe because compiled plans are read-only after compilation
(see :class:`repro.xquery.planner.CompiledQuery`) and the stores' read paths
keep no shared mutable scratch; execution state lives in the runtime object
the evaluator creates per call and hands to the plan's emitted closures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as dataclass_replace

from repro.cache import track
from repro.service.cache import ResultCache
from repro.service.invalidation import (
    affected, footprint_fallbacks, query_footprint,
)
from repro.service.metrics import ServiceMetrics
from repro.update.engine import ChangeSet
from repro.xquery.evaluator import QueryResult, evaluate


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
    """Multi-user query serving over one connection's stores."""

    def __init__(self, database, *, result_cache_size: int = 1024,
                 query_log=None) -> None:
        self._database = database
        self.tracer = database.tracer
        self.result_cache = ResultCache(result_cache_size)
        self.metrics = ServiceMetrics(database.registry)
        track(database.registry, "result", self.result_cache.stats)
        # Structured per-query JSON-lines log (docs/OBSERVABILITY.md);
        # a path constructs a writer the service owns and closes.
        self._owns_query_log = query_log is not None and not hasattr(
            query_log, "record")
        if self._owns_query_log:
            from repro.obs.querylog import QueryLogWriter
            query_log = QueryLogWriter(query_log)
        self.query_log = query_log

    # -- the write path's invalidation ----------------------------------------------

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

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close an owned query log (``db.close()`` calls this under the
        write side: running reads have finished)."""
        if self._owns_query_log:
            self.query_log.close()

    # -- submission ----------------------------------------------------------------

    def execute(self, system: str, query: int | str) -> QueryOutcome:
        """Serve one query (a benchmark number or raw XQuery text) on the
        calling thread."""
        database = self._database
        database._require_open()
        store = database.store(system)  # fail fast on unavailable systems
        text = database.query_text(query)
        return self._serve(system, store, text, time.perf_counter())

    # -- one read ---------------------------------------------------------------------

    def _serve(self, system: str, store, text: str,
               submitted: float) -> QueryOutcome:
        """The read under the connection's read side, held until its
        metrics and query-log line are written: a ``close()`` waits for
        all of it."""
        tracer = self.tracer
        rwlock = self._database.rwlock
        root = (tracer.begin("service.query", system=system, query=text)
                if tracer.enabled else None)
        with tracer.activate(root):
            with tracer.span("service.admission") as admission:
                rwlock.acquire_read()
                started = time.perf_counter()
                admission.set(queue_ms=round((started - submitted) * 1000.0, 3))
            try:
                # close() began while this one queued
                self._database._require_open()
                outcome = self._run_query(system, store, text, submitted,
                                          started)
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
            else:
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
            finally:
                rwlock.release_read()

    def _run_query(self, system: str, store, text: str, submitted: float,
                   started: float) -> QueryOutcome:
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
            compiled, values, plan_hit = self._database.plan_cache.lookup(
                system, text, store, self._database.profiles[system],
                self.tracer)
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

    def export_metrics(self, *, as_text: bool = False):
        """One registry view of everything the connection measures: the
        JSON-ready snapshot, or the text rendering (``as_text=True``)."""
        registry = self._database.registry
        registry.gauge("service.updates_applied").set(
            self._database._write_path.commits)
        registry.gauge("service.footprint_fallbacks").set(
            footprint_fallbacks())
        return registry.render_text() if as_text else registry.snapshot()

    def cache_stats(self) -> dict:
        return {
            "plan_cache": self._database.plan_cache.stats.as_dict(),
            "result_cache": self.result_cache.stats.as_dict(),
        }
