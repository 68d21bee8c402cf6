"""The query service: a connection's result cache.

A :class:`QueryService` is what ``repro.connect(..., service=True)`` adds
to a direct connection.  The connection keeps everything else — its
stores, update lock, plan cache, metrics registry, query log, write path
and its one execution path (``Database._run``), which probes this
service's cache before it plans and fills it after an eager evaluation:

* Results are reused through a :class:`~repro.service.cache.ResultCache`
  (keyed on system + query text + the loaded document's content digest,
  so a commit re-keys exactly the entries its changes cannot affect —
  the write path's invalidation, :meth:`QueryService._rekey_results`).
* :class:`~repro.service.metrics.ServiceMetrics` keeps the latency,
  compile and queue-wait distributions of the connection's executions;
  executions, failures and cache hits are counted once, by the
  connection (``db.queries_total``, ``db.errors_total``, ``cache.hits``).

See docs/SERVING.md for the full serving-layer guide (API, cache keying
and invalidation semantics).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cache import track
from repro.service.cache import ResultCache
from repro.service.invalidation import (
    affected, footprint_fallbacks, query_footprint,
)
from repro.service.metrics import ServiceMetrics
from repro.update.engine import ChangeSet
from repro.xquery.evaluator import QueryResult


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
    span: object = None                 # the query root span when traced

    @property
    def latency_seconds(self) -> float:
        """Client-visible latency: submission to completion."""
        return self.finished - self.submitted


class QueryService:
    """The result cache behind one service connection."""

    def __init__(self, database, *, result_cache_size: int = 1024) -> None:
        self._database = database
        self.result_cache = ResultCache(result_cache_size)
        self.metrics = ServiceMetrics(database.registry)
        track(database.registry, "result", self.result_cache.stats)

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
        tracer = self._database.tracer
        for name, old_digest in old_digests.items():
            with tracer.span("service.invalidate", system=name) as inv:
                kept, dropped = self.result_cache.rekey_document(
                    name, old_digest, changes.digest,
                    lambda text: not affected(query_footprint(text), changes))
                inv.set(results_kept=kept, results_dropped=dropped,
                        footprint=len(changes.changed_tokens))
            cells[name] = {"results_kept": kept, "results_dropped": dropped}
        return cells

    # -- execution -----------------------------------------------------------------

    def execute(self, system: str, query: int | str) -> QueryOutcome:
        """Run one query (a benchmark number or raw XQuery text) through
        the connection's execution path, on the calling thread, and
        return its complete result."""
        submitted = time.perf_counter()
        cursor = self._database.execute(system, query, stream=False)
        items = cursor.fetchall()
        return QueryOutcome(
            system=cursor.system, query_text=cursor.query_text,
            result_size=len(items),
            compile_seconds=cursor.compile_seconds,
            execute_seconds=cursor.execute_seconds,
            queue_seconds=cursor.queue_seconds,
            submitted=submitted, finished=time.perf_counter(),
            plan_cache_hit=cursor.plan_cache_hit,
            result_cache_hit=cursor.result_cache_hit,
            result=QueryResult(items, cursor.navigator),
            span=cursor.profile(),
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
