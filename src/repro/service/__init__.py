"""The query-serving layer: concurrency and reuse on top of Systems A-G.

XMark deliberately measures single-user, cold-cache performance; the survey
literature (Darmont's *Database Benchmarks*, Simalango's XML query survey)
flags multi-user concurrency and compiled-plan reuse as exactly what such a
benchmark leaves out.  This package opens that scenario:

* :class:`~repro.service.service.QueryService` — the result cache a
  service connection (``repro.connect(..., service=True)``) adds to a
  direct one.  Every execution still runs through the connection's one
  path, on the caller's thread under its read side; the write path
  re-keys the cache after each commit.
* :class:`~repro.service.cache.ResultCache` — an LRU cache of query
  results with hit/miss statistics and digest-based invalidation (plans
  live in the connection's one :class:`repro.cache.PlanCache`).
* :class:`~repro.service.metrics.ServiceMetrics` — p50/p95/p99 latency,
  compile and queue-wait distributions.

The performance ledger (``benchmarks/ledger/``) is what drives load
through it; see DESIGN.md ("The query service") for the architecture.
"""

from repro.service.cache import ResultCache
from repro.service.metrics import ServiceMetrics
from repro.service.service import QueryOutcome, QueryService

__all__ = [
    "QueryOutcome",
    "QueryService",
    "ResultCache",
    "ServiceMetrics",
]
