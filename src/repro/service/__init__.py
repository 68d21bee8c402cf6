"""The query-serving layer: concurrency and reuse on top of Systems A-G.

XMark deliberately measures single-user, cold-cache performance; the survey
literature (Darmont's *Database Benchmarks*, Simalango's XML query survey)
flags multi-user concurrency and compiled-plan reuse as exactly what such a
benchmark leaves out.  This package opens that scenario:

* :class:`~repro.service.service.QueryService` — bounded worker pool with
  per-system admission control (``submit()`` / ``execute()``), and the
  one write path its commits take.
* :class:`~repro.service.cache.ResultCache` — an LRU cache of query
  results with hit/miss statistics and digest-based invalidation (plans
  live in the connection's one :class:`repro.cache.PlanCache`).
* :class:`~repro.service.metrics.ServiceMetrics` — p50/p95/p99 latency,
  compile and queue-wait collection.

The performance ledger (``benchmarks/ledger/``) is what drives load
through it; see DESIGN.md ("The query service") for the architecture.
"""

from repro.cache import CacheStats, LRUCache
from repro.service.cache import ResultCache
from repro.service.metrics import LatencySummary, ServiceMetrics, percentile
from repro.service.service import QueryOutcome, QueryService, ShardSpec

__all__ = [
    "CacheStats",
    "LRUCache",
    "LatencySummary",
    "QueryOutcome",
    "QueryService",
    "ResultCache",
    "ServiceMetrics",
    "ShardSpec",
    "percentile",
]
