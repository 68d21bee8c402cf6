"""The query-serving layer: concurrency and reuse on top of Systems A-G.

XMark deliberately measures single-user, cold-cache performance; the survey
literature (Darmont's *Database Benchmarks*, Simalango's XML query survey)
flags multi-user concurrency and compiled-plan reuse as exactly what such a
benchmark leaves out.  This package opens that scenario:

* :class:`~repro.service.service.QueryService` — bounded worker pool with
  per-system admission control; ``submit()`` / ``submit_batch()``.
* :class:`~repro.service.cache.ResultCache` — an LRU cache of query
  results with hit/miss statistics and digest-based invalidation (plans
  live in the connection's one :class:`repro.cache.PlanCache`).
* :class:`~repro.service.workload.WorkloadGenerator` — deterministic
  multi-client query streams (Zipf-skewed popularity, exponential think
  times) seeded through :mod:`repro.rng`.
* :class:`~repro.service.metrics.ServiceMetrics` — throughput and
  p50/p95/p99 latency collection.

See DESIGN.md ("The query service") for the architecture.
"""

from repro.cache import CacheStats, LRUCache
from repro.service.cache import ResultCache
from repro.service.metrics import LatencySummary, ServiceMetrics, percentile
from repro.service.service import QueryOutcome, QueryService, ShardSpec
from repro.service.workload import ClientRequest, WorkloadGenerator, WorkloadSpec

__all__ = [
    "CacheStats",
    "ClientRequest",
    "LRUCache",
    "LatencySummary",
    "QueryOutcome",
    "QueryService",
    "ResultCache",
    "ServiceMetrics",
    "ShardSpec",
    "WorkloadGenerator",
    "WorkloadSpec",
    "percentile",
]
