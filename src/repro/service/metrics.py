"""Service-side measurement over the unified registry.

Latency, compile and queue-wait samples live in the fixed-size
ring-buffer histograms of :mod:`repro.obs.metrics`, so a long-running
service does not grow memory with every query.  Counts (``completed``,
cache hits, errors) stay exact — they are totals, not samples;
percentiles are estimated over each histogram's most recent samples
(the registry's default window).

The backing :class:`~repro.obs.metrics.MetricsRegistry` is the
connection's (``db.registry``), which is how the service's numbers reach
the shared text/JSON exporters (``xmark stats``).
"""

from __future__ import annotations

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Thread-safe collector for every query one service answered,
    over the bounded histograms of ``registry``."""

    def __init__(self, registry) -> None:
        self.registry = registry
        self._latency = self.registry.histogram("service.latency_seconds")
        self._compile = self.registry.histogram("service.compile_seconds")
        self._queue = self.registry.histogram("service.queue_wait_seconds")
        self._completed = self.registry.counter("service.queries_total")
        self._errors = self.registry.counter("service.errors_total")
        self._plan_hits = self.registry.counter(
            "service.plan_cache_hits_total")
        self._result_hits = self.registry.counter(
            "service.result_cache_hits_total")

    def record(self, *, started: float, finished: float,
               compile_seconds: float, queue_seconds: float,
               plan_cache_hit: bool, result_cache_hit: bool,
               system: str | None = None) -> None:
        """Record one completed query (timestamps from ``perf_counter``).

        ``system`` additionally feeds a per-system labeled counter and
        latency histogram in the shared registry.
        """
        latency = finished - started
        self._latency.observe(latency)
        self._compile.observe(compile_seconds)
        self._queue.observe(queue_seconds)
        self._completed.inc()
        if plan_cache_hit:
            self._plan_hits.inc()
        if result_cache_hit:
            self._result_hits.inc()
        if system is not None:
            self.registry.counter("service.queries_total",
                                  system=system).inc()
            self.registry.histogram("service.latency_seconds",
                                    system=system).observe(latency)

    def record_error(self, system: str | None = None) -> None:
        self._errors.inc()
        if system is not None:
            self.registry.counter("service.errors_total", system=system).inc()

    @property
    def completed(self) -> int:
        return self._completed.value

    def snapshot(self) -> dict:
        """One JSON-ready dict: latency distributions, cache hit counts."""
        return {
            "completed": self.completed,
            "errors": self._errors.value,
            "latency": self._latency.summary().as_dict(),
            "compile_latency": self._compile.summary().as_dict(),
            "queue_wait": self._queue.summary().as_dict(),
            "plan_cache_hits": self._plan_hits.value,
            "result_cache_hits": self._result_hits.value,
        }
