"""Service-side latency distributions over the unified registry.

Latency, compile and queue-wait samples live in the fixed-size
ring-buffer histograms of :mod:`repro.obs.metrics`, so a long-running
service does not grow memory with every query; percentiles are
estimated over each histogram's most recent samples (the registry's
default window).  Counts are the connection's, one family per fact:
``db.queries_total``, ``db.errors_total`` and the caches'
``cache.hits`` gauges.

The backing :class:`~repro.obs.metrics.MetricsRegistry` is the
connection's (``db.registry``), which is how the service's numbers reach
the shared text/JSON exporters (``xmark stats``).
"""

from __future__ import annotations

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Thread-safe latency distributions of every execution one service
    connection answered, over the bounded histograms of ``registry``."""

    def __init__(self, registry) -> None:
        self.registry = registry
        self._latency = registry.histogram("service.latency_seconds")
        self._compile = registry.histogram("service.compile_seconds")
        self._queue = registry.histogram("service.queue_wait_seconds")

    def record(self, latency: float, compile_seconds: float,
               queue_seconds: float, system: str) -> None:
        """Record one finished execution (seconds); ``system`` also feeds
        a per-system latency histogram."""
        self._latency.observe(latency)
        self._compile.observe(compile_seconds)
        self._queue.observe(queue_seconds)
        self.registry.histogram("service.latency_seconds",
                                system=system).observe(latency)

    def snapshot(self) -> dict:
        """One JSON-ready dict of the three latency distributions."""
        return {
            "latency": self._latency.summary().as_dict(),
            "compile_latency": self._compile.summary().as_dict(),
            "queue_wait": self._queue.summary().as_dict(),
        }
