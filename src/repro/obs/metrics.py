"""Unified metrics registry: counters, gauges, histograms — bounded memory.

Every layer of the stack reports through one :class:`MetricsRegistry`:
the service records per-query latencies, the facade counts queries per
system (and per tenant), caches expose hit rates as gauges.  Design
points:

* **Bounded memory.**  Histograms keep a fixed-size ring of recent
  samples for percentile estimation while tracking exact totals
  (count/sum/min/max) forever — a long-running workload never grows the
  registry, yet ``completed`` counts stay exact.
* **Labels.**  Metrics are keyed by ``(name, sorted(labels))`` so one
  logical metric fans out per-system / per-shard / per-tenant without
  pre-registration.
* **Two exporters.**  :meth:`MetricsRegistry.snapshot` (JSON-ready
  dict) and :meth:`MetricsRegistry.render_text` (the one text formatter
  every CLI reports through).

``percentile`` and :class:`LatencySummary` live here: the
linear-interpolation estimator is the registry's percentile engine.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import BenchmarkError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatencySummary",
    "MetricsRegistry",
    "percentile",
]

#: Default number of samples a histogram retains for percentiles.
DEFAULT_WINDOW = 2048


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    For a sorted sample ``x`` of size ``n`` the rank is
    ``r = q/100 * (n - 1)``; the estimate interpolates between
    ``x[floor(r)]`` and ``x[ceil(r)]``.
    """
    if not samples:
        raise BenchmarkError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise BenchmarkError(f"percentile out of range: {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


@dataclass(frozen=True, slots=True)
class LatencySummary:
    """Latency distribution of one measurement window (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: list[float]) -> "LatencySummary":
        if not samples:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=len(samples),
            mean=sum(samples) / len(samples),
            p50=percentile(samples, 50.0),
            p95=percentile(samples, 95.0),
            p99=percentile(samples, 99.0),
            maximum=max(samples),
        )

    def as_dict(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "mean_ms": round(self.mean * 1000.0, 3),
            "p50_ms": round(self.p50 * 1000.0, 3),
            "p95_ms": round(self.p95 * 1000.0, 3),
            "p99_ms": round(self.p99 * 1000.0, 3),
            "max_ms": round(self.maximum * 1000.0, 3),
        }


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "_lock", "_value")

    kind = "counter"

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def export(self) -> int:
        return self.value


class Gauge:
    """Last-written value (cache sizes, hit rates, pool depths), or a
    live reading of a value kept elsewhere (:meth:`track`)."""

    __slots__ = ("name", "labels", "_lock", "_value", "_source")

    kind = "gauge"

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0
        self._source = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def track(self, source) -> None:
        """Read ``source()`` whenever the gauge is read: a counter the
        hot path keeps without the registry (a cache's hit rate)."""
        with self._lock:
            self._source = source

    @property
    def value(self) -> float:
        with self._lock:
            source = self._source
            if source is None:
                return self._value
        return source()

    def export(self) -> float:
        return self.value


class Histogram:
    """Sample distribution over a fixed-size ring buffer.

    Totals (count, sum, min, max) are exact over the metric's whole
    lifetime; percentiles are estimated over the ``window`` most recent
    samples, so memory stays bounded no matter how long the workload
    runs.
    """

    __slots__ = ("name", "labels", "window", "_lock", "_ring", "_next",
                 "_count", "_sum", "_min", "_max")

    kind = "histogram"

    def __init__(self, name: str, labels: tuple,
                 window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise BenchmarkError(f"histogram window must be >= 1: {window}")
        self.name = name
        self.labels = labels
        self.window = window
        self._lock = threading.Lock()
        self._ring: list[float] = []
        self._next = 0
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        with self._lock:
            if len(self._ring) < self.window:
                self._ring.append(value)
            else:
                self._ring[self._next] = value
                self._next = (self._next + 1) % self.window
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Total samples ever observed (not just those retained)."""
        with self._lock:
            return self._count

    @property
    def retained(self) -> int:
        """Samples currently held in the ring (<= window)."""
        with self._lock:
            return len(self._ring)

    def samples(self) -> list[float]:
        """Copy of the retained window (unordered)."""
        with self._lock:
            return list(self._ring)

    def summary(self) -> LatencySummary:
        """Exact count/mean/max over the lifetime, percentiles over the
        retained window."""
        with self._lock:
            retained = list(self._ring)
            count = self._count
            total = self._sum
            maximum = self._max
        if count == 0:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return LatencySummary(
            count=count,
            mean=total / count,
            p50=percentile(retained, 50.0),
            p95=percentile(retained, 95.0),
            p99=percentile(retained, 99.0),
            maximum=maximum if maximum is not None else 0.0,
        )

    def export(self) -> dict:
        return self.summary().as_dict()


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _render_name(name: str, labels: tuple) -> str:
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create home for every metric in one process.

    ``counter``/``gauge``/``histogram`` are idempotent for a given
    ``(name, labels)`` pair, so call sites never pre-register — the
    first caller creates, later callers reuse.
    """

    def __init__(self, *, histogram_window: int = DEFAULT_WINDOW) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple, object] = {}
        #: ``(kind, name, *labels in call order)`` -> metric: a repeated
        #: lookup is one probe, without the lock or a sorted label key.
        #: Read lock-free (a dict probe is atomic); written under the lock.
        self._memo: dict[tuple, object] = {}
        self.histogram_window = histogram_window

    def _create(self, kind: str, name: str, labels: dict, factory):
        """The slow path of a lookup the memo missed: get or create the
        metric under the lock, refuse a kind conflict, memoise it."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = factory(name, key[1])
            elif metric.kind != kind:
                raise BenchmarkError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {kind}")
            self._memo[(kind, name, *labels.items())] = metric
            return metric

    def counter(self, name: str, **labels) -> Counter:
        metric = self._memo.get(("counter", name, *labels.items()))
        if metric is None:
            metric = self._create("counter", name, labels, Counter)
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        metric = self._memo.get(("gauge", name, *labels.items()))
        if metric is None:
            metric = self._create("gauge", name, labels, Gauge)
        return metric

    def histogram(self, name: str, window: int | None = None,
                  **labels) -> Histogram:
        metric = self._memo.get(("histogram", name, *labels.items()))
        if metric is None:
            size = self.histogram_window if window is None else window
            metric = self._create(
                "histogram", name, labels,
                lambda metric_name, key: Histogram(metric_name, key, size))
        return metric

    def metrics(self) -> list:
        """Every registered metric, sorted by rendered name."""
        with self._lock:
            registered = list(self._metrics.values())
        return sorted(registered,
                      key=lambda metric: _render_name(metric.name,
                                                      metric.labels))

    # -- exporters ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready export: ``{kind: {rendered_name: value}}``."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in self.metrics():
            rendered = _render_name(metric.name, metric.labels)
            out[metric.kind + "s"][rendered] = metric.export()
        return out

    def render_text(self) -> str:
        """The one text formatter every CLI reports through."""
        lines: list[str] = []
        for metric in self.metrics():
            rendered = _render_name(metric.name, metric.labels)
            if metric.kind == "histogram":
                summary = metric.export()
                detail = " ".join(f"{key}={summary[key]}"
                                  for key in ("count", "mean_ms", "p50_ms",
                                              "p95_ms", "p99_ms", "max_ms"))
                lines.append(f"{rendered} {detail}")
            elif metric.kind == "gauge":
                lines.append(f"{rendered} {round(metric.value, 4)}")
            else:
                lines.append(f"{rendered} {metric.value}")
        return "\n".join(lines)
