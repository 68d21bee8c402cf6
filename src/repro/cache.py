"""Bounded, thread-safe caches, and the one plan cache every path shares.

* :class:`LRUCache` — a bounded LRU map with counted lookups: the query
  service's result cache and the scatter executor's per-shard partials.
* :class:`PlanCache` — compiled plans, one per query **shape**: the text
  with its string and numeric literals lifted into slots
  (:func:`repro.xquery.lexer.scan_shape`).  A connection owns one, sized
  ``plan_cache_size`` per serving system, and its direct executions,
  prepared queries, service workers and wire server all look plans up in
  it.

Every cache counts hits/misses/evictions so a report can show its
effectiveness rather than assert it; :func:`track` exports the counters
as ``cache.*{cache=...}`` gauges of a metrics registry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.obs.trace import NULL_TRACER
from repro.xquery.lexer import Shape, scan_shape
from repro.xquery.planner import (CompiledQuery, compile_shaped, fitting,
                                  trace_plan_choices, with_variant)

#: Sentinel distinguishing "key absent" from a cached ``None``/falsy value.
#: A query whose result is legitimately empty must still count as a hit.
_ABSENT = object()


@dataclass(slots=True)
class CacheStats:
    """Hit/miss counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


def track(registry, name: str, stats: CacheStats) -> None:
    """Export one cache's counters as live ``cache.hits`` / ``misses`` /
    ``evictions`` / ``hit_rate`` gauges labelled ``cache=name``."""
    for field_name in ("hits", "misses", "evictions"):
        registry.gauge(f"cache.{field_name}", cache=name).track(
            lambda field_name=field_name: getattr(stats, field_name))
    registry.gauge("cache.hit_rate", cache=name).track(lambda: stats.hit_rate)


class LRUCache:
    """A bounded, thread-safe LRU map with counted lookups.

    ``capacity <= 0`` disables the cache entirely (every lookup is a miss);
    that is how the service runs its "cache off" ablations without a second
    code path.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> tuple[Any, bool]:
        """``(value, was_hit)`` with the entry moved to most-recently-used.

        The hit flag — not the value — is what distinguishes a cached
        ``None``/falsy value from an absent key, so callers that may cache
        falsy values must branch on it rather than on the value.
        """
        with self._lock:
            value = self._entries.get(key, _ABSENT)
            if value is _ABSENT:
                self.stats.misses += 1
                return None, False
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return value, True

    def get(self, key: Hashable) -> Any | None:
        """The cached value moved to most-recently-used, or None.

        Use :meth:`lookup` where a cached ``None`` must be told apart
        from a miss.
        """
        value, _hit = self.lookup(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> tuple[Any, bool]:
        """``(value, was_hit)``; computes and stores on a miss.

        ``compute`` runs outside the lock: the expensive part must not
        serialize unrelated lookups.  Two threads missing on the same key
        may both compute; the store is idempotent.
        """
        value, hit = self.lookup(key)
        if hit:
            return value, True
        value = compute()
        self.put(key, value)
        return value, False

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; returns count."""
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            return len(doomed)


class PlanCache:
    """Compiled plans keyed on ``(system, query shape)``.

    :meth:`lookup` is the one way every path gets a plan.  A text seen
    before costs one dict probe (a memo from text to its shape); a new
    text costs one shape scan, and no parse, plan or emit when a plan of
    its shape already serves its literals — the pinned slots agree, the
    plan's index proofs still hold and it was compiled against the live
    store (:meth:`CompiledQuery.fits`).  Otherwise the text compiles from
    that scan, and its plan joins the shape's (:func:`with_variant`).
    ``capacity`` bounds the shapes, the least recently used going first,
    and ``8 * capacity`` the memo, the oldest text first (a ledger served
    mix sends about 520 distinct texts over 17 shapes in ten seconds);
    ``capacity <= 0`` compiles every time.

    Compilation runs outside the lock; two threads missing on one shape
    may both compile, and the first plan stored is the one kept.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.stats = CacheStats()
        self._plans: OrderedDict[tuple, list[CompiledQuery]] = OrderedDict()
        self._texts: dict[str, Shape] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def lookup(self, system: str, text: str, store, profile,
               tracer=NULL_TRACER) -> tuple[CompiledQuery, tuple, bool]:
        """``(plan, values, was_hit)`` of ``text`` on one system's store:
        execute the plan with ``values`` bound."""
        shape = self._texts.get(text) or scan_shape(text)
        values, raws = shape.values, shape.raws
        key = (system, shape.key)
        with self._lock:
            plans = self._plans.get(key)
            compiled = plans and self._serving(key, plans, store, values, raws)
            if compiled:
                self.stats.hits += 1
                self._plans.move_to_end(key)
                self._memo(text, shape)
            else:
                self.stats.misses += 1
        if compiled:
            if tracer.enabled:          # the choices a trace would have shown
                with tracer.span("plan.cache", system=system, hit=True,
                                 slots=len(values), pinned=len(compiled.pinned)):
                    trace_plan_choices(compiled, tracer)
            return compiled, values, True
        compiled = compile_shaped(text, shape, store, profile, tracer=tracer)
        if self.capacity <= 0:
            return compiled, values, False
        with self._lock:
            plans = self._plans.get(key)
            kept = plans and self._serving(key, plans, store, values, raws) or None
            if kept is None:            # else a racing compile stored first
                plans = self._plans.get(key, [])
                self._plans[key] = with_variant(plans, compiled)
                self.stats.evictions += len(plans) + 1 - len(self._plans[key])
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                _key, evicted = self._plans.popitem(last=False)
                self.stats.evictions += len(evicted)
            self._memo(text, shape)
        return kept or compiled, values, False

    def _serving(self, key: tuple, plans: list, store, values: tuple,
                 raws: tuple) -> CompiledQuery | None:
        """The shape's plan that answers for a text's literals on
        ``store``; plans of a superseded store, or whose proofs broke, are
        dropped.  Caller holds the lock."""
        live = [plan for plan in plans if plan.store is store]
        found = fitting(live, values, raws)
        if found is not None:
            return found
        stale = [plan for plan in live if not plan.fits(plan.values)]
        if stale or len(live) < len(plans):
            plans[:] = [plan for plan in live if plan not in stale]
            self.stats.invalidations += len(stale)
            if not plans:
                del self._plans[key]
        return None

    def _memo(self, text: str, shape: Shape) -> None:
        """Remember a text's shape (oldest first out).  Caller holds the lock."""
        texts = self._texts
        if text not in texts:
            if len(texts) >= 8 * self.capacity:
                del texts[next(iter(texts))]
            texts[text] = shape
