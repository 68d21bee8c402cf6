"""Tracing spans: where a query spends its time, as a tree.

A :class:`Tracer` produces trees of :class:`Span` objects — name,
monotonic start, duration, structured attributes, children — that every
execution layer (facade, service, planner, evaluator, scatter-gather,
update engine) feeds while a query runs.  The design constraints:

* **Zero dependencies, near-zero cost when off.**  The disabled path is
  the shared :data:`NULL_TRACER` / :data:`NULL_SPAN` singletons whose
  methods are no-ops; hot loops additionally guard on
  ``tracer.enabled`` so the instrumentation costs one attribute read.
* **Implicit parenting on one thread, explicit across threads.**
  ``tracer.span(name)`` is a context manager that parents under the
  thread-local current span.  Each thread starts with an empty stack,
  so a child of another thread's span is created with
  ``tracer.begin(name, parent=...)`` and finished manually — the attach
  happens under the tracer lock.
* **Bounded retention.**  Finished root spans land in a fixed-size
  deque (``keep``); an optional ``on_root`` sink receives each finished
  root, which is how JSON-lines trace logs are written.

Span trees serialize to plain dicts (:meth:`Span.to_dict`) — the
JSON-lines workload-log schema the future ``repro.tuning`` module will
ingest; see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from contextlib import contextmanager, nullcontext
from time import perf_counter
from zlib import crc32

from repro.rng.lcg import Lcg48

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceLogWriter",
    "TraceSampler",
    "Tracer",
]

#: JSON-lines trace-log schema version (one root-span dict per line).
TRACE_SCHEMA_VERSION = 1


class Span:
    """One timed node in a trace tree."""

    __slots__ = ("name", "attrs", "start", "duration", "children",
                 "_tracer", "_is_root", "_on_stack")

    def __init__(self, name: str, attrs: dict, start: float, tracer,
                 *, is_root: bool, on_stack: bool) -> None:
        self.name = name
        self.attrs = attrs
        self.start = start
        self.duration: float | None = None
        self.children: list[Span] = []
        self._tracer = tracer
        self._is_root = is_root
        self._on_stack = on_stack

    # -- lifecycle ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.duration is not None

    def set(self, **attrs) -> "Span":
        """Attach structured attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def finish(self) -> "Span":
        """Record the duration (idempotent) and hand roots to the tracer."""
        if self.duration is None:
            self.duration = perf_counter() - self.start
            tracer = self._tracer
            if tracer is not None and self._is_root:
                tracer._record_root(self)
        return self

    def discard(self) -> "Span":
        """Finish without retention: the duration is set (children and
        attributes stay inspectable through a held reference) but a root
        is *not* recorded in ``tracer.roots`` and never reaches the
        ``on_root`` sink.  This is how head sampling drops a trace after
        measuring it — see :class:`TraceSampler`."""
        if self.duration is None:
            self.duration = perf_counter() - self.start
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._on_stack:
            self._tracer._pop(self)
        self.finish()

    # -- navigation --------------------------------------------------------

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (including self)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree, document order."""
        return [span for span in self.walk() if span.name == name]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (the trace JSON-lines record payload)."""
        return {
            "name": self.name,
            "start": round(self.start, 6),
            "duration_ms": (None if self.duration is None
                            else round(self.duration * 1000.0, 4)),
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree from its :meth:`to_dict` form.

        The result is *detached*: it belongs to no tracer, is already
        finished (when the dict carried a duration), and exists only to
        be navigated, rendered, or grafted into another tree — this is
        how a serialized server-side subtree from an execute/fetch reply
        joins the client's trace (docs/OBSERVABILITY.md).
        """
        span = cls(str(data.get("name", "?")), dict(data.get("attrs") or {}),
                   float(data.get("start") or 0.0), None,
                   is_root=False, on_stack=False)
        duration_ms = data.get("duration_ms")
        if duration_ms is not None:
            span.duration = float(duration_ms) / 1000.0
        span.children = [cls.from_dict(child)
                         for child in data.get("children") or ()]
        return span

    def render(self, *, indent: int = 0) -> str:
        """Human-readable tree, one span per line."""
        lines: list[str] = []
        self._render_into(lines, indent)
        return "\n".join(lines)

    def _render_into(self, lines: list[str], depth: int) -> None:
        took = ("..." if self.duration is None
                else f"{self.duration * 1000.0:.3f}ms")
        attrs = ""
        if self.attrs:
            attrs = " " + " ".join(f"{key}={value!r}"
                                   for key, value in self.attrs.items())
        lines.append(f"{'  ' * depth}{self.name} [{took}]{attrs}")
        for child in self.children:
            child._render_into(lines, depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, children={len(self.children)}, "
                f"duration={self.duration})")


class _NullSpan:
    """Shared no-op span: every mutation is swallowed, every query empty."""

    __slots__ = ()

    name = "null"
    attrs: dict = {}
    start = 0.0
    duration = 0.0
    children: tuple = ()
    finished = True

    def set(self, **attrs) -> "_NullSpan":
        return self

    def finish(self) -> "_NullSpan":
        return self

    def discard(self) -> "_NullSpan":
        return self

    def walk(self):
        return iter(())

    def find(self, name: str) -> None:
        return None

    def find_all(self, name: str) -> list:
        return []

    def to_dict(self) -> dict:
        return {"name": "null", "start": 0.0, "duration_ms": 0.0,
                "attrs": {}, "children": []}

    def render(self, *, indent: int = 0) -> str:
        return ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()

#: Reusable no-op context manager (``contextlib.nullcontext`` is re-enterable).
_NULL_CONTEXT = nullcontext()


class NullTracer:
    """Disabled tracer: every call is a no-op returning shared singletons."""

    __slots__ = ()

    enabled = False

    @property
    def roots(self) -> tuple:
        return ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def begin(self, name: str, parent=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def activate(self, span):
        return _NULL_CONTEXT

    def suppressed(self):
        return _NULL_CONTEXT

    def new_trace_id(self) -> str:
        return "0" * 12

    def current(self) -> None:
        return None

    def __repr__(self) -> str:
        # The shared singleton is a default argument across the public
        # API; a stable repr keeps docs/PUBLIC_API.txt deterministic.
        return "NULL_TRACER"


NULL_TRACER = NullTracer()


class _Activation:
    """Context manager that pushes a span on the stack without finishing it."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._span)


class Tracer:
    """Produces span trees with thread-local context propagation.

    Parameters
    ----------
    keep:
        How many finished root spans to retain (bounded deque).
    on_root:
        Optional callable invoked with each finished root span — the
        hook :class:`TraceLogWriter` plugs into.
    """

    enabled = True

    def __init__(self, *, keep: int = 64, on_root=None) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: deque[Span] = deque(maxlen=keep)
        self.on_root = on_root
        self._ids = Lcg48(crc32(repr(id(self)).encode()) ^ os.getpid())

    # -- span creation -----------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Start a span parented under the thread's current span.

        Use as a context manager: exiting pops it from the thread-local
        stack and finishes it.  Under :meth:`suppressed` the shared
        :data:`NULL_SPAN` comes back instead and nothing is recorded.
        """
        if getattr(self._local, "suppress", 0):
            return NULL_SPAN
        span = Span(name, attrs, perf_counter(), self,
                    is_root=self.current() is None, on_stack=True)
        self._attach(span)
        self._push(span)
        return span

    def begin(self, name: str, parent: Span | None = None, **attrs) -> Span:
        """Start a manually-finished span.

        Not pushed on any stack — the caller owns its lifetime and must
        call :meth:`Span.finish`.  ``parent`` may name a span owned by
        another thread; when omitted, the creating thread's current span
        is used, and a span with no parent at all becomes a root.  Under
        :meth:`suppressed` the shared :data:`NULL_SPAN` comes back.
        """
        if getattr(self._local, "suppress", 0):
            return NULL_SPAN
        if parent is None:
            parent = self.current()
        span = Span(name, attrs, perf_counter(), self,
                    is_root=parent is None, on_stack=False)
        if parent is not None:
            with self._lock:
                parent.children.append(span)
        return span

    def activate(self, span: Span | None):
        """Context manager making ``span`` the thread's current span.

        Unlike :meth:`span`'s context manager this neither creates nor
        finishes anything — it only scopes implicit parenting, so a
        manually-managed root (e.g. one that outlives the call because a
        streaming cursor finishes it later) can adopt children.
        """
        if span is None or isinstance(span, _NullSpan):
            return _NULL_CONTEXT
        return _Activation(self, span)

    @contextmanager
    def suppressed(self):
        """Scope in which this thread records nothing.

        ``tracer.enabled`` stays True (hot-path guards are untouched) but
        :meth:`span` and :meth:`begin` return :data:`NULL_SPAN`, so no
        span objects are allocated, attached, or retained.  This is the
        per-request off-switch head sampling uses: the wire server wraps
        an unsampled request's handler in it, and the served database's
        instrumentation — which is shared by all requests and cannot be
        toggled globally — goes quiet for exactly that execution.
        Re-entrant (a counter, not a flag) and per-thread.
        """
        self._local.suppress = getattr(self._local, "suppress", 0) + 1
        try:
            yield
        finally:
            self._local.suppress -= 1

    def new_trace_id(self) -> str:
        """A fresh 12-hex-digit trace id for wire context propagation."""
        with self._lock:
            return f"{self._ids.next_raw():012x}"

    # -- context stack -----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def _attach(self, span: Span) -> None:
        parent = self.current()
        if parent is not None:
            with self._lock:
                parent.children.append(span)

    # -- finished roots ----------------------------------------------------

    @property
    def roots(self) -> tuple[Span, ...]:
        """Finished root spans, oldest first (bounded by ``keep``)."""
        with self._lock:
            return tuple(self._roots)

    def _record_root(self, span: Span) -> None:
        with self._lock:
            self._roots.append(span)
        if self.on_root is not None:
            self.on_root(span)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()


class TraceSampler:
    """Deterministic head sampling with an always-keep slow/error tail.

    Head decision: each tenant gets its own :class:`~repro.rng.lcg.Lcg48`
    stream seeded from ``seed`` and a CRC of the tenant name, so the
    kept-set is reproducible across runs and independent of request
    interleaving between tenants.  Every tenant samples at ``rate``.

    Tail decision: :meth:`keep` upgrades an unsampled trace to kept when
    it errored or ran at least ``slow_ms`` — the slow-query rule that
    lets a server trace at ``rate=0.01`` and still capture every outlier.
    """

    __slots__ = ("rate", "slow_ms", "_seed", "_streams", "_lock")

    def __init__(self, rate: float = 1.0, *,
                 slow_ms: float | None = None, seed: int = 20020820) -> None:
        self.rate = float(rate)
        self.slow_ms = slow_ms
        self._seed = int(seed)
        self._streams: dict[str, Lcg48] = {}
        self._lock = threading.Lock()

    def sample(self, tenant: str) -> bool:
        """The head decision: trace this request from the start?"""
        rate = self.rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        with self._lock:
            stream = self._streams.get(tenant)
            if stream is None:
                stream = Lcg48((self._seed + crc32(tenant.encode("utf-8")))
                               & 0xFFFFFFFFFFFF)
                self._streams[tenant] = stream
            return stream.next_double() < rate

    def keep(self, sampled: bool, duration_ms: float,
             error: bool = False) -> bool:
        """The tail decision, once the duration and outcome are known."""
        if sampled or error:
            return True
        return self.slow_ms is not None and duration_ms >= self.slow_ms


class _JsonLinesSink:
    """Locked JSON-lines appender with size-bounded rotation.

    When ``max_bytes`` is set and a write would leave the file past it,
    the file rotates first: ``path`` → ``path.1`` → … → ``path.<keep>``
    (oldest dropped), then a fresh ``path`` is opened.  Rotation is by
    whole lines — a record never straddles two files.
    """

    __slots__ = ("path", "max_bytes", "keep", "_lock", "_handle", "_size")

    def __init__(self, path, *, max_bytes: int | None = None,
                 keep: int = 3) -> None:
        self.path = path
        self.max_bytes = max_bytes
        self.keep = max(1, int(keep))
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")
        self._size = self._handle.tell()

    def write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._handle.closed:
                return
            if (self.max_bytes is not None and self._size > 0
                    and self._size + len(line) > self.max_bytes):
                self._rotate()
            self._handle.write(line)
            self._handle.flush()
            self._size += len(line)

    def _rotate(self) -> None:
        self._handle.close()
        for index in range(self.keep - 1, 0, -1):
            older = f"{self.path}.{index}"
            if os.path.exists(older):
                os.replace(older, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = 0

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


class TraceLogWriter:
    """Append finished root spans to a JSON-lines workload log.

    One line per root span tree: ``{"v": 1, "span": {...}}`` — the
    input format the future ``repro.tuning`` module ingests.  Plug an
    instance into ``Tracer(on_root=...)``; writes are serialized by an
    internal lock so multi-threaded services can share one writer.
    ``max_bytes``/``keep`` bound the sink on disk (see
    :class:`_JsonLinesSink`); by default it grows without rotation.
    """

    def __init__(self, path, *, max_bytes: int | None = None,
                 keep: int = 3) -> None:
        self._sink = _JsonLinesSink(path, max_bytes=max_bytes, keep=keep)

    @property
    def path(self):
        return self._sink.path

    def __call__(self, span: Span) -> None:
        self._sink.write({"v": TRACE_SCHEMA_VERSION, "span": span.to_dict()})

    def close(self) -> None:
        self._sink.close()
