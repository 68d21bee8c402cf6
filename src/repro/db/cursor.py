"""Streaming cursors: the one result surface of the embedded API.

A :class:`Cursor` fronts every execution path the facade routes to.  On a
direct connection it is backed by the evaluator's lazy pipeline
(:func:`repro.xquery.evaluator.evaluate_stream`): items are produced as
the plan yields them, so the first row of a large result arrives long
before the last binding has been evaluated.  A service connection
materializes (its result cache needs complete results) and the cursor
streams from the finished sequence — same protocol, different latency
profile.

Whatever the backing, ``fetchall()`` returns exactly the items the legacy
``evaluate()`` would have put in ``QueryResult.items``, in the same
order — laziness changes *when* work happens, never *what* comes out.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import nullcontext

from repro.errors import ClosedCursorError
from repro.xquery.evaluator import QueryResult, item_text
from repro.xquery.sequence import Navigator


class Cursor:
    """One query execution's result sequence, consumed incrementally.

    DB-API-flavored: :meth:`fetchone` / :meth:`fetchmany` /
    :meth:`fetchall`, plus iteration.  Items are what the XQuery data
    model produces — :class:`~repro.xquery.sequence.NodeItem` for nodes,
    plain Python values for atomics; :meth:`rowtext` renders one item the
    way ``QueryResult.serialize`` renders a line.

    Execution metadata rides along: ``compile_seconds`` /
    ``execute_seconds`` (the latter 0.0 on streaming cursors, where
    execution happens during fetching), ``queue_seconds`` (the wait for
    the connection's read side), ``plan_cache_hit`` /
    ``result_cache_hit`` (service connections), ``source`` (which path
    served it: ``direct`` / ``service``), and ``streaming`` (whether rows
    are produced lazily).  A streaming cursor's fetch call holds the
    connection's read side (``reading``); a commit poisons it (``stale``).
    ``on_end(cursor, error)`` runs once, when a streaming execution runs
    out, is closed, or fails (``error``): the connection's accounting.
    """

    arraysize = 100

    def __init__(
        self,
        items: Iterator | list,
        navigator: Navigator,
        *,
        system: str,
        query_text: str,
        streaming: bool,
        source: str = "direct",
        compile_seconds: float = 0.0,
        compile_cpu_seconds: float = 0.0,
        execute_seconds: float = 0.0,
        execute_cpu_seconds: float = 0.0,
        queue_seconds: float = 0.0,
        metadata_accesses: int = 0,
        plans_considered: int = 0,
        plan_cache_hit: bool = False,
        result_cache_hit: bool = False,
        span=None,
        reading=nullcontext,
        stale=None,
        on_end=None,
    ) -> None:
        self._iterator = iter(items)
        self._reading = reading
        #: True once a commit ran since a streaming cursor opened.
        self._stale = stale
        self.navigator = navigator
        self.system = system
        self.query_text = query_text
        self.streaming = streaming
        self.source = source
        self.compile_seconds = compile_seconds
        self.compile_cpu_seconds = compile_cpu_seconds
        self.execute_seconds = execute_seconds
        self.execute_cpu_seconds = execute_cpu_seconds
        self.queue_seconds = queue_seconds
        self.metadata_accesses = metadata_accesses
        self.plans_considered = plans_considered
        self.plan_cache_hit = plan_cache_hit
        self.result_cache_hit = result_cache_hit
        #: Rows fetched so far; equals the result size once exhausted.
        self.rowcount = 0
        self._exhausted = False
        self._closed = False
        self._invalid_reason: str | None = None
        #: The execution's root span when the connection traces
        #: (:meth:`profile`); unfinished on streaming cursors until
        #: exhaustion or close.
        self._span = span
        self._on_end = on_end

    # -- fetching -----------------------------------------------------------------

    def _require_open(self) -> None:
        if (self._stale is not None and not self._exhausted
                and not self._closed and self._stale()):
            self.invalidate(
                "streaming cursor invalidated by a transaction commit "
                "on this connection; re-execute the query")
        if self._closed:
            raise ClosedCursorError(
                self._invalid_reason or "cannot fetch from a closed cursor")

    def _next(self):
        """The next item, or None once ``_exhausted``; the caller holds
        the read side and checked :meth:`_require_open` under it."""
        try:
            item = next(self._iterator)
        except StopIteration:
            self._exhausted = True
            self._end()
            return None
        except Exception as exc:
            self._end(exc)
            raise
        self.rowcount += 1
        return item

    def _rest(self) -> list:
        """Every remaining item; the caller holds the read side."""
        self._require_open()
        try:
            out = list(self._iterator)
        except Exception as exc:
            self._end(exc)
            raise
        self.rowcount += len(out)
        self._exhausted = True
        self._end()
        return out

    def fetchone(self):
        """The next result item, or None when the sequence is exhausted."""
        with self._reading():
            self._require_open()
            return self._next()

    def fetchmany(self, size: int | None = None) -> list:
        """Up to ``size`` further items (default :attr:`arraysize`)."""
        count = self.arraysize if size is None else size
        out = []
        with self._reading():
            self._require_open()
            for _ in range(count):
                item = self._next()
                if item is None and self._exhausted:
                    break
                out.append(item)
        return out

    def fetchall(self) -> list:
        """Every remaining item — bit-identical to the eager evaluator's
        ``QueryResult.items`` when fetched from a fresh cursor."""
        with self._reading():
            return self._rest()

    def __iter__(self):
        return self

    def __next__(self):
        item = self.fetchone()
        if item is None and self._exhausted:
            raise StopIteration
        return item

    # -- presentation --------------------------------------------------------------

    def rowtext(self, item) -> str:
        """One item as text: markup for nodes, lexical form for atomics."""
        return item_text(item, self.navigator)

    def serialize(self) -> str:
        """Every remaining row, one line each (``QueryResult.serialize``)."""
        with self._reading():
            return "\n".join(self.rowtext(item) for item in self._rest())

    def result(self) -> QueryResult:
        """The remaining items materialized as a legacy
        :class:`~repro.xquery.evaluator.QueryResult` (equivalence checks,
        ``canonical()``, interop with pre-facade code)."""
        return QueryResult(self.fetchall(), self.navigator)

    # -- observability -------------------------------------------------------------

    def _end(self, error: Exception | None = None) -> None:
        """The execution is over: finish its span, then (once) tell the
        connection."""
        span = self._span
        if span is not None and not span.finished:
            if error is not None:
                span.set(error=type(error).__name__)
            span.set(rows=self.rowcount).finish()
        on_end, self._on_end = self._on_end, None
        if on_end is not None:
            on_end(self, error)

    def profile(self):
        """The recorded span tree of this execution, or None.

        Requires the connection to have been opened with
        ``tracing=True``.  On a streaming cursor the tree completes when
        the cursor is exhausted or closed; profile it after fetching.
        Render with ``cursor.profile().render()`` or serialize with
        ``.to_dict()``.
        """
        return self._span

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        iterator = self._iterator
        self._iterator = iter(())
        closer = getattr(iterator, "close", None)
        if closer is not None:
            closer()                    # release the suspended pipeline
        self._end()

    def invalidate(self, reason: str) -> None:
        """Poison the cursor: further fetches raise ``ClosedCursorError``
        with ``reason`` (a streaming cursor's first fetch after a commit:
        its pipeline would read neither document state)."""
        self._invalid_reason = reason
        self.close()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
