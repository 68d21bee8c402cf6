"""The client side: ``repro.connect("xmark://host:port/doc")``.

:class:`RemoteDatabase` duck-types :class:`repro.db.Database` closely
enough that the embedded API's own :class:`~repro.db.session.Session`,
:class:`~repro.db.session.PreparedQuery`,
:class:`~repro.db.session.Transaction`, and
:class:`~repro.db.cursor.Cursor` classes are reused verbatim — code
written against an in-process connection works unchanged over the
network.  Rows arrive as their rowtext strings, and a string item
rendered through :func:`~repro.xquery.evaluator.item_text` is the string
itself, so ``cursor.serialize()`` on a remote cursor is byte-identical
to the in-process serialization of the same query.

One :class:`WireClient` is one socket with strictly ordered
request/reply pairs, serialized by a lock — safe to share across
threads for queries, though a wire transaction (begin .. commit) is
connection-scoped state and should not interleave with another thread's
transaction on the same client.
"""

from __future__ import annotations

import socket
import threading

from repro.benchmark.queries import query_text as benchmark_query_text
from repro.db.cursor import Cursor
from repro.db.session import Session
from repro.errors import (
    ClosedSessionError, ProtocolError, UnknownSystemError, XMarkError,
)
from repro.obs.explain import Explain
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Span, TraceLogWriter, Tracer
from repro.server import protocol
from repro.update.ops import UpdateOp


class WireClient:
    """One protocol connection: socket, handshake, ordered requests."""

    def __init__(self, host: str, port: int, *, document: str = "",
                 tenant: str | None = None, timeout: float | None = 30.0,
                 max_frame: int = protocol.MAX_FRAME) -> None:
        self.host = host
        self.port = port
        self._lock = threading.Lock()
        self._max_frame = max_frame
        self._closed = False
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        try:
            self.welcome = self.request({
                "kind": "hello",
                "protocol": protocol.PROTOCOL_VERSION,
                "document": document,
                "tenant": tenant,
            })
        except BaseException:
            self._sock.close()
            self._closed = True
            raise

    def request(self, payload: dict) -> dict:
        """One request, one reply; typed raise on an ``error`` reply."""
        with self._lock:
            if self._closed:
                raise ClosedSessionError("wire client is closed")
            self._sock.sendall(protocol.encode_frame(payload))
            reply = protocol.recv_frame(self._sock, self._max_frame)
            if reply is None:
                self._closed = True
        if reply is None:
            raise ProtocolError("server closed the connection",
                                code="truncated")
        if reply.get("kind") == "error":
            protocol.raise_wire_error(reply)
        return reply

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.sendall(protocol.encode_frame({"kind": "bye"}))
                protocol.recv_frame(self._sock, self._max_frame)
            except OSError:
                pass
            finally:
                self._sock.close()


class RemotePrepared:
    """A server-held prepared query: the id plus what the server pinned."""

    __slots__ = ("query_id", "system", "query_text", "warnings")

    def __init__(self, query_id: str, system: str, query_text: str,
                 warnings: list[str]) -> None:
        self.query_id = query_id
        self.system = system
        self.query_text = query_text
        self.warnings = warnings


class RemoteDatabase:
    """A served document, driven through the embedded API's own classes.

    ``compile()`` goes over the wire, so
    :class:`~repro.db.session.PreparedQuery` prepares server-side;
    ``execute()`` opens a server cursor and returns a real
    :class:`~repro.db.cursor.Cursor` whose iterator pages rows lazily
    with ``fetch`` requests.  A local :class:`MetricsRegistry` keeps the
    client-side ``db.*`` counters the in-process facade would keep.

    ``page_size=None`` lets the server size each page by its rowtext
    (:data:`~repro.server.protocol.PAGE_CHARS`), so a result with up to
    64 Ki characters of rowtext arrives with the ``execute`` reply; a
    number caps every page at that many rows.
    """

    def __init__(self, client: WireClient, *, page_size: int | None = None,
                 url: str | None = None, tracing: bool = False,
                 trace_log=None) -> None:
        self._client = client
        welcome = client.welcome
        self.document = url or welcome.get("document", "")
        self.tenant = welcome.get("tenant")
        self.shard_system = welcome.get("shard_system")
        self.page_size = page_size
        self._serving = tuple(welcome.get("systems", ()))
        self._default = welcome.get("default_system")
        self._registry = MetricsRegistry()
        self._trace_writer = (TraceLogWriter(trace_log)
                              if tracing and trace_log else None)
        self.tracer = (Tracer(on_root=self._trace_writer) if tracing
                       else NULL_TRACER)
        self._closed = False

    # -- introspection --------------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    @property
    def systems(self) -> tuple[str, ...]:
        return self._serving

    def default_system(self) -> str:
        return self._default or (self._serving[0] if self._serving else "D")

    def resolve_system(self, system: str | None) -> str:
        if system is None:
            return self.default_system()
        if system not in self._serving:
            raise UnknownSystemError(system, self._serving)
        return system

    def query_text(self, query: int | str) -> str:
        if isinstance(query, int):
            return benchmark_query_text(query)
        return query

    def document_digest(self, system: str | None = None) -> str | None:
        self._require_open()
        reply = self._client.request(
            {"kind": "digest", "system": self.resolve_system(system)})
        return reply["digest"]

    def stats(self) -> dict:
        """The server's live stats (connections, tenants, metrics)."""
        self._require_open()
        return self._client.request({"kind": "stats"})

    # -- lifecycle ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ClosedSessionError("database connection is closed")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._client.close()
        if self._trace_writer is not None:
            self._trace_writer.close()

    def __enter__(self) -> "RemoteDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def session(self, tenant: str | None = None) -> Session:
        """A session over the wire — the embedded API's own class."""
        self._require_open()
        return Session(self, tenant)

    # -- execution ------------------------------------------------------------------

    def compile(self, system: str, text: str) -> RemotePrepared:
        """Prepare server-side: the plan enters the server connection's
        plan cache, where executing the same text finds it."""
        self._require_open()
        reply = self._client.request(
            {"kind": "prepare", "system": system, "query": text})
        return RemotePrepared(reply["query_id"], reply["system"],
                              reply["query"], list(reply.get("warnings", ())))

    def explain(self, query: int | str, *, system: str | None = None) -> Explain:
        self._require_open()
        reply = self._client.request({
            "kind": "explain",
            "system": self.resolve_system(system),
            "query": self.query_text(query),
        })
        return Explain(reply["explain"])

    def execute(self, system: str | None, query: int | str, *,
                stream: bool = True,
                tenant: str | None = None) -> Cursor:
        """Open a server cursor and wrap it in a paging local cursor.

        ``stream`` is accepted for API parity; rows always arrive in
        pages, which *is* streaming from the client's point of view.
        """
        self._require_open()
        name = self.resolve_system(system)
        text = self.query_text(query)
        request = {"kind": "execute", "system": name, "query": text,
                   "fetch": self.page_size or True}
        labels = {"system": name}
        if tenant is not None:
            labels["tenant"] = tenant
        self._registry.counter("db.queries_total", **labels).inc()
        root = on_span = None
        if self.tracer.enabled:
            # Start the distributed trace and ship its context with the
            # request; replies completing the cursor bring the server's
            # span subtree back, and grafting it under this root is what
            # makes cursor.profile() one joined client+server tree.
            trace_id = self.tracer.new_trace_id()
            root = self.tracer.begin("query", system=name, source="wire",
                                     query=query, trace_id=trace_id)
            request["trace"] = {"trace_id": trace_id,
                                "parent": f"{trace_id}/0", "sampled": True}

            def on_span(data, parent=root):
                parent.children.append(Span.from_dict(data))
        try:
            reply = self._client.request(request)
        except BaseException as exc:
            if root is not None:
                root.set(error=type(exc).__name__).finish()
            raise
        if on_span is not None and reply.get("span"):
            on_span(reply["span"])
        stats = reply.get("stats", {})
        rows = _PageIterator(self, reply["cursor_id"],
                             reply.get("rows", ()),
                             reply.get("done", False),
                             on_span=on_span)
        return Cursor(
            rows, None,
            system=name, query_text=text,
            streaming=True, source="wire",
            compile_seconds=stats.get("compile_seconds", 0.0),
            plan_cache_hit=bool(stats.get("plan_cache_hit")),
            result_cache_hit=bool(stats.get("result_cache_hit")),
            span=root,
        )

    # -- the write path -------------------------------------------------------------

    def apply_transaction(self, ops: list[UpdateOp]) -> dict:
        """Ship a buffered batch: ``begin``, one ``txn_op`` each, ``commit``.

        The server applies the batch exactly as the embedded facade
        would — one unit, one digest advance — and the commit summary
        comes back verbatim (a failed commit raises the typed
        :class:`~repro.errors.TransactionError` with its ``applied``
        count).
        """
        self._require_open()
        self._client.request({"kind": "begin"})
        try:
            for op in ops:
                self._client.request(
                    {"kind": "txn_op", "op": protocol.encode_op(op)})
        except BaseException:
            try:
                self._client.request({"kind": "rollback"})
            except (XMarkError, OSError):
                pass
            raise
        return self._client.request({"kind": "commit"})["report"]

    def checkpoint(self) -> dict:
        """Ask the server to checkpoint the served document's WAL."""
        self._require_open()
        reply = self._client.request({"kind": "checkpoint"})
        self._registry.counter("db.checkpoints_total").inc()
        return reply["report"]


class _PageIterator:
    """Rows of one server cursor, fetched page by page on demand.

    A plain class rather than a generator so :meth:`close` releases the
    server-side cursor (and its tenant quota slot) even when the cursor
    was never iterated — closing an unstarted generator would skip its
    cleanup entirely.
    """

    __slots__ = ("_database", "_cursor_id", "_buffer", "_index", "_done",
                 "_closed", "_on_span")

    def __init__(self, database: RemoteDatabase, cursor_id: str,
                 first_rows, first_done: bool, *, on_span=None) -> None:
        self._database = database
        self._cursor_id = cursor_id
        self._buffer = list(first_rows)
        self._index = 0
        self._done = first_done
        self._closed = False
        self._on_span = on_span         # grafts a server span subtree

    def __iter__(self) -> "_PageIterator":
        return self

    def __next__(self) -> str:
        while True:
            if self._index < len(self._buffer):
                row = self._buffer[self._index]
                self._index += 1
                return row
            if self._done or self._closed:
                raise StopIteration
            request = {"kind": "fetch", "cursor_id": self._cursor_id}
            if self._database.page_size:
                request["n"] = self._database.page_size
            reply = self._database._client.request(request)
            self._done = reply["done"]
            if self._on_span is not None and reply.get("span"):
                self._on_span(reply["span"])
            self._buffer = list(reply["rows"])
            self._index = 0

    def close(self) -> None:
        """Best-effort ``close_cursor`` when pages remain server-side."""
        if self._closed:
            return
        self._closed = True
        if not self._done and not self._database._closed:
            try:
                reply = self._database._client.request(
                    {"kind": "close_cursor", "cursor_id": self._cursor_id})
                if self._on_span is not None and reply.get("span"):
                    self._on_span(reply["span"])
            except (XMarkError, OSError):
                pass


def parse_url(url: str) -> tuple[str, int, str]:
    """``xmark://host:port/doc`` -> ``(host, port, doc)``."""
    prefix = "xmark://"
    if not url.startswith(prefix):
        raise ProtocolError(f"not an xmark:// URL: {url!r}",
                            code="bad_message")
    rest = url[len(prefix):]
    location, _, document = rest.partition("/")
    host, sep, port_text = location.rpartition(":")
    if not sep or not host:
        raise ProtocolError(
            f"xmark:// URL must name host:port, got {url!r}",
            code="bad_message")
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError(f"bad port in {url!r}",
                            code="bad_message") from None
    return host, port, document


def connect_url(url: str, *, tenant: str | None = None,
                page_size: int | None = None,
                timeout: float | None = 30.0, tracing: bool = False,
                trace_log=None) -> RemoteDatabase:
    """Open a remote database from an ``xmark://host:port/doc`` URL.

    This is what ``repro.connect`` delegates to when handed such a URL;
    the returned :class:`RemoteDatabase` serves sessions, prepared
    queries, streaming cursors, and transactions with the embedded
    API's own classes.  ``tracing=True`` starts a distributed trace per
    query — the server's span subtree comes back in the reply and
    ``cursor.profile()`` shows one joined tree; ``trace_log`` appends
    each finished root to a JSON-lines file, as in the embedded facade.
    """
    host, port, document = parse_url(url)
    client = WireClient(host, port, document=document, tenant=tenant,
                        timeout=timeout)
    return RemoteDatabase(client, page_size=page_size, url=url,
                          tracing=tracing, trace_log=trace_log)
