"""The asyncio wire server: many tenants, many documents, one process.

The server fronts ordinary :class:`repro.db.Database` connections with
the length-prefixed JSON protocol of :mod:`repro.server.protocol`.  Each
accepted connection handshakes onto one served document as one tenant,
then issues requests strictly in order; the event loop interleaves
connections while each connection's blocking work (query evaluation,
page fetches, commits) runs on a bounded worker pool.

Three mechanisms keep a saturated server honest:

* **backpressure** — at most ``max_workers + queue_depth`` requests may
  be admitted at once; the overflow request is refused immediately with
  a typed ``server_busy`` error, never queued without bound and never
  left hanging;
* **tenant quotas** — sessions, in-flight requests, and open cursors are
  bounded per tenant (:mod:`repro.server.tenants`), so one client cannot
  starve the rest;
* **the served connection's reader/writer lock** — on its worker
  thread a read (an execution with its first page, one page) holds the
  read side and a commit the write side, so no page is read off a
  mutating store; a commit poisons open streaming cursors, so a later
  ``fetch`` on one gets a typed ``closed_cursor`` error rather than
  rows matching neither document state.
"""

from __future__ import annotations

import asyncio
import threading
import time

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from repro import __version__
from repro.db.cursor import Cursor
from repro.db.database import Database
from repro.errors import (
    ClosedCursorError, ProtocolError, ServerBusyError, ServerStopError,
    XMarkError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.querylog import QueryLogWriter
from repro.obs.trace import NULL_SPAN, NULL_TRACER, TraceSampler
from repro.server import protocol
from repro.server.tenants import (
    DEFAULT_TENANT, TenantQuota, TenantRegistry, TenantState,
)


@dataclass(slots=True)
class ServedDocument:
    """One document the server exposes: a named database."""

    name: str
    database: Database
    owned: bool = False                 # close the database on server stop?


class _ServerCursor:
    """One open cursor on one connection: a db cursor plus paging state."""

    __slots__ = ("cursor", "system", "query", "query_ref", "tenant",
                 "sampled", "started", "rows_sent", "pages", "carry")

    def __init__(self, cursor: Cursor, system: str, query: str, *,
                 query_ref=None, tenant: str | None = None,
                 sampled: bool = True,
                 started: float | None = None) -> None:
        self.cursor = cursor
        self.system = system
        self.query = query
        self.query_ref = query_ref      # the number/id the client sent
        self.tenant = tenant
        self.sampled = sampled          # attach the span tree to replies?
        self.started = started if started is not None else time.perf_counter()
        self.rows_sent = 0
        self.pages = 0                  # replies that carried a page
        self.carry: str | None = None   # the row that overflowed a page

    def page(self, n: int | None) -> tuple[list[str], bool]:
        """The next page as rowtext strings, plus the exhausted flag.

        A page holds at most ``n`` rows (``None``: no row cap) and at
        most :data:`~repro.server.protocol.PAGE_CHARS` characters of
        rowtext, one line break per row included (so a page of empty
        rows is bounded too), but always at least one row; the row that
        would overflow it opens the next page.  The caller holds the
        read side, once for the whole page.
        """
        cursor = self.cursor
        cursor._require_open()
        rows: list[str] = []
        chars = 0
        while len(rows) != n:
            if self.carry is None:
                item = cursor._next()
                if item is None and cursor._exhausted:
                    break
                text = cursor.rowtext(item)
            else:
                text, self.carry = self.carry, None
            if rows and chars + len(text) + 1 > protocol.PAGE_CHARS:
                self.carry = text
                break
            rows.append(text)
            chars += len(text) + 1
        self.rows_sent += len(rows)
        self.pages += 1
        return rows, cursor._exhausted


class _Connection:
    """Per-connection state: identity, prepared queries, cursors, txn."""

    def __init__(self, conn_id: int, peer: str) -> None:
        self.conn_id = conn_id
        self.peer = peer
        self.tenant: TenantState | None = None
        self.document: ServedDocument | None = None
        self.prepared: dict[str, tuple[str, str]] = {}  # id -> (system, text)
        self.cursors: dict[str, _ServerCursor] = {}
        self.txn_ops: list | None = None
        self.next_id = 0
        self.sampled = True             # head decision for the current request
        self.span = None                # the current request's server.request span
        self.busy = 0                   # server_busy refusals since last log record

    def fresh_id(self, prefix: str) -> str:
        self.next_id += 1
        return f"{prefix}{self.conn_id}.{self.next_id}"


#: Request kinds whose work is offloaded to the worker pool (and which
#: therefore count toward backpressure and the tenant in-flight quota).
_HEAVY_KINDS = frozenset(
    {"execute", "fetch", "prepare", "commit", "checkpoint", "explain",
     "digest"})


class XMarkServer:
    """The asyncio socket server over one or more served documents.

    Construct, :meth:`add_document` at least once, then either ``await
    start()`` inside a running loop or hand the instance to
    :func:`serve_in_thread`.  ``port=0`` binds an ephemeral port
    (``server.port`` holds the real one after start).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_workers: int = 8,
        queue_depth: int = 16,
        registry: MetricsRegistry | None = None,
        tracer=NULL_TRACER,
        trace_sample_rate: float = 1.0,
        slow_trace_ms: float | None = None,
        query_log=None,
        default_quota: TenantQuota | None = None,
        max_frame: int = protocol.MAX_FRAME,
    ) -> None:
        self.host = host
        self.port = port
        self.max_workers = max_workers
        self.queue_depth = queue_depth
        self.max_frame = max_frame
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        # Head sampling: requests carrying no client trace context roll a
        # deterministic per-tenant die; the slow/error tail rule can still
        # upgrade an unsampled request's span to kept (docs/OBSERVABILITY.md).
        self.sampler = TraceSampler(trace_sample_rate, slow_ms=slow_trace_ms)
        self._owns_query_log = isinstance(query_log, (str, bytes)) or (
            query_log is not None and not hasattr(query_log, "record"))
        self.query_log = (QueryLogWriter(query_log) if self._owns_query_log
                          else query_log)
        self.tenants = TenantRegistry(default_quota or TenantQuota())
        self.documents: dict[str, ServedDocument] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="xmark-server")
        self._active = 0                # admitted (queued or running)
        #: Submitted and not yet done (a worker drops its own), and the
        #: names of the worker threads running one right now.
        self._inflight: set[Future] = set()
        self._busy: set[str] = set()
        self._closed = False
        self._connections = 0
        self._next_conn = 0
        self._server: asyncio.base_events.Server | None = None
        self._stopped: asyncio.Event | None = None
        self._closing = False

    # -- documents ------------------------------------------------------------------

    def add_document(self, name: str, database: Database, *,
                     owned: bool = False) -> ServedDocument:
        """Serve ``database`` under ``name`` (the URL path component).

        ``owned=True`` transfers the connection to the server: it is
        closed when the server stops.  Served databases should be
        *direct* connections (the default ``repro.connect``) so cursors
        stream off the lazy evaluator; service connections work too and
        simply materialize per execution.
        """
        if name in self.documents:
            raise ProtocolError(f"document {name!r} is already served",
                                code="unknown_document")
        served = ServedDocument(name, database, owned)
        self.documents[name] = served
        return served

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (idempotent; call inside the loop)."""
        if self._server is not None:
            return
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        await self.start()
        await self.wait_stopped()

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "server not started"
        await self._stopped.wait()

    async def stop(self, timeout: float | None = None) -> None:
        """Stop accepting, cancel queued requests, wait for the running
        ones, then close owned databases and the owned query log.

        The wait is on the event loop, not a blocking join, and lasts at
        most ``timeout`` seconds (None: until they finish).  At the
        deadline it raises :class:`ServerStopError` naming the busy
        workers and leaves the owned databases open: closing one would
        wait on the same stuck read.  A later call waits again."""
        if not self._closing:
            self._closing = True
            if self._server is not None:
                # Stop listening, but do not await ``wait_closed()``: from
                # Python 3.12.1 on it waits, unbounded, for every client
                # connection to close.  Handlers of connections still open
                # are cancelled when the loop ends (``serve_in_thread``).
                self._server.close()
            self._pool.shutdown(wait=False, cancel_futures=True)
        running = [asyncio.wrap_future(future)
                   for future in list(self._inflight) if not future.done()]
        if running:
            _done, pending = await asyncio.wait(running, timeout=timeout)
            if pending:
                for waiter in pending:  # the workers run on regardless
                    waiter.cancel()
                busy = tuple(sorted(self._busy))
                raise ServerStopError(
                    f"{len(pending)} request(s) still running after "
                    f"{timeout} s on {', '.join(busy) or 'the pool'}", busy)
        if self._closed:
            return
        self._closed = True
        for served in self.documents.values():
            if served.owned:
                served.database.close()
        if self.query_log is not None and self._owns_query_log:
            self.query_log.close()
        if self._stopped is not None:
            self._stopped.set()

    # -- backpressure ---------------------------------------------------------------

    async def _offload(self, conn: _Connection, fn):
        """Run ``fn`` on the worker pool under admission control.

        Once ``max_workers + queue_depth`` requests are admitted, the
        next one is refused with ``server_busy`` immediately — the typed
        reply, never an unbounded queue, never a hang.  Admitted, a request
        waits on its worker thread for the connection's reader/writer lock,
        whose holders each do bounded work (one page, one commit).
        Once :meth:`stop` has begun, a request not yet running is refused
        with :class:`ServerStopError`.
        """
        if self._closing:
            raise ServerStopError("server is stopping; request not run")
        if self._active >= self.max_workers + self.queue_depth:
            self.registry.counter("server.busy_total").inc()
            self.registry.counter(
                "server.busy_total",
                tenant=conn.tenant.name if conn.tenant else "-").inc()
            conn.busy += 1
            raise ServerBusyError(
                f"server saturated: {self._active} requests admitted "
                f"(pool {self.max_workers}, queue {self.queue_depth}); "
                "back off and retry")
        tenant = conn.tenant
        if tenant is not None:
            self.tenants.begin_request(tenant)
        self._active += 1
        self.registry.gauge("server.active_requests").set(self._active)
        try:
            future = self._pool.submit(self._work, fn)
            self._inflight.add(future)
            future.add_done_callback(self._inflight.discard)
            try:
                return await asyncio.wrap_future(future)
            except asyncio.CancelledError:
                # ``stop`` cancelled the queued request, not this task.
                if not future.cancelled() or asyncio.current_task().cancelling():
                    raise
                raise ServerStopError(
                    "server stopped before the request ran") from None
        finally:
            self._active -= 1
            self.registry.gauge("server.active_requests").set(self._active)
            if tenant is not None:
                self.tenants.end_request(tenant)

    def _work(self, fn):
        """Run ``fn`` on a worker thread, named busy while it runs."""
        worker = threading.current_thread().name
        self._busy.add(worker)
        try:
            return fn()
        finally:
            self._busy.discard(worker)

    # -- the connection loop --------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._next_conn += 1
        conn = _Connection(self._next_conn, self._peer_name(writer))
        self._connections += 1
        self.registry.counter("server.accepts_total").inc()
        self.registry.gauge("server.connections").set(self._connections)
        span = (self.tracer.begin("server.accept", peer=conn.peer)
                if self.tracer.enabled else None)
        try:
            await self._serve_connection(conn, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass                        # peer vanished; nothing to reply to
        finally:
            self._release_connection(conn)
            self._connections -= 1
            self.registry.gauge("server.connections").set(self._connections)
            if span is not None:
                span.set(tenant=(conn.tenant.name if conn.tenant else None))
                span.finish()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _release_connection(self, conn: _Connection) -> None:
        for held in conn.cursors.values():
            try:
                held.cursor.close()
            except XMarkError:
                pass
        if conn.tenant is not None:
            for _ in conn.cursors:
                self.tenants.close_cursor(conn.tenant)
            self.tenants.disconnect(conn.tenant)
        conn.cursors.clear()

    @staticmethod
    def _peer_name(writer: asyncio.StreamWriter) -> str:
        peer = writer.get_extra_info("peername")
        return f"{peer[0]}:{peer[1]}" if peer else "?"

    async def _send(self, conn: _Connection, writer: asyncio.StreamWriter,
                    payload: dict) -> None:
        data = protocol.encode_frame(payload)
        labels = {"tenant": conn.tenant.name} if conn.tenant else {}
        self.registry.counter("net.bytes_out_total", **labels).inc(len(data))
        writer.write(data)
        await writer.drain()

    async def _serve_connection(self, conn: _Connection,
                                reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                payload, nbytes = await protocol.read_frame(
                    reader, self.max_frame)
            except ProtocolError as exc:
                self.registry.counter("server.errors_total",
                                      code=exc.code).inc()
                if exc.code == "truncated":
                    return              # peer died mid-frame; no reply possible
                # The length field lied or the payload was junk.  An
                # oversized length means the stream is desynchronized —
                # reply, then close; junk inside a well-framed payload
                # leaves the stream aligned, so the connection survives.
                await self._send(conn, writer,
                                 protocol.error_payload(None, exc))
                if exc.code == "frame_too_large":
                    return
                continue
            if payload is None:
                return                  # clean EOF at a frame boundary
            labels = {"tenant": conn.tenant.name} if conn.tenant else {}
            self.registry.counter("net.bytes_in_total", **labels).inc(nbytes)
            if not await self._dispatch(conn, writer, payload):
                return

    async def _dispatch(self, conn: _Connection,
                        writer: asyncio.StreamWriter,
                        payload: dict) -> bool:
        """Handle one request; returns False when the connection ends."""
        kind = payload["kind"]
        request_id = payload.get("id")
        started = time.perf_counter()
        tenant_label = conn.tenant.name if conn.tenant else "-"
        self.registry.counter("server.requests_total", kind=kind,
                              tenant=tenant_label).inc()
        # Head sampling: the client's trace context wins (one trace is
        # never half-kept across the wire); context-free requests roll
        # the deterministic per-tenant die.
        context = protocol.decode_trace(payload)
        conn.sampled = (context["sampled"] if context is not None
                        else self.sampler.sample(tenant_label))
        span = None
        if self.tracer.enabled:
            span = self.tracer.begin("server.request", kind=kind,
                                     tenant=tenant_label)
            if context is not None:
                span.set(trace_id=context["trace_id"])
                if context["parent"]:
                    span.set(parent=context["parent"])
        conn.span = span
        keep_open = True
        error_code: str | None = None
        try:
            if kind == "bye":
                await self._send(conn, writer,
                                 {"kind": "bye", "id": request_id})
                return False
            if conn.document is None and kind != "hello":
                raise ProtocolError("first message must be 'hello'",
                                    code="bad_message")
            reply = await self._handle(conn, kind, payload)
            reply["id"] = request_id
            try:
                await self._send(conn, writer, reply)
            except ProtocolError:
                # The reply cannot be framed, so its page is lost: drop
                # the cursor, and a later fetch gets closed_cursor
                # instead of silently skipping the page.
                self._drop_cursor(conn, reply.get("cursor_id"))
                raise
        except XMarkError as exc:
            error_code = protocol.error_code(exc)
            self.registry.counter("server.errors_total",
                                  code=error_code).inc()
            if span is not None:
                span.set(error=error_code)
            await self._send(conn, writer,
                             protocol.error_payload(request_id, exc))
            if conn.document is None:
                keep_open = False       # failed handshake: hang up
        except Exception as exc:        # never let one request kill the loop
            error_code = "internal"
            self.registry.counter("server.errors_total",
                                  code="internal").inc()
            if span is not None:
                span.set(error="internal")
            await self._send(conn, writer,
                             protocol.error_payload(request_id, exc))
        finally:
            elapsed = time.perf_counter() - started
            elapsed_ms = elapsed * 1000.0
            # Histograms take seconds; the exporter renders *_ms fields.
            self.registry.histogram("server.request_ms").observe(elapsed)
            self.registry.histogram("server.request_ms",
                                    tenant=tenant_label).observe(elapsed)
            if span is not None:
                # Tail rule: errors and slow requests are always kept,
                # whatever the head decision said.
                if self.sampler.keep(conn.sampled, elapsed_ms,
                                     error=error_code is not None):
                    span.finish()
                else:
                    span.discard()
            if (error_code is not None and kind == "execute"
                    and self.query_log is not None):
                busy, conn.busy = conn.busy, 0
                self.query_log.record(
                    source="server", tenant=tenant_label,
                    query=payload.get("query", payload.get("query_id")),
                    error=error_code, duration_ms=round(elapsed_ms, 3),
                    busy=busy or None)
        return keep_open

    # -- request handlers -----------------------------------------------------------

    async def _handle(self, conn: _Connection, kind: str,
                      payload: dict) -> dict:
        if kind == "hello":
            return self._on_hello(conn, payload)
        if kind == "ping":
            return {"kind": "pong"}
        if kind == "stats":
            return self._on_stats()
        if kind == "close_cursor":
            return self._on_close_cursor(conn, payload)
        if kind == "begin":
            return self._on_begin(conn)
        if kind == "txn_op":
            return self._on_txn_op(conn, payload)
        if kind == "rollback":
            return self._on_rollback(conn)
        if kind not in _HEAVY_KINDS:
            raise ProtocolError(f"unknown message kind {kind!r}",
                                code="bad_message")
        served = conn.document
        handler = {
            "prepare": self._do_prepare,
            "execute": self._do_execute,
            "fetch": self._do_fetch,
            "commit": self._do_commit,
            "checkpoint": self._do_checkpoint,
            "explain": self._do_explain,
            "digest": self._do_digest,
        }[kind]
        db_tracer = served.database.tracer
        if conn.sampled or not db_tracer.enabled:
            def run():
                return handler(conn, served, payload)
        else:
            # Unsampled request: the served database's instrumentation is
            # shared by every connection, so switch it off for exactly
            # this execution via thread-local suppression — the handler
            # runs wholly on one worker-pool thread.
            def run():
                with db_tracer.suppressed():
                    return handler(conn, served, payload)
        return await self._offload(conn, run)

    def _on_hello(self, conn: _Connection, payload: dict) -> dict:
        if conn.document is not None:
            raise ProtocolError("connection already handshook",
                                code="bad_message")
        version = payload.get("protocol")
        if version != protocol.PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol {version!r} not supported; this server speaks "
                f"{protocol.PROTOCOL_VERSION}", code="protocol_mismatch")
        name = payload.get("document")
        if len(self.documents) == 1 and name in (None, ""):
            name = next(iter(self.documents))
        served = self.documents.get(name)
        if served is None:
            raise ProtocolError(
                f"unknown document {name!r}; serving "
                f"{', '.join(sorted(self.documents)) or 'nothing'}",
                code="unknown_document")
        tenant_name = payload.get("tenant") or DEFAULT_TENANT
        if not isinstance(tenant_name, str):
            raise ProtocolError("tenant must be a string",
                                code="bad_message")
        conn.tenant = self.tenants.connect(tenant_name)
        conn.document = served
        database = served.database
        return {
            "kind": "welcome",
            "protocol": protocol.PROTOCOL_VERSION,
            "server": f"xmark/{__version__}",
            "document": served.name,
            "systems": list(database.systems),
            "default_system": database.default_system(),
            "shard_system": database.shard_system,
            "tenant": tenant_name,
        }

    def _on_stats(self) -> dict:
        return {
            "kind": "stats",
            "connections": self._connections,
            "active_requests": self._active,
            "documents": sorted(self.documents),
            "tenants": self.tenants.snapshot(),
            "metrics": self.registry.snapshot(),
        }

    def _on_close_cursor(self, conn: _Connection, payload: dict) -> dict:
        cursor_id = payload.get("cursor_id")
        known = cursor_id in conn.cursors
        reply = {"kind": "closed", "cursor_id": cursor_id, "known": known}
        if known:
            self._finish_cursor(conn, cursor_id, reply)
        return reply

    def _on_begin(self, conn: _Connection) -> dict:
        if conn.txn_ops is not None:
            raise ProtocolError("transaction already open on this "
                                "connection", code="bad_message")
        conn.txn_ops = []
        return {"kind": "txn", "state": "open", "ops": 0}

    def _on_txn_op(self, conn: _Connection, payload: dict) -> dict:
        if conn.txn_ops is None:
            raise ProtocolError("no open transaction; send 'begin' first",
                                code="bad_message")
        conn.txn_ops.append(protocol.decode_op(payload.get("op")))
        return {"kind": "txn", "state": "open", "ops": len(conn.txn_ops)}

    def _on_rollback(self, conn: _Connection) -> dict:
        discarded = len(conn.txn_ops or ())
        conn.txn_ops = None
        return {"kind": "txn", "state": "aborted", "discarded": discarded}

    # -- offloaded handlers (worker-pool threads) ------------------------------------

    def _resolve_query(self, conn: _Connection, served: ServedDocument,
                       payload: dict) -> tuple[str, str]:
        """``(system, text)`` of an execute/explain/prepare payload: a
        prepared id's, or the query with its ``params`` written in."""
        database = served.database
        if "query_id" in payload:
            entry = conn.prepared.get(payload["query_id"])
            if entry is None:
                raise ProtocolError(
                    f"unknown query_id {payload['query_id']!r}",
                    code="bad_message")
            return entry
        query = payload.get("query")
        if not isinstance(query, (str, int)) or isinstance(query, bool):
            raise ProtocolError("query must be a string or a benchmark "
                                "number", code="bad_message")
        system = database.resolve_system(payload.get("system"))
        text = database.query_text(query)
        text = protocol.bind_params(text, payload.get("params") or {})
        return system, text

    def _do_prepare(self, conn: _Connection, served: ServedDocument,
                    payload: dict) -> dict:
        """Put the plan in the served database's plan cache, where an
        execute of the id (or of the same text) finds it."""
        system, text = self._resolve_query(conn, served, payload)
        compiled = served.database.compile(system, text)
        query_id = conn.fresh_id("q")
        conn.prepared[query_id] = (system, text)
        return {"kind": "prepared", "query_id": query_id, "system": system,
                "query": text, "warnings": list(compiled.warnings)}

    def _do_execute(self, conn: _Connection, served: ServedDocument,
                    payload: dict) -> dict:
        started = time.perf_counter()   # before compile: duration_ms covers it
        system, text = self._resolve_query(conn, served, payload)
        tenant_name = conn.tenant.name
        first_page = payload.get("fetch")
        size = self._page_arg(first_page) if first_page else None
        # The execution and its first page under one read: no commit
        # poisons the cursor before it sent a row.
        with served.database._paging(system, text, tenant_name) as cursor:
            self.tenants.open_cursor(conn.tenant)
            self.registry.counter("server.executes_total",
                                  tenant=tenant_name).inc()
            if cursor.plan_cache_hit:
                self.registry.counter("server.plan_cache_hits_total",
                                      tenant=tenant_name).inc()
            if cursor.result_cache_hit:
                self.registry.counter("server.result_cache_hits_total",
                                      tenant=tenant_name).inc()
            held = _ServerCursor(cursor, system, text,
                                 query_ref=payload.get(
                                     "query", payload.get("query_id")),
                                 tenant=tenant_name, sampled=conn.sampled,
                                 started=started)
            cursor_id = conn.fresh_id("c")
            conn.cursors[cursor_id] = held
            reply = {
                "kind": "cursor", "cursor_id": cursor_id, "system": system,
                "query": text,
                "stats": {
                    "source": cursor.source,
                    "streaming": cursor.streaming,
                    "compile_seconds": cursor.compile_seconds,
                    "plan_cache_hit": cursor.plan_cache_hit,
                    "result_cache_hit": cursor.result_cache_hit,
                },
            }
            if first_page:
                rows, done = held.page(size)
                reply["rows"] = rows
                reply["done"] = done
                if done:
                    self._finish_cursor(conn, cursor_id, reply)
        return reply

    @staticmethod
    def _page_arg(value) -> int | None:
        """A page's row cap: ``None`` for ``true`` (a page of up to
        ``PAGE_CHARS`` of rowtext), else the positive row count."""
        if value is True:
            return None
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise ProtocolError(f"fetch size must be a positive integer, "
                                f"got {value!r}", code="bad_message")
        return value

    def _drop_cursor(self, conn: _Connection, cursor_id: str | None) -> None:
        held = conn.cursors.pop(cursor_id, None)
        if held is not None:
            self.tenants.close_cursor(conn.tenant)
            held.cursor.close()

    def _finish_cursor(self, conn: _Connection, cursor_id: str,
                       reply: dict | None = None) -> None:
        """Close a completed cursor: finish + attach its span, log it.

        The reply completing a cursor (inline-done execute, final fetch,
        or close ack) carries the server-side span tree when the query
        was sampled, so the client can graft it into its own trace.
        """
        held = conn.cursors.pop(cursor_id, None)
        if held is None:
            return
        self.tenants.close_cursor(conn.tenant)
        held.cursor.close()             # finishes the query span with rows
        span = held.cursor.profile()
        traced = (held.sampled and span is not None and span is not NULL_SPAN
                  and span.finished)
        if traced and reply is not None:
            reply["span"] = span.to_dict()
        if conn.span is not None:
            conn.span.set(pages=held.pages)
        self._log_query(conn, held, span if traced else None)

    def _log_query(self, conn: _Connection, held: _ServerCursor,
                   span) -> None:
        if self.query_log is None:
            return
        duration_ms = (time.perf_counter() - held.started) * 1000.0
        wire_ms = None
        if span is not None and span.duration is not None:
            wire_ms = round(max(0.0, duration_ms - span.duration * 1000.0), 4)
        busy, conn.busy = conn.busy, 0
        cursor = held.cursor
        self.query_log.record(
            source="server", span=span, tenant=held.tenant,
            system=held.system, query=held.query_ref,
            query_text=held.query, rows=held.rows_sent, pages=held.pages,
            duration_ms=round(duration_ms, 3), wire_ms=wire_ms,
            plan_cache_hit=cursor.plan_cache_hit,
            result_cache_hit=cursor.result_cache_hit,
            busy=busy or None)

    def _do_fetch(self, conn: _Connection, served: ServedDocument,
                  payload: dict) -> dict:
        cursor_id = payload.get("cursor_id")
        held = conn.cursors.get(cursor_id)
        if held is None:
            raise ClosedCursorError(
                f"unknown or closed cursor {cursor_id!r}")
        size = self._page_arg(payload.get("n", True))
        try:
            with served.database.rwlock.read():
                rows, done = held.page(size)
        except ClosedCursorError:
            # Poisoned by a commit while suspended: drop the server-side
            # entry, then surface the typed error to the client.
            self._drop_cursor(conn, cursor_id)
            raise
        reply = {"kind": "rows", "cursor_id": cursor_id, "rows": rows,
                 "done": done}
        if done:
            self._finish_cursor(conn, cursor_id, reply)
        return reply

    def _do_commit(self, conn: _Connection, served: ServedDocument,
                   payload: dict) -> dict:
        if conn.txn_ops is None:
            raise ProtocolError("no open transaction; send 'begin' first",
                                code="bad_message")
        ops, conn.txn_ops = conn.txn_ops, None
        report = served.database.apply_transaction(ops)
        return {"kind": "committed", "report": report}

    def _do_checkpoint(self, conn: _Connection, served: ServedDocument,
                       payload: dict) -> dict:
        report = served.database.checkpoint()
        return {"kind": "checkpointed", "report": report}

    def _do_explain(self, conn: _Connection, served: ServedDocument,
                    payload: dict) -> dict:
        system, text = self._resolve_query(conn, served, payload)
        explain = served.database.explain(text, system=system)
        return {"kind": "explained", "system": system,
                "explain": explain.as_dict()}

    def _do_digest(self, conn: _Connection, served: ServedDocument,
                   payload: dict) -> dict:
        system = served.database.resolve_system(payload.get("system"))
        return {"kind": "digest", "system": system,
                "digest": served.database.document_digest(system)}


# -- running in a thread ---------------------------------------------------------------


#: How much longer than its own timeout :meth:`ServerHandle.stop` waits
#: for the server's answer, so the server's typed failure arrives first.
_STOP_GRACE = 1.0


@dataclass
class ServerHandle:
    """A running server on a daemon thread: address plus a stop switch."""

    server: XMarkServer
    loop: asyncio.AbstractEventLoop
    thread: threading.Thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        name = next(iter(self.server.documents), "")
        return f"xmark://{self.host}:{self.port}/{name}"

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join its thread (idempotent).  Requests
        still running after ``timeout`` seconds raise
        :class:`ServerStopError` and leave the thread serving nothing; a
        later call waits again."""
        if not self.thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(
            self.server.stop(timeout), self.loop).result(timeout + _STOP_GRACE)
        self.thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(server: XMarkServer) -> ServerHandle:
    """Start ``server`` on a fresh event loop in a daemon thread.

    Returns once the socket is bound (``handle.port`` is live).  The
    embedding process talks to it like any remote client — this is how
    the tests, the benchmark harness, and ``xmark client --self-serve``
    get a real socket without managing a second process.
    """
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _main() -> None:
            try:
                await server.start()
            except BaseException as exc:    # surface bind errors to the caller
                failure.append(exc)
                ready.set()
                return
            ready.set()
            await server.wait_stopped()

        try:
            loop.run_until_complete(_main())
            # Connections the clients never closed still own handler
            # tasks; cancel them so the loop shuts down quietly.
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="xmark-serve", daemon=True)
    thread.start()
    ready.wait(30.0)
    if failure:
        raise failure[0]
    return ServerHandle(server, loop, thread)
