"""The asyncio wire server: many tenants, many documents, one process.

The server fronts ordinary :class:`repro.db.Database` connections with
the length-prefixed JSON protocol of :mod:`repro.server.protocol`.  Each
accepted connection handshakes onto one served document as one tenant,
then issues requests strictly in order; the event loop interleaves
connections while each connection's blocking work (query evaluation,
page fetches, commits) runs on a bounded set of worker threads.

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
import queue
import threading
import time

from dataclasses import dataclass

from repro import __version__
from repro.db.cursor import Cursor
from repro.db.database import Database
from repro.errors import (
    ClosedCursorError, ProtocolError, ServerBusyError, ServerError,
    ServerStopError, XMarkError,
)
from repro.obs.metrics import Counter, MetricsRegistry
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

    def __init__(self, cursor: Cursor, system: str, query: str,
                 query_ref, tenant: str, sampled: bool,
                 started: float) -> None:
        self.cursor = cursor
        self.system = system
        self.query = query
        self.query_ref = query_ref      # the number/id the client sent
        self.tenant = tenant
        self.sampled = sampled          # attach the span tree to replies?
        self.started = started          # perf_counter() at the request
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

    def __init__(self, conn_id: int, peer: str, meters: _Meters) -> None:
        self.conn_id = conn_id
        self.peer = peer
        self.meters = meters            # the tenant label's metric handles
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


class _Meters:
    """The hot path's metric handles for one tenant label (``None``:
    before the handshake).  Each is looked up in the registry at its
    first use, so a series appears when it is first counted, as it would
    with a lookup per request, and is held from then on."""

    #: attribute -> (kind, metric name, labels: "tenant" always carries
    #: the tenant label, "peer" only once handshaken, "none" never).
    _SPECS = {
        "bytes_in": ("counter", "net.bytes_in_total", "peer"),
        "bytes_out": ("counter", "net.bytes_out_total", "peer"),
        "request_ms": ("histogram", "server.request_ms", "tenant"),
        "all_request_ms": ("histogram", "server.request_ms", "none"),
        "active": ("gauge", "server.active_requests", "none"),
        "executes": ("counter", "server.executes_total", "tenant"),
        "plan_hits": ("counter", "server.plan_cache_hits_total", "tenant"),
        "result_hits": ("counter", "server.result_cache_hits_total",
                        "tenant"),
    }

    def __init__(self, registry: MetricsRegistry, tenant: str | None) -> None:
        self.registry = registry
        self.tenant = tenant
        self.label = tenant if tenant is not None else "-"
        self._requests: dict[str, Counter] = {}

    def __getattr__(self, attr: str):
        try:
            kind, name, labelled = self._SPECS[attr]
        except KeyError:
            raise AttributeError(attr) from None
        if labelled == "tenant" or (labelled == "peer"
                                    and self.tenant is not None):
            labels = {"tenant": self.label}
        else:
            labels = {}
        metric = getattr(self.registry, kind)(name, **labels)
        setattr(self, attr, metric)
        return metric

    def requests(self, kind: str) -> Counter:
        counter = self._requests.get(kind)
        if counter is None:
            counter = self._requests[kind] = self.registry.counter(
                "server.requests_total", kind=kind, tenant=self.label)
        return counter


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
        default_quota: TenantQuota | None = None,
        max_frame: int = protocol.MAX_FRAME,
    ) -> None:
        if max_workers <= 0:
            raise ServerError(
                f"max_workers must be positive, got {max_workers}")
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
        self.tenants = TenantRegistry(default_quota or TenantQuota())
        self.documents: dict[str, ServedDocument] = {}
        self._meters: dict[str | None, _Meters] = {}
        #: Heavy request kinds and their handlers, run on a worker thread
        #: (they count toward backpressure and the tenant in-flight quota).
        self._heavy = {
            "prepare": self._do_prepare,
            "execute": self._do_execute,
            "fetch": self._do_fetch,
            "commit": self._do_commit,
            "checkpoint": self._do_checkpoint,
            "explain": self._do_explain,
            "digest": self._do_digest,
        }
        self._active = 0                # admitted (queued or running)
        # The hand-off: the loop puts a request's future on ``_jobs`` and
        # its work in ``_queued``; a worker claims the work with one
        # ``dict.pop`` (``stop`` races it with another), runs it, and
        # resolves the future with one ``call_soon_threadsafe``.
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._queued: dict[asyncio.Future, object] = {}
        #: Claimed and not yet resolved on the loop: future -> the name of
        #: the worker thread that claimed it.
        self._running: dict[asyncio.Future, str] = {}
        self._workers: list[threading.Thread] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        #: Open connections: the handler task of each, with its streams.
        self._open: dict[asyncio.Task, tuple[asyncio.StreamReader,
                                             asyncio.StreamWriter]] = {}
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
        simply materialize per execution.  The database's query log
        (``connect(query_log=...)``) takes one ``source="server"`` record
        per finished cursor, with the server's wire fields.
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
        self._loop = asyncio.get_running_loop()
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
        """Stop accepting, refuse queued requests, wait for the running
        ones, end the open connections, then close owned databases.

        The wait is on the event loop, not a blocking join, and lasts at
        most ``timeout`` seconds (None: until they finish).  At the
        deadline it raises :class:`ServerStopError` naming the busy
        workers and leaves the owned databases open: closing one would
        wait on the same stuck read.  A later call waits again.  Every
        worker thread exits once it is idle."""
        if not self._closing:
            self._closing = True
            if self._server is not None:
                # Stop listening, but do not await ``wait_closed()``: from
                # Python 3.12.1 on it waits, unbounded, for every client
                # connection to close.  The connections end below.
                self._server.close()
            for future in list(self._queued):
                if (self._queued.pop(future, None) is not None
                        and not future.done()):
                    future.set_exception(ServerStopError(
                        "server stopped before the request ran"))
            for _ in self._workers:
                self._jobs.put(None)    # each worker exits at its next job
        running = [future for future in list(self._running)
                   if not future.done()]
        if running:
            _done, pending = await asyncio.wait(running, timeout=timeout)
            if pending:
                busy = tuple(sorted({self._running.get(future, "?")
                                     for future in pending}))
                raise ServerStopError(
                    f"{len(pending)} request(s) still running after "
                    f"{timeout} s on {', '.join(busy)}", busy)
        if self._closed:
            return
        self._closed = True
        await self._end_connections(timeout)
        for served in self.documents.values():
            if served.owned:
                served.database.close()
        if self._stopped is not None:
            self._stopped.set()

    async def _end_connections(self, timeout: float | None) -> None:
        """End every open connection so that its handler returns by
        itself: stop reading and feed its reader end-of-stream, so the
        handler answers what it already read, then sees a clean EOF and
        closes.  Wait at most ``timeout`` (None: ``_STOP_GRACE``) for the
        handlers, then abort the transports of those left (clients that
        stopped reading their replies).  The loop's end must not cancel
        a handler: Python 3.11's stream callback logs that as an error."""
        for reader, writer in self._open.values():
            writer.transport.pause_reading()
            reader.feed_eof()
        if not self._open:
            return
        grace = _STOP_GRACE if timeout is None else timeout
        _done, pending = await asyncio.wait(list(self._open), timeout=grace)
        for task in pending:
            self._open[task][1].transport.abort()
        if pending:
            await asyncio.wait(pending)

    def _join_workers(self, timeout: float | None = None) -> None:
        """Block until every worker thread has exited (after :meth:`stop`;
        never on the event loop)."""
        for worker in self._workers:
            worker.join(timeout)

    # -- backpressure ---------------------------------------------------------------

    async def _offload(self, conn: _Connection, fn):
        """Run ``fn`` on a worker thread under admission control.

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
        active = conn.meters.active
        active.set(self._active)
        try:
            if len(self._workers) < min(self._active, self.max_workers):
                self._start_worker()
            future = self._loop.create_future()
            self._queued[future] = fn
            self._jobs.put(future)
            try:
                return await future
            except asyncio.CancelledError:
                self._queued.pop(future, None)  # not run if not yet claimed
                raise
        finally:
            self._active -= 1
            active.set(self._active)
            if tenant is not None:
                self.tenants.end_request(tenant)

    def _start_worker(self) -> None:
        worker = threading.Thread(
            target=self._work, name=f"xmark-server_{len(self._workers)}",
            daemon=True)
        self._workers.append(worker)
        worker.start()

    def _work(self) -> None:
        """A worker thread: claim each queued request, run it, and hand
        its outcome back to the loop; exit at ``None``."""
        name = threading.current_thread().name
        jobs, queued, running = self._jobs, self._queued, self._running
        resolve = self._loop.call_soon_threadsafe
        while (future := jobs.get()) is not None:
            # Marked running before the claim, so ``stop`` never finds a
            # claimed request in neither place.
            running[future] = name
            fn = queued.pop(future, None)
            if fn is None:              # stop() or a cancellation took it
                running.pop(future, None)
                continue
            try:
                result = fn()
            except BaseException as exc:
                resolve(self._resolve, future, None, exc)
            else:
                resolve(self._resolve, future, result, None)

    def _resolve(self, future: asyncio.Future, result, error) -> None:
        """On the loop: a worker's outcome settles the request's future."""
        self._running.pop(future, None)
        if future.done():               # the request was cancelled meanwhile
            return
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)

    # -- the connection loop --------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._next_conn += 1
        conn = _Connection(self._next_conn, self._peer_name(writer),
                           self._meters_for(None))
        task = asyncio.current_task()
        self._open[task] = (reader, writer)
        self.registry.counter("server.accepts_total").inc()
        self.registry.gauge("server.connections").set(len(self._open))
        span = (self.tracer.begin("server.accept", peer=conn.peer)
                if self.tracer.enabled else None)
        try:
            await self._serve_connection(conn, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass                        # peer vanished; nothing to reply to
        finally:
            self._release_connection(conn)
            del self._open[task]
            self.registry.gauge("server.connections").set(len(self._open))
            if span is not None:
                span.set(tenant=(conn.tenant.name if conn.tenant else None))
                span.finish()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _release_connection(self, conn: _Connection) -> None:
        # Pop each cursor: a worker finishing one at stop() pops it itself,
        # and whoever pops a cursor releases its slot, exactly once.
        while conn.cursors:
            try:
                _cursor_id, held = conn.cursors.popitem()
            except KeyError:            # a worker took the last one
                break
            self.tenants.close_cursor(conn.tenant)
            try:
                held.cursor.close()
            except XMarkError:
                pass
        if conn.tenant is not None:
            self.tenants.disconnect(conn.tenant)

    def _meters_for(self, tenant: str | None) -> _Meters:
        meters = self._meters.get(tenant)
        if meters is None:
            meters = self._meters[tenant] = _Meters(self.registry, tenant)
        return meters

    @staticmethod
    def _peer_name(writer: asyncio.StreamWriter) -> str:
        peer = writer.get_extra_info("peername")
        return f"{peer[0]}:{peer[1]}" if peer else "?"

    async def _send(self, conn: _Connection, writer: asyncio.StreamWriter,
                    payload: dict) -> None:
        data = protocol.encode_frame(payload)
        conn.meters.bytes_out.inc(len(data))
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
            conn.meters.bytes_in.inc(nbytes)
            if not await self._dispatch(conn, writer, payload):
                return

    async def _dispatch(self, conn: _Connection,
                        writer: asyncio.StreamWriter,
                        payload: dict) -> bool:
        """Handle one request; returns False when the connection ends."""
        kind = payload["kind"]
        request_id = payload.get("id")
        started = time.perf_counter()
        meters = conn.meters            # the handshake swaps it: keep this one
        tenant_label = meters.label
        meters.requests(kind).inc()
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
            meters.all_request_ms.observe(elapsed)
            meters.request_ms.observe(elapsed)
            if span is not None:
                # Tail rule: errors and slow requests are always kept,
                # whatever the head decision said.
                if self.sampler.keep(conn.sampled, elapsed_ms,
                                     error=error_code is not None):
                    span.finish()
                else:
                    span.discard()
            if (error_code is not None and kind == "execute"
                    and conn.document is not None):
                busy, conn.busy = conn.busy, 0
                conn.document.database._log_query(
                    "server", started, error=error_code, tenant=tenant_label,
                    query=payload.get("query", payload.get("query_id")),
                    duration_ms=round(elapsed_ms, 3), busy=busy or None)
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
        handler = self._heavy.get(kind)
        if handler is None:
            raise ProtocolError(f"unknown message kind {kind!r}",
                                code="bad_message")
        served = conn.document
        db_tracer = served.database.tracer
        if conn.sampled or not db_tracer.enabled:
            def run():
                return handler(conn, served, payload)
        else:
            # Unsampled request: the served database's instrumentation is
            # shared by every connection, so switch it off for exactly
            # this execution via thread-local suppression — the handler
            # runs wholly on one worker thread.
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
        conn.meters = self._meters_for(tenant_name)
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
            "connections": len(self._open),
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

    # -- offloaded handlers (worker threads) ----------------------------------------

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
        first_page = payload.get("fetch")
        size = self._page_arg(first_page) if first_page else None
        tenant = conn.tenant

        def opened(cursor: Cursor) -> dict:
            self.tenants.open_cursor(tenant)
            meters = conn.meters
            meters.executes.inc()
            if cursor.plan_cache_hit:
                meters.plan_hits.inc()
            if cursor.result_cache_hit:
                meters.result_hits.inc()
            held = _ServerCursor(cursor, system, text,
                                 payload.get("query", payload.get("query_id")),
                                 tenant.name, conn.sampled, started)
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
                try:
                    rows, done = held.page(size)
                except BaseException:
                    # The error is the reply: no cursor id goes out, so
                    # none may stay open holding a quota slot.
                    self._drop_cursor(conn, cursor_id)
                    raise
                reply["rows"] = rows
                reply["done"] = done
                if done:
                    self._finish_cursor(conn, cursor_id, reply)
            return reply

        # The execution and its first page under one read: no commit
        # poisons the cursor before it sent a row.
        return served.database._first_page(system, text, tenant.name, opened)

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
        """Close a completed cursor: finish + attach its span, and hand
        its wire fields to the served database's query log.

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
        database = conn.document.database
        if database.query_log is None:
            return
        duration_ms = (time.perf_counter() - held.started) * 1000.0
        wire_ms = (round(max(0.0, duration_ms - span.duration * 1000.0), 4)
                   if traced and span.duration is not None else None)
        busy, conn.busy = conn.busy, 0
        database._log_query(
            "server", held.started, held.cursor, tenant=held.tenant,
            query=held.query_ref, rows=held.rows_sent, pages=held.pages,
            duration_ms=round(duration_ms, 3), wire_ms=wire_ms,
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
            # ``stop`` ended every connection; a handler that did not
            # return within its timeout is cancelled so the loop can end.
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
        finally:
            loop.close()
            server._join_workers()

    thread = threading.Thread(target=_run, name="xmark-serve", daemon=True)
    thread.start()
    ready.wait(30.0)
    if failure:
        raise failure[0]
    return ServerHandle(server, loop, thread)
