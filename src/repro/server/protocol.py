"""The wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned payload length followed by that
many bytes of UTF-8 JSON.  Every request is a JSON object with a string
``kind`` and an optional client-chosen ``id`` the reply echoes; every
reply is a JSON object whose ``kind`` names the outcome (``welcome``,
``cursor``, ``rows``, ``committed``, ... or ``error``).  Requests on one
connection are processed strictly in order, one reply per request, so a
client can pipeline but never needs to demultiplex.

The module owns everything both ends must agree on: the frame codec
(async reader side and blocking socket side), the parameter-binding
substitution, the update-operation encoding, the trace-context field,
and the two-way mapping between :mod:`repro.errors` exception types and
wire error codes — kept in one place so client and server cannot drift
apart.

**Trace context.**  Any request may carry an optional ``trace`` object::

    {"kind": "execute", ..., "trace": {"trace_id": "a1b2c3d4e5f6",
                                       "parent": "a1b2c3d4e5f6/0",
                                       "sampled": true}}

``trace_id`` names the distributed trace the client started, ``parent``
is the client-side span the server's ``server.request`` span should
logically hang under, and ``sampled`` is the client's head-sampling
decision — the server honors it instead of rolling its own, so one
trace is never half-kept.  In the other direction, the reply that
completes a cursor (an ``execute`` reply with ``done: true``, the final
``fetch``, or the ``close_cursor`` ack) may carry a ``span`` field: the
server-side span tree for that query in ``Span.to_dict()`` form, which
the client grafts into its own root so ``cursor.profile()`` shows one
joined tree.  Both fields are optional in both directions; an end that
does not understand them ignores them.
"""

from __future__ import annotations

import json
import math
import re
import socket
import struct

from repro.errors import (
    BenchmarkError, ClosedCursorError, ClosedSessionError, DurabilityError,
    ProtocolError, QueryError, QuerySyntaxError, ServerBusyError, ServerError,
    ShardError, StorageError, TenantQuotaError, TransactionError,
    UnknownSystemError, UpdateError, XMarkError,
)
from repro.update.ops import (
    CloseAuction, DeleteItem, PlaceBid, RegisterPerson, UpdateOp,
)
from repro.xmlio.serialize import serialize

#: Protocol revision; the handshake refuses a mismatched client.
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's payload (8 MiB): a length field beyond it
#: is desynchronization or abuse, never a legitimate message.
MAX_FRAME = 8 * 1024 * 1024

#: Rowtext characters per cursor page (64 Ki), a line break per row
#: counted; a client's row count ``n`` can only shorten a page.  A page
#: ends before the row that would overflow it, but holds at least one
#: row; even at JSON's worst escape (12 bytes for an astral character) a
#: full page stays far below ``MAX_FRAME``.
PAGE_CHARS = 64 * 1024

_HEADER = struct.Struct(">I")
HEADER_SIZE = _HEADER.size


# -- frame codec --------------------------------------------------------------------


def encode_frame(payload: dict) -> bytes:
    """One message as wire bytes: length header + compact JSON."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(
            f"outgoing frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME}-byte limit", code="frame_too_large")
    return _HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> dict:
    """Parse one frame's payload; raises a typed error on junk."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}",
                            code="bad_frame") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("kind"), str):
        raise ProtocolError(
            "message must be a JSON object with a string 'kind'",
            code="bad_message")
    return payload


async def read_frame(reader, max_frame: int = MAX_FRAME) -> tuple[dict | None, int]:
    """Read one frame from an asyncio stream: ``(payload, bytes_read)``.

    Returns ``(None, 0)`` on a clean end-of-stream at a frame boundary.
    Raises :class:`ProtocolError` with code ``truncated`` when the peer
    vanishes mid-frame (no reply is possible), ``frame_too_large`` when
    the length field exceeds ``max_frame`` (the stream is abandoned after
    the error reply), and ``bad_frame``/``bad_message`` when the framing
    was intact but the payload is junk (the connection survives).
    """
    import asyncio
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None, 0
        raise ProtocolError("connection closed mid-header",
                            code="truncated") from None
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise ProtocolError(
            f"frame length {length} exceeds the {max_frame}-byte limit",
            code="frame_too_large")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-payload",
                            code="truncated") from None
    return decode_payload(body), HEADER_SIZE + length


def recv_frame(sock: socket.socket,
               max_frame: int = MAX_FRAME) -> dict | None:
    """Blocking-socket twin of :func:`read_frame` (the sync client side)."""
    header = _recv_exact(sock, HEADER_SIZE)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise ProtocolError(
            f"frame length {length} exceeds the {max_frame}-byte limit",
            code="frame_too_large")
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise ProtocolError("connection closed mid-payload", code="truncated")
    return decode_payload(body)


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """``count`` bytes, ``None`` on clean EOF, typed error on partial EOF."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError("connection closed mid-frame",
                                code="truncated")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- trace context -------------------------------------------------------------------


def decode_trace(payload: dict) -> dict | None:
    """The validated ``trace`` context of one request, or ``None``.

    A malformed context is dropped rather than refused: tracing is
    advisory metadata, and a client bug here must not fail the query.
    """
    context = payload.get("trace")
    if not isinstance(context, dict):
        return None
    trace_id = context.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        return None
    parent = context.get("parent")
    return {"trace_id": trace_id,
            "parent": parent if isinstance(parent, str) else None,
            "sampled": bool(context.get("sampled", True))}


# -- parameter bindings --------------------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def bind_params(text: str, params: dict) -> str:
    """Substitute ``$name`` placeholders with literal values.

    Placeholders share the query language's variable syntax; only the
    names present in ``params`` are substituted, so a query's own FLWOR
    variables pass through untouched.  Strings become double-quoted
    literals that read back as exactly the value (embedded quotes
    doubled, ``&`` written as a reference), ints and finite floats
    numeric literals (``repr``: the exponent form is a double literal).
    The bound text differs from the template only in its literals, so
    bindings (of one sign) share one plan in the plan cache.
    """
    if not params:
        return text
    if not isinstance(params, dict):
        raise ProtocolError("params must be an object of name -> value",
                            code="bad_params")
    for name, value in params.items():
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ProtocolError(f"invalid parameter name {name!r}",
                                code="bad_params")
        if isinstance(value, bool) or value is None:
            raise ProtocolError(
                f"parameter ${name} must be a string or number, "
                f"got {value!r}", code="bad_params")
        if isinstance(value, str):
            literal = '"' + value.replace("&", "&amp;").replace('"', '""') + '"'
        elif isinstance(value, int) or (isinstance(value, float)
                                        and math.isfinite(value)):
            literal = repr(value)
        elif isinstance(value, float):
            raise ProtocolError(
                f"parameter ${name} must be a finite number, got {value!r}",
                code="bad_params")
        else:
            raise ProtocolError(
                f"parameter ${name} must be a string or number, "
                f"got {type(value).__name__}", code="bad_params")
        pattern = re.compile(r"\$" + re.escape(name) + r"\b")
        if not pattern.search(text):
            raise ProtocolError(f"query has no placeholder ${name}",
                                code="bad_params")
        text = pattern.sub(lambda _match: literal, text)
    return text


# -- update-operation encoding -------------------------------------------------------


def encode_op(op: UpdateOp) -> dict:
    """One typed update operation as a JSON-safe object."""
    if isinstance(op, RegisterPerson):
        return {"kind": op.kind, "person_xml": serialize(op.person)}
    if isinstance(op, PlaceBid):
        return {"kind": op.kind, "auction_id": op.auction_id,
                "person_id": op.person_id, "increase": op.increase,
                "date": op.date, "time": op.time}
    if isinstance(op, CloseAuction):
        return {"kind": op.kind, "auction_id": op.auction_id,
                "date": op.date}
    if isinstance(op, DeleteItem):
        return {"kind": op.kind, "item_id": op.item_id}
    raise ProtocolError(f"unknown update operation {type(op).__name__}",
                        code="bad_message")


def decode_op(data) -> UpdateOp:
    """The inverse of :func:`encode_op`; raises on malformed input."""
    if not isinstance(data, dict):
        raise ProtocolError("op must be a JSON object", code="bad_message")
    kind = data.get("kind")
    try:
        if kind == "register_person":
            from repro.xmlio.parser import parse
            return RegisterPerson(parse(data["person_xml"]).root)
        if kind == "place_bid":
            return PlaceBid(str(data["auction_id"]), str(data["person_id"]),
                            float(data["increase"]), str(data["date"]),
                            str(data["time"]))
        if kind == "close_auction":
            return CloseAuction(str(data["auction_id"]), str(data["date"]))
        if kind == "delete_item":
            return DeleteItem(str(data["item_id"]))
    except ProtocolError:
        raise
    except XMarkError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {kind} operation: {exc}",
                            code="bad_message") from None
    raise ProtocolError(f"unknown update operation kind {kind!r}",
                        code="bad_message")


# -- error code mapping --------------------------------------------------------------

#: Exception class -> wire code, most specific first (the server walks this
#: in order).  :class:`ProtocolError` is special-cased: it carries its code.
_ERROR_CODES: tuple[tuple[type, str], ...] = (
    (ServerBusyError, "server_busy"),
    (TenantQuotaError, "tenant_quota"),
    (QuerySyntaxError, "query_syntax"),
    (UnknownSystemError, "unknown_system"),
    (QueryError, "query"),
    (TransactionError, "transaction"),
    (UpdateError, "update"),
    (ClosedCursorError, "closed_cursor"),
    (ClosedSessionError, "closed_session"),
    (DurabilityError, "durability"),
    (ShardError, "shard"),
    (StorageError, "storage"),
    (BenchmarkError, "benchmark"),
    (ServerError, "server"),
    (XMarkError, "error"),
)

#: Wire code -> exception factory from ``(message, detail)`` — how the
#: client re-raises a typed error from an ``error`` reply.
_CODE_FACTORIES = {
    "server_busy": lambda message, detail: ServerBusyError(message),
    "tenant_quota": lambda message, detail: TenantQuotaError(message),
    "query_syntax": lambda message, detail: QuerySyntaxError(message),
    "unknown_system": lambda message, detail: UnknownSystemError(
        detail.get("system", "?"), tuple(detail.get("available", ()))),
    "query": lambda message, detail: QueryError(message),
    "transaction": lambda message, detail: TransactionError(
        message, detail.get("applied", 0)),
    "update": lambda message, detail: UpdateError(message),
    "closed_cursor": lambda message, detail: ClosedCursorError(message),
    "closed_session": lambda message, detail: ClosedSessionError(message),
    "durability": lambda message, detail: DurabilityError(message),
    "shard": lambda message, detail: ShardError(message),
    "storage": lambda message, detail: StorageError(message),
    "benchmark": lambda message, detail: BenchmarkError(message),
    "server": lambda message, detail: ServerError(message),
    "error": lambda message, detail: XMarkError(message),
}


def error_code(exc: BaseException) -> str:
    """The wire code one exception maps to (``internal`` for non-library)."""
    if isinstance(exc, ProtocolError):
        return exc.code
    for klass, code in _ERROR_CODES:
        if isinstance(exc, klass):
            return code
    return "internal"


def error_payload(request_id, exc: BaseException) -> dict:
    """The ``error`` reply for one failed request."""
    detail: dict = {}
    if isinstance(exc, UnknownSystemError):
        detail = {"system": exc.system, "available": list(exc.available)}
    elif isinstance(exc, TransactionError):
        detail = {"applied": exc.applied}
    payload = {"kind": "error", "id": request_id, "code": error_code(exc),
               "message": str(exc)}
    if detail:
        payload["detail"] = detail
    return payload


def raise_wire_error(reply: dict) -> None:
    """Re-raise an ``error`` reply as its typed exception (client side)."""
    code = reply.get("code", "error")
    message = reply.get("message", "server error")
    detail = reply.get("detail") or {}
    factory = _CODE_FACTORIES.get(code)
    if factory is not None:
        raise factory(message, detail)
    if code in ("bad_frame", "bad_message", "frame_too_large", "truncated",
                "bad_params", "unknown_document", "protocol_mismatch"):
        raise ProtocolError(message, code=code)
    raise ServerError(f"[{code}] {message}")
