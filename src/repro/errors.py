"""Exception hierarchy for the XMark reproduction.

Every error raised by the library derives from :class:`XMarkError` so that
applications can catch library failures with a single ``except`` clause while
still distinguishing subsystems.
"""

from __future__ import annotations


class XMarkError(Exception):
    """Base class for all errors raised by this library."""


class GenerationError(XMarkError):
    """Raised when the document generator is misconfigured or fails."""


class XMLSyntaxError(XMarkError):
    """Raised by the XML tokenizer/parser on malformed input.

    Carries the 1-based ``line`` and ``column`` of the offending character.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ValidationError(XMarkError):
    """Raised when a document violates the DTD it is validated against."""


class StorageError(XMarkError):
    """Raised by storage engines on invalid handles or failed bulkloads."""


class QueryError(XMarkError):
    """Base class for query-processing errors."""


class QuerySyntaxError(QueryError):
    """Raised by the XQuery lexer/parser on malformed query text."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class TypeCoercionError(QueryError):
    """Raised when a runtime cast (string -> number, ...) is impossible."""


class PlanningError(QueryError):
    """Raised when no executable plan exists for a query on a given system."""


class RelationalError(XMarkError):
    """Raised by the relational substrate (schema violations, bad columns)."""


class BenchmarkError(XMarkError):
    """Raised by the benchmark harness (unknown system, missing query)."""


class UnknownSystemError(BenchmarkError):
    """Raised when a request names a system the connection does not serve.

    Subclasses :class:`BenchmarkError` so legacy ``except BenchmarkError``
    handlers written against the pre-facade entry points keep working.
    """

    def __init__(self, system: str, available: tuple[str, ...] = ()) -> None:
        choices = f"; serving {', '.join(available)}" if available else ""
        super().__init__(f"unknown system {system!r}{choices}")
        self.system = system
        self.available = tuple(available)


class UpdateError(XMarkError):
    """Raised by the update engine (bad target, schema-invalid write)."""


class TransactionError(UpdateError):
    """Raised when a transaction cannot commit as one unit.

    ``applied`` counts the operations that took effect before the failing
    one; the stores remain mutually consistent at that prefix (their
    digests are advanced over exactly the applied operations).
    """

    def __init__(self, message: str, applied: int = 0) -> None:
        super().__init__(message)
        self.applied = applied


class ShardError(XMarkError):
    """Raised by the sharded document subsystem (bad partition, routing)."""


class DurabilityError(XMarkError):
    """Raised by the write-ahead-log subsystem (bad directory, bad config,
    a commit that cannot be made durable)."""


class RecoveryError(DurabilityError):
    """Raised when crash recovery cannot reconstruct a consistent store.

    A *torn tail* — an append cut short by the crash — is not an error
    (recovery drops it and reports it); this is for the states that must
    never be served: a snapshot that fails its checksum, a WAL whose
    replayed digest chain contradicts the digests the records recorded,
    or a record sequence with a gap.
    """


class ServerError(XMarkError):
    """Base class for the network serving layer (wire protocol, quotas)."""


class ProtocolError(ServerError):
    """Raised on a malformed frame or message on the wire.

    ``code`` is the machine-readable wire error code the server replies
    with (``bad_frame``, ``bad_message``, ``frame_too_large``,
    ``truncated``, ``bad_params``, ``unknown_document``,
    ``protocol_mismatch``) — see docs/SERVING.md for the taxonomy.
    """

    def __init__(self, message: str, code: str = "bad_message") -> None:
        super().__init__(message)
        self.code = code


class ServerBusyError(ServerError):
    """The server's worker pool and bounded request queue are saturated.

    The typed backpressure reply: overflow requests are refused
    immediately — never queued without bound, never left hanging — and
    the client is expected to back off and retry.
    """


class ServerStopError(ServerError):
    """``XMarkServer.stop`` gave up waiting for requests still running.

    ``workers`` names the worker threads busy at the deadline.  The
    server accepts nothing more and its queued requests are cancelled,
    but the databases it owns stay open: closing one would wait on the
    same stuck read.  Calling ``stop`` again waits again.
    """

    def __init__(self, message: str, workers: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.workers = tuple(workers)


class TenantQuotaError(ServerError):
    """A per-tenant quota was exceeded (sessions, in-flight requests,
    or open cursors)."""


class SessionError(XMarkError):
    """Base class for embedded-database session/cursor misuse."""


class ClosedSessionError(SessionError):
    """Raised when a closed :class:`repro.db.Session`/``Database`` is used."""


class ClosedCursorError(SessionError):
    """Raised when a closed :class:`repro.db.Cursor` is fetched from."""
