"""The append-only WAL file: durable appends and torn-tail scans.

A :class:`WriteAheadLog` owns a deployment's one WAL file.  ``append()`` writes one
encoded record, then flushes and fsyncs it: a commit that returned is on
stable storage.  A crash during the append leaves at most a half-record,
which the tail scanner drops.

Reading is one function: :func:`scan_wal` returns every intact record
plus a :class:`WalScan` describing how the file ends.  Recovery treats a
non-clean tail as a crash artifact — :meth:`WriteAheadLog.repair`
truncates the file back to its valid prefix before the log accepts
new appends, so a recovered database never writes after garbage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import DurabilityError
from repro.obs.trace import NULL_TRACER
from repro.storage.wal.records import TAIL_CLEAN, WalRecord, iter_records

#: The ``stream`` label of every ``wal.*`` counter.  A deployment has one
#: WAL file; the label stays because the performance ledger reads the
#: counters by these names.
STREAM_LABEL = "0"


@dataclass(slots=True)
class WalScan:
    """What one pass over a WAL file found."""

    path: str
    records: list[WalRecord] = field(default_factory=list)
    #: TAIL_* constant: how the byte stream ended.
    tail: str = TAIL_CLEAN
    #: File offset up to which the file is intact (== file size iff clean).
    valid_bytes: int = 0
    #: Bytes dropped after the valid prefix (0 iff clean).
    torn_bytes: int = 0

    @property
    def clean(self) -> bool:
        return self.tail == TAIL_CLEAN

    def last_lsn(self) -> int | None:
        return self.records[-1].lsn if self.records else None


def fsync_directory(directory: str | Path) -> None:
    """Make ``directory``'s entries durable.  A rename into it, or a file
    created in it, survives a power cut only once the directory itself is
    fsynced.  This is not a commit's fsync and is not counted as one."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def scan_wal(path: str | Path) -> WalScan:
    """Read every intact record of a WAL file; never raises on torn tails."""
    data = Path(path).read_bytes()
    scan = WalScan(path=str(path))
    for offset, item in iter_records(data):
        if isinstance(item, WalRecord):
            scan.records.append(item)
        else:
            scan.tail = item
            scan.valid_bytes = offset
            scan.torn_bytes = len(data) - offset
    return scan


class WriteAheadLog:
    """One append-only, CRC-guarded record file."""

    def __init__(self, path: str | Path, *, tracer=NULL_TRACER,
                 registry=None) -> None:
        self.path = Path(path)
        self._tracer = tracer
        self._registry = registry
        self._file = None
        self.appended_records = 0
        self.appended_bytes = 0
        self.fsyncs = 0

    # -- the append path ---------------------------------------------------------

    def _handle(self):
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            created = not self.path.exists()
            self._file = open(self.path, "ab")
            if created:
                fsync_directory(self.path.parent)
        return self._file

    def append(self, record: WalRecord) -> int:
        """Append one record and fsync it; returns its starting offset.

        On return everything up to and including this record is on
        stable storage.
        """
        encoded = record.encode()
        handle = self._handle()
        tracer = self._tracer
        if tracer.enabled:
            with tracer.span("wal.append", lsn=record.lsn,
                             bytes=len(encoded)):
                offset = handle.tell()
                handle.write(encoded)
        else:
            offset = handle.tell()
            handle.write(encoded)
        self.appended_records += 1
        self.appended_bytes += len(encoded)
        if self._registry is not None:
            self._registry.counter("wal.records_total",
                                   stream=STREAM_LABEL).inc()
            self._registry.counter("wal.bytes_total",
                                   stream=STREAM_LABEL).inc(len(encoded))
        if tracer.enabled:
            with tracer.span("wal.fsync"):
                self._fsync()
        else:
            self._fsync()
        self.fsyncs += 1
        if self._registry is not None:
            self._registry.counter("wal.fsyncs_total",
                                   stream=STREAM_LABEL).inc()
        return offset

    def _fsync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recovery-side maintenance ------------------------------------------------

    def repair(self) -> WalScan:
        """Drop a torn tail so the file is clean for new appends.

        Returns the scan (with the pre-repair tail classification);
        truncation happens only when the scan found damage, and the
        truncated file is fsynced before returning.
        """
        if self._file is not None:
            raise DurabilityError("repair an unopened log, not a live one")
        if not self.path.exists():
            return WalScan(path=str(self.path))
        scan = scan_wal(self.path)
        if not scan.clean:
            with open(self.path, "r+b") as handle:
                handle.truncate(scan.valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
        return scan

    def rewrite(self, records: list[WalRecord]) -> None:
        """Atomically replace the log's contents (checkpoint compaction).

        The surviving records are written to a sibling temp file, fsynced,
        and renamed over the log — a crash anywhere leaves either the
        old complete log or the new complete log, both consistent.
        """
        if self._file is not None:
            raise DurabilityError("rewrite an unopened log, not a live one")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temp = self.path.with_suffix(".compact")
        with open(temp, "wb") as handle:
            for record in records:
                handle.write(record.encode())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)
        fsync_directory(self.path.parent)
