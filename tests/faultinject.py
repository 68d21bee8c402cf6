"""Fault injection for the durability subsystem.

The harness simulates a crash (or storage-level garbling) at chosen byte
positions of a WAL stream and predicts what recovery must produce: the
exact commit prefix that survives.  Two damage modes:

* **truncate** — the file ends mid-write, the classic torn tail.  Points
  are enumerated at every record boundary (a crash between appends: the
  prefix is exactly the records before the cut) and inside every record
  (mid-header and mid-payload: the damaged record and everything after
  it must be dropped, never half-applied).
* **garble** — a byte flips in place (storage corruption).  Points cover
  each header field class (magic, length, crc) and the payload; the
  records *after* the damaged one are physically intact, but the scanner
  is strictly prefix-consistent, so they are dropped too — logging after
  an undurable commit proves nothing.

Every :class:`CrashPoint` carries ``survivors`` — how many records of
the stream remain readable — which is the whole oracle: recovery of the
damaged deployment must equal the never-crashed state after exactly the
surviving global commit prefix.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.storage.wal.records import (
    HEADER_SIZE, TAIL_BAD_CRC, TAIL_BAD_MAGIC, TAIL_CLEAN, TAIL_TORN_HEADER,
    TAIL_TORN_PAYLOAD, WalRecord, iter_records,
)

#: Crash-point offset classes (``CrashPoint.label``).
BOUNDARY = "boundary"                   # between records: a clean tail
MID_HEADER = "mid-header"               # truncated inside the 12-byte header
MID_PAYLOAD = "mid-payload"             # truncated inside the payload
GARBLED_MAGIC = "garbled-magic"
GARBLED_LENGTH = "garbled-length"
GARBLED_CRC = "garbled-crc"
GARBLED_PAYLOAD = "garbled-payload"

#: What the WAL scanner may report for each damage class.  Garbling the
#: length field moves the apparent payload window, so the scanner sees
#: either a payload that runs off the file (torn) or wrong bytes under
#: the CRC — never an intact record.
EXPECTED_TAILS = {
    BOUNDARY: {TAIL_CLEAN},
    MID_HEADER: {TAIL_TORN_HEADER},
    MID_PAYLOAD: {TAIL_TORN_PAYLOAD},
    GARBLED_MAGIC: {TAIL_BAD_MAGIC},
    GARBLED_LENGTH: {TAIL_TORN_PAYLOAD, TAIL_BAD_CRC},
    GARBLED_CRC: {TAIL_BAD_CRC},
    GARBLED_PAYLOAD: {TAIL_BAD_CRC},
}


@dataclass(frozen=True)
class CrashPoint:
    """One simulated crash/corruption in one WAL stream."""

    label: str                          # offset class, see constants above
    mode: str                           # "truncate" | "garble"
    offset: int                         # byte position the damage hits
    survivors: int                      # records still readable afterwards
    record_lsn: int | None = None       # LSN of the damaged record (if any)

    def apply(self, data: bytes) -> bytes:
        if self.mode == "truncate":
            return data[:self.offset]
        return (data[:self.offset]
                + bytes([data[self.offset] ^ 0xFF])
                + data[self.offset + 1:])


def record_spans(data: bytes) -> list[tuple[int, int, WalRecord]]:
    """``(start, end, record)`` for every intact record in the stream.

    ``iter_records`` yields each record's start offset and finally the
    valid end of the stream, so record *i* ends where *i + 1* begins.
    """
    starts: list[tuple[int, WalRecord]] = []
    valid_end = 0
    for offset, item in iter_records(data):
        if isinstance(item, WalRecord):
            starts.append((offset, item))
        else:
            valid_end = offset
    ends = [start for start, _ in starts[1:]] + [valid_end]
    return [(start, end, record)
            for (start, record), end in zip(starts, ends)]


def crash_points(data: bytes) -> list[CrashPoint]:
    """Every crash point the matrix exercises for one stream's bytes.

    Covers each record boundary (truncation between appends) and, per
    record, a truncation in the header, a truncation in the payload, and
    one garbled byte in each header field plus the payload body.
    """
    spans = record_spans(data)
    points: list[CrashPoint] = []
    for index, (start, end, record) in enumerate(spans):
        lsn = record.lsn
        points.append(CrashPoint(BOUNDARY, "truncate", start, index, lsn))
        points.append(CrashPoint(
            MID_HEADER, "truncate", start + HEADER_SIZE // 2, index, lsn))
        payload_len = end - start - HEADER_SIZE
        points.append(CrashPoint(
            MID_PAYLOAD, "truncate",
            start + HEADER_SIZE + max(1, payload_len // 2), index, lsn))
        points.append(CrashPoint(
            GARBLED_MAGIC, "garble", start + 1, index, lsn))
        # high byte of the little-endian length: the window explodes
        points.append(CrashPoint(
            GARBLED_LENGTH, "garble", start + 7, index, lsn))
        points.append(CrashPoint(
            GARBLED_CRC, "garble", start + 9, index, lsn))
        points.append(CrashPoint(
            GARBLED_PAYLOAD, "garble",
            start + HEADER_SIZE + payload_len // 3, index, lsn))
    return points


def apply_crash(path: str | Path, point: CrashPoint) -> None:
    """Damage one WAL stream file in place."""
    path = Path(path)
    path.write_bytes(point.apply(path.read_bytes()))


def reconnect(image: str | Path, copy: str | Path, **options):
    """A durable reconnect (``repro.connect(None, durable=...)``) on a
    copy of the deployment ``image``: a reconnect truncates torn tails,
    so the image itself stays as the crash left it.  ``options`` are
    connect's; ``systems`` defaults to ``("F",)``."""
    from repro.db import connect
    shutil.copytree(image, copy)
    options.setdefault("systems", ("F",))
    return connect(None, durable=str(copy), **options)
