"""The WAL record codec: length-prefixed, CRC-guarded, typed payloads.

On disk a record is::

    +--------+----------+---------+----------------------+
    | magic  | length   | crc32   | payload (JSON, utf-8)|
    | 4 bytes| 4 bytes  | 4 bytes | ``length`` bytes     |
    +--------+----------+---------+----------------------+

``length`` counts payload bytes only and ``crc32`` covers payload bytes
only, so the three torn-write classes the fault-injection harness
exercises are cleanly distinguishable: a truncation inside the 12-byte
header (*torn header*), a truncation inside the payload (*torn
payload*), and a garbled payload byte (*bad CRC*; garbling the header's
own length/crc fields surfaces as torn payload or bad CRC, garbling the
magic as *bad magic*).  Whatever the class, the scanner never yields the
damaged record or anything after it: a half-record is dropped, never
applied.

The payload is the *logical* commit — one batch of operations, over
whose token the digest chain advances once::

    {"lsn": 7, "ops": [...], "prev": "<digest before>",
     "digest": "<digest after>"}

``prev``/``digest`` are the store's operation-hash-chain values around
the commit (see :func:`repro.storage.interface.chain_digest`); recovery
replays the ops through the real update engine and verifies the chain it
produces against these recorded values link by link.

Operations are encoded by kind.  The scalar ops carry their fields
verbatim; ``register_person`` carries the person subtree as XML text and
is parsed back on decode — the round trip is exact because the document
generator's serializer is canonical.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

from repro.errors import DurabilityError
from repro.update.ops import (
    CloseAuction, DeleteItem, PlaceBid, RegisterPerson, UpdateOp,
)
from repro.xmlio.parser import parse
from repro.xmlio.serialize import serialize

#: Per-record magic: lets the scanner reject files that are not WALs at
#: all (and any overwrite garbage) without trusting the length field.
MAGIC = b"XWAL"

_HEADER = struct.Struct("<4sII")        # magic, payload length, payload crc32
HEADER_SIZE = _HEADER.size

# -- operation encoding ----------------------------------------------------------


def encode_op(op: UpdateOp) -> dict:
    """One update operation as a JSON-ready dict."""
    if isinstance(op, RegisterPerson):
        return {"kind": op.kind, "person": serialize(op.person)}
    if isinstance(op, PlaceBid):
        return {"kind": op.kind, "auction": op.auction_id,
                "person": op.person_id, "increase": op.increase,
                "date": op.date, "time": op.time}
    if isinstance(op, CloseAuction):
        return {"kind": op.kind, "auction": op.auction_id, "date": op.date}
    if isinstance(op, DeleteItem):
        return {"kind": op.kind, "item": op.item_id}
    raise DurabilityError(f"cannot log unknown update operation {op!r}")


def decode_op(encoded: dict) -> UpdateOp:
    """The inverse of :func:`encode_op`."""
    kind = encoded.get("kind")
    if kind == "register_person":
        person = parse(encoded["person"]).root
        if person is None:
            raise DurabilityError("register_person record has no subtree")
        return RegisterPerson(person)
    if kind == "place_bid":
        return PlaceBid(encoded["auction"], encoded["person"],
                        encoded["increase"], encoded["date"], encoded["time"])
    if kind == "close_auction":
        return CloseAuction(encoded["auction"], encoded["date"])
    if kind == "delete_item":
        return DeleteItem(encoded["item"])
    raise DurabilityError(f"unknown logged operation kind {kind!r}")


# -- records ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One logical commit: a batch of operations."""

    lsn: int
    ops: tuple[UpdateOp, ...]
    prev_digest: str
    digest: str

    def encode(self) -> bytes:
        payload = json.dumps(
            {"lsn": self.lsn, "ops": [encode_op(op) for op in self.ops],
             "prev": self.prev_digest, "digest": self.digest},
            separators=(",", ":"), ensure_ascii=False).encode("utf-8")
        return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload

    @classmethod
    def decode_payload(cls, payload: bytes) -> "WalRecord":
        document = json.loads(payload.decode("utf-8"))
        return cls(
            lsn=document["lsn"],
            ops=tuple(decode_op(op) for op in document["ops"]),
            prev_digest=document["prev"],
            digest=document["digest"],
        )


#: How a WAL byte stream ended (`WalScan.tail`).  Everything except
#: ``clean`` means a tail was dropped; recovery reports which class.
TAIL_CLEAN = "clean"
TAIL_TORN_HEADER = "torn-header"
TAIL_TORN_PAYLOAD = "torn-payload"
TAIL_BAD_CRC = "bad-crc"
TAIL_BAD_MAGIC = "bad-magic"


def iter_records(data: bytes):
    """Yield ``(offset, WalRecord)`` for every intact record, then one
    final ``(valid_end, tail_status)`` pair describing how the bytes end.

    The scanner is strictly prefix-consistent: the first damaged record
    ends the scan, whatever follows it.  A record that decodes but whose
    payload is semantically broken (unknown operation, unparseable subtree)
    raises :class:`~repro.errors.DurabilityError` — that is corruption
    the CRC says did not happen on the wire, so it is never silently
    dropped.
    """
    offset = 0
    total = len(data)
    while True:
        if offset == total:
            yield offset, TAIL_CLEAN
            return
        if total - offset < HEADER_SIZE:
            yield offset, TAIL_TORN_HEADER
            return
        magic, length, crc = _HEADER.unpack_from(data, offset)
        if magic != MAGIC:
            yield offset, TAIL_BAD_MAGIC
            return
        start = offset + HEADER_SIZE
        if total - start < length:
            yield offset, TAIL_TORN_PAYLOAD
            return
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            yield offset, TAIL_BAD_CRC
            return
        yield offset, WalRecord.decode_payload(payload)
        offset = start + length
