"""Checkpoint snapshots: a store's state as one durable, checksummed file.

Two snapshot kinds cover every deployment:

* ``"document"`` — the store's serialization (via the navigation API, so
  byte-identical across all seven architectures — the conformance suite's
  proven property).  One snapshot therefore restores *any* requested
  system: recovery bulkloads the text into fresh stores.
* ``"sharded"`` — a :class:`~repro.shard.store.ShardedStore` checkpoint:
  the per-shard fragment serializations plus the global-order seeds and
  the id routing map.  Recovery reloads the fragments one after another
  and reassembles the exact pre-crash partition without re-partitioning.

Either kind records the ``lsn`` of the last commit it covers and the
digest-chain value at that point; WAL replay starts after that LSN and
chains from that digest.

Durability protocol: the JSON document is written to a sibling temp
file, fsynced, and atomically renamed into place, and then the directory
is fsynced so the rename itself is durable — a crash mid-checkpoint
leaves either the previous snapshot or the new one, never a torn file.
A CRC over the embedded document text(s) guards the content against
storage-level garbling; :func:`read_snapshot` refuses a snapshot whose
checksum disagrees (:class:`~repro.errors.RecoveryError`).
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from repro.errors import RecoveryError
from repro.storage.interface import store_document_text
from repro.storage.wal.log import fsync_directory

SNAPSHOT_FORMAT = 1

KIND_DOCUMENT = "document"
KIND_SHARDED = "sharded"


def _content_crc(snapshot: dict) -> int:
    """CRC over the text payloads (the parts JSON decoding cannot verify)."""
    crc = 0
    if snapshot["kind"] == KIND_DOCUMENT:
        crc = zlib.crc32(snapshot["document"].encode("utf-8"))
    else:
        for fragment in snapshot["fragments"]:
            crc = zlib.crc32(fragment.encode("utf-8"), crc)
    return crc


def document_snapshot(lsn: int, digest: str, document: str) -> dict:
    """A ``"document"``-kind snapshot payload."""
    return {"format": SNAPSHOT_FORMAT, "kind": KIND_DOCUMENT,
            "lsn": lsn, "digest": digest, "document": document}


def sharded_snapshot(lsn: int, digest: str, *, backends: list[str],
                     fragments: list[str],
                     extent_seqs: dict[str, list[list[int]]],
                     id_map: dict[str, list]) -> dict:
    """A ``"sharded"``-kind snapshot payload.

    ``extent_seqs`` maps ``"/".join(extent path)`` to the per-shard
    ascending global-sequence lists; ``id_map`` maps entity id to
    ``[shard, "/".join(extent path)]`` — exactly the state
    :meth:`repro.shard.store.ShardedStore.partition_state` exports.
    """
    return {"format": SNAPSHOT_FORMAT, "kind": KIND_SHARDED,
            "lsn": lsn, "digest": digest,
            "shard_count": len(fragments), "backends": list(backends),
            "fragments": list(fragments), "extent_seqs": extent_seqs,
            "id_map": id_map}


def store_snapshot(lsn: int, store, document: str | None = None) -> dict:
    """The one snapshot builder: ``store``'s state as of commit ``lsn``.

    A sharded store (anything exporting ``partition_state``) yields a
    ``"sharded"`` payload, any other store a ``"document"`` payload of
    its serialization; ``document`` short-circuits the serialization
    when the caller already holds the text (a fresh deployment's base
    snapshot).  Callers hold the connection's update lock, so ``lsn``,
    digest and content describe the same commit.
    """
    digest = store.document_digest()
    if hasattr(store, "partition_state"):
        state = store.partition_state()
        return sharded_snapshot(
            lsn, digest, backends=list(store.backends),
            fragments=store.shard_fragment_texts(),
            extent_seqs=state["extent_seqs"], id_map=state["id_map"])
    if document is None:
        document = store_document_text(store)
    return document_snapshot(lsn, digest, document)


def write_snapshot(path: str | Path, snapshot: dict) -> None:
    """Durably write one snapshot payload (temp + fsync + atomic rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    snapshot = dict(snapshot, crc=_content_crc(snapshot))
    temp = path.with_suffix(path.suffix + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, separators=(",", ":"), ensure_ascii=False)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    fsync_directory(path.parent)


def read_snapshot(path: str | Path) -> dict:
    """Load and verify one snapshot; raises
    :class:`~repro.errors.RecoveryError` on any inconsistency."""
    path = Path(path)
    try:
        snapshot = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise RecoveryError(f"snapshot {path} is missing") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RecoveryError(f"snapshot {path} is not readable: {exc}") from exc
    if snapshot.get("format") != SNAPSHOT_FORMAT:
        raise RecoveryError(
            f"snapshot {path} has unsupported format "
            f"{snapshot.get('format')!r}")
    if snapshot.get("kind") not in (KIND_DOCUMENT, KIND_SHARDED):
        raise RecoveryError(
            f"snapshot {path} has unknown kind {snapshot.get('kind')!r}")
    if snapshot.get("crc") != _content_crc(snapshot):
        raise RecoveryError(f"snapshot {path} fails its content checksum")
    return snapshot
