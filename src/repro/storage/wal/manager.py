"""The durable directory: manifest, the WAL, snapshots, commit protocol.

On disk::

    <dir>/
      MANIFEST.json            # deployment shape + current snapshot pointer
      wal/stream-0000.wal      # the one WAL file, sharded or not
      snapshots/snap-<lsn>.json

The manifest is the recovery root: it names the shard backends
(``null`` for unsharded deployments), the base document's content
digest (the start of the digest chain — a reopened connection offering
a *different* base document is refused rather than silently forked),
and the current snapshot.  It is always replaced atomically, so
recovery sees either the pre- or post-checkpoint root, and both are
complete.  Each rename (snapshot, manifest, compacted WAL), the
``wal/`` and ``snapshots/`` directories and a new WAL file are followed
by an fsync of the directory holding the new entry: without it a power
cut could keep a manifest that names a snapshot whose rename was lost,
after compaction had dropped the records that snapshot covered.
A directory of another :data:`MANIFEST_FORMAT` (format 1 kept one WAL
file per shard) is refused with :class:`~repro.errors.RecoveryError`.

Commit protocol (the WAL invariant): :meth:`DurabilityManager.log_commit`
appends and fsyncs the record *before* the caller applies the
operations in memory.  A crash between the two
replays the record at recovery; a crash during the append leaves a torn
tail the scanner drops.  Either way the recovered state is some exact
prefix of the commit history.  Every writer holds the connection's
update lock around :meth:`log_commit` (:mod:`repro.update.commit`),
which is what makes the unlocked LSN counter here safe.

Checkpoints: :meth:`checkpoint` durably writes a new snapshot, points
the manifest at it, then compacts the WAL down to the records the
snapshot does not cover and deletes superseded snapshot files.  A crash
anywhere in that sequence recovers: the manifest flip is the commit
point, and compaction only removes what the flipped manifest proves
redundant.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import DurabilityError, RecoveryError
from repro.obs.trace import NULL_TRACER
from repro.storage.wal.log import (
    WalScan, WriteAheadLog, fsync_directory, scan_wal,
)
from repro.storage.wal.records import WalRecord
from repro.storage.wal.snapshot import read_snapshot, write_snapshot

MANIFEST_FORMAT = 2
MANIFEST_NAME = "MANIFEST.json"


def _atomic_write_json(path: Path, document: dict) -> None:
    temp = path.with_suffix(path.suffix + ".tmp")
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    fsync_directory(path.parent)


class DurabilityManager:
    """One durable directory's layout, manifest, and WAL."""

    def __init__(self, directory: str | Path, *, tracer=NULL_TRACER,
                 registry=None) -> None:
        self.directory = Path(directory)
        self._wal = WriteAheadLog(self.wal_path, tracer=tracer,
                                  registry=registry)
        self._manifest: dict | None = None
        self._next_lsn = 1
        self._closed = False

    # -- layout ------------------------------------------------------------------

    @classmethod
    def exists(cls, directory: str | Path) -> bool:
        """Is there a durable deployment rooted at ``directory``?"""
        return (Path(directory) / MANIFEST_NAME).exists()

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def wal_path(self) -> Path:
        return self.directory / "wal" / "stream-0000.wal"

    def snapshot_path(self, lsn: int) -> Path:
        return self.directory / "snapshots" / f"snap-{lsn:012d}.json"

    # -- manifest ----------------------------------------------------------------

    @property
    def manifest(self) -> dict:
        if self._manifest is None:
            self._manifest = self.read_manifest(self.directory)
        return self._manifest

    @classmethod
    def read_manifest(cls, directory: str | Path) -> dict:
        path = Path(directory) / MANIFEST_NAME
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise RecoveryError(
                f"{directory} is not a durable directory (no {MANIFEST_NAME})"
            ) from None
        except json.JSONDecodeError as exc:
            raise RecoveryError(f"manifest {path} is unreadable: {exc}") from exc
        if manifest.get("format") != MANIFEST_FORMAT:
            raise RecoveryError(
                f"manifest {path} has unsupported format "
                f"{manifest.get('format')!r}")
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        _atomic_write_json(self.manifest_path, manifest)
        self._manifest = manifest

    # -- creation ----------------------------------------------------------------

    def initialize(self, snapshot: dict) -> None:
        """Create a fresh durable directory around a base snapshot.

        The base snapshot is the loaded document at LSN 0: recovery of a
        never-written deployment is just a snapshot load.
        """
        if self.exists(self.directory):
            raise DurabilityError(
                f"{self.directory} already holds a durable deployment")
        for subdirectory in ("wal", "snapshots"):
            (self.directory / subdirectory).mkdir(parents=True, exist_ok=True)
        fsync_directory(self.directory)
        write_snapshot(self.snapshot_path(snapshot["lsn"]), snapshot)
        self._write_manifest({
            "format": MANIFEST_FORMAT,
            "base_digest": snapshot["digest"],
            "shard_backends": snapshot.get("backends"),
            "snapshot": {"lsn": snapshot["lsn"],
                         "digest": snapshot["digest"],
                         "file": self.snapshot_path(snapshot["lsn"]).name},
        })
        self._next_lsn = snapshot["lsn"] + 1

    def attach(self, report) -> None:
        """Bind to an existing directory after recovery replayed it.

        Repairs the WAL's torn tail (recovery already proved the valid
        prefix is the whole usable history) so appends never land after
        garbage, then continues the LSN sequence.
        """
        self._wal.repair()
        self._next_lsn = report.last_lsn + 1

    # -- the commit path ---------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    def log_commit(self, ops, *, prev_digest: str, digest: str) -> WalRecord:
        """Make one commit durable *before* it is applied in memory.

        ``prev_digest`` and ``digest`` are the chain values around the
        commit; recovery re-derives the chain and checks it against them.
        """
        self._require_open()
        record = WalRecord(lsn=self._next_lsn, ops=tuple(ops),
                           prev_digest=prev_digest, digest=digest)
        self._wal.append(record)
        self._next_lsn += 1
        return record

    # -- checkpoints --------------------------------------------------------------

    def checkpoint(self, snapshot: dict) -> dict:
        """Install a new snapshot and compact the WAL behind it.

        ``snapshot`` must carry ``lsn`` (the last commit it covers —
        normally :attr:`last_lsn`) and ``digest`` (the chain value
        there).  Returns a small report of what was dropped.
        """
        self._require_open()
        lsn = snapshot["lsn"]
        if lsn > self.last_lsn:
            raise DurabilityError(
                f"snapshot claims lsn {lsn} but only {self.last_lsn} "
                "commits were logged")
        write_snapshot(self.snapshot_path(lsn), snapshot)
        old_snapshot = self.manifest["snapshot"]
        manifest = dict(self.manifest)
        manifest["snapshot"] = {"lsn": lsn, "digest": snapshot["digest"],
                                "file": self.snapshot_path(lsn).name}
        self._write_manifest(manifest)     # <- the checkpoint commit point
        self._wal.close()
        scan = self._wal.repair()
        kept = [record for record in scan.records if record.lsn > lsn]
        dropped = len(scan.records) - len(kept)
        if dropped:
            self._wal.rewrite(kept)
        if old_snapshot["file"] != manifest["snapshot"]["file"]:
            old_path = self.directory / "snapshots" / old_snapshot["file"]
            old_path.unlink(missing_ok=True)
        return {"lsn": lsn, "records_dropped": dropped,
                "snapshot": manifest["snapshot"]["file"]}

    def current_snapshot(self) -> dict:
        """The manifest's snapshot payload, verified."""
        pointer = self.manifest["snapshot"]
        return read_snapshot(self.directory / "snapshots" / pointer["file"])

    # -- reading -----------------------------------------------------------------

    def scan(self) -> WalScan:
        """Scan the WAL file (used offline by recovery and tools)."""
        path = self.wal_path
        return scan_wal(path) if path.exists() else WalScan(path=str(path))

    # -- lifecycle ----------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise DurabilityError("durability manager is closed")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._wal.close()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
