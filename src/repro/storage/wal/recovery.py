"""Crash recovery: snapshot read + WAL suffix + verified replay.

A durable reconnect (``repro.connect(None, durable=dir)``) recovers
straight into the stores it will serve; nothing here builds a store of
its own.

1. **Read** — :class:`Recovery` reads the manifest (atomically replaced,
   so always whole), the snapshot it points at (checksummed; a snapshot
   that fails its CRC is refused) and the WAL, dropping a torn tail.
   The records after the snapshot must number on from its LSN without
   a gap; a log out of sequence is a :class:`~repro.errors.RecoveryError`.
2. **Load** — the serving stores load the snapshot's state: a
   ``"document"`` snapshot's text (:meth:`Recovery.document`), or, for
   a ``"sharded"`` snapshot, the exact pre-crash
   :class:`~repro.shard.store.ShardedStore` it reassembles, which a
   sharded connection of the same shape adopts instead of
   re-partitioning (any other system loads that store's text).
3. **Replay** — :meth:`Recovery.replay` commits each record through
   :meth:`repro.update.commit.WritePath.commit` over the serving stores,
   so the digest chain advances exactly as the original commit did.
   Before each record every store's digest must equal the record's
   ``prev`` digest, and after a successful apply its ``digest`` — any
   mismatch is a :class:`~repro.errors.RecoveryError`, never a silently
   different database.  A record whose apply fails deterministically
   (logged, then refused in memory too — e.g. a duplicate person id) is
   skipped, which replays the original no-op faithfully.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.errors import RecoveryError, TransactionError
from repro.obs.trace import NULL_TRACER
from repro.storage.wal.records import WalRecord
from repro.storage.wal.snapshot import KIND_SHARDED


@dataclass(slots=True)
class RecoveryReport:
    """What recovery found, dropped, replayed, and rebuilt."""

    directory: str
    digest: str | None                  # recovered digest-chain value
    snapshot_lsn: int
    snapshot_digest: str
    last_lsn: int                       # last commit in the recovered state
    replayed: int = 0                   # records applied
    skipped: int = 0                    # records whose apply no-opped again
    #: how the WAL ended when it did not end cleanly (records.TAIL_*).
    torn_tail: str | None = None
    #: the serving stores' load from the snapshot; while they load, the
    #: sharded reassembly's share (the adopted store's load report).
    load_seconds: float = 0.0
    replay_seconds: float = 0.0
    #: the reassembled sharded store (sharded snapshots only).
    sharded_store: object = None

    def summary(self) -> dict:
        """JSON-ready view (CLI, benchmarks)."""
        return {
            "directory": self.directory,
            "digest": self.digest,
            "snapshot_lsn": self.snapshot_lsn,
            "last_lsn": self.last_lsn,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "torn_tail": self.torn_tail,
            "load_seconds": round(self.load_seconds, 6),
            "replay_seconds": round(self.replay_seconds, 6),
            "sharded": self.sharded_store is not None,
        }

    def count(self, registry) -> None:
        """Add this recovery to ``registry``'s ``recovery.*`` counters."""
        registry.counter("recovery.runs_total").inc()
        registry.counter("recovery.records_replayed").inc(self.replayed)
        registry.counter("recovery.records_skipped").inc(self.skipped)
        registry.counter("recovery.torn_tails").inc(self.torn_tail is not None)


def _suffix(records, snapshot_lsn: int) -> list[WalRecord]:
    """The records the snapshot does not cover, checked to number on
    from it (a compacted WAL starts after the snapshot; one that was
    not compacted yet still holds records it covers)."""
    suffix = [record for record in records if record.lsn > snapshot_lsn]
    for expected, record in enumerate(suffix, snapshot_lsn + 1):
        if record.lsn != expected:
            raise RecoveryError(
                f"WAL out of sequence: LSN {record.lsn} where {expected} "
                "was due")
    return suffix


def _replay_record(replay, record: WalRecord,
                   report: RecoveryReport) -> None:
    _check_chain(replay.stores, record.prev_digest, f"before LSN {record.lsn}")
    try:
        replay.commit(list(record.ops))
    except TransactionError:
        # Logged, then refused in memory at the same deterministic point
        # (duplicate id, missing target): the engine re-chained the
        # digest over the applied prefix — nothing, for a single op —
        # exactly as the live database did.  The next record's prev
        # digest re-anchors verification.
        report.skipped += 1
        return
    _check_chain(replay.stores, record.digest, f"after LSN {record.lsn}")
    report.replayed += 1


def _check_chain(stores: dict, digest: str, where: str) -> None:
    for name, store in stores.items():
        if store.document_digest() != digest:
            raise RecoveryError(
                f"digest chain broken {where}: system {name} at "
                f"{store.document_digest()!r}, the log at {digest!r}")


class Recovery:
    """A durable directory's snapshot, WAL suffix and report, read
    before anything loads."""

    def __init__(self, manager) -> None:
        self.snapshot = snapshot = manager.current_snapshot()
        scan = manager.scan()
        self.records = _suffix(scan.records, snapshot["lsn"])
        self.report = RecoveryReport(
            directory=str(manager.directory),
            digest=snapshot["digest"],
            snapshot_lsn=snapshot["lsn"],
            snapshot_digest=snapshot["digest"],
            last_lsn=(self.records[-1].lsn if self.records
                      else snapshot["lsn"]),
            torn_tail=None if scan.clean else scan.tail,
        )

    def document(self) -> str | None:
        """A ``"document"`` snapshot's text.  A sharded snapshot has
        none: its exact pre-crash store is reassembled into
        :attr:`RecoveryReport.sharded_store` instead, for the
        connection's loader to adopt."""
        snapshot = self.snapshot
        if snapshot["kind"] != KIND_SHARDED:
            return snapshot["document"]
        from repro.shard.partition import restore_partition
        from repro.shard.store import ShardedStore
        started = time.perf_counter()
        partition = restore_partition(
            snapshot["fragments"], snapshot["extent_seqs"],
            snapshot["id_map"])
        store = ShardedStore(partition.shard_count, snapshot["backends"])
        store.load_partition(partition)
        self.report.sharded_store = store
        self.report.load_seconds = time.perf_counter() - started
        return None

    def replay(self, stores: dict, *, tracer=NULL_TRACER) -> None:
        """Replay the WAL suffix over ``stores``, loaded at the
        snapshot's state, from the snapshot's chain value on."""
        from repro.update.commit import WritePath
        report = self.report
        for store in stores.values():
            store.restore_digest(self.snapshot["digest"])
        # The live write path, minus what a connection not yet serving
        # has no use for: no lock, no readers, no WAL.
        replay = WritePath(stores, nullcontext(), source="recovery")
        with tracer.span("recovery.replay", records=len(self.records)) as span:
            started = time.perf_counter()
            for record in self.records:
                _replay_record(replay, record, report)
            report.replay_seconds = time.perf_counter() - started
            span.set(replayed=report.replayed, skipped=report.skipped,
                     torn_tail=report.torn_tail)
        report.digest = next(iter(stores.values())).document_digest()
        if report.sharded_store not in stores.values():
            report.sharded_store = None     # reassembled, not adopted
