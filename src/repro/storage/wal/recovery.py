"""Crash recovery: snapshot load + WAL-suffix replay + digest verification.

:func:`recover` rebuilds the durable directory's document lineage:

1. **Root** — read the manifest (atomically replaced, so always whole)
   and the snapshot it points at (checksummed; a snapshot that fails its
   CRC is refused).
2. **Scan** — read every WAL stream, dropping torn tails.  The surviving
   records of all streams merge by LSN into one totally-ordered logical
   log; the merged history is cut at the first missing LSN, because a
   commit that is not durable invalidates everything logged after it
   (with serial writers that only happens when a *middle* of a stream
   was damaged — a tail torn by a crash is always the globally last
   commit).
3. **Load** — a ``"document"`` snapshot bulkloads into a scratch store
   of the requested backend; a ``"sharded"`` snapshot reassembles the
   exact pre-crash :class:`~repro.shard.store.ShardedStore` from its
   fragments, one after another.
4. **Replay** — each record is committed through
   :meth:`repro.update.commit.WritePath.commit`, the live write path,
   so the digest chain advances exactly as the original commit did:
   over the op token for ``"op"`` records, once over the batch token
   for ``"txn"`` records.  Before
   each record the store's digest must equal the record's ``prev``
   digest, and after a successful apply it must equal the record's
   ``digest`` — any mismatch is a :class:`~repro.errors.RecoveryError`,
   never a silently different database.  A record whose apply fails
   deterministically (the op was logged but refused in memory too —
   e.g. a duplicate person id) is skipped, which replays the original
   no-op faithfully.

The result carries the recovered serialization (loadable into any of
the seven architectures), the recovered digest-chain value, and — for
sharded deployments — the live reassembled store.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.errors import RecoveryError
from repro.obs.trace import NULL_TRACER
from repro.storage.wal.manager import DurabilityManager
from repro.storage.wal.records import WalRecord
from repro.storage.wal.snapshot import KIND_SHARDED

#: Default scratch backend for replay: System F, the cheapest loader.
DEFAULT_REPLAY_BACKEND = "F"


@dataclass(slots=True)
class RecoveryReport:
    """What recovery found, dropped, replayed, and rebuilt."""

    directory: str
    document: str                       # recovered serialization
    digest: str | None                  # recovered digest-chain value
    snapshot_lsn: int
    snapshot_digest: str
    last_lsn: int                       # last commit in the recovered state
    replayed: int = 0                   # records applied
    skipped: int = 0                    # records whose apply no-opped again
    #: stream index -> tail classification, for streams that did not end
    #: cleanly (see records.TAIL_*).
    torn_tails: dict[int, str] = field(default_factory=dict)
    #: records dropped because an earlier LSN was missing (mid-log damage).
    dropped_after_gap: int = 0
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
            "torn_tails": {str(k): v for k, v in self.torn_tails.items()},
            "dropped_after_gap": self.dropped_after_gap,
            "load_seconds": round(self.load_seconds, 6),
            "replay_seconds": round(self.replay_seconds, 6),
            "sharded": self.sharded_store is not None,
        }


def _merge_streams(scans, snapshot_lsn: int):
    """Merge per-stream records into one contiguous LSN-ordered history."""
    merged: dict[int, WalRecord] = {}
    for scan in scans:
        for record in scan.records:
            if record.lsn <= snapshot_lsn:
                continue
            if record.lsn in merged:
                raise RecoveryError(
                    f"duplicate LSN {record.lsn} across WAL streams")
            merged[record.lsn] = record
    ordered: list[WalRecord] = []
    expected = snapshot_lsn + 1
    while expected in merged:
        ordered.append(merged.pop(expected))
        expected += 1
    return ordered, len(merged)         # records beyond the first gap


def _load_snapshot_store(snapshot: dict, manifest: dict, backend: str):
    """A loaded store holding the snapshot state, digest restored."""
    from repro.benchmark.systems import make_store
    if snapshot["kind"] == KIND_SHARDED:
        from repro.shard.partition import restore_partition
        from repro.shard.store import ShardedStore
        backends = tuple(snapshot.get("backends")
                         or manifest.get("shard_backends") or ("F",))
        partition = restore_partition(
            snapshot["fragments"], snapshot["extent_seqs"],
            snapshot["id_map"])
        store = ShardedStore(partition.shard_count, backends)
        store.load_partition(partition)
    else:
        store = make_store(backend)
        store.load(snapshot["document"])
    store.restore_digest(snapshot["digest"])
    return store


def _replay_record(replay, store, record: WalRecord,
                   report: RecoveryReport) -> None:
    from repro.errors import TransactionError
    if store.document_digest() != record.prev_digest:
        raise RecoveryError(
            f"digest chain broken before LSN {record.lsn}: store at "
            f"{store.document_digest()!r}, record expects "
            f"{record.prev_digest!r}")
    try:
        replay.commit(list(record.ops), record.kind)
    except TransactionError:
        # Logged, then refused in memory at the same deterministic point
        # (duplicate id, missing target): the engine re-chained the
        # digest over the applied prefix — nothing, for a single op —
        # exactly as the live database did.  The next record's prev
        # digest re-anchors verification.
        report.skipped += 1
        return
    if store.document_digest() != record.digest:
        raise RecoveryError(
            f"digest chain broken after LSN {record.lsn}: store at "
            f"{store.document_digest()!r}, record claims {record.digest!r}")
    report.replayed += 1


def recover(directory, *, backend: str = DEFAULT_REPLAY_BACKEND,
            tracer=NULL_TRACER, registry=None) -> RecoveryReport:
    """Rebuild the durable directory's state; see the module docstring.

    ``backend`` picks the scratch architecture for replaying a
    ``"document"`` snapshot (any letter works — serializations are
    byte-identical); sharded snapshots replay on the reassembled
    :class:`~repro.shard.store.ShardedStore` itself.
    """
    from repro.storage.interface import store_document_text
    from repro.update.commit import WritePath
    manifest = DurabilityManager.read_manifest(directory)
    manager = DurabilityManager(directory)
    snapshot_pointer = manifest["snapshot"]
    with tracer.span("recovery.load_snapshot", lsn=snapshot_pointer["lsn"]):
        snapshot = manager.current_snapshot()
        started = time.perf_counter()
        store = _load_snapshot_store(snapshot, manifest, backend)
        load_seconds = time.perf_counter() - started

    scans = manager.scan_streams()
    records, beyond_gap = _merge_streams(scans, snapshot["lsn"])
    report = RecoveryReport(
        directory=str(directory),
        document="",
        digest=snapshot["digest"],
        snapshot_lsn=snapshot["lsn"],
        snapshot_digest=snapshot["digest"],
        last_lsn=records[-1].lsn if records else snapshot["lsn"],
        torn_tails={index: scan.tail for index, scan in enumerate(scans)
                    if not scan.clean},
        dropped_after_gap=beyond_gap,
        load_seconds=load_seconds,
    )
    # The live write path, minus everything a scratch store has no use
    # for: no lock (recovery owns the store), no readers, no WAL.
    replay = WritePath({"recover": store}, nullcontext(), source="recovery")
    with tracer.span("recovery.replay", records=len(records)) as span:
        started = time.perf_counter()
        for record in records:
            _replay_record(replay, store, record, report)
        report.replay_seconds = time.perf_counter() - started
        span.set(replayed=report.replayed, skipped=report.skipped,
                 torn_streams=len(report.torn_tails))
    report.digest = store.document_digest()
    report.document = store_document_text(store)
    if snapshot["kind"] == KIND_SHARDED:
        report.sharded_store = store
    if registry is not None:
        registry.counter("recovery.runs_total").inc()
        registry.counter("recovery.records_replayed").inc(report.replayed)
        registry.counter("recovery.records_skipped").inc(report.skipped)
        registry.counter("recovery.torn_tails").inc(len(report.torn_tails))
        registry.counter("recovery.dropped_after_gap").inc(
            report.dropped_after_gap)
    return report
