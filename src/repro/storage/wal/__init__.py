"""Durability: write-ahead logging, snapshots, crash-consistent recovery.

Every store architecture is load-once and memory-only; this package makes
a document lineage survive the process.  The design logs *logical* typed
update operations (the same value objects the update engine applies), not
physical pages:

* :mod:`repro.storage.wal.records` — the binary record codec:
  length-prefixed, per-record CRC, typed payloads (one commit's batch
  of operations) carrying the digest chain values the store had before
  and will have after the commit.
* :mod:`repro.storage.wal.log` — the append-only WAL file with
  fsync-on-commit, plus the torn-tail scanner recovery reads with.
* :mod:`repro.storage.wal.snapshot` — checkpoints: the store's
  serialization (byte-identical across all seven architectures, which is
  what lets one snapshot serve any deployment, sharded or not).
* :mod:`repro.storage.wal.manager` — the on-disk directory layout
  (manifest, the one WAL file, snapshots) and the commit protocol: append +
  fsync *before* the in-memory apply.
* :mod:`repro.storage.wal.recovery` — read the snapshot and the WAL
  suffix; a durable reconnect loads the snapshot's text into its
  serving stores as a cold connect would and replays the suffix over
  them through the real write path, verifying the digest chain against
  the recorded one.

The correctness contract is proved by ``tests/test_recovery.py``: a
crash at *any* byte of the WAL leaves a prefix that a reconnect
recovers to stores whose digest, serialization, and query results are
bit-identical to a never-crashed oracle at that prefix.  See
docs/DURABILITY.md.
"""

from repro.storage.wal.log import WalScan, WriteAheadLog, scan_wal
from repro.storage.wal.manager import DurabilityManager
from repro.storage.wal.records import WalRecord, decode_op, encode_op
from repro.storage.wal.recovery import Recovery, RecoveryReport
from repro.storage.wal.snapshot import read_snapshot, write_snapshot

__all__ = [
    "WalRecord", "encode_op", "decode_op",
    "WriteAheadLog", "WalScan", "scan_wal",
    "write_snapshot", "read_snapshot",
    "DurabilityManager",
    "Recovery", "RecoveryReport",
]
