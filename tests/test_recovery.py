"""Durability: WAL, snapshots, and crash-consistent recovery.

The proof obligations, in roughly the order the module asserts them:

* **Codec** — WAL records round-trip every typed operation exactly.
* **Clean recovery** — snapshot + full WAL replay reproduces the live
  store bit-for-bit (digest chain, serialization, and Q1-Q20 results)
  on every one of the seven architectures.
* **Crash matrix** (tests/faultinject.py) — for every record boundary
  and every mid-record offset class (torn header, torn payload, garbled
  magic/length/crc/payload), recovery yields *exactly* the surviving
  commit prefix: a half-record is dropped, never applied, and nothing
  logged after damage survives.
* **Sharded deployments** — a 6-shard store logs to the one WAL file an
  unsharded one does, and damage at any point of it cuts the history at
  exactly the damaged commit; a 2- and a 6-shard connection write that
  one file, and a directory of the old per-shard layout is refused.
* **The facade** — ``repro.connect(durable=dir)`` logs every commit
  before applying it, reconnects by loading the snapshot into its
  serving stores (each once) and replaying the WAL over them, refuses
  forked base documents, checkpoints through ``Database.checkpoint`` and
  the ``xmark recover`` / ``xmark checkpoint`` commands, and mirrors
  deterministic failures (refused ops, aborted transactions) exactly
  through replay.

Every recovery here is a durable reconnect, on a copy of the crash image
where the image is shared (``faultinject.reconnect``): a reconnect
truncates torn tails.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import faultinject
import repro.benchmark.systems as systems_module
from repro.benchmark.queries import QUERIES, query_text
from repro.benchmark.systems import SYSTEMS, get_profile, make_store
from repro.db import connect
from repro.errors import (
    DurabilityError, RecoveryError, TransactionError, XMarkError,
)
from repro.shard.store import ShardedStore
from repro.storage.interface import chain_digest, store_document_text
from repro.storage.wal import (
    DurabilityManager, WalRecord, WriteAheadLog, decode_op, encode_op,
    scan_wal,
)
from repro.storage.wal.snapshot import (
    document_snapshot, read_snapshot, sharded_snapshot, write_snapshot,
)
from repro.update.engine import apply_update
from repro.update.ops import (
    CloseAuction, DeleteItem, PlaceBid, RegisterPerson, transaction_token,
)
from repro.update.stream import UpdateStream
from repro.xmlio.parser import parse
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import compile_query

OPS_IN_HISTORY = 8


def _commit_one(store, op) -> None:
    """Apply ``op`` as a one-op commit: the digest advances once, over
    the batch token, as a connection's write path advances it."""
    apply_update(store, op, advance_digest=False)
    store.advance_digest(transaction_token([op]))


def _oracle_history(store, *, seed: int, count: int = OPS_IN_HISTORY):
    """Commit ``count`` generated ops; record state after every prefix."""
    stream = UpdateStream(store, seed=seed)
    ops = []
    states = [(store.document_digest(), store_document_text(store))]
    for _ in range(count):
        op = stream.next_op()
        stream.note_applied(op)
        _commit_one(store, op)
        ops.append(op)
        states.append((store.document_digest(), store_document_text(store)))
    return ops, states


@pytest.fixture(scope="module")
def history(tiny_text):
    """The no-crash oracle: the op sequence and every prefix state."""
    store = make_store("F")
    store.load(tiny_text)
    ops, states = _oracle_history(store, seed=417)
    return SimpleNamespace(base=tiny_text, ops=ops, states=states)


@pytest.fixture(scope="module")
def durable_dir(history, tmp_path_factory):
    """A pristine deployment holding the whole history."""
    directory = tmp_path_factory.mktemp("durable") / "deploy"
    manager = DurabilityManager(directory)
    base_digest, base_document = history.states[0]
    manager.initialize(document_snapshot(0, base_digest, base_document))
    for index, op in enumerate(history.ops):
        manager.log_commit([op], prev_digest=history.states[index][0],
                           digest=history.states[index + 1][0])
    manager.close()
    return directory


@pytest.fixture(scope="module")
def oracle_results(history):
    """Q1-Q20 on the never-crashed final document (System F)."""
    store = make_store("F")
    store.load(history.states[-1][1])
    return {
        number: evaluate(compile_query(
            query_text(number), store, get_profile("F"))).serialize()
        for number in sorted(QUERIES)
    }


# -- the record codec --------------------------------------------------------------


class TestWalCodec:
    def test_every_op_kind_round_trips(self):
        person = parse(
            '<person id="personX"><name>Crash Test</name>'
            '<emailaddress>mailto:x@y.edu</emailaddress></person>').root
        ops = (
            RegisterPerson(person),
            PlaceBid("open_auction1", "person2", 4.5, "08/08/2026",
                     "10:00:00"),
            CloseAuction("open_auction3", "08/08/2026"),
            DeleteItem("item7"),
        )
        for op in ops:
            assert decode_op(encode_op(op)).token() == op.token()

    def test_record_encode_decode(self):
        record = WalRecord(lsn=9,
                           ops=(DeleteItem("item1"), DeleteItem("item2")),
                           prev_digest="aa", digest="bb")
        (offset, decoded), (end, tail) = list(
            faultinject.iter_records(record.encode()))
        assert offset == 0 and decoded == record
        assert tail == "clean" and end == len(record.encode())

    def test_every_append_is_fsynced(self, tmp_path):
        log = WriteAheadLog(tmp_path / "s.wal")
        for lsn in range(1, 9):
            log.append(WalRecord(lsn=lsn, ops=(DeleteItem(f"item{lsn}"),),
                                 prev_digest="p", digest="d"))
            assert log.fsyncs == lsn
        log.close()
        assert log.fsyncs == 8          # close adds none
        scan = scan_wal(tmp_path / "s.wal")
        assert scan.clean and len(scan.records) == 8

    def test_snapshot_crc_guards_content(self, tmp_path):
        path = tmp_path / "snap.json"
        write_snapshot(path, document_snapshot(3, "dg", "<site></site>"))
        assert read_snapshot(path)["lsn"] == 3
        payload = json.loads(path.read_text())
        payload["document"] = "<site><tampered/></site>"
        path.write_text(json.dumps(payload))
        with pytest.raises(RecoveryError):
            read_snapshot(path)


# -- clean recovery on every architecture ------------------------------------------


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_clean_recovery_matches_oracle_everywhere(
        system, durable_dir, history, oracle_results, tmp_path):
    """Replay on each of the seven architectures' serving stores: digest
    chain, serialization, and all twenty query results equal the oracle."""
    with faultinject.reconnect(durable_dir, tmp_path / "image",
                               systems=(system,)) as db:
        report = db.recovery
        digest, document = history.states[-1]
        assert report.replayed == len(history.ops)
        assert report.skipped == 0 and report.torn_tail is None
        assert report.digest == digest
        assert db.document_digest(system) == digest
        store = db.store(system)
        assert store_document_text(store) == document
        for number in sorted(QUERIES):
            result = evaluate(compile_query(
                query_text(number), store, get_profile(system))).serialize()
            assert result == oracle_results[number], f"Q{number} diverged"


# -- the crash matrix --------------------------------------------------------------


def test_crash_matrix_every_boundary_and_offset_class(
        durable_dir, history, tmp_path):
    """Damage the WAL at every enumerated point; recovery must produce
    exactly the surviving prefix — digest and serialization both."""
    stream_file = durable_dir / "wal" / "stream-0000.wal"
    points = faultinject.crash_points(stream_file.read_bytes())
    labels = {point.label for point in points}
    assert labels == set(faultinject.EXPECTED_TAILS)
    assert len(points) == len(labels) * len(history.ops)
    for point in points:
        crashed = tmp_path / f"{point.label}-{point.offset}"
        shutil.copytree(durable_dir, crashed)
        faultinject.apply_crash(
            crashed / "wal" / "stream-0000.wal", point)
        with connect(None, systems=("F",), durable=str(crashed)) as db:
            report = db.recovery
            document_text = store_document_text(db.store("F"))
        digest, document = history.states[point.survivors]
        where = f"{point.label}@{point.offset}"
        assert report.replayed == point.survivors, where
        assert report.digest == digest, where
        assert document_text == document, where
        if point.label == faultinject.BOUNDARY:
            assert report.torn_tail is None, where
        else:
            assert (report.torn_tail
                    in faultinject.EXPECTED_TAILS[point.label]), where


def test_tampered_snapshot_is_refused(durable_dir, tmp_path):
    crashed = tmp_path / "snap-tamper"
    shutil.copytree(durable_dir, crashed)
    snapshot = crashed / "snapshots" / "snap-000000000000.json"
    payload = json.loads(snapshot.read_text())
    payload["document"] = payload["document"].replace("person0", "personX", 1)
    snapshot.write_text(json.dumps(payload))
    with pytest.raises(RecoveryError):
        connect(None, systems=("F",), durable=str(crashed))


def test_recover_refuses_non_durable_directory(tmp_path):
    with pytest.raises(DurabilityError):
        connect(None, systems=("F",), durable=str(tmp_path))


def test_renames_and_new_files_reach_their_directory(history, tmp_path,
                                                     monkeypatch):
    """In ``initialize()`` and ``checkpoint()`` every renamed file is
    fsynced, then renamed, and then its directory is the next thing
    fsynced; the new ``wal/`` and ``snapshots/`` entries and the first
    WAL file reach their directories the same way."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def identity(path) -> tuple[int, int]:
        info = os.stat(path)
        return info.st_dev, info.st_ino

    def fsync(descriptor):
        info = os.fstat(descriptor)
        events.append(("fsync", (info.st_dev, info.st_ino)))
        real_fsync(descriptor)

    def replace(source, target):
        events.append(("replace", identity(source), Path(target)))
        real_replace(source, target)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    directory = tmp_path / "deploy"
    manager = DurabilityManager(directory)
    base_digest, base_document = history.states[0]
    manager.initialize(document_snapshot(0, base_digest, base_document))
    for index, op in enumerate(history.ops[:3]):
        manager.log_commit([op], prev_digest=history.states[index][0],
                           digest=history.states[index + 1][0])
    digest, document = history.states[3]
    manager.checkpoint(document_snapshot(3, digest, document))
    manager.close()

    renames = [at for at, event in enumerate(events) if event[0] == "replace"]
    # Base snapshot, manifest; then snapshot, manifest, compacted WAL.
    assert [events[at][2].name for at in renames] == [
        "snap-000000000000.json", "MANIFEST.json", "snap-000000000003.json",
        "MANIFEST.json", "stream-0000.wal"]
    for at in renames:
        _, renamed, target = events[at]
        assert ("fsync", renamed) in events[:at], target
        following = next(event for event in events[at + 1:] if event[0] == "fsync")
        assert following == ("fsync", identity(target.parent)), target
    assert ("fsync", identity(directory)) in events[:renames[0]]
    # Between set-up and checkpoint: the commits, the first one creating
    # the WAL file.
    assert ("fsync", identity(directory / "wal")) in events[renames[1]:renames[2]]


# -- sharded deployments: the one WAL ---------------------------------------------

SHARD_COUNT = 6
SHARD_BACKENDS = ("F", "A", "D")


@pytest.fixture(scope="module")
def sharded_history(tiny_text, tmp_path_factory):
    """A 6-shard deployment whose commits all log to the one WAL."""
    store = ShardedStore(SHARD_COUNT, SHARD_BACKENDS)
    store.load(tiny_text)
    directory = tmp_path_factory.mktemp("sharded") / "deploy"
    manager = DurabilityManager(directory)
    state = store.partition_state()
    manager.initialize(
        sharded_snapshot(0, store.document_digest(),
                         backends=list(store.backends),
                         fragments=store.shard_fragment_texts(),
                         extent_seqs=state["extent_seqs"],
                         id_map=state["id_map"]))
    stream = UpdateStream(store, seed=829)
    states = [(store.document_digest(), store_document_text(store))]
    for _ in range(10):
        op = stream.next_op()
        stream.note_applied(op)
        prev = store.document_digest()
        manager.log_commit([op], prev_digest=prev,
                           digest=chain_digest(prev, transaction_token([op])))
        _commit_one(store, op)
        states.append((store.document_digest(), store_document_text(store)))
    manager.close()
    return SimpleNamespace(directory=directory, states=states,
                           store=store)


def test_sharded_clean_recovery_reassembles_the_partition(sharded_history,
                                                          tmp_path):
    with faultinject.reconnect(sharded_history.directory, tmp_path / "image",
                               systems=(), shards=SHARD_COUNT,
                               backends=SHARD_BACKENDS) as db:
        report = db.recovery
        digest, document = sharded_history.states[-1]
        assert report.digest == digest
        assert store_document_text(db.store("S")) == document
        recovered = report.sharded_store
        assert recovered is not None and recovered is db.store("S")
        assert recovered.shard_count == SHARD_COUNT
        assert store_document_text(recovered) == document
        # the reassembled partition places every entity where the live
        # one did
        assert (recovered.partition_state()
                == sharded_history.store.partition_state())


def test_sharded_crash_matrix_every_boundary_and_offset_class(
        sharded_history, tmp_path):
    """Damage the sharded deployment's one WAL at every enumerated
    point: the reconnect reassembles the partition and replays exactly
    the surviving prefix."""
    wal_dir = sharded_history.directory / "wal"
    assert [path.name for path in wal_dir.iterdir()] == ["stream-0000.wal"]
    stream_file = wal_dir / "stream-0000.wal"
    assert [record.lsn for record in scan_wal(stream_file).records] == \
        list(range(1, 11))
    points = faultinject.crash_points(stream_file.read_bytes())
    labels = {point.label for point in points}
    assert labels == set(faultinject.EXPECTED_TAILS)
    assert len(points) == len(labels) * 10
    for point in points:
        crashed = tmp_path / f"{point.label}-{point.offset}"
        shutil.copytree(sharded_history.directory, crashed)
        faultinject.apply_crash(crashed / "wal" / "stream-0000.wal", point)
        with connect(None, systems=(), shards=SHARD_COUNT,
                     backends=SHARD_BACKENDS, durable=str(crashed)) as db:
            report = db.recovery
            document_text = store_document_text(db.store("S"))
        shutil.rmtree(crashed)
        digest, document = sharded_history.states[point.survivors]
        where = f"{point.label}@{point.offset}"
        assert report.replayed == point.survivors, where
        assert report.last_lsn == point.survivors, where
        assert report.digest == digest, where
        assert document_text == document, where
        assert report.sharded_store is not None, where
        if point.label == faultinject.BOUNDARY:
            assert report.torn_tail is None, where
        else:
            assert (report.torn_tail
                    in faultinject.EXPECTED_TAILS[point.label]), where


@pytest.mark.parametrize("shards", [2, 6])
def test_a_sharded_deployment_writes_one_wal_file(tiny_text, tmp_path,
                                                  shards):
    """Commits on a service connection, a checkpoint, a reconnect and
    more commits: one WAL file throughout, and a manifest that names no
    stream count."""
    directory = tmp_path / "d"
    with connect(tiny_text, systems=("F",), shards=shards, service=True,
                 durable=str(directory)) as db:
        _commit(db, "S", 4, seed=shards)
        db.checkpoint()
        _commit(db, "S", 2, seed=shards + 1)
        digest = db.document_digest()
    with connect(None, systems=("F",), shards=shards,
                 durable=str(directory)) as db2:
        assert db2.recovery.replayed == 2
        assert db2.document_digest() == digest
        _commit(db2, "S", 3, seed=shards + 2)
    assert [path.name for path in (directory / "wal").iterdir()] == [
        "stream-0000.wal"]
    manifest = DurabilityManager.read_manifest(directory)
    assert manifest["format"] == 2 and "streams" not in manifest
    assert len(scan_wal(directory / "wal" / "stream-0000.wal").records) == 5


def test_a_wal_out_of_sequence_is_refused(history, tmp_path):
    """Records after the snapshot must number on from it: a repeated
    LSN (an append whose fsync failed, then the next commit) refuses the
    reconnect instead of replaying either record."""
    manager = DurabilityManager(tmp_path / "d")
    base_digest, base_document = history.states[0]
    manager.initialize(document_snapshot(0, base_digest, base_document))
    manager.close()
    with WriteAheadLog(manager.wal_path) as log:
        for op in history.ops[:2]:
            log.append(WalRecord(lsn=1, ops=(op,), prev_digest=base_digest,
                                 digest=history.states[1][0]))
    with pytest.raises(RecoveryError, match="LSN 1 where 2 was due"):
        connect(None, systems=("F",), durable=str(tmp_path / "d"))


def test_a_format_1_directory_is_refused(tiny_text, tmp_path):
    """Format 1 kept one WAL file per shard; its directories are refused
    with the typed recovery error, before anything loads."""
    directory = tmp_path / "d"
    connect(tiny_text, systems=("F",), durable=str(directory)).close()
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    manifest.update(format=1, streams=1)
    (directory / "MANIFEST.json").write_text(json.dumps(manifest))
    with pytest.raises(RecoveryError, match="unsupported format 1"):
        connect(None, systems=("F",), durable=str(directory))


# -- the facade: connect(durable=...) ----------------------------------------------


class TestDurableConnection:
    def test_fresh_write_close_reconnect(self, tiny_text, tmp_path):
        db = connect(tiny_text, systems=("F",), durable=str(tmp_path / "d"))
        stream = UpdateStream(db.store("F"), seed=5)
        for _ in range(3):
            op = stream.next_op()
            stream.note_applied(op)
            db.apply_transaction([op])
        digest = db.document_digest("F")
        document = store_document_text(db.store("F"))
        rows = db.execute("F", 8, stream=False).fetchall()
        db.close()

        db2 = connect(None, systems=("F",), durable=str(tmp_path / "d"))
        try:
            assert db2.recovery is not None
            assert db2.recovery.replayed == 3
            assert db2.document_digest("F") == digest
            assert store_document_text(db2.store("F")) == document
            assert len(db2.execute("F", 8, stream=False).fetchall()) == len(rows)
        finally:
            db2.close()

    def test_commit_is_durable_before_apply(self, tiny_text, tmp_path):
        """The WAL holds the commit even if the process dies right after
        log_commit returned — the stream already carries the record."""
        db = connect(tiny_text, systems=("F",), durable=str(tmp_path / "d"))
        stream = UpdateStream(db.store("F"), seed=5)
        op = stream.next_op()
        db.apply_transaction([op])
        scan = scan_wal(tmp_path / "d" / "wal" / "stream-0000.wal")
        db.close()
        assert scan.clean and scan.last_lsn() == 1
        assert scan.records[0].ops[0].token() == op.token()

    def test_reconnect_refuses_forked_base_document(self, tiny_text,
                                                    small_text, tmp_path):
        connect(tiny_text, systems=("F",), durable=str(tmp_path / "d")).close()
        with pytest.raises(DurabilityError):
            connect(small_text, systems=("F",), durable=str(tmp_path / "d"))
        # the original base document reattaches fine
        connect(tiny_text, systems=("F",), durable=str(tmp_path / "d")).close()

    def test_every_commit_is_one_fsync(self, tiny_text, tmp_path):
        db = connect(tiny_text, systems=("F",), durable=str(tmp_path / "d"))
        try:
            stream = UpdateStream(db.store("F"), seed=5)
            for _ in range(3):
                op = stream.next_op()
                stream.note_applied(op)
                db.apply_transaction([op])
            counter = db.registry.counter
            assert counter("wal.records_total", stream="0").value == 3
            assert counter("wal.fsyncs_total", stream="0").value == 3
        finally:
            db.close()

    def test_unknown_sync_mode_is_refused_before_any_write(self, tiny_text,
                                                            tmp_path):
        directory = tmp_path / "d"
        with pytest.raises(DurabilityError, match="sync"):
            connect(tiny_text, systems=("F",), durable=str(directory),
                    sync="bogus")
        assert not directory.exists() or not any(directory.iterdir())

    def test_document_required_without_durable_state(self, tmp_path):
        from repro.errors import BenchmarkError
        with pytest.raises(BenchmarkError):
            connect(None, systems=("F",))
        with pytest.raises(DurabilityError):
            connect(None, systems=("F",), durable=str(tmp_path / "empty"))

    def test_checkpoint_compacts_and_recovers(self, tiny_text, tmp_path):
        db = connect(tiny_text, systems=("F",), durable=str(tmp_path / "d"))
        stream = UpdateStream(db.store("F"), seed=5)
        for _ in range(4):
            op = stream.next_op()
            stream.note_applied(op)
            db.apply_transaction([op])
        outcome = db.checkpoint()
        assert outcome["lsn"] == 4 and outcome["records_dropped"] == 4
        op = stream.next_op()
        db.apply_transaction([op])
        digest = db.document_digest("F")
        db.close()

        with faultinject.reconnect(tmp_path / "d", tmp_path / "image") as db2:
            report = db2.recovery
            assert report.snapshot_lsn == 4
            assert report.replayed == 1     # only the post-checkpoint commit
            assert report.digest == digest

    def test_checkpoint_requires_durability(self, tiny_text):
        db = connect(tiny_text, systems=("F",))
        try:
            with pytest.raises(DurabilityError):
                db.checkpoint()
        finally:
            db.close()

    def test_aborted_transaction_replays_to_the_same_state(
            self, tiny_text, tmp_path):
        """A txn that fails mid-batch is logged, partially applied, and
        digest-re-chained — recovery must mirror all three."""
        db = connect(tiny_text, systems=("F",), durable=str(tmp_path / "d"))
        stream = UpdateStream(db.store("F"), seed=5)
        good = stream.next_op()
        with pytest.raises(TransactionError):
            db.apply_transaction([good, DeleteItem("no-such-item")])
        digest = db.document_digest("F")
        document = store_document_text(db.store("F"))
        db.close()

        with faultinject.reconnect(tmp_path / "d", tmp_path / "image") as db2:
            report = db2.recovery
            assert report.skipped == 1 and report.replayed == 0
            assert report.digest == digest
            assert store_document_text(db2.store("F")) == document

    def test_torn_tail_is_repaired_on_reconnect(self, tiny_text, tmp_path):
        db = connect(tiny_text, systems=("F",), durable=str(tmp_path / "d"))
        stream = UpdateStream(db.store("F"), seed=5)
        for _ in range(2):
            op = stream.next_op()
            stream.note_applied(op)
            db.apply_transaction([op])
        db.close()
        stream_file = tmp_path / "d" / "wal" / "stream-0000.wal"
        data = stream_file.read_bytes()
        stream_file.write_bytes(data[:-7])      # tear the last record

        db2 = connect(None, systems=("F",), durable=str(tmp_path / "d"))
        try:
            assert db2.recovery.replayed == 1
            assert db2.recovery.torn_tail == "torn-payload"
            # the tail was truncated; new commits append after clean bytes
            stream2 = UpdateStream(db2.store("F"), seed=99)
            op = stream2.next_op()
            db2.apply_transaction([op])
            digest = db2.document_digest("F")
        finally:
            db2.close()
        with faultinject.reconnect(tmp_path / "d", tmp_path / "image") as db3:
            assert db3.recovery.torn_tail is None
            assert db3.recovery.digest == digest

    def test_sharded_connection_adopts_recovered_partition(
            self, tiny_text, tmp_path):
        db = connect(tiny_text, systems=(), shards=3, backends=("F", "A"),
                     durable=str(tmp_path / "d"))
        stream = UpdateStream(db.store("S"), seed=7)
        for _ in range(4):
            op = stream.next_op()
            stream.note_applied(op)
            db.apply_transaction([op])
        digest = db.document_digest("S")
        document = store_document_text(db.store("S"))
        db.close()

        db2 = connect(None, systems=(), shards=3, backends=("F", "A"),
                      durable=str(tmp_path / "d"))
        try:
            assert db2.store("S") is db2.recovery.sharded_store
            assert db2.document_digest("S") == digest
            assert store_document_text(db2.store("S")) == document
            rows = db2.execute("S", 13, stream=False).fetchall()
            assert rows is not None
        finally:
            db2.close()

    def test_service_connection_logs_and_recovers(self, tiny_text, tmp_path):
        db = connect(tiny_text, systems=("F",), service=True,
                     durable=str(tmp_path / "d"))
        stream = UpdateStream(db.store("F"), seed=7)
        op = stream.next_op()
        stream.note_applied(op)
        db.apply_transaction([op])
        op2 = stream.next_op()
        db.session().transaction().apply(op2).commit()
        digest = db.document_digest("F")
        db.close()
        records = scan_wal(tmp_path / "d" / "wal" / "stream-0000.wal").records
        assert [r.ops[0].token() for r in records] == [op.token(),
                                                        op2.token()]

        db2 = connect(None, systems=("F",), service=True,
                      durable=str(tmp_path / "d"))
        try:
            assert db2.recovery.replayed == 2
            assert db2.document_digest("F") == digest
        finally:
            db2.close()

    def test_wal_metrics_and_counters(self, tiny_text, tmp_path):
        db = connect(tiny_text, systems=("F",), durable=str(tmp_path / "d"))
        stream = UpdateStream(db.store("F"), seed=5)
        op = stream.next_op()
        db.apply_transaction([op])
        exported = db.registry.snapshot()
        db.close()
        counters = exported["counters"]
        assert counters.get('wal.records_total{stream="0"}') == 1
        assert counters.get('wal.fsyncs_total{stream="0"}') == 1


# -- a reconnect replays into its serving stores ------------------------------------


def _commit(db, system: str, count: int, *, seed: int) -> None:
    stream = UpdateStream(db.store(system), seed=seed)
    for _ in range(count):
        op = stream.next_op()
        stream.note_applied(op)
        db.apply_transaction([op])


class TestReplayIntoServingStores:
    @pytest.mark.parametrize("service", [False, True],
                             ids=["direct", "service"])
    def test_recovery_counters_reach_the_registry(self, tiny_text, tmp_path,
                                                  service):
        with connect(tiny_text, systems=("F",),
                     durable=str(tmp_path / "d")) as db:
            _commit(db, "F", 3, seed=5)
        with connect(None, systems=("F",), service=service,
                     durable=str(tmp_path / "d")) as db2:
            counters = db2.registry.snapshot()["counters"]
        assert counters["recovery.runs_total"] == 1
        assert counters["recovery.records_replayed"] == 3
        assert counters["recovery.records_skipped"] == 0

    def test_every_serving_store_replays_a_refused_transaction(
            self, tiny_text, tmp_path):
        """D and B replay one history, a transaction refused part-way
        included: both end on the live digest and serialization."""
        with connect(tiny_text, systems=("D", "B"),
                     durable=str(tmp_path / "d")) as live:
            _commit(live, "D", 2, seed=11)
            good = UpdateStream(live.store("D"), seed=12).next_op()
            with pytest.raises(TransactionError):
                live.apply_transaction([good, DeleteItem("no-such-item")])
            _commit(live, "D", 2, seed=13)
            digest = live.document_digest("D")
            documents = {name: store_document_text(live.store(name))
                         for name in ("D", "B")}
            # every commit is fsynced: a copy now is a crash image
            shutil.copytree(tmp_path / "d", tmp_path / "image")
        with connect(None, systems=("D", "B"),
                     durable=str(tmp_path / "image")) as db:
            assert db.recovery.skipped == 1 and db.recovery.replayed == 4
            for name in ("D", "B"):
                assert db.document_digest(name) == digest, name
                assert (store_document_text(db.store(name))
                        == documents[name]), name

    def test_sharded_reconnect_replays_beside_a_plain_system(
            self, tiny_text, tmp_path):
        """A ``systems=("D",), shards=2`` crash image reconnects in the
        same shape: S is the reassembled store, and D and S both replay
        to the live digest and answers."""
        shape = dict(systems=("D",), shards=2)
        with connect(tiny_text, durable=str(tmp_path / "d"), **shape) as live:
            _commit(live, "D", 4, seed=7)
            shutil.copytree(tmp_path / "d", tmp_path / "image")
            with connect(None, durable=str(tmp_path / "image"),
                         **shape) as db:
                assert db.recovery.replayed == 4
                assert db.store("S") is db.recovery.sharded_store
                for name in ("D", "S"):
                    assert (db.document_digest(name)
                            == live.document_digest(name)), name
                    for number in (1, 5, 8, 13, 20):
                        assert (db.execute(name, number, stream=False)
                                .serialize()
                                == live.execute(name, number, stream=False)
                                .serialize()), f"{name} Q{number}"

    def test_a_reconnect_loads_each_serving_system_once(
            self, tiny_text, tmp_path, monkeypatch):
        with connect(tiny_text, systems=("D",),
                     durable=str(tmp_path / "d")) as db:
            _commit(db, "D", 3, seed=5)
            digest = db.document_digest()
        made = []
        real_make_store = systems_module.make_store

        def counting_make_store(name):
            store = real_make_store(name)
            loads = []
            real_load = store.load

            def load(text):
                loads.append(name)
                return real_load(text)

            store.load = load
            made.append((name, loads))
            return store

        monkeypatch.setattr(systems_module, "make_store", counting_make_store)
        with connect(None, systems=("D",), durable=str(tmp_path / "d")) as db2:
            assert db2.document_digest() == digest
        assert made == [("D", ["D"])]

    @pytest.mark.parametrize("forged", ["prev_digest", "digest"])
    def test_a_broken_digest_chain_is_refused(self, history, tmp_path,
                                              forged):
        manager = DurabilityManager(tmp_path / "d")
        base_digest, base_document = history.states[0]
        manager.initialize(document_snapshot(0, base_digest, base_document))
        chain = {"prev_digest": base_digest, "digest": history.states[1][0]}
        chain[forged] = "forged"
        manager.log_commit([history.ops[0]], **chain)
        manager.close()
        where = "before" if forged == "prev_digest" else "after"
        with pytest.raises(RecoveryError, match=f"broken {where} LSN 1"):
            connect(None, systems=("D", "F"), durable=str(tmp_path / "d"))

    def test_a_reconnect_serving_nothing_is_refused(self, tiny_text,
                                                    tmp_path):
        connect(tiny_text, systems=("F",), durable=str(tmp_path / "d")).close()
        with pytest.raises(DurabilityError, match="no system loaded"):
            connect(None, systems=(), durable=str(tmp_path / "d"))


# -- the CLI -----------------------------------------------------------------------


def test_cli_recover_and_checkpoint(tiny_text, tmp_path, capsys):
    from repro.cli import main
    db = connect(tiny_text, systems=("F",), durable=str(tmp_path / "d"))
    stream = UpdateStream(db.store("F"), seed=5)
    for _ in range(2):
        op = stream.next_op()
        stream.note_applied(op)
        db.apply_transaction([op])
    digest = db.document_digest("F")
    db.close()

    out = tmp_path / "doc.xml"
    report_json = tmp_path / "recover.json"
    assert main(["recover", "--dir", str(tmp_path / "d"),
                 "--out", str(out), "--json", str(report_json)]) == 0
    assert digest in capsys.readouterr().out
    assert json.loads(report_json.read_text())["replayed"] == 2
    assert out.read_text().startswith("<site")

    assert main(["checkpoint", "--dir", str(tmp_path / "d"),
                 "--json", str(tmp_path / "cp.json")]) == 0
    assert json.loads((tmp_path / "cp.json").read_text())["lsn"] == 2
    with faultinject.reconnect(tmp_path / "d", tmp_path / "image") as db2:
        report = db2.recovery
        assert report.snapshot_lsn == 2 and report.replayed == 0
        assert report.digest == digest

    assert main(["recover", "--dir", str(tmp_path / "nowhere")]) == 1


def test_cli_recover_has_no_backend_flag(tmp_path):
    from repro.cli import main
    with pytest.raises(SystemExit):
        main(["recover", "--dir", str(tmp_path), "--backend", "B"])


def test_cli_checkpoint_keeps_a_sharded_deployment_sharded(tiny_text,
                                                           tmp_path):
    from repro.cli import main
    directory = tmp_path / "d"
    with connect(tiny_text, systems=(), shards=2,
                 durable=str(directory)) as db:
        _commit(db, "S", 3, seed=9)
        digest = db.document_digest("S")
    assert main(["checkpoint", "--dir", str(directory)]) == 0
    manager = DurabilityManager(directory)
    assert manager.current_snapshot()["kind"] == "sharded"
    assert manager.current_snapshot()["lsn"] == 3
    with connect(None, systems=(), shards=2, durable=str(directory)) as db2:
        assert db2.store("S") is db2.recovery.sharded_store
        assert db2.recovery.replayed == 0
        assert db2.document_digest("S") == digest
