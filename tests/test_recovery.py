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
* **Sharded deployments** — a 6-shard store with per-shard WAL streams
  recovers through the merged LSN order; damage in any one stream cuts
  the global history at that commit and counts the records stranded in
  the other streams.
* **The facade** — ``repro.connect(durable=dir)`` logs every commit
  before applying it, reconnects by recovering, refuses forked base
  documents, checkpoints through ``Database.checkpoint`` and the
  ``xmark recover`` / ``xmark checkpoint`` commands, and mirrors
  deterministic failures (refused ops, aborted transactions) exactly
  through replay.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import faultinject
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
    recover, scan_wal,
)
from repro.storage.wal.snapshot import (
    document_snapshot, read_snapshot, sharded_snapshot, write_snapshot,
)
from repro.update.engine import apply_update
from repro.update.ops import CloseAuction, DeleteItem, PlaceBid, RegisterPerson
from repro.update.stream import UpdateStream
from repro.xmlio.parser import parse
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import compile_query

OPS_IN_HISTORY = 8


def _oracle_history(store, *, seed: int, count: int = OPS_IN_HISTORY):
    """Apply ``count`` generated ops; record state after every prefix."""
    stream = UpdateStream(store, seed=seed)
    ops = []
    states = [(store.document_digest(), store_document_text(store))]
    for _ in range(count):
        op = stream.next_op()
        stream.note_applied(op)
        apply_update(store, op)
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
    """A pristine single-stream deployment holding the whole history."""
    directory = tmp_path_factory.mktemp("durable") / "deploy"
    manager = DurabilityManager(directory, sync="commit")
    base_digest, base_document = history.states[0]
    manager.initialize(document_snapshot(0, base_digest, base_document))
    for index, op in enumerate(history.ops):
        manager.log_commit([op], kind="op",
                           prev_digest=history.states[index][0],
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
        record = WalRecord(lsn=9, kind="txn",
                           ops=(DeleteItem("item1"), DeleteItem("item2")),
                           prev_digest="aa", digest="bb")
        (offset, decoded), (end, tail) = list(
            faultinject.iter_records(record.encode()))
        assert offset == 0 and decoded == record
        assert tail == "clean" and end == len(record.encode())

    def test_op_record_carries_exactly_one_op(self):
        with pytest.raises(DurabilityError):
            WalRecord(lsn=1, kind="op",
                      ops=(DeleteItem("item1"), DeleteItem("item2")),
                      prev_digest="", digest="")

    def test_group_commit_batches_fsyncs(self, tmp_path):
        log = WriteAheadLog(tmp_path / "s.wal", sync="batch", group_size=4)
        for lsn in range(1, 9):
            log.append(WalRecord(lsn=lsn, kind="op",
                                 ops=(DeleteItem(f"item{lsn}"),),
                                 prev_digest="p", digest="d"))
        assert log.fsyncs == 2          # two full groups of four
        log.close()
        assert log.fsyncs == 2          # nothing pending at close
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
        system, durable_dir, history, oracle_results):
    """Replay on each of the seven architectures: digest chain,
    serialization, and all twenty query results equal the oracle."""
    report = recover(durable_dir, backend=system)
    digest, document = history.states[-1]
    assert report.replayed == len(history.ops)
    assert report.skipped == 0 and not report.torn_tails
    assert report.digest == digest
    assert report.document == document
    store = make_store(system)
    store.load(report.document)
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
        report = recover(crashed)
        digest, document = history.states[point.survivors]
        where = f"{point.label}@{point.offset}"
        assert report.replayed == point.survivors, where
        assert report.digest == digest, where
        assert report.document == document, where
        if point.label == faultinject.BOUNDARY:
            assert not report.torn_tails, where
        else:
            assert (report.torn_tails[0]
                    in faultinject.EXPECTED_TAILS[point.label]), where


def test_tampered_snapshot_is_refused(durable_dir, tmp_path):
    crashed = tmp_path / "snap-tamper"
    shutil.copytree(durable_dir, crashed)
    snapshot = crashed / "snapshots" / "snap-000000000000.json"
    payload = json.loads(snapshot.read_text())
    payload["document"] = payload["document"].replace("person0", "personX", 1)
    snapshot.write_text(json.dumps(payload))
    with pytest.raises(RecoveryError):
        recover(crashed)


def test_recover_refuses_non_durable_directory(tmp_path):
    with pytest.raises(RecoveryError):
        recover(tmp_path)


def test_renames_and_new_files_reach_their_directory(history, tmp_path,
                                                     monkeypatch):
    """In ``initialize()`` and ``checkpoint()`` every renamed file is
    fsynced, then renamed, and then its directory is the next thing
    fsynced; the new ``wal/`` and ``snapshots/`` entries and the first
    stream file reach their directories the same way."""
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
    manager = DurabilityManager(directory, sync="commit")
    base_digest, base_document = history.states[0]
    manager.initialize(document_snapshot(0, base_digest, base_document))
    for index, op in enumerate(history.ops[:3]):
        manager.log_commit([op], kind="op", prev_digest=history.states[index][0],
                           digest=history.states[index + 1][0])
    digest, document = history.states[3]
    manager.checkpoint(document_snapshot(3, digest, document))
    manager.close()

    renames = [at for at, event in enumerate(events) if event[0] == "replace"]
    # Base snapshot, manifest; then snapshot, manifest, compacted stream.
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
    # the stream file.
    assert ("fsync", identity(directory / "wal")) in events[renames[1]:renames[2]]


# -- sharded deployments: per-shard WALs -------------------------------------------

SHARD_COUNT = 6
SHARD_BACKENDS = ("F", "A", "D")


@pytest.fixture(scope="module")
def sharded_history(tiny_text, tmp_path_factory):
    """A 6-shard deployment: per-shard streams, commits routed by shard."""
    store = ShardedStore(SHARD_COUNT, SHARD_BACKENDS)
    store.load(tiny_text)
    directory = tmp_path_factory.mktemp("sharded") / "deploy"
    manager = DurabilityManager(directory, sync="commit")
    state = store.partition_state()
    manager.initialize(
        sharded_snapshot(0, store.document_digest(),
                         backends=list(store.backends),
                         fragments=store.shard_fragment_texts(),
                         extent_seqs=state["extent_seqs"],
                         id_map=state["id_map"]),
        streams=SHARD_COUNT, shard_backends=list(store.backends))
    stream = UpdateStream(store, seed=829)
    states = [(store.document_digest(), store_document_text(store))]
    routes = []
    for _ in range(10):
        op = stream.next_op()
        stream.note_applied(op)
        prev = store.document_digest()
        digest = chain_digest(prev, op.token())
        routes.append(manager.log_commit(
            [op], kind="op", prev_digest=prev, digest=digest,
            stream=store.route_op(op)).lsn)
        apply_update(store, op)
        states.append((store.document_digest(), store_document_text(store)))
    manager.close()
    return SimpleNamespace(directory=directory, states=states,
                           store=store)


def test_sharded_clean_recovery_reassembles_the_partition(sharded_history):
    report = recover(sharded_history.directory)
    digest, document = sharded_history.states[-1]
    assert report.digest == digest
    assert report.document == document
    recovered = report.sharded_store
    assert recovered is not None
    assert recovered.shard_count == SHARD_COUNT
    assert store_document_text(recovered) == document
    # the reassembled partition places every entity where the live one did
    assert (recovered.partition_state()
            == sharded_history.store.partition_state())


def test_sharded_crash_in_any_stream_cuts_the_merged_history(
        sharded_history, tmp_path):
    """Damage each non-empty stream's last record: the global history is
    cut at that commit, and later commits stranded in *other* streams
    are dropped and counted."""
    wal_dir = sharded_history.directory / "wal"
    lsns_by_stream = {
        index: [record.lsn for record in
                scan_wal(wal_dir / f"stream-{index:04d}.wal").records]
        for index in range(SHARD_COUNT)
        if (wal_dir / f"stream-{index:04d}.wal").exists()
    }
    assert len(lsns_by_stream) > 1, "history never crossed shards"
    all_lsns = sorted(lsn for lsns in lsns_by_stream.values()
                      for lsn in lsns)
    assert all_lsns == list(range(1, 11))
    for index, lsns in lsns_by_stream.items():
        stream_file = wal_dir / f"stream-{index:04d}.wal"
        points = faultinject.crash_points(stream_file.read_bytes())
        last = [point for point in points
                if point.record_lsn == lsns[-1]
                and point.label in (faultinject.BOUNDARY,
                                    faultinject.MID_PAYLOAD,
                                    faultinject.GARBLED_CRC)]
        for point in last:
            crashed = tmp_path / f"s{index}-{point.label}"
            shutil.copytree(sharded_history.directory, crashed)
            faultinject.apply_crash(
                crashed / "wal" / f"stream-{index:04d}.wal", point)
            report = recover(crashed)
            cut = lsns[-1]              # first missing commit
            digest, document = sharded_history.states[cut - 1]
            where = f"stream {index} {point.label}"
            assert report.digest == digest, where
            assert report.document == document, where
            assert report.sharded_store is not None, where
            stranded = sum(1 for lsn in all_lsns if lsn > cut) - (
                sum(1 for lsn in lsns if lsn > cut))
            assert report.dropped_after_gap == stranded, where


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

        report = recover(tmp_path / "d")
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

        report = recover(tmp_path / "d")
        assert report.skipped == 1 and report.replayed == 0
        assert report.digest == digest
        assert report.document == document

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
            assert db2.recovery.torn_tails == {0: "torn-payload"}
            # the tail was truncated; new commits append after clean bytes
            stream2 = UpdateStream(db2.store("F"), seed=99)
            op = stream2.next_op()
            db2.apply_transaction([op])
            digest = db2.document_digest("F")
        finally:
            db2.close()
        report = recover(tmp_path / "d")
        assert not report.torn_tails
        assert report.digest == digest

    def test_sharded_connection_adopts_recovered_partition(
            self, tiny_text, tmp_path):
        db = connect(tiny_text, systems=(), shards=3, backends=("F", "A"),
                     durable=str(tmp_path / "d"))
        assert db.durability.stream_count == 3
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
        assert db.service.durability is db.durability
        stream = UpdateStream(db.store("F"), seed=7)
        op = stream.next_op()
        stream.note_applied(op)
        db.service.apply_update(op)     # kind "op": per-op digest advance
        op2 = stream.next_op()
        db.apply_transaction([op2])     # kind "txn": batch digest advance
        digest = db.document_digest("F")
        db.close()

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
    report = recover(tmp_path / "d")
    assert report.snapshot_lsn == 2 and report.replayed == 0
    assert report.digest == digest

    assert main(["recover", "--dir", str(tmp_path / "nowhere")]) == 1
