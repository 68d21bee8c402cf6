"""The commit contract, differentially.

Every path a write can take — a direct connection, a service
connection, a sharded service, the wire, a connection recovered from a
crash image — ends in one function (``repro.update.commit``).  These
tests drive the *same* update history down each path and require the
same digest chain, the same WAL ``(prev, digest)`` sequence, the same
report shape, poisoned streaming cursors and a re-keyed (not flushed)
result cache; then that a single operation commits as a one-op batch
on a sharded service connection; then that concurrent writers and a
checkpoint on a direct durable connection serialize.
"""

from __future__ import annotations

import shutil
import sys
import threading
import time
from contextlib import contextmanager

import pytest

import faultinject
import repro
from repro.errors import ClosedCursorError, TransactionError
from repro.server import XMarkServer, connect_url, serve_in_thread
from repro.server.protocol import encode_op
from repro.storage.interface import chain_digest, store_document_text
from repro.storage.wal import DurabilityManager, scan_wal
from repro.update.ops import (
    CloseAuction, DeleteItem, PlaceBid, RegisterPerson, transaction_token,
)
from repro.xmlio.parser import parse

PATHS = ("direct", "service", "sharded-service", "wire", "recovered")
PERSON_NAMES = "for $p in /site/people/person return $p/name"
CRASH_AFTER = 2                 # the recovered path crashes after this step


def _bid(auction: str, person: str, minute: int) -> PlaceBid:
    return PlaceBid(auction, person, 2.5, "07/31/2026", f"11:{minute:02d}:00")


def history() -> list[list]:
    """The shared update history (fresh op objects per path)."""
    person = parse('<person id="personC1"><name>Commit C</name></person>').root
    return [
        [_bid("open_auction0", "person1", 0)],                  # a single op
        [_bid("open_auction1", "person2", 1), RegisterPerson(person),
         CloseAuction("open_auction0", "07/31/2026")],          # a 3-op batch
        [_bid("open_auction1", "person1", 2), DeleteItem("no-such-item"),
         _bid("open_auction1", "person2", 3)],                  # refused at op 2
        [DeleteItem("no-such-item")],           # logged, then refused outright
        [_bid("open_auction1", "person0", 4)],  # the chain continues
    ]


def wal_sequence(directory) -> list[tuple]:
    """Every record of the deployment's one WAL file, in LSN order."""
    records = DurabilityManager(directory).scan().records
    assert [r.lsn for r in records] == list(range(1, len(records) + 1))
    return [(r.prev_digest, r.digest) for r in records]


#: Each path's connect options (the wire serves a direct connection).
OPTIONS = {"direct": dict(systems=("D", "F")),
           "service": dict(systems=("D", "F"), service=True),
           "sharded-service": dict(systems=("D",), shards=2, service=True),
           "wire": dict(systems=("D", "F")),
           "recovered": dict(systems=("D", "F"))}


@contextmanager
def open_path(path: str, text: str, directory: str):
    """``(driven, live)``: the connection the test writes through and
    the in-process :class:`repro.Database` that holds the stores."""
    live = repro.connect(text, durable=directory, **OPTIONS[path])
    if path != "wire":
        with live:
            yield live, live
        return
    server = XMarkServer()
    server.add_document("auction", live, owned=True)
    with serve_in_thread(server) as handle:
        remote = connect_url(handle.url, page_size=1)
        try:
            yield remote, live
        finally:
            remote.close()


def drive(driven, live, steps) -> list[tuple]:
    """Commit each step as one transaction; one outcome row per step."""
    outcomes = []
    session = driven.session()
    for ops in steps:
        suspended = session.execute(PERSON_NAMES)
        assert suspended.fetchone() is not None
        txn = session.transaction()
        for op in ops:
            txn.apply(op)
        try:
            report = txn.commit()
        except TransactionError as refused:
            row = ("refused", refused.applied)
        else:
            cells = report["systems"]
            assert set(cells) == set(live.stores)
            assert all({"mutate_ms", "index_ms", "nodes_indexed"} <= set(c)
                       for c in cells.values())
            assert report["ops"] == [op.token() for op in ops]
            assert report["digest"] == live.document_digest()
            row = ("committed", tuple(sorted(report)))
        # every serving store took the same step along the same chain
        digests = {store.document_digest() for store in live.stores.values()}
        assert len(digests) == 1
        outcomes.append(row + (digests.pop(),))
        if suspended.streaming:
            with pytest.raises(ClosedCursorError):
                suspended.fetchall()
        else:
            assert suspended.fetchall()         # materialized before commit
    return outcomes


def run_path(path: str, text: str, tmp_path) -> dict:
    directory = str(tmp_path / path)
    steps = history()
    if path == "recovered":
        with open_path(path, text, directory) as (driven, live):
            outcomes = drive(driven, live, steps[:CRASH_AFTER])
            # sync="commit": every acknowledged commit is on disk, so a
            # copy taken now is what a crash at this instant leaves
            directory = str(tmp_path / "crash-image")
            shutil.copytree(tmp_path / path, directory)
        with repro.connect(None, systems=("D", "F"),
                           durable=directory) as live:
            assert live.recovery.replayed == CRASH_AFTER
            outcomes += drive(live, live, steps[CRASH_AFTER:])
    else:
        with open_path(path, text, directory) as (driven, live):
            outcomes = drive(driven, live, steps)
    # a reconnect in the path's own shape, on a copy of its directory
    with faultinject.reconnect(directory, tmp_path / "recovery",
                               **OPTIONS[path]) as recovered:
        report = recovered.recovery
        # refused live => refused again at replay, never applied
        refused = sum(row[0] == "refused" for row in outcomes)
        assert (report.replayed, report.skipped) == (len(outcomes) - refused,
                                                     refused)
        assert {store.document_digest()
                for store in recovered.stores.values()} == {report.digest}
        document = store_document_text(
            recovered.store(recovered.default_system()))
    return {"outcomes": outcomes, "wal": wal_sequence(directory),
            "recovered_digest": report.digest,
            "recovered_document": document}


@pytest.fixture(scope="module")
def reference(tiny_text, tmp_path_factory):
    return run_path("direct", tiny_text, tmp_path_factory.mktemp("reference"))


class TestCommitContract:
    def test_reference_history_has_the_intended_shape(self, reference):
        kinds = [row[:2] for row in reference["outcomes"]]
        assert kinds == [("committed", ("digest", "ops", "systems")),
                         ("committed", ("digest", "ops", "systems")),
                         ("refused", 1), ("refused", 0),
                         ("committed", ("digest", "ops", "systems"))]
        digests = [row[2] for row in reference["outcomes"]]
        assert digests[3] == digests[2]         # refused outright: no-op
        assert len(set(digests)) == 4
        # every commit was logged before it applied, refused ones included
        assert len(reference["wal"]) == 5
        assert reference["recovered_digest"] == digests[-1]

    @pytest.mark.parametrize("path", PATHS[1:])
    def test_every_path_writes_the_same_history(self, path, tiny_text,
                                                tmp_path, reference):
        assert run_path(path, tiny_text, tmp_path) == reference

    def test_a_commit_frame_carries_nothing_but_its_kind(self, tiny_text,
                                                         tmp_path):
        """Until PR 20 the frame's ``maintenance`` key reached the engine
        *after* the WAL append: a bad value refused the commit live and
        replay, which never saw the key, applied it.  Unknown keys of a
        frame are ignored (PROTOCOL_VERSION stays 1), this one included."""
        directory = str(tmp_path / "d")
        with open_path("wire", tiny_text, directory) as (remote, live):
            request = remote._client.request
            request({"kind": "begin"})
            request({"kind": "txn_op", "op": encode_op(
                _bid("open_auction0", "person1", 0))})
            reply = request({"kind": "commit", "maintenance": "bogus"})
            assert reply["kind"] == "committed"
            digest = live.document_digest()
            assert reply["report"]["digest"] == digest
        with faultinject.reconnect(directory, tmp_path / "image",
                                   **OPTIONS["wire"]) as recovered:
            report = recovered.recovery
            assert (report.replayed, report.skipped) == (1, 0)
            assert report.digest == digest

    @pytest.mark.parametrize("shards", [None, 2])
    def test_service_commit_rekeys_the_result_cache(self, tiny_text, shards):
        with repro.connect(tiny_text, systems=("D",), shards=shards,
                           service=True) as db:
            session = db.session()
            for system in db.systems:
                session.execute(1, system=system)   # person names: untouched
                session.execute(2, system=system)   # bidder increases: hit
            with session.transaction() as txn:
                txn.apply(_bid("open_auction0", "person1", 0))
            for system in db.systems:
                cells = txn.summary["systems"][system]
                assert cells["results_kept"] >= 1
                assert cells["results_dropped"] >= 1
                assert session.execute(1, system=system).result_cache_hit
                assert not session.execute(2, system=system).result_cache_hit


class TestSingleOpCommits:
    """One operation commits as a one-op batch: the batch token on the
    chain, the connection's one WAL, on a sharded service too."""

    def test_a_single_op_commits_as_a_one_op_batch(self, tiny_text,
                                                   tmp_path):
        directory = str(tmp_path / "d")
        db = repro.connect(tiny_text, systems=("F",), shards=3, service=True,
                           durable=directory)
        try:
            op = _bid("open_auction0", "person1", 0)
            prev = db.document_digest()
            report = db.apply_transaction([op])
            assert set(report) == {"ops", "systems", "digest"}
            assert set(report["systems"]) == {"F", "S"}
            assert report["digest"] == chain_digest(
                prev, transaction_token([op]))

            with pytest.raises(TransactionError) as refused:
                db.apply_transaction([DeleteItem("no-such-item")])
            assert refused.value.applied == 0
            assert db.document_digest() == report["digest"]

            batch = [_bid("open_auction0", "person2", 1),
                     _bid("open_auction1", "person2", 2)]
            committed = db.apply_transaction(batch)
            assert committed["digest"] == chain_digest(
                report["digest"], transaction_token(batch))
            live = db.document_digest()
        finally:
            db.close()
        records = scan_wal(tmp_path / "d" / "wal" / "stream-0000.wal").records
        assert [[op.token() for op in record.ops] for record in records] == [
            [op.token()], [DeleteItem("no-such-item").token()],
            [op.token() for op in batch]]
        with faultinject.reconnect(directory, tmp_path / "image",
                                   systems=("F",), shards=3,
                                   service=True) as recovered:
            report = recovered.recovery
            assert (report.replayed, report.skipped) == (2, 1)
            assert report.digest == live
            assert recovered.store("S") is report.sharded_store


class TestDirectWritersSerialize:
    """A direct connection's commits and checkpoints hold the same
    update lock a service's do: LSNs stay dense and the chain unforked
    however many sessions commit at once."""

    THREADS, COMMITS = 6, 8

    def test_concurrent_sessions_and_a_checkpoint(self, tiny_text, tmp_path):
        directory = str(tmp_path / "d")
        db = repro.connect(tiny_text, systems=("F",), durable=directory)
        # A slow disk: the log write yields the GIL in the middle of what
        # must be one critical section (prev digest read -> LSN assigned
        # -> record appended -> stores mutated).
        append = db.durability.log_commit

        def slow_append(*args, **kwargs):
            time.sleep(0.002)
            return append(*args, **kwargs)

        db.durability.log_commit = slow_append
        failures: list[BaseException] = []
        total = self.THREADS * self.COMMITS
        start = threading.Barrier(self.THREADS + 1)

        def writer(rank: int) -> None:
            session = db.session()
            try:
                start.wait(timeout=30)
                for index in range(self.COMMITS):
                    with session.transaction() as txn:
                        txn.apply(_bid(f"open_auction{rank % 3}",
                                       f"person{rank}", index))
            except BaseException as exc:    # surfaced below
                failures.append(exc)

        def checkpointer() -> None:
            # early in the history, so the WAL keeps a suffix that
            # recovery must replay
            try:
                start.wait(timeout=30)
                while db.durability.last_lsn < total // 4:
                    time.sleep(0.001)
                db.checkpoint()
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=writer, args=(rank,))
                   for rank in range(self.THREADS)]
        threads.append(threading.Thread(target=checkpointer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        live = db.document_digest()
        assert db.durability.last_lsn == total
        db.close()

        with faultinject.reconnect(directory, tmp_path / "image") as recovered:
            report = recovered.recovery
            assert report.last_lsn == total
            # (a WAL out of sequence would have refused the reconnect)
            assert report.torn_tail is None
            # a dense suffix behind the last checkpoint, one unbroken chain
            assert report.replayed == total - report.snapshot_lsn
            assert report.skipped == 0
            assert report.digest == live
