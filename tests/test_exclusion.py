"""One reader/writer exclusion per connection, on every kind of connection.

``Database.rwlock`` keeps reads off a commit: every read entry point
takes its read side once, a commit and ``close()`` its write side, and a
queued writer goes first.  These tests pin that on the lock itself, on
a direct connection shared by threads, over the wire on one core, and
for each read entry point: none takes the read side twice, which would
deadlock against a queued writer.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.db import database as database_module
from repro.db.database import ReadWriteLock
from repro.errors import ClosedCursorError
from repro.server import XMarkServer, connect_url, serve_in_thread
from repro.update import RegisterPerson, UpdateStream
from repro.xquery.evaluator import StreamingResult

PERSON_LISTING = """
for $p in document("auction.xml")/site/people/person
return $p/name/text()
"""


def person_op(db) -> RegisterPerson:
    return RegisterPerson(UpdateStream(db.store("D")).build_person())


def commits(db) -> int:
    return db._write_path.commits


def person_count(db) -> int:
    return len(db.session().execute(PERSON_LISTING).fetchall())


@pytest.fixture()
def blocked():
    """``(reading, release)``: a wrapped step sets ``reading`` and waits
    for ``release``."""
    reading, release = threading.Event(), threading.Event()

    def block() -> None:
        reading.set()
        assert release.wait(timeout=10)

    yield reading, release, block
    release.set()


def block_evaluate(monkeypatch, block) -> None:
    real = database_module.evaluate

    def wrapped(*args, **kwargs):
        block()
        return real(*args, **kwargs)

    monkeypatch.setattr(database_module, "evaluate", wrapped)


def test_lock_stress_keeps_readers_and_writers_apart():
    """More threads than cores on one lock, switching often: a writer
    never overlaps a reader or another writer, and the read cap holds."""
    rwlock, guard = ReadWriteLock(3), threading.Lock()
    state = {"readers": 0, "writers": 0, "peak": 0, "reads": 0, "writes": 0}
    broken: list[str] = []
    deadline = time.monotonic() + 0.5

    def read() -> None:
        while time.monotonic() < deadline:
            with rwlock.read():
                with guard:
                    state["readers"] += 1
                    state["peak"] = max(state["peak"], state["readers"])
                    if state["writers"]:
                        broken.append("read beside a write")
                with guard:
                    state["readers"] -= 1
                    state["reads"] += 1

    def write() -> None:
        while time.monotonic() < deadline:
            with rwlock.write():
                with guard:
                    state["writers"] += 1
                    if state["readers"] or state["writers"] > 1:
                        broken.append("write beside another holder")
                with guard:
                    state["writers"] -= 1
                    state["writes"] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = ([threading.Thread(target=read) for _ in range(8)]
                   + [threading.Thread(target=write) for _ in range(2)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not broken, broken[:3]
    assert state["peak"] <= 3 and state["reads"] and state["writes"]


class TestDirectConnectionSharedByThreads:
    """A direct connection's reads and its commits exclude each other."""

    def test_commit_waits_for_an_in_flight_eager_read(self, tiny_text,
                                                      monkeypatch, blocked):
        reading, release, block = blocked
        with repro.connect(tiny_text, systems=("D",)) as db:
            persons = person_count(db)
            op = person_op(db)
            block_evaluate(monkeypatch, block)
            with ThreadPoolExecutor(1) as client:
                read = client.submit(lambda: db.session().execute(
                    PERSON_LISTING, stream=False).fetchall())
                assert reading.wait(timeout=10)
                writer = threading.Thread(target=db.apply_transaction,
                                          args=([op],))
                writer.start()
                writer.join(timeout=0.2)
                assert writer.is_alive() and commits(db) == 0
                release.set()
                writer.join(timeout=10)
                assert not writer.is_alive() and commits(db) == 1
                # the read finished against the document it started on
                assert len(read.result()) == persons
            assert person_count(db) == persons + 1

    def test_commit_waits_for_a_fetchmany_in_progress(self, tiny_text,
                                                      monkeypatch, blocked):
        reading, release, block = blocked
        real = database_module.evaluate_stream

        def slow_third_row(*args, **kwargs):
            streamed = real(*args, **kwargs)

            def rows():
                for index, item in enumerate(streamed):
                    if index == 2:
                        block()
                    yield item
            return StreamingResult(rows(), streamed.navigator)

        monkeypatch.setattr(database_module, "evaluate_stream",
                            slow_third_row)
        with repro.connect(tiny_text, systems=("D",)) as db:
            op = person_op(db)
            cursor = db.session().execute(PERSON_LISTING)
            with ThreadPoolExecutor(1) as client:
                fetched = client.submit(cursor.fetchmany, 5)
                assert reading.wait(timeout=10)
                writer = threading.Thread(target=db.apply_transaction,
                                          args=([op],))
                writer.start()
                writer.join(timeout=0.2)
                assert writer.is_alive() and commits(db) == 0
                release.set()
                assert len(fetched.result(timeout=10)) == 5
                writer.join(timeout=10)
                assert not writer.is_alive() and commits(db) == 1
            with pytest.raises(ClosedCursorError, match="re-execute"):
                cursor.fetchone()

    def test_close_waits_for_a_running_read(self, tiny_text, monkeypatch,
                                            blocked):
        reading, release, block = blocked
        db = repro.connect(tiny_text, systems=("D",))
        persons = person_count(db)
        block_evaluate(monkeypatch, block)
        with ThreadPoolExecutor(1) as client:
            read = client.submit(lambda: db.session().execute(
                PERSON_LISTING, stream=False).fetchall())
            assert reading.wait(timeout=10)
            closer = threading.Thread(target=db.close)
            closer.start()
            closer.join(timeout=0.2)
            assert closer.is_alive()
            release.set()
            closer.join(timeout=10)
            assert not closer.is_alive()
            assert len(read.result(timeout=10)) == persons


#: ~30-50 ms on the tiny document: eight clients looping over it keep
#: some read running at every moment, so only writer priority lets a
#: commit in (without it, none of six lands in 20 s on one core).
NESTED_LOOP = """
for $c in /site/regions/*, $a in /site/people/person,
    $b in /site/people/person
where contains(string($a/name), string($b/name))
return string($a/@id)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs CPU affinity")
def test_wire_readers_in_a_loop_do_not_starve_a_commit(tiny_text):
    """Clients reading in a loop over ``xmark://`` keep the served
    connection's read side busy from the worker pool; on one core, writer
    priority still lets every commit in."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})    # inherited by new threads
    try:
        database = repro.connect(tiny_text, systems=("D",))
        server = XMarkServer()
        server.add_document("auction", database, owned=True)
        with serve_in_thread(server) as handle:
            stop = threading.Event()
            failures: list[BaseException] = []

            def read_loop() -> None:
                try:
                    with connect_url(handle.url) as remote:
                        session = remote.session()
                        while not stop.is_set():
                            assert session.execute(NESTED_LOOP).fetchall()
                except BaseException as exc:     # asserted below
                    failures.append(exc)

            def write() -> None:
                with connect_url(handle.url) as remote:
                    for _ in range(6):
                        with remote.session().transaction() as txn:
                            txn.place_bid("open_auction0", "person0", 1.5,
                                          "01/01/2026", "00:00:00")

            readers = [threading.Thread(target=read_loop, daemon=True)
                       for _ in range(server.max_workers)]
            for reader in readers:
                reader.start()
            writer = threading.Thread(target=write, daemon=True)
            writer.start()
            writer.join(timeout=30)
            committed = commits(database)
            stop.set()
            for reader in readers:
                reader.join(timeout=10)
            writer.join(timeout=30)
        assert committed == 6
        assert not failures, failures
    finally:
        os.sched_setaffinity(0, cpus)


# -- no entry point nests the read side --------------------------------------------


def _cursor_call(method: str, *args):
    def run(db, arm):
        cursor = db.session().execute(PERSON_LISTING)
        arm()
        return getattr(cursor, method)(*args)
    return run


def _wire(fetch: bool):
    """An execute (with its inline first page) or a later page fetch."""
    def run(db, arm):
        server = XMarkServer()
        server.add_document("auction", db)
        with serve_in_thread(server) as handle, \
                connect_url(handle.url, page_size=1 if fetch else None) \
                as remote:
            if not fetch:               # one page holds every row
                arm()
                return remote.session().execute(PERSON_LISTING).fetchall()
            cursor = remote.session().execute(PERSON_LISTING)
            assert cursor.fetchone() is not None     # the inline page
            arm()
            if db.service is not None:
                return cursor.fetchall()     # materialized: never poisoned
            with pytest.raises(ClosedCursorError):
                cursor.fetchall()   # the commit landed after one page
    return run


def _armed(call):
    def run(db, arm):
        arm()
        return call(db)
    return run


ENTRY_POINTS = {
    "execute": _armed(lambda db: db.session().execute(
        PERSON_LISTING, stream=False).fetchall()),
    "execute-stream": _armed(lambda db: db.session().execute(PERSON_LISTING)),
    "execute-S": _armed(lambda db: db.session().execute(
        1, system="S", stream=False).fetchall()),
    "prepare": _armed(lambda db: db.session().prepare(1)),
    "explain": _armed(lambda db: db.session().explain(1)),
    "document_digest": _armed(lambda db: db.document_digest()),
    "fetchone": _cursor_call("fetchone"),
    "fetchmany": _cursor_call("fetchmany", 3),
    "fetchall": _cursor_call("fetchall"),
    "serialize": _cursor_call("serialize"),
    "wire-execute": _wire(fetch=False),
    "wire-fetch": _wire(fetch=True),
}


#: A service cursor is materialized: its fetches take no read side.
CURSOR_FETCHES = ("fetchall", "fetchmany", "fetchone", "serialize")


@pytest.mark.parametrize("entry,service", [
    pytest.param(entry, service,
                 id=f"{entry}-{'service' if service else 'direct'}")
    for entry in sorted(ENTRY_POINTS) for service in (False, True)
    if not (service and entry in CURSOR_FETCHES)])
def test_read_entry_point_returns_with_a_writer_queued(tiny_text,
                                                       monkeypatch, entry,
                                                       service):
    """The entry point's first read queues a commit before it goes on.  A
    second read on the same thread would wait for that writer, which
    waits for the first read: the call would never return, so the test
    refuses a nested read instead of taking it."""
    db = repro.connect(tiny_text, systems=("D",), shards=2, service=service)
    rwlock = db.rwlock
    acquire, release = rwlock.acquire_read, rwlock.release_read
    holders: set[int] = set()           # threads holding the read side
    writers: list[threading.Thread] = []

    def acquire_read() -> None:
        if threading.get_ident() in holders:
            raise AssertionError(f"{entry} took the read side twice")
        acquire()
        holders.add(threading.get_ident())
        if writers:
            return
        writer = threading.Thread(target=db.apply_transaction,
                                  args=([person_op(db)],), daemon=True)
        writers.append(writer)
        writer.start()
        deadline = time.monotonic() + 10
        while not rwlock._writers:              # queued behind this read
            assert time.monotonic() < deadline
            time.sleep(0.001)

    def release_read() -> None:
        holders.discard(threading.get_ident())
        release()

    def arm() -> None:
        monkeypatch.setattr(rwlock, "acquire_read", acquire_read)
        monkeypatch.setattr(rwlock, "release_read", release_read)

    failures: list[BaseException] = []

    def call() -> None:
        try:
            ENTRY_POINTS[entry](db, arm)
        except BaseException as exc:            # asserted below
            failures.append(exc)

    try:
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=20)
        assert not caller.is_alive() and not failures, failures
        assert writers, f"{entry} took no read side"
        writers[0].join(timeout=10)
        assert commits(db) == 1
    finally:
        db.close()
