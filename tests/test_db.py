"""The embedded-database facade: connect / sessions / cursors / transactions.

The core property is the acceptance criterion of the API redesign: every
execution path (direct store, query service, scatter-gather sharding,
updates) is reachable through ``Session.execute`` / ``Session.transaction``,
and ``Cursor.fetchall()`` is bit-identical to the legacy entry points on
tiny and small documents across all seven systems plus the sharded
pseudo-system.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.benchmark.queries import QUERIES
from repro.benchmark.systems import SYSTEMS, get_profile, make_store
from repro.errors import (
    BenchmarkError, ClosedCursorError, ClosedSessionError, TransactionError,
    UnknownSystemError,
)
from repro.update.engine import apply_update, serialize_store
from repro.update.ops import PlaceBid, transaction_token
from repro.xquery.evaluator import evaluate, evaluate_stream
from repro.xquery.planner import compile_query
from repro.xquery.sequence import NodeItem


@pytest.fixture(scope="module")
def tiny_db(tiny_text):
    with repro.connect(tiny_text, systems=tuple(SYSTEMS)) as db:
        yield db


@pytest.fixture(scope="module")
def small_db(small_text):
    with repro.connect(small_text, systems=tuple(SYSTEMS)) as db:
        yield db


@pytest.fixture(scope="module")
def sharded_tiny_db(tiny_text):
    with repro.connect(tiny_text, systems=("F",), shards=3) as db:
        yield db


class TestConnect:
    def test_systems_and_default(self, tiny_db):
        assert tiny_db.systems == tuple(SYSTEMS)
        assert tiny_db.default_system() == "A"

    def test_unknown_system_rejected_at_connect(self, tiny_text):
        with pytest.raises(UnknownSystemError):
            repro.connect(tiny_text, systems=("D", "Z"))

    def test_unknown_system_rejected_at_execute(self, tiny_db):
        session = tiny_db.session()
        with pytest.raises(UnknownSystemError) as info:
            session.execute(1, system="Q")
        assert info.value.system == "Q"
        assert "D" in info.value.available

    def test_unknown_system_is_a_benchmark_error(self, tiny_db):
        """Legacy handlers catching BenchmarkError keep working."""
        with pytest.raises(BenchmarkError):
            tiny_db.session().execute(1, system="Q")

    def test_plan_cache_holds_128_shapes_per_serving_system(self,
                                                             tiny_text):
        with repro.connect(tiny_text, systems=("D", "F"), shards=2) as db:
            assert db.plan_cache.capacity == 128 * 3

    def test_fixed_settings_are_not_keywords(self, tiny_text):
        for keyword in ("shard_system", "per_system_limit", "plan_cache_size",
                        "per_shard_limit", "group_size"):
            with pytest.raises(TypeError, match=keyword):
                repro.connect(tiny_text, systems=("F",), **{keyword: 1})

    def test_a_query_log_without_a_service_is_refused(
            self, tiny_text, tmp_path, monkeypatch):
        """Only a service writes the query log: a direct connection
        asking for one is refused before any store loads."""
        from repro.db import database as database_module

        loads = []
        real_load = database_module.load_stores

        def spy(*args, **kwargs):
            loads.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(database_module, "load_stores", spy)
        log = tmp_path / "queries.jsonl"
        with pytest.raises(BenchmarkError, match="query_log"):
            repro.connect(tiny_text, systems=("D",), query_log=str(log))
        assert loads == [] and not log.exists()

    def test_unknown_query_number(self, tiny_db):
        with pytest.raises(BenchmarkError):
            tiny_db.session().execute(99)

    def test_closed_database_refuses_sessions(self, tiny_text):
        db = repro.connect(tiny_text, systems=("F",))
        db.close()
        with pytest.raises(ClosedSessionError):
            db.session()

    def test_a_direct_connection_loads_no_serving_package(self, tmp_path):
        """``connect(doc)`` serving a query imports neither the service,
        the shards nor the wire server (a fresh interpreter, so no other
        test's imports count)."""
        script = (
            "import json, sys, repro\n"
            "doc = repro.generate_string(0.0005)\n"
            "repro.connect(doc).session().execute(1).fetchall()\n"
            "print(json.dumps([name for name in sys.modules\n"
            "                  if name.startswith('repro.')]))\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(repro.__path__[0]))
        loaded = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=tmp_path,
            capture_output=True, text=True, check=True, timeout=120).stdout
        packages = {name.split(".")[1] for name in json.loads(loaded)}
        assert {"db", "storage"} <= packages
        assert not {"service", "shard", "server"} & packages, packages

    @pytest.mark.parametrize("durable", [False, True],
                             ids=["direct", "durable"])
    def test_a_commit_racing_close_is_refused(self, tiny_text, tmp_path,
                                              durable):
        """A commit that reaches the write-path lock only after close()
        returned is refused with the connection's closed error and
        changes no store."""
        db = repro.connect(tiny_text, systems=("D", "F"),
                           durable=str(tmp_path / "d") if durable else None)
        digests = {name: store.document_digest()
                   for name, store in db.stores.items()}
        closed = threading.Event()

        class LateLock:
            """The write-path lock, taken only once close() returned."""

            def __init__(self, lock):
                self.lock = lock

            def __enter__(self):
                assert closed.wait(timeout=10)
                return self.lock.__enter__()

            def __exit__(self, *exc_info):
                return self.lock.__exit__(*exc_info)

        db._write_path.lock = LateLock(db._write_path.lock)
        outcome = []

        def commit():
            try:
                db.apply_transaction([PlaceBid(
                    "open_auction0", "person1", 4.0, "05/24/2000",
                    "11:00:00")])
            except Exception as exc:    # asserted below
                outcome.append(exc)
            else:
                outcome.append(None)

        writer = threading.Thread(target=commit)
        writer.start()
        db.close()
        closed.set()
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert isinstance(outcome[0], ClosedSessionError), outcome
        assert {name: store.document_digest()
                for name, store in db.stores.items()} == digests

    def test_closed_session_refuses_queries(self, tiny_db):
        session = tiny_db.session()
        session.close()
        with pytest.raises(ClosedSessionError):
            session.execute(1)
        with pytest.raises(ClosedSessionError):
            session.prepare(1)
        with pytest.raises(ClosedSessionError):
            session.transaction()


class TestStreamingParity:
    """fetchall() must be bit-identical to the legacy evaluate() path."""

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_all_systems_tiny(self, tiny_db, query):
        session = tiny_db.session()
        for system, store in tiny_db.stores.items():
            legacy = evaluate(
                compile_query(QUERIES[query].text, store, get_profile(system)))
            cursor = session.execute(query, system=system)
            assert cursor.streaming
            assert cursor.serialize() == legacy.serialize(), (
                f"Q{query} on {system}")

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_system_d_small(self, small_db, query):
        session = small_db.session()
        store = small_db.stores["D"]
        legacy = evaluate(
            compile_query(QUERIES[query].text, store, get_profile("D")))
        assert session.execute(query, system="D").serialize() == legacy.serialize()

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_sharded_matches_unsharded(self, sharded_tiny_db, tiny_text, query):
        session = sharded_tiny_db.session()
        cursor = session.execute(query, system="S")
        assert cursor.source == "direct"    # S is one more system
        oracle = session.execute(query, system="F")
        assert cursor.serialize() == oracle.serialize()

    @pytest.fixture(scope="class")
    def eager_g(self, small_text):
        store = make_store("G")
        store.load(small_text)
        return {number: evaluate(compile_query(
                    QUERIES[number].text, store, get_profile("G"))).serialize()
                for number in sorted(QUERIES)}

    @pytest.mark.parametrize("service", [False, True])
    @pytest.mark.parametrize("shards", [None, 2, 6])
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_every_path_answers_like_eager_g(self, small_text, eager_g,
                                             system, shards, service):
        """Q1-Q20 x 7 systems x {unsharded, 2, 6 shards} x {eager,
        streamed, service-cached}: byte-identical to eager System G."""
        with repro.connect(small_text, systems=(system,), shards=shards,
                           backends=(system,), service=service) as db:
            target = db.shard_system if shards else system
            session = db.session()
            for number in sorted(QUERIES):
                if service:
                    cursors = [session.execute(number, system=target)
                               for _ in range(2)]
                    assert cursors[1].result_cache_hit
                else:
                    cursors = [session.execute(number, system=target,
                                               stream=stream)
                               for stream in (False, True)]
                for cursor in cursors:
                    assert cursor.serialize() == eager_g[number], (
                        f"Q{number} on {system}, shards={shards}, "
                        f"service={service}")

    def test_stream_false_matches_stream_true(self, tiny_db):
        session = tiny_db.session()
        for query in (1, 10, 19, 20):
            eager = session.execute(query, system="D", stream=False)
            lazy = session.execute(query, system="D", stream=True)
            assert not eager.streaming and lazy.streaming
            assert eager.serialize() == lazy.serialize()

    def test_streaming_does_not_leak_sequence_bindings(self, tiny_db):
        """A variable bound inside a for-clause sequence is out of scope in
        the enclosing where/return: a compile-time error on either path,
        never a binding leaked from a suspended generator."""
        from repro.errors import QueryError
        session = tiny_db.session()
        leaky = ('for $a in (for $b in /site/people/person return $b) '
                 'where $b/name/text() != "" return $a/name/text()')
        with pytest.raises(QueryError):
            session.execute(leaky, system="D", stream=False).fetchall()
        with pytest.raises(QueryError):
            session.execute(leaky, system="D", stream=True).fetchall()

    def test_streaming_keeps_shadowed_bindings_apart(self, tiny_db):
        """Every binding site has its own frame slot and a declared
        function reads only its parameters, so a streamed outer loop's
        ``$y`` and the inner loop's ``$y`` cannot leak into one another:
        inside the inner sequence ``$y`` is still the outer binding."""
        session = tiny_db.session()
        query = ('declare function local:same($v) '
                 '{ string($v/@id) = "item0" }; '
                 'for $y in /site/regions/africa/item '
                 'return for $y in /site/regions/*/item[local:same($y)] '
                 'return $y/@id')
        eager = session.execute(query, system="F", stream=False).fetchall()
        lazy = session.execute(query, system="F", stream=True).fetchall()
        assert lazy == eager != []

    def test_evaluate_stream_is_lazy_equal(self, loaded_stores):
        """The evaluator-level surface: list(stream) == eager items."""
        store = loaded_stores["E"]
        compiled = compile_query(QUERIES[14].text, store, get_profile("E"))
        eager = evaluate(compiled)
        streamed = evaluate_stream(compiled)
        result = streamed.drain()
        assert result.serialize() == eager.serialize()


class TestCursor:
    def test_fetchone_then_fetchall(self, tiny_db):
        session = tiny_db.session()
        eager = session.execute(2, system="F", stream=False).fetchall()
        cursor = session.execute(2, system="F")
        first = cursor.fetchone()
        rest = cursor.fetchall()
        assert cursor.rowtext(first) == session.execute(
            2, system="F").rowtext(eager[0])
        assert len(rest) == len(eager) - 1
        assert cursor.rowcount == len(eager)
        assert cursor.fetchone() is None    # exhausted

    @pytest.mark.parametrize("query", (2, 13, 14, 17))
    def test_first_row_costs_less_than_the_whole_result(self, small_db, query):
        """Streaming's first-row win as store accesses, not milliseconds:
        ``fetchone()`` has touched strictly less of the store than the
        eager run of the same query, and hands out the same first row."""
        session = small_db.session()
        stats = small_db.stores["D"].stats

        def accesses() -> int:
            return (stats.nodes_visited + stats.index_lookups
                    + stats.table_lookups)

        start = accesses()
        eager = session.execute(query, system="D", stream=False)
        rows = eager.fetchall()
        eager_cost = accesses() - start
        start = accesses()
        cursor = session.execute(query, system="D")
        first = cursor.fetchone()
        first_row_cost = accesses() - start
        cursor.close()
        assert len(rows) > 1
        assert cursor.rowtext(first) == eager.rowtext(rows[0])
        assert 0 < first_row_cost < eager_cost

    def test_fetchmany_batches(self, tiny_db):
        session = tiny_db.session()
        total = len(session.execute(17, system="F").fetchall())
        cursor = session.execute(17, system="F")
        batch = cursor.fetchmany(5)
        assert len(batch) == 5
        assert len(cursor.fetchmany(10_000)) == total - 5

    def test_iteration_streams(self, tiny_db):
        session = tiny_db.session()
        cursor = session.execute(13, system="F")
        seen = sum(1 for _ in cursor)
        assert seen == cursor.rowcount > 0

    def test_closed_cursor_raises(self, tiny_db):
        cursor = tiny_db.session().execute(1, system="F")
        cursor.close()
        with pytest.raises(ClosedCursorError):
            cursor.fetchone()

    def test_result_interop(self, tiny_db):
        """Cursor.result() gives a legacy QueryResult (canonical etc.)."""
        result = tiny_db.session().execute(1, system="F").result()
        assert result.canonical()


class TestPreparedQuery:
    def test_plan_reuse_skips_compilation(self, tiny_db):
        session = tiny_db.session()
        prepared = session.prepare(8, system="B")
        first = prepared.execute()
        again = prepared.execute()
        assert again.plan_cache_hit and again.compile_seconds == 0.0
        assert first.serialize() == again.serialize()

    def test_sharded_prepared_query_holds_its_plan(self, sharded_tiny_db):
        prepared = sharded_tiny_db.session().prepare(8, system="S")
        assert prepared.compiled is not None
        assert prepared.compiled.exchange.kind == "broadcast_join"
        first = prepared.execute()
        again = prepared.execute()
        assert again.plan_cache_hit and again.compile_seconds == 0.0
        assert first.serialize() == again.serialize()

    def test_prepared_matches_adhoc(self, tiny_db):
        session = tiny_db.session()
        prepared = session.prepare(11, system="D")
        assert (prepared.execute().serialize()
                == session.execute(11, system="D").serialize())

    def test_warnings_surface(self, tiny_db):
        prepared = tiny_db.session().prepare(
            "for $x in /site/people/persn return $x", system="D")
        assert any("persn" in warning for warning in prepared.warnings)


class TestTransactionsDirect:
    def test_batch_identical_across_systems(self, small_text):
        with repro.connect(small_text, systems=("D", "G")) as db:
            session = db.session()
            with session.transaction() as txn:
                txn.place_bid("open_auction0", "person1", 10.0,
                              "07/31/2026", "11:00:00")
                txn.close_auction("open_auction0", "07/31/2026")
            assert txn.summary is not None
            assert (serialize_store(db.stores["D"])
                    == serialize_store(db.stores["G"]))
            assert (db.stores["D"].document_digest()
                    == db.stores["G"].document_digest())

    def test_single_digest_advance(self, small_text):
        """A committed batch advances the digest once, over the batch
        token — the same ops applied singly produce a different chain."""
        with repro.connect(small_text, systems=("F",)) as db:
            ops = [
                PlaceBid("open_auction0", "person1", 10.0,
                         "07/31/2026", "11:00:00"),
                PlaceBid("open_auction0", "person2", 5.0,
                         "07/31/2026", "11:01:00"),
            ]
            base_digest = db.document_digest()
            with db.session().transaction() as txn:
                for op in ops:
                    txn.apply(op)
            import hashlib
            expected = hashlib.sha256(
                f"{base_digest}|{transaction_token(ops)}".encode()
            ).hexdigest()[:16]
            assert db.document_digest() == expected

    def test_batch_equals_sequential_document(self, small_text):
        """Same ops, batched vs singly: same final document."""
        from repro.benchmark.systems import make_store
        ops = [
            PlaceBid("open_auction0", "person1", 10.0,
                     "07/31/2026", "11:00:00"),
            PlaceBid("open_auction1", "person2", 4.0,
                     "07/31/2026", "11:02:00"),
        ]
        with repro.connect(small_text, systems=("F",)) as db:
            with db.session().transaction() as txn:
                for op in ops:
                    txn.apply(op)
            batched = serialize_store(db.stores["F"])
        oracle = make_store("F")
        oracle.load(small_text)
        for op in ops:
            apply_update(oracle, op)
        assert batched == serialize_store(oracle)

    def test_failure_keeps_consistent_prefix(self, small_text):
        with repro.connect(small_text, systems=("D", "F")) as db:
            before_digest = db.document_digest()
            session = db.session()
            txn = session.transaction()
            txn.place_bid("open_auction0", "person1", 10.0,
                          "07/31/2026", "11:00:00")
            txn.delete_item("no-such-item")
            with pytest.raises(TransactionError) as info:
                txn.commit()
            assert info.value.applied == 1
            # both stores hold the applied prefix, same document, and the
            # digest reflects exactly the applied ops (per-op chain)
            assert (serialize_store(db.stores["D"])
                    == serialize_store(db.stores["F"]))
            assert (db.stores["D"].document_digest()
                    == db.stores["F"].document_digest() != before_digest)

    def test_exception_in_block_discards(self, small_text):
        with repro.connect(small_text, systems=("F",)) as db:
            before = serialize_store(db.stores["F"])
            with pytest.raises(RuntimeError):
                with db.session().transaction() as txn:
                    txn.place_bid("open_auction0", "person1", 10.0,
                                  "07/31/2026", "11:00:00")
                    raise RuntimeError("client bailed")
            assert serialize_store(db.stores["F"]) == before
            assert txn.summary is None

    def test_rollback_and_reuse_guard(self, small_text):
        with repro.connect(small_text, systems=("F",)) as db:
            txn = db.session().transaction()
            txn.place_bid("open_auction0", "person1", 10.0,
                          "07/31/2026", "11:00:00")
            txn.rollback()
            with pytest.raises(TransactionError):
                txn.commit()
            with pytest.raises(TransactionError):
                txn.apply(PlaceBid("open_auction0", "person1", 1.0,
                                   "07/31/2026", "11:00:00"))

    @pytest.mark.parametrize("system, query", [
        ("F", 2),
        # A suspended join holds an index window, which aliases the very
        # arrays the commit's index maintenance splices in place.
        ("D", 8), ("D", 11),
    ])
    def test_commit_poisons_open_streaming_cursors(self, small_text,
                                                   system, query):
        """A suspended lazy pipeline must not resume over a mutated
        store: commit invalidates un-exhausted streaming cursors, while
        drained ones are left alone."""
        with repro.connect(small_text, systems=(system,)) as db:
            session = db.session()
            open_cursor = session.execute(query)
            open_cursor.fetchone()              # suspended mid-pipeline
            drained = session.execute(1)
            drained.fetchall()
            with session.transaction() as txn:
                txn.place_bid("open_auction0", "person1", 10.0,
                              "07/31/2026", "11:00:00")
            with pytest.raises(ClosedCursorError, match="re-execute"):
                open_cursor.fetchall()
            assert drained.fetchall() == []     # exhausted: unaffected
            # a fresh cursor sees the committed document
            assert session.execute(query).fetchall()

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("query", [
        8, 11,                                  # hash / sorted join windows
        5,                                      # range-plan FLWOR
        "/site/people/person/profile[@income > 50000]",     # the probe IS the result
        "for $p in /site/people/person/profile[@income > 50000] return $p",
    ])
    def test_rows_are_plain_items_never_an_index_window(self, small_text,
                                                        query, stream):
        """Windows alias live index arrays, so none escapes an evaluation:
        what a caller keeps is a ``list`` of ``NodeItem``s and atomics."""
        with repro.connect(small_text, systems=("D",)) as db:
            store = db.store("D")
            compiled = compile_query(db.query_text(query), store, get_profile("D"))
            items = evaluate(compiled).items
            rows = db.session().execute(query, stream=stream).fetchall()
            assert items and len(rows) == len(items)
            for sequence in (items, rows):
                assert type(sequence) is list
                assert all(type(item) in (NodeItem, str, int, float, bool)
                           for item in sequence)

    def test_empty_transaction_is_noop(self, small_text):
        with repro.connect(small_text, systems=("F",)) as db:
            digest = db.document_digest()
            with db.session().transaction() as txn:
                pass
            assert txn.summary["ops"] == []
            assert db.document_digest() == digest

    def test_sharded_transaction_matches_unsharded(self, small_text):
        """Updates through Session.transaction on a sharded connection
        produce the same document as on a plain store."""
        with repro.connect(small_text, systems=("F",), shards=2) as db:
            session = db.session()
            with session.transaction() as txn:
                txn.place_bid("open_auction0", "person1", 10.0,
                              "07/31/2026", "11:00:00")
                txn.close_auction("open_auction0", "07/31/2026")
            assert (serialize_store(db.stores["S"])
                    == serialize_store(db.stores["F"]))
            # queries on both routes agree post-commit
            assert (session.execute(2, system="S").serialize()
                    == session.execute(2, system="F").serialize())


class TestServiceRoute:
    @pytest.fixture(scope="class")
    def service_db(self, small_text):
        with repro.connect(small_text, systems=("D",), service=True,
                           max_workers=4) as db:
            yield db

    def test_execute_routes_through_service(self, service_db):
        session = service_db.session()
        first = session.execute(1, system="D")
        assert first.source == "service" and not first.streaming
        again = session.execute(1, system="D")
        assert again.result_cache_hit
        assert first.serialize() == again.serialize()

    def test_service_matches_direct(self, service_db, small_text, loaded_stores):
        session = service_db.session()
        for query in (1, 8, 20):
            legacy = evaluate(compile_query(
                QUERIES[query].text, loaded_stores["D"], get_profile("D")))
            assert session.execute(query, system="D").serialize() == legacy.serialize()

    def test_transaction_atomic_commit_and_invalidation(self, small_text):
        with repro.connect(small_text, systems=("D",), service=True) as db:
            session = db.session()
            bidders_query = ('count(/site/open_auctions/open_auction'
                             '[@id = "open_auction0"]/bidder)')
            before = session.execute(bidders_query, system="D").fetchone()
            # warm the result cache with a query the write will invalidate
            # (Q2 reads bidder increases) and one whose footprint the bid
            # cannot touch (Q1 reads person names)
            session.execute(2, system="D")
            session.execute(1, system="D")
            with session.transaction() as txn:
                txn.place_bid("open_auction0", "person1", 25.0,
                              "07/31/2026", "11:00:00")
            cells = txn.summary["systems"]["D"]
            assert cells["results_dropped"] >= 1
            # Q2's cached entry was dropped by the footprint test...
            assert not session.execute(2, system="D").result_cache_hit
            # ...the committed bid is visible...
            after = session.execute(bidders_query, system="D").fetchone()
            assert after == before + 1
            # ...and the unaffected query survived the rekey under the
            # new digest
            assert session.execute(1, system="D").result_cache_hit

    def test_service_failed_transaction_drops_cache(self, small_text):
        with repro.connect(small_text, systems=("F",), service=True) as db:
            session = db.session()
            session.execute(1, system="F")
            txn = session.transaction()
            txn.delete_item("no-such-item")
            with pytest.raises(TransactionError):
                txn.commit()
            outcome = session.execute(1, system="F")
            assert not outcome.result_cache_hit


class TestRunnerShim:
    def test_runner_is_rebased_on_database(self, tiny_text):
        runner = repro.BenchmarkRunner(tiny_text, systems=("D",))
        assert runner.database.stores is runner.stores
        timing, result = runner.run("D", 1)
        assert timing.result_size == len(result)
        assert timing.compile_seconds > 0
