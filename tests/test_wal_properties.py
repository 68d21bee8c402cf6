"""Property-based durability invariants (hypothesis).

Random operation sequences × random crash points × shard counts 1/2/6:
whatever commit history is logged and wherever the crash lands, a
durable reconnect (snapshot + WAL suffix replayed into its serving
stores, in the deployment's own shape) must produce *exactly* the
surviving commit prefix of a never-crashed oracle — equal digest-chain
value, bit-identical serialization, and identical benchmark query
results (a rotating subset per example; the fixed matrix in
tests/test_recovery.py runs all twenty).

The crash point is drawn over every enumerated damage point of the
deployment's one WAL file (record boundaries plus the mid-record offset
classes of tests/faultinject.py), so shrinking walks the damage toward the start
of the log — the smallest failing example is "crash in the very first
commit", the easiest to debug.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import faultinject
from repro.benchmark.queries import QUERIES, query_text
from repro.benchmark.systems import get_profile, make_store
from repro.shard.store import ShardedStore
from repro.storage.interface import chain_digest, store_document_text
from repro.db import connect
from repro.storage.wal import DurabilityManager, scan_wal
from repro.storage.wal.snapshot import document_snapshot
from repro.update.engine import apply_update
from repro.update.ops import transaction_token
from repro.update.stream import UpdateStream
from repro.xquery.evaluator import evaluate
from repro.xquery.planner import compile_query

SHARD_CHOICES = (1, 2, 6)
PROPERTY_BACKENDS = ("F", "A")


def _build_deployment(directory: Path, document: str, shards: int,
                      n_ops: int, seed: int):
    """Log a random history of one-op commits; return per-prefix oracle
    states."""
    store = (make_store("F") if shards == 1
             else ShardedStore(shards, PROPERTY_BACKENDS))
    store.load(document)
    manager = DurabilityManager(directory)
    manager.initialize(document_snapshot(
        0, store.document_digest(), document))
    stream = UpdateStream(store, seed=seed)
    states = [(store.document_digest(), store_document_text(store))]
    for _ in range(n_ops):
        op = stream.next_op()
        stream.note_applied(op)
        prev = store.document_digest()
        token = transaction_token([op])
        manager.log_commit([op], prev_digest=prev,
                           digest=chain_digest(prev, token))
        apply_update(store, op, advance_digest=False)
        store.advance_digest(token)
        states.append((store.document_digest(), store_document_text(store)))
    manager.close()
    return states


def _reconnect(directory: Path, shards: int):
    """A durable reconnect in the deployment's shape; returns it and the
    name of the system serving the recovered state."""
    if shards == 1:
        return connect(None, systems=("F",), durable=str(directory)), "F"
    return connect(None, systems=(), shards=shards,
                   backends=PROPERTY_BACKENDS, durable=str(directory)), "S"


def _enumerate_crashes(directory: Path):
    """Every (WAL file, crash point, cut LSN) triple."""
    path = directory / "wal" / "stream-0000.wal"
    lsns = [record.lsn for record in scan_wal(path).records]
    return [(path, point, lsns[point.survivors])
            for point in faultinject.crash_points(path.read_bytes())]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shards=st.sampled_from(SHARD_CHOICES),
       n_ops=st.integers(min_value=2, max_value=7),
       seed=st.integers(min_value=0, max_value=2 ** 16),
       crash_choice=st.integers(min_value=0, max_value=2 ** 16))
def test_recovery_always_yields_the_surviving_prefix(
        tiny_text, shards, n_ops, seed, crash_choice):
    workdir = Path(tempfile.mkdtemp(prefix="walprop-"))
    try:
        deploy = workdir / "deploy"
        states = _build_deployment(deploy, tiny_text, shards, n_ops, seed)
        crashes = _enumerate_crashes(deploy)
        assert crashes, "a non-empty history always has crash points"
        path, point, cut_lsn = crashes[crash_choice % len(crashes)]
        faultinject.apply_crash(path, point)

        digest, document = states[cut_lsn - 1]
        where = f"{path.name} {point.label}@{point.offset} cut={cut_lsn}"
        numbers = sorted(QUERIES)
        chosen = [numbers[(seed + offset) % len(numbers)]
                  for offset in (0, 7, 13)]
        oracle = make_store("F")
        oracle.load(document)
        db, system = _reconnect(deploy, shards)
        with db:
            report = db.recovery
            # 1. prefix exactness: digest chain and serialization
            assert report.digest == digest, where
            assert db.document_digest(system) == digest, where
            assert store_document_text(db.store(system)) == document, where
            assert report.last_lsn == cut_lsn - 1, where
            # 2. the recovered digest is verifiable state, not
            #    bookkeeping: the serving store's query results equal the
            #    oracle prefix (rotating subset)
            for number in set(chosen):
                expected = evaluate(compile_query(
                    query_text(number), oracle, get_profile("F"))).serialize()
                got = db.execute(system, number, stream=False).serialize()
                assert got == expected, f"Q{number} diverged after {where}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shards=st.sampled_from(SHARD_CHOICES),
       n_ops=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_clean_recovery_is_exact(tiny_text, shards, n_ops, seed):
    """No crash at all: recovery replays the full history exactly."""
    workdir = Path(tempfile.mkdtemp(prefix="walprop-"))
    try:
        deploy = workdir / "deploy"
        states = _build_deployment(deploy, tiny_text, shards, n_ops, seed)
        db, system = _reconnect(deploy, shards)
        with db:
            report = db.recovery
            digest, document = states[-1]
            assert report.replayed == n_ops
            assert report.skipped == 0 and report.torn_tail is None
            assert report.digest == digest
            assert store_document_text(db.store(system)) == document
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
