"""The runtime lock-order witness and its cross-check with the static
graph.

The self-test intentionally inverts a lock pair and requires the
witness to report the cycle; the cross-check drives a real service
workload under the witness and requires that neither the dynamic graph
nor its union with the static graph contains any ordering cycle — the
live counterpart of the CI lockwitness run over the tier-1 suite.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import connect
from repro.analyze import Project, cross_check, default_src_root
from repro.analyze.lockwitness import LockWitness, _WitnessedLock
from repro.update import UpdateStream

HERE = Path(__file__).resolve().parent

#: A witness that records locks allocated from this test file.
def local_witness() -> LockWitness:
    return LockWitness(prefixes=(str(HERE),), src_root=HERE)


class TestWitnessMechanics:
    def test_foreign_frames_stay_unwrapped(self):
        with local_witness():
            # allocated via a stdlib frame on the repro witness's behalf:
            # the factory filter must leave non-matching frames alone
            import queue
            q = queue.Queue()
            assert not isinstance(q.mutex, _WitnessedLock)

    def test_matching_frames_get_proxies(self):
        with local_witness() as witness:
            lock = threading.Lock()
            assert isinstance(lock, _WitnessedLock)
            with lock:
                pass
        assert witness.cycles() == []

    def test_no_edges_without_nesting(self):
        with local_witness() as witness:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                pass
            with b:
                pass
        assert witness.edges() == {}

    def test_rlock_reentrancy_records_no_self_edge(self):
        with local_witness() as witness:
            lock = threading.RLock()
            with lock:
                with lock:
                    pass
        assert witness.edges() == {}
        assert witness.cycles() == []

    def test_uninstall_restores_factories(self):
        before = threading.Lock
        with local_witness():
            assert threading.Lock is not before
        assert threading.Lock is before


class TestInvertedPairSelfTest:
    """The intentional inversion the witness must catch."""

    def test_single_thread_inversion_is_a_cycle(self):
        with local_witness() as witness:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:        # order a -> b
                    pass
            with b:
                with a:        # inversion b -> a
                    pass
        cycles = witness.cycles()
        assert len(cycles) == 1
        assert len(cycles[0]) == 2

    def test_cross_thread_inversion_is_a_cycle(self):
        with local_witness() as witness:
            a = threading.Lock()
            b = threading.Lock()

            def forward():
                with a:
                    with b:
                        pass

            def backward():
                with b:
                    with a:
                        pass

            forward()
            worker = threading.Thread(target=backward)
            worker.start()
            worker.join()
        assert witness.cycles()

    def test_report_shape(self):
        with local_witness() as witness:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
        report = witness.report()
        assert len(report["sites"]) == 2
        assert len(report["edges"]) == 1
        assert report["cycles"] == []
        (edge,) = report["edges"]
        assert edge[2] == 1 and edge[0] != edge[1]


class TestCrossCheck:
    """Dynamic witness and static graph must agree on the live service."""

    @pytest.fixture(scope="class")
    def workload_witness(self, small_text):
        witness = LockWitness()
        witness.install()
        try:
            with connect(small_text, systems=("D",), service=True,
                         max_workers=4) as db:
                svc = db.service
                stream = UpdateStream(db.store("D"))
                draw = threading.Lock()

                def client(rank: int) -> None:
                    for seq in range(4):
                        if (rank + seq) % 4 == 0:
                            with draw:
                                op = stream.next_op()
                                stream.note_applied(op)
                                db.apply_transaction([op])
                        else:
                            svc.execute("D", (1, 2, 5)[seq % 3])

                with ThreadPoolExecutor(max_workers=3) as clients:
                    list(clients.map(client, range(3)))
                svc.execute("D", 1)
        finally:
            witness.uninstall()
        return witness

    def test_workload_recorded_real_edges(self, workload_witness):
        # a commit holds the connection lock's mutex while it re-keys the
        # result cache — the witness must have seen that order live
        edges = workload_witness.edges()
        assert edges, "witness recorded no ordering edges at all"
        sites = {site for pair in edges for site in pair}
        assert any("db/database.py" in s for s in sites)

    def test_commit_lock_order(self, workload_witness, small_text):
        """One write path, one order: the connection's update lock ->
        connection lock -> cache lock on a service; a direct connection's
        commit holds its update lock, then the connection lock (above
        the leaf metrics locks)."""
        project = Project.load(default_src_root(), package="repro")
        edges = set(cross_check(workload_witness, project)["dynamic_edges"])
        update = "repro.db.database:Database._update_lock"
        connection = "repro.db.database:ReadWriteLock._mutex"
        cache = "repro.cache:LRUCache._lock"
        assert {(update, connection), (connection, cache)} <= edges
        direct = LockWitness()
        direct.install()
        try:
            with connect(small_text, systems=("D",)) as db:
                with db.session().transaction() as txn:
                    txn.place_bid("open_auction0", "person1", 4.0,
                                  "05/24/2000", "11:00:00")
        finally:
            direct.uninstall()
        direct_edges = set(cross_check(direct, project)["dynamic_edges"])
        assert (update, connection) in direct_edges
        assert {a for a, _ in direct_edges} <= {update, connection}

    def test_no_dynamic_cycles(self, workload_witness):
        assert workload_witness.cycles() == []

    def test_union_with_static_graph_is_acyclic(self, workload_witness):
        project = Project.load(default_src_root(), package="repro")
        verdict = cross_check(workload_witness, project)
        assert verdict["dynamic_cycles"] == []
        assert verdict["union_cycles"] == []
        # The commit order (WritePath takes its lock and exclusion as
        # data) is in the union graph, down to the cache lock.
        union = set(verdict["static_edges"]) | set(verdict["dynamic_edges"])
        connection = "repro.db.database:ReadWriteLock._mutex"
        assert {("repro.db.database:Database._update_lock", connection),
                (connection, "repro.cache:LRUCache._lock")} <= union

    def test_dynamic_sites_join_static_registry(self, workload_witness):
        project = Project.load(default_src_root(), package="repro")
        verdict = cross_check(workload_witness, project)
        # at least one dynamic edge must land entirely in lock-id space:
        # the creation-site keying joins the two graphs losslessly
        assert any(a.split(":")[0] in project.modules
                   and b.split(":")[0] in project.modules
                   for a, b in verdict["dynamic_edges"]), \
            verdict["dynamic_edges"]
