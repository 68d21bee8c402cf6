"""Regression tests for the races ``xmark lint`` surfaced.

Each test pins one fix from the shared-state pass's findings:

* ``Database.close`` on a service connection — the closed latch flips
  under the update lock, so concurrent closers agree on one winner and
  the query log is closed exactly once;
* ``QueryService.execute`` — a ``close()`` that lands between the open
  check and the connection's read side raises the connection's typed
  closed error once the read gets it;
* ``WireClient.request`` — a truncated reply marks the session closed
  *inside* the request lock, so a racing request can never slip a send
  onto the dead socket between the None reply and the flag flip.
"""

from __future__ import annotations

import threading

import pytest

from repro.db import connect
from repro.errors import ClosedSessionError, ProtocolError
from repro.server import client as client_mod
from repro.server.client import WireClient


class TestQueryServiceCloseRace:
    def test_concurrent_close_single_winner(self, small_text, tmp_path):
        db = connect(small_text, systems=("D",), service=True, max_workers=2,
                     query_log=tmp_path / "queries.jsonl")
        closes: list[int] = []
        real_close = db.query_log.close

        def counting_close():
            closes.append(1)
            return real_close()

        db.query_log.close = counting_close
        barrier = threading.Barrier(4)

        def racer():
            barrier.wait()
            db.close()

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert closes == [1]          # exactly one closer won the latch
        with pytest.raises(ClosedSessionError, match="closed"):
            db.service.execute("D", 1)

    def test_close_remains_idempotent_sequentially(self, small_text):
        db = connect(small_text, systems=("D",), service=True, max_workers=1)
        db.close()
        db.close()                    # second call is a quiet no-op

    def test_execute_racing_close_gets_a_typed_error(self, small_text,
                                                     monkeypatch):
        db = connect(small_text, systems=("D",), service=True, max_workers=1)
        real_resolve = db.resolve_system

        def resolve_then_close(system):
            name = real_resolve(system)
            db.close()                # lands after execute's open check
            return name

        monkeypatch.setattr(db, "resolve_system", resolve_then_close)
        with pytest.raises(ClosedSessionError,
                           match="database connection is closed"):
            db.service.execute("D", 1)


class TestWireClientTruncatedReply:
    @staticmethod
    def make_client(monkeypatch) -> WireClient:
        """A WireClient wired to a dead socket, bypassing the handshake."""
        client = WireClient.__new__(WireClient)
        client._lock = threading.Lock()
        client._closed = False
        client._max_frame = 1 << 20

        class DeadSocket:
            def sendall(self, data):
                return None

            def close(self):
                return None

        client._sock = DeadSocket()
        monkeypatch.setattr(client_mod.protocol, "recv_frame",
                            lambda sock, max_frame: None)
        return client

    def test_truncated_reply_raises_and_latches(self, monkeypatch):
        client = self.make_client(monkeypatch)
        with pytest.raises(ProtocolError, match="closed the connection"):
            client.request({"kind": "ping"})
        assert client._closed is True

    def test_latched_session_rejects_followups_typed(self, monkeypatch):
        client = self.make_client(monkeypatch)
        with pytest.raises(ProtocolError):
            client.request({"kind": "ping"})
        with pytest.raises(ClosedSessionError):
            client.request({"kind": "ping"})
