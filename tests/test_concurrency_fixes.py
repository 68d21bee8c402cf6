"""Regression tests for the races ``xmark lint`` surfaced.

Each test pins one fix from the shared-state pass's findings:

* ``QueryService.close`` — the closed latch now flips under the update
  lock, so concurrent closers agree on one winner and the query log is
  closed exactly once;
* ``QueryService.submit`` — a ``close()`` that lands between the open
  check and the pool hand-off raises the service's typed closed error,
  not the pool's ``RuntimeError``;
* ``WireClient.request`` — a truncated reply marks the session closed
  *inside* the request lock, so a racing request can never slip a send
  onto the dead socket between the None reply and the flag flip.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import BenchmarkError, ClosedSessionError, ProtocolError
from repro.server import client as client_mod
from repro.server.client import WireClient
from repro.service import QueryService


class TestQueryServiceCloseRace:
    def test_concurrent_close_single_winner(self, small_text):
        svc = QueryService(small_text, ("D",), max_workers=2)
        closes: list[int] = []
        real_shutdown = svc._pool.shutdown

        def counting_shutdown(*args, **kwargs):
            closes.append(1)
            return real_shutdown(*args, **kwargs)

        svc._pool.shutdown = counting_shutdown
        barrier = threading.Barrier(4)

        def racer():
            barrier.wait()
            svc.close()

        threads = [threading.Thread(target=racer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert closes == [1]          # exactly one closer won the latch
        with pytest.raises(BenchmarkError, match="closed"):
            svc.submit("D", 1)

    def test_close_remains_idempotent_sequentially(self, small_text):
        svc = QueryService(small_text, ("D",), max_workers=1)
        svc.close()
        svc.close()                   # second call is a quiet no-op

    def test_submit_racing_close_gets_a_typed_error(self, small_text,
                                                    monkeypatch):
        svc = QueryService(small_text, ("D",), max_workers=1)
        real_store = svc.store

        def store_then_close(system):
            store = real_store(system)
            svc.close()               # lands after submit's open check
            return store

        monkeypatch.setattr(svc, "store", store_then_close)
        with pytest.raises(BenchmarkError, match="query service is closed"):
            svc.submit("D", 1)


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
