"""The harness's own spans: recorded around calls into the program.

Spans live in memory and are written to ``out/trace-<workload>.jsonl`` when
the traced pass ends.  Each carries name, layer, start, end, parent and the
request it belongs to.  The traced pass replays one request up a *ladder* of
public entry points (raw evaluator, ``Database``, ``QueryService``, scatter
executor, wire); each rung is one root span, and a layer's self time is its
rung minus the rung below — spans inside the program are a later change.

Rows keep the clock readings as measured; durations are converted to
reference speed (``core.Speed``) when they are aggregated.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

from ledger.core import Speed


class SpanRecorder:
    def __init__(self, speed: Speed) -> None:
        self.rows: list[dict] = []
        self.speed = speed
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, layer: str, request=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        row = {"id": None, "name": name, "layer": layer, "request": request,
               "parent": stack[-1]["id"] if stack else None,
               "start": 0.0, "end": 0.0}
        with self._lock:
            row["id"] = len(self.rows)
            self.rows.append(row)
        stack.append(row)
        row["start"] = time.perf_counter()
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            stack.pop()

    def seconds(self, row: dict) -> float:
        """One span's duration at reference speed."""
        return (row["end"] - row["start"]) * self.speed.factor(row["end"])

    def by_request(self, name: str) -> dict:
        """``request -> seconds`` over the spans called ``name``: the
        fastest replay of each request.  The ladder has time for two or
        three passes, and a stall (a descheduled core costs 100 ms here)
        only ever adds time, so the minimum is the estimate that repeats."""
        best: dict = {}
        for row in self.rows:
            if row["name"] == name:
                seconds = self.seconds(row)
                if seconds < best.get(row["request"], float("inf")):
                    best[row["request"]] = seconds
        return best

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(
                    dict(row, speed=self.speed.factor(row["end"])),
                    separators=(",", ":")) + "\n")
