"""Set-up layers, measured one public call at a time in the traced pass.

``setup_s`` is one number; these say where it went: generating the document
(``xmlgen``), tokenizing and parsing it (``xmlio``), converting it into each
architecture (``storage``), building the secondary indexes (``index``) and
partitioning it into shards (``shard``).  They should move ``setup_s`` and
nothing else.
"""

from __future__ import annotations

import time

import repro
from repro.index.builder import build_index_set
from repro.shard.partition import DocumentPartitioner
from repro.shard.store import ShardedStore

from ledger.spans import SpanRecorder


def _probe(spans: SpanRecorder, name: str, layer: str, call):
    """Run ``call()`` in a span, between two calibration marks; returns
    ``(its result, seconds at reference speed)``."""
    def spanned():
        with spans.span(name, layer):
            return call()
    return spans.speed.timed(spanned)


def document_layers(spans: SpanRecorder, scale: float) -> tuple[str, dict]:
    document, generate_s = _probe(spans, "xmlgen.generate", "xmlgen",
                                  lambda: repro.generate_string(scale))
    _, parse_s = _probe(spans, "xmlio.parse", "xmlio", lambda: repro.parse(document))
    _, scan_s = _probe(spans, "xmlio.scan", "xmlio",
                       lambda: repro.scan_baseline(document))
    return document, {"xmlgen.generate_s": generate_s, "xmlio.parse_s": parse_s,
                      "xmlio.scan_s": scan_s}


def connect(spans: SpanRecorder, document: str, **options):
    """``repro.connect`` in a bracketed span; returns ``(database, layer
    metrics)``: per-architecture bulkload time and size as the connection
    reported them, plus System D's index build re-run in isolation."""
    database, _ = _probe(spans, "db.connect", "db",
                         lambda: repro.connect(document, **options))
    factor = spans.speed.factor(time.perf_counter())
    out = {}
    for system, report in database.load_reports.items():
        if system in "BDFG":
            out[f"storage.bulkload_s.{system}"] = report.seconds * factor
            out[f"storage.size_ratio.{system}"] = report.size_ratio
    store = database.stores.get("D")
    if store is not None and store.indexes is not None:
        rebuilt, out["index.build_s.D"] = _probe(
            spans, "index.build", "index",
            lambda: build_index_set(store, store.index_spec()))
        out["index.bytes.D"] = rebuilt.size_bytes()
    return database, out


def shard_layers(spans: SpanRecorder, document: str, shards: int,
                 backends: tuple[str, ...]) -> dict:
    parts, partition_s = _probe(spans, "shard.partition", "shard",
                                lambda: DocumentPartitioner(shards).partition(document))
    _, load_s = _probe(spans, "shard.load", "shard",
                       lambda: ShardedStore(shards, backends).load_partition(parts))
    return {"shard.partition_s": partition_s, "shard.load_s": load_s}
