"""Top-level command line: generate, load, query, benchmark.

    xmark generate -f 0.01 -o auction.xml
    xmark dtd
    xmark query -f 0.005 -q 8 -s D
    xmark bench  -f 0.005 --table 3
    xmark index  -f 0.005 -s BD
    xmark shard  -f 0.005 -n 3 -q 1 -q 8
    xmark trace  -f 0.005 -q 8 -s D
    xmark stats  -f 0.005 -s BD
    xmark recover --dir ./durable
    xmark checkpoint --dir ./durable
    xmark serve  -f 0.005 -s D --port 7720
    xmark client xmark://127.0.0.1:7720/auction -q 8
    xmark validate auction.xml
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.benchmark.queries import QUERIES, TABLE3_QUERIES
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.report import (
    figure4_report, query_group_legend, table1_report, table2_report, table3_report,
)
from repro.schema.auction import REFERENCE_TARGETS, auction_dtd
from repro.schema.validator import validate
from repro.storage.bulkload import scan_baseline
from repro.xmlgen.cli import main as xmlgen_main
from repro.xmlgen.generator import generate_string
from repro.xmlio.parser import parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xmark", description="XMark benchmark kit")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate the benchmark document")
    generate.add_argument("rest", nargs=argparse.REMAINDER)

    commands.add_parser("dtd", help="print the auction DTD")
    commands.add_parser("queries", help="list the twenty queries")

    lint = commands.add_parser(
        "lint",
        help="run the concurrency & correctness analyzer over src/repro",
        description="AST-based static analysis (repro.analyze): async-"
                    "blocking, lock-discipline, shared-state, error-"
                    "taxonomy and resource-hygiene passes, gated on new "
                    "findings relative to docs/LINT_BASELINE.json.")
    lint.add_argument("rest", nargs=argparse.REMAINDER)

    query = commands.add_parser(
        "query",
        help="run queries on the embedded database (one-shot or interactive)",
        description="Open an embedded database over a generated document "
                    "(repro.connect) and execute queries through a session: "
                    "a benchmark number (-q), raw XQuery text (positional "
                    "argument), or an interactive shell (-i) reading "
                    "blank-line-terminated queries from stdin.  Result rows "
                    "print as the cursor streams them.")
    query.add_argument("text", nargs="?", default=None,
                       help="raw XQuery text to execute (omit with -q or -i)")
    query.add_argument("-f", "--factor", type=float, default=0.005)
    query.add_argument("-q", "--query", type=int, default=None,
                       choices=sorted(QUERIES),
                       help="benchmark query number to execute")
    query.add_argument("-s", "--system", default="D", choices=list("ABCDEFG"))
    query.add_argument("--shards", type=int, default=None,
                       help="route through an N-shard scatter-gather "
                            "deployment instead of system -s")
    query.add_argument("-i", "--interactive", action="store_true",
                       help="read queries from stdin (number or XQuery text; "
                            "finish each with a blank line, :quit exits)")

    bench = commands.add_parser("bench", help="regenerate a paper table/figure")
    bench.add_argument("-f", "--factor", type=float, default=0.005)
    bench.add_argument("--table", type=int, choices=(1, 2, 3), default=None)
    bench.add_argument("--figure4", action="store_true")

    index = commands.add_parser(
        "index",
        help="inspect the secondary indexes each system builds at load",
        description="Load the document into the chosen systems and report "
                    "what repro.index built at mark_loaded time: the value "
                    "(hash) and sorted (range) fields with their entry and "
                    "distinct-key counts — the cardinality statistics the "
                    "planner's scan-vs-probe choice reads — plus the "
                    "dictionary-encoded path index and build cost.")
    index.add_argument("-f", "--factor", type=float, default=0.005,
                       help="document scaling factor (default 0.005)")
    index.add_argument("-s", "--systems", default="ABCDEFG",
                       help="system letters to load, e.g. 'D' or 'BD' "
                            "(default: all seven)")
    index.add_argument("--json", dest="json_path", default=None,
                       help="also write the summaries to this file")

    update = commands.add_parser(
        "update",
        help="apply a deterministic update workload and report maintenance cost",
        description="Load the document into the chosen systems, apply a "
                    "seeded stream of typed update operations "
                    "(register_person / place_bid / close_auction / "
                    "delete_item) through the update engine, and report "
                    "per-operation mutation and index-maintenance cost.  "
                    "All chosen systems receive the identical operations; "
                    "with two or more systems the run serializes every "
                    "document and answers Q1-Q20 on every system "
                    "afterwards, and exits non-zero if documents or "
                    "answers diverge.")
    update.add_argument("-f", "--factor", type=float, default=0.005,
                        help="document scaling factor (default 0.005)")
    update.add_argument("-s", "--systems", default="D",
                        help="system letters to update, e.g. 'D' or 'BD' "
                             "(default D)")
    update.add_argument("-n", "--operations", type=int, default=10,
                        help="number of operations to apply (default 10)")
    update.add_argument("--seed", type=int, default=None,
                        help="update stream seed (default: the built-in seed)")
    update.add_argument("--json", dest="json_path", default=None,
                        help="also write the per-op report to this file")

    shard = commands.add_parser(
        "shard",
        help="partition the document and run scatter-gather queries",
        description="Split the generated document into N shards along "
                    "schema-aware extents (items by region, people by id "
                    "hash, auctions co-located by referenced item), load "
                    "each shard into a backend architecture, report the "
                    "partition layout, and optionally execute benchmark "
                    "queries through the distributed scatter-gather "
                    "executor — verifying every result against an "
                    "unsharded oracle store.")
    shard.add_argument("-f", "--factor", type=float, default=0.005,
                       help="document scaling factor (default 0.005)")
    shard.add_argument("-n", "--shards", type=int, default=3,
                       help="number of shards (default 3)")
    shard.add_argument("-b", "--backends", default="F",
                       help="backend system letters cycled across shards "
                            "(default F)")
    shard.add_argument("-q", "--query", type=int, action="append",
                       dest="queries", choices=sorted(QUERIES), default=None,
                       help="query number to execute (repeatable; default: "
                            "partition summary only)")
    shard.add_argument("--rounds", type=int, default=3,
                       help="timing rounds per query, best-of (default 3)")
    shard.add_argument("--json", dest="json_path", default=None,
                       help="also write the report to this file")

    trace = commands.add_parser(
        "trace",
        help="explain and profile one query's execution",
        description="Open a traced embedded database, print the EXPLAIN "
                    "plan (chosen access paths, shard routing, predicted "
                    "streaming barriers), execute the query, and print the "
                    "recorded span tree — where the time actually went, "
                    "layer by layer.")
    trace.add_argument("text", nargs="?", default=None,
                       help="raw XQuery text to trace (omit with -q)")
    trace.add_argument("-f", "--factor", type=float, default=0.005,
                       help="document scaling factor (default 0.005)")
    trace.add_argument("-q", "--query", type=int, default=None,
                       choices=sorted(QUERIES),
                       help="benchmark query number to trace")
    trace.add_argument("-s", "--system", default="D", choices=list("ABCDEFG"))
    trace.add_argument("--shards", type=int, default=None,
                       help="trace through an N-shard scatter-gather "
                            "deployment instead of system -s")
    trace.add_argument("--service", action="store_true",
                       help="route through the query service (admission, "
                            "plan/result caches) instead of direct execution")
    trace.add_argument("--log", dest="trace_log", default=None,
                       help="append the finished span tree to this "
                            "JSON-lines workload log")
    trace.add_argument("--json", dest="json_path", default=None,
                       help="also write {explain, profile} to this file")

    stats = commands.add_parser(
        "stats",
        help="answer Q1-Q20 through the query service and print its metrics",
        description="Answer each of Q1-Q20 once on every requested system "
                    "through a service connection, then print every metric "
                    "the unified registry collected — counters, gauges, and "
                    "ring-buffer latency histograms, with per-system "
                    "labels — in the text exposition format.")
    stats.add_argument("-f", "--factor", type=float, default=0.005,
                       help="document scaling factor (default 0.005)")
    stats.add_argument("-s", "--systems", default="D",
                       help="system letters to serve (default D)")
    stats.add_argument("--json", dest="json_path", default=None,
                       help="also write the registry snapshot to this file")

    recover_cmd = commands.add_parser(
        "recover",
        help="recover a durable directory (snapshot load + WAL replay)",
        description="Reconnect to a durable deployment "
                    "(repro.connect(durable=dir)) on System F: load the "
                    "manifest's snapshot, replay the WAL suffix through the "
                    "write path, verify the digest chain record by record, "
                    "truncate a torn WAL tail, and report what was "
                    "replayed, skipped, and dropped.")
    recover_cmd.add_argument("--dir", dest="directory", required=True,
                             help="the durable directory to recover")
    recover_cmd.add_argument("--out", default=None,
                             help="write the recovered document to this file")
    recover_cmd.add_argument("--json", dest="json_path", default=None,
                             help="also write the recovery report to this "
                                  "file")

    checkpoint_cmd = commands.add_parser(
        "checkpoint",
        help="snapshot a durable directory's state and compact its WAL",
        description="Reconnect to the durable directory on System F "
                    "(repro.connect(durable=dir)), write a fresh snapshot "
                    "of its document at the last committed LSN, flip the "
                    "manifest to it, truncate the WAL down to the records "
                    "the snapshot does not cover, and drop the superseded "
                    "snapshot file.")
    checkpoint_cmd.add_argument("--dir", dest="directory", required=True,
                                help="the durable directory to checkpoint")
    checkpoint_cmd.add_argument("--json", dest="json_path", default=None,
                                help="also write the checkpoint report to "
                                     "this file")

    serve_cmd = commands.add_parser(
        "serve",
        help="serve documents over the wire protocol (xmark://)",
        description="Generate (or read) a document, open an embedded "
                    "database over it, and serve it on a TCP socket with "
                    "the length-prefixed JSON wire protocol: handshake, "
                    "prepared queries, paged cursor fetches, transactions, "
                    "checkpoints — with per-tenant quotas and bounded "
                    "backpressure.  Connect with repro.connect("
                    "'xmark://host:port/NAME') or `xmark client`.")
    serve_cmd.add_argument("-f", "--factor", type=float, default=0.005,
                           help="document scaling factor (default 0.005)")
    serve_cmd.add_argument("--doc", dest="doc_path", default=None,
                           help="serve this XML file instead of generating")
    serve_cmd.add_argument("-s", "--systems", default="D",
                           help="system letters to load (default D)")
    serve_cmd.add_argument("--name", default="auction",
                           help="document name in the URL path "
                                "(default auction)")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=7720,
                           help="TCP port (0 picks an ephemeral port; "
                                "default 7720)")
    serve_cmd.add_argument("--workers", type=int, default=8,
                           help="worker pool size (default 8)")
    serve_cmd.add_argument("--queue-depth", type=int, default=16,
                           help="admitted requests beyond the pool before "
                                "server_busy replies (default 16)")
    serve_cmd.add_argument("--durable", default=None,
                           help="write-ahead-log directory (enables "
                                "checkpoint requests)")
    serve_cmd.add_argument("--max-sessions", type=int, default=64,
                           help="per-tenant connection quota (default 64)")
    serve_cmd.add_argument("--max-inflight", type=int, default=16,
                           help="per-tenant in-flight request quota "
                                "(default 16)")
    serve_cmd.add_argument("--max-cursors", type=int, default=32,
                           help="per-tenant open-cursor quota (default 32)")
    serve_cmd.add_argument("--tracing", action="store_true",
                           help="trace served queries (span trees; see "
                                "--trace-sample-rate)")
    serve_cmd.add_argument("--trace-sample-rate", type=float, default=1.0,
                           help="head-sampling rate for traces, 0..1 "
                                "(default 1.0; deterministic per tenant)")
    serve_cmd.add_argument("--slow-trace-ms", type=float, default=None,
                           help="always keep traces of requests at least "
                                "this slow, regardless of sampling")
    serve_cmd.add_argument("--query-log", default=None,
                           help="append one JSON line per served query to "
                                "this file (schema v1, rotatable)")
    serve_cmd.add_argument("--query-log-max-bytes", type=int, default=None,
                           help="rotate the query log at this size "
                                "(keeps 3 older files)")

    top_cmd = commands.add_parser(
        "top",
        help="live per-tenant view over a running xmark serve",
        description="Poll a wire server's stats and print a per-tenant "
                    "table: qps, request latency percentiles, in-flight "
                    "requests, busy (admission-refusal) rate, and cache "
                    "hit ratio.  Ctrl-C exits.")
    top_cmd.add_argument("url", help="xmark://host:port/document")
    top_cmd.add_argument("--interval", type=float, default=2.0,
                         help="seconds between polls (default 2)")
    top_cmd.add_argument("-n", "--iterations", type=int, default=0,
                         help="stop after N polls (default: run until "
                              "interrupted)")
    top_cmd.add_argument("--tenant", default=None,
                         help="tenant name for the polling connection")

    client_cmd = commands.add_parser(
        "client",
        help="run a query against a running xmark serve",
        description="Connect to a wire server, execute one query (a "
                    "benchmark number or raw XQuery text) through a "
                    "session, and print rows as the pages stream in; "
                    "--stats instead prints the server's live stats.")
    client_cmd.add_argument("url", help="xmark://host:port/document")
    client_cmd.add_argument("text", nargs="?", default=None,
                            help="raw XQuery text (omit with -q or --stats)")
    client_cmd.add_argument("-q", "--query", type=int, default=None,
                            choices=sorted(QUERIES),
                            help="benchmark query number to execute")
    client_cmd.add_argument("-s", "--system", default=None,
                            help="system letter (default: the server's "
                                 "default system)")
    client_cmd.add_argument("--tenant", default=None,
                            help="tenant name for the handshake")
    client_cmd.add_argument("--stats", action="store_true",
                            help="print the server's live stats as JSON")

    validate_cmd = commands.add_parser("validate", help="validate a document against the DTD")
    validate_cmd.add_argument("path")
    return parser


def _index_report(args) -> int:
    from repro.benchmark.systems import get_profile, parse_system_letters
    from repro.errors import BenchmarkError

    try:
        systems = parse_system_letters(args.systems)
    except BenchmarkError as exc:
        print(f"index: {exc}", file=sys.stderr)
        return 2
    text = generate_string(args.factor)
    runner = BenchmarkRunner(text, systems=systems)
    summaries: dict[str, dict] = {}
    for system in systems:
        if system in runner.failed_loads:
            print(f"system {system} failed to load: {runner.failed_loads[system]}",
                  file=sys.stderr)
            continue
        store = runner.stores[system]
        if store.indexes is None:
            print(f"System {system}: no secondary indexes built")
            continue
        summary = store.indexes.summary()
        summaries[system] = summary
        profile = get_profile(system)
        enabled = ", ".join(
            flag for flag, on in (
                ("id", profile.use_id_index and store.has_id_index()),
                ("value", profile.use_value_index),
                ("sorted", profile.use_sorted_index),
                ("path", profile.use_path_index),
            ) if on) or "none (scan-only profile)"
        print(f"System {system}  [{store.architecture}]")
        print(f"  built in {summary['build_ms']:.2f} ms over "
              f"{summary['nodes_walked']} nodes, ~{summary['size_bytes'] / 1024:.1f} kB; "
              f"planner may use: {enabled}")
        for entry in summary["value"]:
            print(f"  value   {entry['field']:55s} entries={entry['entries']:<6d} "
                  f"distinct={entry['distinct_keys']:<6d} "
                  f"avg-bucket={entry['avg_bucket']}")
        for entry in summary["sorted"]:
            span = ("empty" if entry["min"] is None
                    else f"[{entry['min']:g}, {entry['max']:g}]")
            print(f"  sorted  {entry['field']:55s} entries={entry['entries']:<6d} "
                  f"range={span}")
        paths = summary["paths"]
        if paths:
            print(f"  paths   {paths['distinct_paths']} distinct label paths over "
                  f"{paths['nodes']} nodes")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump({"factor": args.factor, "systems": summaries}, handle, indent=2)
        print(f"wrote {args.json_path}")
    return 0


def _update_report(args) -> int:
    from repro.benchmark.systems import parse_system_letters
    from repro.db import connect
    from repro.errors import BenchmarkError
    from repro.storage.interface import document_digest
    from repro.update import UpdateStream, serialize_store
    from repro.update.stream import DEFAULT_UPDATE_SEED

    try:
        systems = parse_system_letters(args.systems)
    except BenchmarkError as exc:
        print(f"update: {exc}", file=sys.stderr)
        return 2
    with connect(generate_string(args.factor), systems=systems) as db:
        for system, reason in db.failed_loads.items():
            print(f"system {system} failed to load: {reason}", file=sys.stderr)
        stores = db.stores
        if not stores:
            return 1

        seed = args.seed if args.seed is not None else DEFAULT_UPDATE_SEED
        stream = UpdateStream(next(iter(stores.values())), seed)
        report = []
        for number in range(args.operations):
            op = stream.next_op()
            stream.note_applied(op)
            commit = db.apply_transaction([op])
            row = {"op": op.token(), "systems": commit["systems"]}
            report.append(row)
            if hasattr(op, "person"):
                shown = f"{op.kind}:{op.person.attributes.get('id', '?')}"
            else:
                shown = ":".join(op.token().split(":", 3)[:2])
            costs = "  ".join(
                f"{system} {cells['mutate_ms'] + cells['index_ms']:7.3f} ms"
                for system, cells in row["systems"].items())
            print(f"  #{number + 1:<3d} {shown:<42s} {costs}")

        print(f"applied {len(report)} operation(s); "
              f"digest {db.document_digest()}")
        # The digest is a hash chain over (load, op tokens) and cannot detect
        # a store mis-applying an op — serialize and compare the documents.
        if len(stores) > 1:
            texts = {serialize_store(store) for store in stores.values()}
            if len(texts) != 1:
                print("update: serialized documents diverged", file=sys.stderr)
                return 1
            print("serialized documents identical across systems")
            # Serializing walks content and cannot see a wrong document
            # order; descendant steps and `<<` can.  Compare answers too.
            diverged = [
                number for number in sorted(QUERIES)
                if len({document_digest(db.execute(system, number).serialize())
                        for system in stores}) != 1]
            if diverged:
                print("update: answers diverged on "
                      + ", ".join(f"Q{number}" for number in diverged),
                      file=sys.stderr)
                return 1
            print(f"Q1-Q{len(QUERIES)} answers identical across systems")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump({"factor": args.factor, "seed": seed,
                       "operations": report}, handle, indent=2)
        print(f"wrote {args.json_path}")
    return 0


def _shard_report(args) -> int:
    import time

    from repro.benchmark.systems import get_profile, make_store, parse_system_letters
    from repro.errors import BenchmarkError, ShardError
    from repro.shard import ShardedStore
    from repro.shard.scatter import ScatterGatherExecutor
    from repro.xquery.evaluator import evaluate
    from repro.xquery.planner import compile_query

    try:
        backends = parse_system_letters(args.backends)
    except BenchmarkError as exc:
        print(f"shard: {exc}", file=sys.stderr)
        return 2
    text = generate_string(args.factor)
    try:
        sharded = ShardedStore(args.shards, backends)
        sharded.load(text)
    except (ShardError, BenchmarkError) as exc:
        print(f"shard: {exc}", file=sys.stderr)
        return 2
    summary = sharded.partition_summary()
    print(f"partitioned f={args.factor} ({len(text)} bytes) into "
          f"{args.shards} shard(s)")
    for rank in range(args.shards):
        entities = summary["entities"][rank]
        shown = ", ".join(f"{count} {tag}" for tag, count in entities.items()
                          if count)
        print(f"  shard {rank} [{summary['backends'][rank]}] "
              f"{summary['fragment_bytes'][rank]:>9d} bytes  {shown or 'empty'}")

    report = {"factor": args.factor, "shards": args.shards,
              "partition": summary, "queries": []}
    failures = 0
    if args.queries:
        oracle = make_store(backends[0])
        oracle.load(text)
        # Partial caching off: the timed rounds price distributed
        # execution (compile + evaluate), not LRU hits.
        with ScatterGatherExecutor(sharded, partial_cache_size=0) as executor:
            for number in args.queries:
                query = QUERIES[number].text
                outcome = executor.execute(query)
                expected = evaluate(compile_query(
                    query, oracle, get_profile(backends[0]))).serialize()
                matches = outcome.result.serialize() == expected
                failures += 0 if matches else 1
                best = float("inf")
                for _ in range(max(1, args.rounds)):
                    started = time.perf_counter()
                    executor.execute(query)
                    best = min(best, time.perf_counter() - started)
                row = {"query": number, "plan": outcome.plan_kind,
                       "shards_used": outcome.shards_used,
                       "ms": round(best * 1000.0, 3),
                       "result_size": len(outcome.result),
                       "oracle_ok": matches}
                report["queries"].append(row)
                print(f"  Q{number:<2d} plan={row['plan']:<14s} "
                      f"{row['ms']:>9.3f} ms  {row['result_size']:>5d} item(s)  "
                      f"oracle {'ok' if matches else 'MISMATCH'}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote {args.json_path}")
    return 1 if failures else 0


def _recover_command(args) -> int:
    """``xmark recover``: a durable reconnect on System F + its report."""
    from repro.db import connect
    from repro.errors import XMarkError
    from repro.storage.interface import store_document_text

    try:
        db = connect(None, systems=("F",), durable=args.directory)
    except XMarkError as exc:
        print(f"recover: {exc}", file=sys.stderr)
        return 1
    with db:
        report = db.recovery
        print(f"recovered {args.directory}")
        print(f"  snapshot lsn {report.snapshot_lsn} "
              f"(digest {report.snapshot_digest}), "
              f"loaded in {report.load_seconds * 1000:.1f} ms")
        print(f"  replayed {report.replayed} record(s), skipped "
              f"{report.skipped}, in {report.replay_seconds * 1000:.1f} ms")
        if report.torn_tail is not None:
            print(f"  dropped a {report.torn_tail} tail")
        print(f"  state at lsn {report.last_lsn}, digest {report.digest}")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(store_document_text(db.store("F")))
            print(f"wrote recovered document to {args.out}")
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump(report.summary(), handle, indent=2)
            print(f"wrote {args.json_path}")
    return 0


def _checkpoint_command(args) -> int:
    """``xmark checkpoint``: a durable reconnect on System F +
    ``db.checkpoint()``."""
    from repro.db import connect
    from repro.errors import XMarkError

    try:
        with connect(None, systems=("F",), durable=args.directory) as db:
            outcome = db.checkpoint()
    except XMarkError as exc:
        print(f"checkpoint: {exc}", file=sys.stderr)
        return 1
    print(f"checkpointed {args.directory} at lsn {outcome['lsn']}: "
          f"wrote {outcome['snapshot']}, dropped {outcome['records_dropped']} "
          "WAL record(s)")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(outcome, handle, indent=2)
        print(f"wrote {args.json_path}")
    return 0


def _query_command(args) -> int:
    """``xmark query``: sessions + streaming cursors over ``repro.connect``."""
    import time as _time

    from repro.db import connect
    from repro.errors import XMarkError

    if args.query is None and args.text is None and not args.interactive:
        print("query: give -q NUMBER, raw XQuery text, or -i", file=sys.stderr)
        return 2
    document = generate_string(args.factor)
    if args.shards is not None:
        database = connect(document, systems=(), shards=args.shards)
        target = "S"
    else:
        database = connect(document, systems=(args.system,))
        target = args.system

    def run_one(session, query: int | str) -> int:
        started = _time.perf_counter()
        try:
            cursor = session.execute(query, system=target)
            count = 0
            for item in cursor:         # rows print as the cursor streams
                print(cursor.rowtext(item), flush=True)
                count += 1
        except XMarkError as exc:
            print(f"query: {exc}", file=sys.stderr)
            return 1
        elapsed = (_time.perf_counter() - started) * 1000.0
        mode = "streamed" if cursor.streaming else "materialized"
        print(f"\n-- {count} item(s) in {elapsed:.1f} ms on {target} "
              f"({mode}; compile {cursor.compile_seconds * 1000:.1f} ms)",
              file=sys.stderr)
        return 0

    def parse_input(block: str) -> int | str:
        stripped = block.strip()
        return int(stripped) if stripped.isdigit() else block

    with database, database.session() as session:
        if not args.interactive:
            query = args.query if args.query is not None else args.text
            return run_one(session, query)
        print("XMark query shell — enter a benchmark number or XQuery text; "
              "finish each query with a blank line; :quit exits.",
              file=sys.stderr)
        status = 0
        buffer: list[str] = []
        for line in sys.stdin:
            stripped = line.strip()
            if stripped == ":quit":
                buffer = []             # an un-submitted query is abandoned
                break
            if stripped == "":
                if buffer:
                    status |= run_one(session, parse_input("\n".join(buffer)))
                    buffer = []
                continue
            buffer.append(line.rstrip("\n"))
        if buffer:
            status |= run_one(session, parse_input("\n".join(buffer)))
        return status


def _trace_command(args) -> int:
    """``xmark trace``: EXPLAIN + execute + PROFILE through one session."""
    from repro.db import connect
    from repro.errors import XMarkError

    if args.query is None and args.text is None:
        print("trace: give -q NUMBER or raw XQuery text", file=sys.stderr)
        return 2
    query = args.query if args.query is not None else args.text
    document = generate_string(args.factor)
    try:
        if args.shards is not None:
            database = connect(document, systems=(), shards=args.shards,
                               service=args.service, tracing=True,
                               trace_log=args.trace_log)
            target = "S"
        else:
            database = connect(document, systems=(args.system,),
                               service=args.service, tracing=True,
                               trace_log=args.trace_log)
            target = args.system
    except XMarkError as exc:
        print(f"trace: {exc}", file=sys.stderr)
        return 2
    with database, database.session() as session:
        try:
            explain = session.explain(query, system=target)
            print(explain.render())
            cursor = session.execute(query, system=target, stream=False)
            cursor.fetchall()
        except XMarkError as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return 1
        span = cursor.profile()
        print()
        print("PROFILE")
        print(span.render(indent=1) if span is not None
              else "  (no span recorded)")
        if args.trace_log:
            print(f"\nappended trace to {args.trace_log}")
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump({"explain": explain.as_dict(),
                           "profile": span.to_dict() if span else None},
                          handle, indent=2)
            print(f"wrote {args.json_path}")
    return 0


def _stats_command(args) -> int:
    """``xmark stats``: Q1-Q20 once per system, then the registry's text form."""
    from repro.benchmark.systems import parse_system_letters
    from repro.db import connect
    from repro.errors import BenchmarkError

    try:
        systems = parse_system_letters(args.systems)
        text = generate_string(args.factor)
        with connect(text, systems=systems, service=True) as db:
            for system in systems:
                if system in db.failed_loads:
                    print(f"system {system} failed to load: "
                          f"{db.failed_loads[system]}", file=sys.stderr)
                    return 1
            session = db.session()
            for system in systems:
                for number in sorted(QUERIES):
                    session.execute(number, system=system).fetchall()
            print(db.service.export_metrics(as_text=True))
            if args.json_path:
                with open(args.json_path, "w", encoding="utf-8") as handle:
                    json.dump(db.service.export_metrics(), handle, indent=2)
                print(f"wrote {args.json_path}")
    except BenchmarkError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    return 0


def _serve_command(args) -> int:
    """``xmark serve``: the wire server on a socket until interrupted."""
    import asyncio

    from repro.benchmark.systems import parse_system_letters
    from repro.db import connect
    from repro.errors import XMarkError
    from repro.obs.trace import NULL_TRACER
    from repro.server import TenantQuota, XMarkServer

    try:
        systems = parse_system_letters(args.systems)
        if args.doc_path is not None:
            with open(args.doc_path, "r", encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = generate_string(args.factor)
        database = connect(text, systems=systems, durable=args.durable,
                           tracing=args.tracing)
    except (OSError, XMarkError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    query_log = None
    if args.query_log is not None:
        from repro.obs.querylog import QueryLogWriter
        query_log = QueryLogWriter(args.query_log,
                                   max_bytes=args.query_log_max_bytes)
    server = XMarkServer(
        args.host, args.port,
        max_workers=args.workers,
        queue_depth=args.queue_depth,
        tracer=database.tracer if args.tracing else NULL_TRACER,
        trace_sample_rate=args.trace_sample_rate,
        slow_trace_ms=args.slow_trace_ms,
        query_log=query_log,
        default_quota=TenantQuota(max_sessions=args.max_sessions,
                                  max_inflight=args.max_inflight,
                                  max_cursors=args.max_cursors),
    )
    server.add_document(args.name, database, owned=True)

    async def _run() -> None:
        await server.start()
        print(f"serving {args.name} ({'/'.join(systems)}) at "
              f"xmark://{server.host}:{server.port}/{args.name}",
              flush=True)
        try:
            await server.wait_stopped()
        except asyncio.CancelledError:
            await server.stop()
            raise

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("serve: interrupted, shutting down", file=sys.stderr)
    return 0


def _parse_metric_labels(rendered: str) -> tuple[str, dict[str, str]]:
    """``name{k="v",k2="v2"}`` -> ``(name, {k: v, k2: v2})``."""
    name, brace, rest = rendered.partition("{")
    if not brace:
        return rendered, {}
    labels = {}
    for pair in rest.rstrip("}").split(","):
        key, _, value = pair.partition("=")
        labels[key] = value.strip('"')
    return name, labels


def _top_rows(stats: dict, previous: dict | None,
              interval: float) -> list[dict]:
    """One ``xmark top`` table: per-tenant live numbers from two polls."""
    metrics = stats.get("metrics", {})
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    tenants = stats.get("tenants", {})

    def tenant_counter(counter_name: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for rendered, value in counters.items():
            name, labels = _parse_metric_labels(rendered)
            if name == counter_name and set(labels) == {"tenant"}:
                out[labels["tenant"]] = value
        return out

    executes = tenant_counter("server.executes_total")
    busy = tenant_counter("server.busy_total")
    plan_hits = tenant_counter("server.plan_cache_hits_total")
    result_hits = tenant_counter("server.result_cache_hits_total")
    latency: dict[str, dict] = {}
    for rendered, summary in histograms.items():
        name, labels = _parse_metric_labels(rendered)
        if name == "server.request_ms" and set(labels) == {"tenant"}:
            latency[labels["tenant"]] = summary

    prev_executes = (previous or {}).get("executes", {})
    rows = []
    for tenant in sorted(set(tenants) | set(executes) | set(latency)):
        total = executes.get(tenant, 0)
        delta = total - prev_executes.get(tenant, 0)
        qps = delta / interval if previous is not None else None
        summary = latency.get(tenant, {})
        requests = tenants.get(tenant, {}).get("requests_total", 0)
        hits = plan_hits.get(tenant, 0) + result_hits.get(tenant, 0)
        rows.append({
            "tenant": tenant,
            "qps": qps,
            "queries": total,
            "p50_ms": summary.get("p50_ms"),
            "p95_ms": summary.get("p95_ms"),
            "p99_ms": summary.get("p99_ms"),
            "inflight": tenants.get(tenant, {}).get("inflight", 0),
            "busy_rate": (busy.get(tenant, 0) / requests) if requests else 0.0,
            "cache_hit_rate": (hits / (2 * total)) if total else 0.0,
        })
    return rows


def _top_command(args) -> int:
    """``xmark top``: a polling per-tenant terminal view over ``stats``."""
    import time as _time

    from repro.errors import XMarkError
    from repro.server import connect_url

    try:
        database = connect_url(args.url, tenant=args.tenant)
    except (OSError, XMarkError) as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 1
    header = (f"{'TENANT':<12} {'QPS':>8} {'QUERIES':>8} {'P50MS':>8} "
              f"{'P95MS':>8} {'P99MS':>8} {'INFLT':>6} {'BUSY%':>6} "
              f"{'CACHE%':>7}")
    polls = 0
    previous = None
    try:
        with database:
            while True:
                stats = database.stats()
                rows = _top_rows(stats, previous, args.interval)
                print(f"-- {args.url}  connections={stats['connections']} "
                      f"active={stats['active_requests']}")
                print(header)
                for row in rows:
                    qps = ("-" if row["qps"] is None
                           else f"{row['qps']:.1f}")
                    fmt_ms = [("-" if row[key] is None else f"{row[key]:.2f}")
                              for key in ("p50_ms", "p95_ms", "p99_ms")]
                    print(f"{row['tenant']:<12} {qps:>8} "
                          f"{row['queries']:>8.0f} {fmt_ms[0]:>8} "
                          f"{fmt_ms[1]:>8} {fmt_ms[2]:>8} "
                          f"{row['inflight']:>6} "
                          f"{row['busy_rate'] * 100:>6.1f} "
                          f"{row['cache_hit_rate'] * 100:>7.1f}")
                if not rows:
                    print("(no tenant activity yet)")
                sys.stdout.flush()
                polls += 1
                if args.iterations and polls >= args.iterations:
                    return 0
                previous = {"executes": {
                    row["tenant"]: row["queries"] for row in rows}}
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (OSError, XMarkError) as exc:
        print(f"top: {exc}", file=sys.stderr)
        return 1


def _client_command(args) -> int:
    """``xmark client``: one query (or a stats dump) over the wire."""
    import time as _time

    from repro.errors import XMarkError
    from repro.server import connect_url

    if not args.stats and args.query is None and args.text is None:
        print("client: give -q NUMBER, raw XQuery text, or --stats",
              file=sys.stderr)
        return 2
    try:
        database = connect_url(args.url, tenant=args.tenant)
    except (OSError, XMarkError) as exc:
        print(f"client: {exc}", file=sys.stderr)
        return 1
    with database:
        if args.stats:
            stats = database.stats()
            stats.pop("kind", None)
            stats.pop("id", None)
            json.dump(stats, sys.stdout, indent=2)
            print()
            return 0
        query = args.query if args.query is not None else args.text
        started = _time.perf_counter()
        try:
            with database.session(tenant=args.tenant) as session:
                cursor = session.execute(query, system=args.system)
                count = 0
                for item in cursor:     # rows print as the pages stream in
                    print(cursor.rowtext(item), flush=True)
                    count += 1
        except XMarkError as exc:
            print(f"client: {exc}", file=sys.stderr)
            return 1
        elapsed = (_time.perf_counter() - started) * 1000.0
        print(f"\n-- {count} item(s) in {elapsed:.1f} ms over the wire "
              f"({cursor.system} on {database.document})", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "generate":
        # Pass everything through to the xmlgen CLI (argparse REMAINDER
        # cannot capture leading dashes reliably).
        return xmlgen_main(argv[1:])
    if argv and argv[0] == "lint":
        # Same passthrough idiom: the analyzer owns its option surface.
        from repro.analyze.engine import main as lint_main
        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "dtd":
        sys.stdout.write(auction_dtd().serialize())
        return 0
    if args.command == "queries":
        print(query_group_legend())
        return 0
    if args.command == "validate":
        with open(args.path, "r", encoding="ascii") as handle:
            document = parse(handle.read())
        report = validate(document, auction_dtd(), REFERENCE_TARGETS)
        print(f"elements={report.elements_checked} ids={report.ids_seen} "
              f"refs={report.refs_checked}")
        if report.ok:
            print("VALID")
            return 0
        for violation in report.violations[:20]:
            print(f"violation: {violation}")
        return 1

    if args.command == "index":
        return _index_report(args)

    if args.command == "update":
        return _update_report(args)


    if args.command == "trace":
        return _trace_command(args)

    if args.command == "stats":
        return _stats_command(args)

    if args.command == "shard":
        return _shard_report(args)

    if args.command == "recover":
        return _recover_command(args)

    if args.command == "checkpoint":
        return _checkpoint_command(args)

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "client":
        return _client_command(args)

    if args.command == "top":
        return _top_command(args)

    if args.command == "query":
        return _query_command(args)

    if args.command == "bench":
        text = generate_string(args.factor)
        if args.figure4:
            series = {}
            for scale in (args.factor / 10, args.factor):
                doc = generate_string(scale)
                runner = BenchmarkRunner(doc, systems=("G",))
                series[scale] = {
                    q: runner.run("G", q)[0] for q in sorted(QUERIES)
                }
            print(figure4_report(series))
            return 0
        systems = tuple("ABCDEF")
        runner = BenchmarkRunner(text, systems=systems)
        if args.table == 1:
            print(table1_report(runner.load_reports, scan_baseline(text)))
        elif args.table == 2:
            grid = runner.run_matrix(("A", "B", "C"), (1, 2), repeats=3)
            print(table2_report(grid))
        else:
            grid = runner.run_matrix(systems, TABLE3_QUERIES, repeats=2)
            print(table3_report(grid))
        return 0
    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
