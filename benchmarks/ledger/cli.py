"""The ledger's command line: one workload for the driver, or all of them.

``run.py --workload W --seed N --seconds S --trace 0|1`` runs one workload
and prints one JSON object as the last line of standard output (the contract
in BENCHMARK.json).  Without ``--workload`` it runs every workload in a
process of its own, prints every metric by name with its unit, quartiles and
sample count, writes ``--json OUT`` for ``diff.py`` and appends one line to
``history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from ledger import core

BENCHMARK = json.loads((core.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}


def module_for(name: str):
    if name.startswith("single_user"):
        from ledger import w_single
        return w_single
    if name == "served_mix":
        from ledger import w_served
        return w_served
    if name == "sharded_service_mix":
        from ledger import w_sharded
        return w_sharded
    from ledger import w_durable
    return w_durable


def run_one(name: str, ctx: core.Context, traced: bool) -> tuple[dict, dict]:
    """Run one workload in this process: ``(result line, detail)``."""
    module = module_for(name)
    started = time.perf_counter()
    if traced:
        tally, values = module.trace(ctx, name)
        unknown = set(values) - set(PER_LAYER)
        if unknown:
            raise SystemExit(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
        # A layer this workload does not exercise did no work: 0.
        metrics = {metric: {"value": values.get(metric, 0), "unit": spec["unit"]}
                   for metric, spec in PER_LAYER.items()}
        spread = {}
    else:
        tally, values = module.run(ctx, name)
        spread = values.pop("spread")
        spread["cells"] = values.pop("cells")       # per-cell medians, ms
        spread["as_measured"] = values.pop("as_measured")
        metrics = {metric: {"value": values[metric], "unit": spec["unit"]}
                   for metric, spec in END_TO_END.items()}
    result = {"correct": tally.failed == 0, "attempted": max(tally.attempted, 1),
              "failed": tally.failed, "metrics": metrics}
    detail = {"workload": name, "traced": traced, "seed": ctx.seed,
              "wall_s": time.perf_counter() - started,
              "reasons": tally.reasons, "spread": spread, "result": result}
    return result, detail


def _pin_to_one_core() -> None:
    """Run the whole workload — harness threads, and the server child that
    inherits the mask — on one core.  The two cores of this sandbox change
    speed independently of each other (kernel timings on them correlated at
    -0.2), so a calibration mark only describes the core it ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _single(args) -> int:
    _pin_to_one_core()
    ctx = core.Context(args.seed, args.seconds, args.smoke)
    result, detail = run_one(args.workload, ctx, bool(args.trace))
    core.OUT.mkdir(parents=True, exist_ok=True)
    path = core.OUT / f"detail-{args.workload}-{int(bool(args.trace))}.json"
    path.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    for reason in detail["reasons"]:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- the one command: every workload ------------------------------------------------


def _child(name: str, args, traced: bool) -> dict:
    command = [sys.executable, str(core.LEDGER / "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(traced))]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=900, check=False)
    path = core.OUT / f"detail-{name}-{int(traced)}.json"
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise SystemExit(f"{name}: run.py exited {done.returncode} without a result")
    return json.loads(path.read_text(encoding="utf-8"))


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=core.ROOT, capture_output=True, text=True,
                              timeout=10, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _all(args) -> int:
    report = {"commit": _commit(), "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "runs": args.runs, "nproc": os.cpu_count(),
              "loadavg": list(os.getloadavg()),
              "python": platform.python_version(), "workloads": {}}
    failed_any = False
    for name in WORKLOADS:
        details = [_child(name, args, False) for _ in range(args.runs)]
        entry = {"attempted": sum(d["result"]["attempted"] for d in details),
                 "failed": sum(d["result"]["failed"] for d in details),
                 "end_to_end": {}, "per_layer": {}}
        for metric, spec in END_TO_END.items():
            headline = [d["result"]["metrics"][metric]["value"] for d in details]
            # Several runs: their spread.  One run: the spread of its rounds
            # around the run's own (pooled) value.
            values = (headline if args.runs > 1
                      else details[0]["spread"].get(metric) or headline)
            q1, middle, q3 = core.quartiles(values)
            entry["end_to_end"][metric] = {
                "median": middle if args.runs > 1 else headline[0],
                "q1": q1, "q3": q3, "n": len(values), "unit": spec["unit"]}
        if args.trace:
            traced = _child(name, args, True)
            entry["attempted"] += traced["result"]["attempted"]
            entry["failed"] += traced["result"]["failed"]
            entry["per_layer"] = {metric: value for metric, value
                                  in traced["result"]["metrics"].items()
                                  if value["value"] != 0}
        entry["failed_ops_ratio"] = entry["failed"] / entry["attempted"]
        failed_any = failed_any or entry["failed"] > 0
        report["workloads"][name] = entry
        _print_workload(name, entry)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    if not args.smoke:
        with open(core.LEDGER / "history.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(report, separators=(",", ":")) + "\n")
    return 1 if failed_any else 0


def _print_workload(name: str, entry: dict) -> None:
    print(f"== {name}: attempted {entry['attempted']}, failed {entry['failed']}"
          f" (failed_ops_ratio {entry['failed_ops_ratio']:.6f})")
    for metric, stats in entry["end_to_end"].items():
        print(f"  {metric:<28} {stats['median']:>12.4f} {stats['unit']:<6}"
              f" q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} n={stats['n']}")
    for metric, value in entry["per_layer"].items():
        print(f"    {metric:<34} {value['value']:>14.4f} {value['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float,
                        default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="f=0.002, one round per workload")
    parser.add_argument("--json", metavar="OUT")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload (all-workload mode)")
    parser.add_argument("--pin", action="store_true",
                        help="recompute pins.json with eager System G")
    args = parser.parse_args(argv)
    if args.pin:
        from ledger import pin
        return pin.main()
    if args.workload:
        return _single(args)
    return _all(args)
