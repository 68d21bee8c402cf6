#!/usr/bin/env python
"""Function-exercise coverage with a soft gate against the recorded baseline.

Runs the test suite under a stdlib profile hook (no external coverage
dependency), counts every ``def`` in ``src/repro`` that executed at least
once, and compares the percentage against the baseline recorded in
``docs/COVERAGE_BASELINE.txt``.  The gate is *soft*: the job fails only when
coverage drops more than ``--tolerance`` (default 2.0) percentage points
below the baseline, so incidental drift is visible without blocking and
real regressions fail CI.

    PYTHONPATH=src python tools/check_function_coverage.py
    python tools/check_function_coverage.py --baseline 85.3 --tolerance 2

The printed ``TOTAL functions ... exercised ... = ...%`` line is the
whole of docs/COVERAGE_BASELINE.txt, so refreshing the baseline is a
copy of this script's output line.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
import threading

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")
BASELINE_DOC = os.path.join(REPO_ROOT, "docs", "COVERAGE_BASELINE.txt")
BASELINE_PATTERN = re.compile(r"TOTAL functions (\d+) exercised (\d+)")


def recorded_baseline() -> float:
    """The baseline percentage recorded in docs/COVERAGE_BASELINE.txt."""
    with open(BASELINE_DOC, "r", encoding="utf-8") as handle:
        matched = BASELINE_PATTERN.search(handle.read())
    if matched is None:
        raise SystemExit(f"no 'TOTAL functions' baseline in {BASELINE_DOC}")
    defined, exercised = int(matched.group(1)), int(matched.group(2))
    return 100.0 * exercised / defined


def defined_functions() -> set[tuple[str, str, int]]:
    defined: set[tuple[str, str, int]] = set()
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.add((path, node.name, node.lineno))
    return defined


def run_suite_profiled() -> tuple[int, set[tuple[str, str, int]]]:
    """(pytest exit code, functions observed executing under src/repro)."""
    seen: set[tuple[str, str, int]] = set()

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SRC):
                seen.add((code.co_filename, code.co_name, code.co_firstlineno))

    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    import pytest

    threading.setprofile(profiler)
    sys.setprofile(profiler)
    try:
        rc = pytest.main(["-q", "-p", "no:cacheprovider",
                          os.path.join(REPO_ROOT, "tests")])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return int(rc), seen


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="function-exercise coverage soft gate")
    parser.add_argument("--baseline", type=float, default=None,
                        help="baseline percentage (default: parsed from "
                             "docs/COVERAGE_BASELINE.txt)")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="allowed drop below baseline, in points "
                             "(default 2.0)")
    args = parser.parse_args(argv)

    baseline = args.baseline if args.baseline is not None else recorded_baseline()
    rc, seen = run_suite_profiled()
    if rc != 0:
        print(f"test suite failed (exit {rc}); coverage not evaluated",
              file=sys.stderr)
        return rc

    defined = defined_functions()
    hit = defined & seen
    percent = 100.0 * len(hit) / len(defined) if defined else 0.0
    print(f"TOTAL functions {len(defined)} exercised {len(hit)} "
          f"= {percent / 100:.1%}")
    floor = baseline - args.tolerance
    print(f"baseline {baseline:.1f}%, tolerance {args.tolerance:.1f} points "
          f"-> floor {floor:.1f}%")
    if percent < floor:
        missing = sorted(defined - seen)
        print("coverage gate FAILED; sample of unexercised functions:",
              file=sys.stderr)
        for path, name, line in missing[:15]:
            rel = os.path.relpath(path, REPO_ROOT)
            print(f"  {rel}:{line} {name}", file=sys.stderr)
        return 1
    print("coverage gate OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
