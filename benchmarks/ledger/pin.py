"""``run.py --pin``: recompute ``pins.json`` with eager System G.

System G is the naive DOM traversal — the slowest and simplest of the seven
architectures, and the one no ledger workload times at more than 1 MB.  Its
eager answers to Q1-Q20 are the reference every other path is compared to.
At f=0.1 its nested-loop joins need about two minutes, so the answers are
pinned here once and checked in every run.
"""

from __future__ import annotations

import hashlib
import json

import repro

from ledger import core

SCALES = (core.SMOKE_SCALE, 0.01, 0.02, 0.1)


def pins_for(scale: float) -> tuple[str, dict]:
    document = repro.generate_string(scale)
    sha = hashlib.sha256(document.encode("utf-8")).hexdigest()
    queries = {}
    with repro.connect(document, systems=("G",)) as database:
        if database.failed_loads:
            raise SystemExit(f"System G cannot load f={scale}: {database.failed_loads}")
        with database.session() as session:
            for number in range(1, 21):
                cursor = session.execute(number, stream=False)
                lines = [cursor.rowtext(row) for row in cursor.fetchall()]
                queries[str(number)] = core.digest_lines(lines)
    return sha, queries


def main() -> int:
    pins = {"oracle": "eager System G", "documents": {}, "queries": {}}
    for scale in SCALES:
        sha, queries = pins_for(scale)
        pins["documents"][core.scale_key(scale)] = sha
        pins["queries"][core.scale_key(scale)] = queries
        print(f"pinned f={scale}: document {sha[:16]}…")
    changed = (not core.PINS_PATH.exists()) or core.load_pins() != pins
    core.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print("pins.json", "changed" if changed else "unchanged")
    return 0
