#!/usr/bin/env python3
"""Entry point of the performance ledger (see README.md in this directory).

    python3 benchmarks/ledger/run.py --seed 2002 [--workload NAME] [--trace]
                                     [--smoke] [--json OUT] [--runs N]

Runs from a plain checkout: the program is imported from ``src/`` beside this
directory, never from an installed copy.
"""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from ledger.cli import main
    sys.exit(main())
