#!/usr/bin/env python3
"""Public-API surface gate: snapshot what the library exports, fail on drift.

Walks the exported surface of ``repro``, ``repro.db``,
``repro.server``, ``repro.analyze`` and ``repro.service`` (every
``__all__`` name: functions with their signatures, classes with their
public methods and properties, constants with their types) and compares
it against the reviewed snapshot in ``docs/PUBLIC_API.txt``.

* ``python tools/check_public_api.py``            — check (CI: exit 1 on drift)
* ``python tools/check_public_api.py --update``   — rewrite the snapshot

The point is not to forbid change but to make it *reviewed*: an API break
must ship with a refreshed snapshot in the same PR, so it shows up in the
diff next to the code that caused it.
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MODULES = ("repro", "repro.db", "repro.server", "repro.analyze",
           "repro.service")
SNAPSHOT = ROOT / "docs" / "PUBLIC_API.txt"

#: Dunder methods that are part of a class's usable surface.
_DUNDER_SURFACE = frozenset((
    "__init__", "__call__", "__iter__", "__next__", "__enter__", "__exit__",
    "__len__",
))


def _signature(obj) -> str:
    """``obj``'s signature, with the checkout's root (in a default such
    as a source path) rendered as ``<repo>``: the snapshot must read the
    same wherever the repository is checked out."""
    try:
        signature = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    return signature.replace(str(ROOT), "<repo>")


def _class_lines(qualified: str, cls: type) -> list[str]:
    bases = ", ".join(base.__name__ for base in cls.__bases__
                      if base is not object)
    lines = [f"class {qualified}" + (f"({bases})" if bases else "")]
    for name, attribute in sorted(vars(cls).items()):
        if name.startswith("_") and name not in _DUNDER_SURFACE:
            continue
        member = f"{qualified}.{name}"
        if isinstance(attribute, property):
            lines.append(f"  property {member}")
        elif isinstance(attribute, (staticmethod, classmethod)):
            lines.append(f"  def {member}{_signature(attribute.__func__)}")
        elif inspect.isfunction(attribute):
            lines.append(f"  def {member}{_signature(attribute)}")
    return lines


def surface() -> list[str]:
    """The exported surface, one sorted deterministic line per feature."""
    lines: list[str] = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            raise SystemExit(f"{module_name} has no __all__; nothing to gate")
        for name in sorted(exported):
            obj = getattr(module, name)
            qualified = f"{module_name}.{name}"
            if inspect.isclass(obj):
                lines.extend(_class_lines(qualified, obj))
            elif inspect.isfunction(obj):
                lines.append(f"def {qualified}{_signature(obj)}")
            else:
                lines.append(f"const {qualified}: {type(obj).__name__}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the snapshot instead of checking")
    args = parser.parse_args(argv)

    current = surface()
    if args.update:
        SNAPSHOT.write_text("\n".join(current) + "\n", encoding="utf-8")
        print(f"wrote {SNAPSHOT} ({len(current)} lines)")
        return 0

    if not SNAPSHOT.exists():
        print(f"missing snapshot {SNAPSHOT}; run with --update to create it",
              file=sys.stderr)
        return 1
    recorded = SNAPSHOT.read_text(encoding="utf-8").splitlines()
    if recorded == current:
        print(f"public API surface matches {SNAPSHOT.name} "
              f"({len(current)} lines)")
        return 0
    print("public API surface drifted from the reviewed snapshot:\n",
          file=sys.stderr)
    for line in difflib.unified_diff(recorded, current,
                                     fromfile=str(SNAPSHOT),
                                     tofile="current exports", lineterm=""):
        print(line, file=sys.stderr)
    print("\nIf the change is intentional, refresh the snapshot with:\n"
          "  python tools/check_public_api.py --update\n"
          "and commit it in the same PR.", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
