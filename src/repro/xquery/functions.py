"""Built-in function library.

The subset the twenty benchmark queries require: cardinalities (count, sum),
existence (empty, not), text (string, contains), cardinality assertions
(zero-or-one, exactly-one) and value sets (distinct-values).  Each
implementation takes its argument sequences positionally, then the
navigator; the evaluator's emit pass resolves name and arity once per call
site (``BUILTINS``), so nothing is looked up per call.  ``last()`` and
``position()`` are context functions, and ``document()`` / ``doc()`` only
ever root a path; the emitter handles all four itself.
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.xquery.sequence import (
    NodeItem, Navigator, atomic_to_string, atomize, atomize_item,
    effective_boolean, to_number,
)


def _fn_count(sequence: list, navigator: Navigator) -> list:
    return [len(sequence)]


def _fn_sum(sequence: list, navigator: Navigator) -> list:
    values = atomize(sequence, navigator)
    return [sum(to_number(value) for value in values)] if values else [0]


def _fn_empty(sequence: list, navigator: Navigator) -> list:
    return [not sequence]


def _fn_exists(sequence: list, navigator: Navigator) -> list:
    return [bool(sequence)]


def _fn_not(sequence: list, navigator: Navigator) -> list:
    return [not effective_boolean(sequence)]


def _fn_string(sequence: list, navigator: Navigator) -> list:
    if not sequence:
        return [""]
    return [atomic_to_string(atomize_item(sequence[0], navigator))]


def _fn_contains(haystack: list, needle: list, navigator: Navigator) -> list:
    return [_fn_string(needle, navigator)[0] in _fn_string(haystack, navigator)[0]]


def _fn_number(sequence: list, navigator: Navigator) -> list:
    if not sequence:
        return []
    return [to_number(atomize_item(sequence[0], navigator))]


def _fn_zero_or_one(sequence: list, navigator: Navigator) -> list:
    if len(sequence) > 1:
        raise QueryError(f"zero-or-one(): sequence has {len(sequence)} items")
    return list(sequence)


def _fn_exactly_one(sequence: list, navigator: Navigator) -> list:
    if len(sequence) != 1:
        raise QueryError(f"exactly-one(): sequence has {len(sequence)} items")
    return list(sequence)


def _fn_distinct_values(sequence: list, navigator: Navigator) -> list:
    seen: set = set()
    out: list = []
    for value in atomize(sequence, navigator):
        key = atomic_to_string(value)
        if key not in seen:
            seen.add(key)
            out.append(value)
    return out


def _fn_name(sequence: list, navigator: Navigator) -> list:
    if not sequence or not isinstance(sequence[0], NodeItem):
        return [""]
    return [navigator.tag(sequence[0].handle)]


BUILTINS = {
    "count": (_fn_count, 1),
    "sum": (_fn_sum, 1),
    "empty": (_fn_empty, 1),
    "exists": (_fn_exists, 1),
    "not": (_fn_not, 1),
    "string": (_fn_string, 1),
    "contains": (_fn_contains, 2),
    "number": (_fn_number, 1),
    "zero-or-one": (_fn_zero_or_one, 1),
    "exactly-one": (_fn_exactly_one, 1),
    "distinct-values": (_fn_distinct_values, 1),
    "name": (_fn_name, 1),
}
