"""The three index structures: value (hash), sorted numeric, and path.

All three store opaque store handles next to a dense build sequence number
(the builder walks in document order, so the sequence number *is* a
document-order key that works for every handle representation — ints, DOM
objects, composite tuples).  Probe results therefore come back as
``(seq, handle)`` pairs that callers can sort or deduplicate without ever
asking the store for a document position.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right, insort

from repro.errors import QueryError

#: ``xs:double``'s lexical space for a finite number: ASCII digits, no
#: ``_`` separators (Python's ``float()`` accepts both, XQuery neither).
_DOUBLE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_SPECIAL = {"INF": float("inf"), "-INF": float("-inf"), "NaN": float("nan")}
_DECIMAL = "0123456789."
_LEAD = frozenset("0123456789.+-IN \t\n\r")     # how a number may start


def cast_double(text: str) -> float | None:
    """``text`` cast to ``xs:double``, or None outside its lexical space.

    The one string-to-number cast: comparisons, arithmetic and the index
    keys all call it, so they agree on which strings are numbers.  XML
    whitespace around the number is allowed; the only non-finite spellings
    are ``INF``, ``-INF`` and ``NaN``.  A string of ASCII digits and dots
    (every number in the benchmark's document) is one exactly when
    ``float()`` parses it.  A string whose first character starts no
    number — a letter other than ``I`` or ``N``, as in an id like
    ``person12`` — fails without calling ``float()`` or raising; the rest
    (a sign, an exponent, surrounding whitespace, ``_``, non-ASCII digits,
    spellings of infinity or NaN) are matched against the lexical space."""
    if text and not text.strip(_DECIMAL):
        try:
            return float(text)
        except ValueError:              # "." or "1.2.3": rare
            return None
    if text[:1] not in _LEAD:
        return None
    text = text.strip(" \t\n\r")
    special = _SPECIAL.get(text)
    if special is not None:
        return special
    return float(text) if _DOUBLE.fullmatch(text) else None


def normalize_key(value) -> float | str | None:
    """The typed key of one raw value, matching runtime-cast comparisons.

    The benchmark stores every value as a string and casts at runtime
    (paper Section 6: the "Casting" challenge); two values are ``=`` when
    both cast to the same number, or failing that, when the strings match.
    A hash index must collapse exactly the same equivalence classes, so
    keys are floats whenever the string casts and raw strings otherwise.
    NaN never equals anything (including itself) under runtime casting, so
    NaN-casting values return None: not indexable, never probe-able.
    """
    if isinstance(value, str):          # document text: the common case
        number = cast_double(value)
        if number is None:
            return value
    elif isinstance(value, bool):
        return 1.0 if value else 0.0
    elif isinstance(value, (int, float)):
        number = float(value)
    else:
        return None
    if number != number:                # NaN
        return None
    return number


class ValueIndex:
    """Hash index over the typed values of one field."""

    __slots__ = ("field", "extent_size", "nodes_empty", "nodes_multi",
                 "_buckets", "_entries")

    def __init__(self, field) -> None:
        self.field = field
        self.extent_size = 0            # nodes at the field's path
        self.nodes_empty = 0            # extent nodes with no accessor value
        self.nodes_multi = 0            # extent nodes with 2+ accessor values
        self._entries = 0
        self._buckets: dict[float | str, list[tuple[int, object]]] = {}

    def add(self, raw_value, seq: int, handle) -> None:
        key = normalize_key(raw_value)
        if key is None:
            return
        bucket = self._buckets.setdefault(key, [])
        # A node contributes one probe hit per key however many of its
        # values collapse to that key (existential semantics): drop the
        # duplicate the builder would otherwise append back-to-back.
        if bucket and bucket[-1][0] == seq:
            return
        bucket.append((seq, handle))
        self._entries += 1

    def probe(self, value) -> list[tuple[int, object]]:
        """Entries whose key equals ``value`` (document order).

        The live bucket, not a copy: maintenance edits it in place, so a
        caller that removes one of these nodes copies it first.
        """
        key = normalize_key(value)
        if key is None:
            return []
        return self._buckets.get(key, [])

    # -- incremental maintenance -------------------------------------------------

    def insert(self, raw_value, seq: int, handle) -> None:
        """Add one entry at its seq position (per-node update delta).

        Unlike the build-time :meth:`add` (which only ever appends), an
        update may land anywhere in a bucket's seq order, so the entry is
        insorted; a duplicate ``(seq, *)`` entry (two raw values of one
        node collapsing to the same key) is dropped exactly like at build.
        """
        key = normalize_key(raw_value)
        if key is None:
            return
        bucket = self._buckets.setdefault(key, [])
        position = bisect_left(bucket, seq, key=lambda entry: entry[0])
        if position < len(bucket) and bucket[position][0] == seq:
            return
        bucket.insert(position, (seq, handle))
        self._entries += 1

    def remove(self, raw_value, handle) -> None:
        """Drop the entry ``raw_value`` contributed for ``handle``.

        Missing entries are ignored (the value may have been un-indexable,
        e.g. NaN-casting, in which case :meth:`add` never stored it).
        """
        key = normalize_key(raw_value)
        if key is None:
            return
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        for position, (_seq, entry_handle) in enumerate(bucket):
            if entry_handle == handle:
                del bucket[position]
                self._entries -= 1
                break
        if not bucket:
            del self._buckets[key]

    def seq_of(self, raw_value, handle) -> int | None:
        """The build/maintenance seq under which ``handle`` is bucketed."""
        key = normalize_key(raw_value)
        if key is None:
            return None
        for seq, entry_handle in self._buckets.get(key, ()):
            if entry_handle == handle:
                return seq
        return None

    @property
    def entries(self) -> int:
        return self._entries

    @property
    def distinct_keys(self) -> int:
        return len(self._buckets)

    def key_counts(self) -> dict[float | str, int]:
        """``key -> number of distinct nodes holding it`` for every key.

        Entries are deduplicated per (node, key) at insert, so a bucket's
        length *is* its node count — the build side of a distributed
        count-join comes straight off the index, no navigation walk.
        """
        return {key: len(bucket) for key, bucket in self._buckets.items()}

    @property
    def avg_bucket(self) -> float:
        """Expected matches of one probe — the planner's cardinality stat."""
        return self._entries / len(self._buckets) if self._buckets else 0.0

    def size_bytes(self) -> int:
        total = sys.getsizeof(self._buckets)
        for key, bucket in self._buckets.items():
            total += sys.getsizeof(key) + sys.getsizeof(bucket) + 16 * len(bucket)
        return total

    def summary(self) -> dict:
        return {
            "field": self.field.label,
            "kind": "value",
            "entries": self._entries,
            "distinct_keys": self.distinct_keys,
            "extent_size": self.extent_size,
            "avg_bucket": round(self.avg_bucket, 2),
        }


class SortedNumericIndex:
    """Sorted ``(key, node)`` pairs for range and inequality predicates."""

    __slots__ = ("field", "extent_size", "nodes_empty", "nodes_multi",
                 "_keys", "seqs", "handles", "_pending")

    def __init__(self, field) -> None:
        self.field = field
        self.extent_size = 0
        self.nodes_empty = 0            # extent nodes with no raw accessor value
        self.nodes_multi = 0            # extent nodes with 2+ raw accessor values
        self._pending: list[tuple[float, int, object]] | None = []
        self._keys: list[float] = []
        #: Key-ordered handles and their build seqs, the parallel arrays a
        #: window indexes into (``seqs`` restores its document order).
        #: Live and read-only: maintenance splices them in place, so a
        #: window must not outlive the evaluation that bisected it.
        self.seqs: list[int] = []
        self.handles: list = []

    def add(self, raw_value, seq: int, handle) -> None:
        key = normalize_key(raw_value)
        if key is None or isinstance(key, str):
            return                      # non-numeric: no ordering predicate matches
        assert self._pending is not None, "index already frozen"
        self._pending.append((key, seq, handle))

    def freeze(self) -> None:
        """Sort once after the build walk; probes are bisections thereafter."""
        assert self._pending is not None
        self._pending.sort(key=lambda entry: (entry[0], entry[1]))
        self._keys = [entry[0] for entry in self._pending]
        self.seqs = [entry[1] for entry in self._pending]
        self.handles = [entry[2] for entry in self._pending]
        self._pending = None

    def window(self, op: str, bound: float, scale: float = 1.0) -> tuple[int, int]:
        """Half-open interval ``[start, stop)`` of the entries whose key
        ``v`` satisfies ``scale*v OP bound`` — the one bisect primitive.

        A literal range predicate probes with ``scale == 1``; the probe
        side of an index-backed sorted join (Q11/Q12's ``$income > 5000 *
        $initial``) passes the mirrored operator and the literal scale.
        The comparison bisects on the *scaled* key so the float arithmetic
        is bit-identical to what a per-query-built sorted join would
        compute — boundary values land on the same side either way.
        Requires ``scale > 0`` (monotone).
        """
        keys = self._keys
        key_fn = None if scale == 1.0 else (lambda v: scale * v)
        if op == "<":
            return 0, bisect_left(keys, bound, key=key_fn)
        if op == "<=":
            return 0, bisect_right(keys, bound, key=key_fn)
        if op == ">":
            return bisect_right(keys, bound, key=key_fn), len(keys)
        if op == ">=":
            return bisect_left(keys, bound, key=key_fn), len(keys)
        if op == "=":
            return (bisect_left(keys, bound, key=key_fn),
                    bisect_right(keys, bound, key=key_fn))
        raise QueryError(f"sorted index cannot answer op {op!r}")

    def pairs(self, start: int, stop: int):
        """``(seq, handle)`` pairs of one window, in key order (may repeat
        a node once per matching value; callers deduplicate by seq)."""
        return zip(self.seqs[start:stop], self.handles[start:stop])

    def count(self, op: str, bound: float) -> int:
        """Exact matching-entry count — compile-time selectivity for free."""
        start, stop = self.window(op, bound)
        return stop - start

    # -- incremental maintenance -------------------------------------------------

    def insert(self, raw_value, seq: int, handle) -> None:
        """Splice one entry into the frozen arrays at its (key, seq) slot."""
        key = normalize_key(raw_value)
        if key is None or isinstance(key, str):
            return
        assert self._pending is None, "freeze the index before maintaining it"
        position = bisect_left(self._keys, key)
        while position < len(self._keys) and self._keys[position] == key \
                and self.seqs[position] < seq:
            position += 1
        self._keys.insert(position, key)
        self.seqs.insert(position, seq)
        self.handles.insert(position, handle)

    def remove(self, raw_value, handle) -> None:
        """Drop the entry ``raw_value`` contributed for ``handle``."""
        key = normalize_key(raw_value)
        if key is None or isinstance(key, str):
            return
        start = bisect_left(self._keys, key)
        stop = bisect_right(self._keys, key)
        for position in range(start, stop):
            if self.handles[position] == handle:
                del self._keys[position]
                del self.seqs[position]
                del self.handles[position]
                return

    def seq_of(self, raw_value, handle) -> int | None:
        """The seq under which ``handle`` is stored for ``raw_value``."""
        key = normalize_key(raw_value)
        if key is None or isinstance(key, str):
            return None
        start = bisect_left(self._keys, key)
        stop = bisect_right(self._keys, key)
        for position in range(start, stop):
            if self.handles[position] == handle:
                return self.seqs[position]
        return None

    @property
    def entries(self) -> int:
        return len(self._keys)

    def bounds(self) -> tuple[float, float] | None:
        if not self._keys:
            return None
        return (self._keys[0], self._keys[-1])

    def size_bytes(self) -> int:
        return (sys.getsizeof(self._keys) + sys.getsizeof(self.seqs)
                + sys.getsizeof(self.handles) + 24 * len(self._keys))

    def summary(self) -> dict:
        bounds = self.bounds()
        return {
            "field": self.field.label,
            "kind": "sorted",
            "entries": self.entries,
            "extent_size": self.extent_size,
            "min": bounds[0] if bounds else None,
            "max": bounds[1] if bounds else None,
        }


class PathIndex:
    """Dictionary-encoded label paths mapped to node lists.

    Every distinct root-to-node tag sequence gets a small integer id (the
    dictionary encoding); the extent of path id ``p`` is the document-
    ordered list of handles whose label path is ``p``.  This generalizes
    System D's structural summary to every store architecture.
    """

    __slots__ = ("_ids", "_extents")

    def __init__(self) -> None:
        self._ids: dict[tuple[str, ...], int] = {}
        self._extents: list[list] = []

    def add(self, path: tuple[str, ...], handle) -> None:
        self.extent(path).append(handle)

    def extent(self, path: tuple[str, ...]) -> list:
        """The live extent of ``path``, registered empty when first seen.

        The builder appends to it in walk order; maintenance hands it to
        :func:`repro.storage.interface.splice_subtree`, which enters an
        inserted subtree's run at its document-order position so
        :meth:`nodes` keeps its contract under updates.
        """
        pid = self._ids.get(path)
        if pid is None:
            pid = self._ids[path] = len(self._extents)
            self._extents.append([])
        return self._extents[pid]

    def path_id(self, path: tuple[str, ...]) -> int | None:
        return self._ids.get(path)

    def nodes(self, path: tuple[str, ...]) -> list:
        """The extent of ``path`` in document order ([] when absent)."""
        pid = self._ids.get(path)
        return self._extents[pid] if pid is not None else []

    def count(self, path: tuple[str, ...]) -> int:
        pid = self._ids.get(path)
        return len(self._extents[pid]) if pid is not None else 0

    # -- incremental maintenance -------------------------------------------------

    def remove(self, path: tuple[str, ...], handle) -> None:
        """Drop ``handle`` from its path extent (ignored when absent)."""
        pid = self._ids.get(path)
        if pid is None:
            return
        try:
            self._extents[pid].remove(handle)
        except ValueError:
            pass

    @property
    def distinct_paths(self) -> int:
        return len(self._ids)

    @property
    def total_nodes(self) -> int:
        return sum(len(extent) for extent in self._extents)

    def paths(self) -> list[tuple[str, ...]]:
        return list(self._ids)

    def size_bytes(self) -> int:
        total = sys.getsizeof(self._ids) + sys.getsizeof(self._extents)
        for path, pid in self._ids.items():
            total += sum(sys.getsizeof(tag) for tag in path)
            total += sys.getsizeof(self._extents[pid]) + 8 * len(self._extents[pid])
        return total

    def summary(self) -> dict:
        return {"distinct_paths": self.distinct_paths, "nodes": self.total_nodes}
