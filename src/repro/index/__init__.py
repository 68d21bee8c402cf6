"""Secondary indexes for the XML stores.

The paper's fastest systems win the Section 7 queries because they resolve
exact-match lookups (Q1), range predicates (Q5, Q20) and value joins
(Q8-Q12) through auxiliary access structures instead of scans; the index
survey literature (Mahboubi's *Indices in XML Databases*, Simalango's query-
processing survey) catalogs the same three families this package provides:

* :class:`~repro.index.indexes.ValueIndex` — a hash index over *typed*
  element/attribute values (``person/@id``, ``closed_auction/buyer/@person``);
  keys are numbers when the stored string casts, strings otherwise, matching
  the evaluator's runtime-casting comparison semantics.
* :class:`~repro.index.indexes.SortedNumericIndex` — sorted ``(key, node)``
  pairs for range and inequality predicates, probed by bisection.
* :class:`~repro.index.indexes.PathIndex` — dictionary-encoded label paths
  mapped to node-id lists: the structural summary generalized to *every*
  store architecture, not just System D's.

Indexes are declared by an :class:`~repro.index.spec.IndexSpec` (what to
index, like ``CREATE INDEX`` statements) and built by
:func:`~repro.index.builder.build_index_set` at ``Store.mark_loaded`` time,
purely through the store's own navigation API — so one builder serves all
seven architectures and the resulting extents are identical across them.
The planner (:mod:`repro.xquery.planner`) consults the per-field cardinality
statistics to choose scan vs probe; the evaluator executes the probe
operators.

Under document *updates* the set stays current by per-node deltas
(:mod:`repro.index.maintenance`, driven by :mod:`repro.update.engine`);
the wholesale rebuild stays available as the ablation baseline.
"""

from repro.index.builder import IndexSet, build_index_set, extract_values
from repro.index.indexes import (
    PathIndex, SortedNumericIndex, ValueIndex, normalize_key,
)
from repro.index.spec import DEFAULT_AUCTION_SPEC, FieldSpec, IndexSpec

__all__ = [
    "DEFAULT_AUCTION_SPEC",
    "FieldSpec",
    "IndexSet",
    "IndexSpec",
    "PathIndex",
    "SortedNumericIndex",
    "ValueIndex",
    "build_index_set",
    "extract_values",
    "normalize_key",
]
