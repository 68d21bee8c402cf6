"""Index declarations: which fields of a document get secondary indexes.

A :class:`FieldSpec` names one indexed field the way a ``CREATE INDEX``
statement would: the *label path* of the indexed extent (every node whose
root-to-node tag sequence equals ``path``) plus an *accessor* — the steps
from an extent node to the key value:

* ``("@id",)``                 — an attribute of the node itself;
* ``("text()",)``              — the node's own text runs;
* ``("price", "text()")``      — a child element's text;
* ``("buyer", "@person")``     — a child element's attribute (multi-valued
  when the child repeats, exactly like the existential ``=`` of XQuery
  general comparisons).

The default spec below covers the access paths the benchmark queries
actually exercise; it is data, not code — stores build whatever spec
:meth:`repro.storage.interface.Store.index_spec` returns.

``stop_tags`` bounds the builder's walk: the auction document's
document-centric islands (``description``/``text`` CLOB content) are never
descended into, which keeps the build cheap, keeps System C's lazily parsed
fragments lazy, and mirrors where a real engine would switch from
structured indexing to full-text indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

VALUE = "value"
SORTED = "sorted"


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """One indexed field: an extent path, a key accessor, an index family."""

    path: tuple[str, ...]
    accessor: tuple[str, ...]
    kind: str                           # VALUE | SORTED

    @property
    def key(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The (path, accessor) pair indexes are registered under."""
        return (self.path, self.accessor)

    @property
    def label(self) -> str:
        return "/".join(self.path) + " :: " + "/".join(self.accessor)


@dataclass(frozen=True, slots=True)
class IndexSpec:
    """Everything :func:`~repro.index.builder.build_index_set` needs."""

    fields: tuple[FieldSpec, ...]
    stop_tags: frozenset[str]
    #: Whether the build walk fills a :class:`~repro.index.indexes.PathIndex`
    #: (and every write splices into it); off where the store answers
    #: every path extent natively, so no plan would ever read it.
    build_path_index: bool = True


_REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")

#: Tags whose subtrees hold document-centric (CLOB-like) content; the
#: builder records these nodes but never descends into them.
AUCTION_STOP_TAGS = frozenset(
    ("description", "text", "parlist", "listitem", "bold", "keyword", "emph"))

DEFAULT_AUCTION_SPEC = IndexSpec(
    fields=(
        # -- exact-match / join keys (hash) ----------------------------------
        FieldSpec(("site", "people", "person"), ("@id",), VALUE),
        FieldSpec(("site", "categories", "category"), ("@id",), VALUE),
        FieldSpec(("site", "open_auctions", "open_auction"), ("@id",), VALUE),
        FieldSpec(("site", "closed_auctions", "closed_auction"),
                  ("buyer", "@person"), VALUE),
        FieldSpec(("site", "closed_auctions", "closed_auction"),
                  ("itemref", "@item"), VALUE),
        *(FieldSpec(("site", "regions", region, "item"), ("@id",), VALUE)
          for region in _REGIONS),
        # Q10's category join (multi-valued: a person holds one entry per
        # distinct category among its interests).
        FieldSpec(("site", "people", "person"),
                  ("profile", "interest", "@category"), VALUE),
        # -- update cascades (no query plan probes these two) ----------------
        FieldSpec(("site", "people", "person", "watches", "watch"),
                  ("@open_auction",), VALUE),
        FieldSpec(("site", "open_auctions", "open_auction"),
                  ("itemref", "@item"), VALUE),
        # -- range / inequality keys (sorted) --------------------------------
        FieldSpec(("site", "closed_auctions", "closed_auction"),
                  ("price", "text()"), SORTED),
        FieldSpec(("site", "open_auctions", "open_auction", "initial"),
                  ("text()",), SORTED),
        FieldSpec(("site", "people", "person", "profile"), ("@income",), SORTED),
    ),
    stop_tags=AUCTION_STOP_TAGS,
)

#: The auction spec without the generic path index: what a store whose
#: ``nodes_at_path`` answers every absolute path itself (B's per-path
#: tables, D's summary) builds, since plans read that extent first.
NATIVE_PATHS_AUCTION_SPEC = replace(DEFAULT_AUCTION_SPEC, build_path_index=False)
