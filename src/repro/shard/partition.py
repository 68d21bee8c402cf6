"""Schema-aware horizontal partitioning of the auction document.

The auction site decomposes into independent top-level extents — six world
regions of items, people, open auctions, closed auctions, plus the small
category dimension — and that structure is the partitioning scheme:

* **items by region** — a whole region's ``item`` extent lives on one
  shard (``region rank mod N``).  Locality beats balance here on purpose:
  region-rooted path queries (Q13's ``/site/regions/australia/item``)
  become single-shard, and the skew the real region sizes produce
  (namerica holds ~46% of all items) is visible in the partition summary
  rather than hidden by hashing.
* **people hash-partitioned by id** — ``crc32(@id) mod N``.
* **auctions hash-partitioned by the id of the item they reference** —
  both ``open_auction`` and ``closed_auction`` route on
  ``itemref/@item``.  This is the referential co-location rule: an
  auction's lineage is the item it sells, so a ``close_auction`` cascade
  (remove the open auction, insert the closed one, same ``itemref``)
  stays on one shard, and a ``delete_item`` cascade finds every
  referencing auction — open and closed — on one shard.  ``place_bid``
  is shard-local trivially (it touches a single open auction).
  Watch-removal cascades cross shards: watches live under their person.
* **categories and catgraph on shard 0** — small reference dimension; no
  update operation touches it, every shard document keeps (possibly
  empty) container elements so the fragments stay schema-shaped.

Each shard document is itself a complete ``site`` document over its
subset of entities, so any of the seven store architectures can bulkload
one unchanged.  Alongside the fragments, the partition records the
*global order seeds*: for every extent, the original child positions of
each shard's entities.  The sharded store rebuilds exact document order
from these — merged results are bit-identical to the unsharded document,
not merely deterministic.

Entities are assumed to be the only children of their containers (no
inter-entity text), which holds for every generated auction document.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.errors import ShardError
from repro.schema.auction import REGIONS
from repro.xmlio.dom import Element
from repro.xmlio.parser import parse
from repro.xmlio.serialize import serialize

#: Routing policies: ``home`` pins the extent to one shard, ``hash-id``
#: hashes the entity's own @id, ``hash-item`` hashes the referenced item.
HOME = "home"
HASH_ID = "hash-id"
HASH_ITEM = "hash-item"


@dataclass(frozen=True, slots=True)
class ExtentSpec:
    """One partitioned extent: its container path, entity tag, policy."""

    path: tuple[str, ...]
    entity_tag: str
    policy: str
    home_region: str | None = None      # HOME extents under regions

    def home_shard(self, shard_count: int) -> int:
        if self.home_region is not None:
            return REGIONS.index(self.home_region) % shard_count
        return 0


#: Every partitioned extent, in document order of their containers.
EXTENT_SPECS: tuple[ExtentSpec, ...] = (
    *(ExtentSpec(("site", "regions", region), "item", HOME, region)
      for region in REGIONS),
    ExtentSpec(("site", "categories"), "category", HOME),
    ExtentSpec(("site", "catgraph"), "edge", HOME),
    ExtentSpec(("site", "people"), "person", HASH_ID),
    ExtentSpec(("site", "open_auctions"), "open_auction", HASH_ITEM),
    ExtentSpec(("site", "closed_auctions"), "closed_auction", HASH_ITEM),
)


def shard_of_key(key: str, shard_count: int) -> int:
    """Deterministic hash placement (crc32 — stable across processes)."""
    return zlib.crc32(key.encode("utf-8")) % shard_count


def route_entity(spec: ExtentSpec, element: Element, shard_count: int) -> int:
    """The shard one entity element belongs on, per its extent's policy."""
    if spec.policy == HOME:
        return spec.home_shard(shard_count)
    if spec.policy == HASH_ID:
        return shard_of_key(element.attributes.get("id", ""), shard_count)
    itemref = element.find("itemref")
    key = itemref.attributes.get("item", "") if itemref is not None else \
        element.attributes.get("id", "")
    return shard_of_key(key, shard_count)


@dataclass(slots=True)
class ExtentAssignment:
    """Where one extent's entities went, with their global order seeds."""

    spec: ExtentSpec
    #: Per shard: the original container-child positions of its entities,
    #: ascending (the shard fragment preserves relative order).
    seqs: list[list[int]]
    total: int = 0


@dataclass(slots=True)
class DocumentPartition:
    """N loadable shard fragments plus the metadata to reassemble order."""

    shard_count: int
    shard_texts: list[str]
    extents: dict[tuple[str, ...], ExtentAssignment]
    #: Entity @id -> (shard, extent path), for routed lookups.
    id_map: dict[str, tuple[int, tuple[str, ...]]] = field(default_factory=dict)

    def summary(self) -> dict:
        """Per-shard entity counts and fragment sizes (reports, CLI)."""
        entities = [
            {assignment.spec.entity_tag: 0 for assignment in self.extents.values()}
            for _ in range(self.shard_count)
        ]
        for assignment in self.extents.values():
            for rank, seqs in enumerate(assignment.seqs):
                entities[rank][assignment.spec.entity_tag] += len(seqs)
        return {
            "shards": self.shard_count,
            "fragment_bytes": [len(text) for text in self.shard_texts],
            "entities": entities,
        }


class DocumentPartitioner:
    """Split one auction document into ``shard_count`` loadable fragments."""

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ShardError(f"shard_count must be >= 1, got {shard_count}")
        self.shard_count = shard_count

    def partition(self, text: str) -> DocumentPartition:
        root = parse(text).root
        if root is None or root.tag != "site":
            raise ShardError("expected an auction document rooted at <site>")

        shard_sites = [Element("site", dict(root.attributes))
                       for _ in range(self.shard_count)]
        containers: dict[tuple[str, ...], list[Element]] = {}
        for site in shard_sites:
            regions = site.append(Element("regions"))
            for region in REGIONS:
                containers.setdefault(("site", "regions", region), []).append(
                    regions.append(Element(region)))
            for tag in ("categories", "catgraph", "people",
                        "open_auctions", "closed_auctions"):
                containers.setdefault(("site", tag), []).append(
                    site.append(Element(tag)))

        extents: dict[tuple[str, ...], ExtentAssignment] = {}
        id_map: dict[str, tuple[int, tuple[str, ...]]] = {}
        for spec in EXTENT_SPECS:
            source = self._resolve(root, spec.path)
            assignment = ExtentAssignment(
                spec, [[] for _ in range(self.shard_count)])
            for position, entity in enumerate(source.child_elements()):
                rank = route_entity(spec, entity, self.shard_count)
                containers[spec.path][rank].append(entity)
                assignment.seqs[rank].append(position)
                assignment.total += 1
                identifier = entity.attributes.get("id")
                if identifier:
                    id_map[identifier] = (rank, spec.path)
            extents[spec.path] = assignment

        return DocumentPartition(
            shard_count=self.shard_count,
            shard_texts=[serialize(site) for site in shard_sites],
            extents=extents,
            id_map=id_map,
        )

    @staticmethod
    def _resolve(root: Element, path: tuple[str, ...]) -> Element:
        node = root
        for tag in path[1:]:
            child = node.find(tag)
            if child is None:
                raise ShardError(
                    f"document has no /{'/'.join(path)} container")
            node = child
        return node
