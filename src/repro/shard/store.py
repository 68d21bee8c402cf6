"""The sharded document store: N backend stores behind one ``Store``.

:class:`ShardedStore` presents the partitioned document through the
exact navigation/mutation interface every other architecture implements,
so the whole existing stack — planner, evaluator, update engine, index
builder and maintenance, query service — runs on it unchanged.  That is
the subsystem's correctness anchor: the compatibility path is the oracle
the scatter-gather executor (:mod:`repro.shard.scatter`) is checked
against, and the update engine's full logical bookkeeping (global
secondary indexes, digest chain, change footprints) applies to the
sharded deployment for free.

Handle model
============

* The root ``site``, the ``regions`` container, and every extent
  container (six regions, categories, catgraph, people, open_auctions,
  closed_auctions) are **virtual nodes** — singletons owned by this
  store; the per-shard copies of those containers are never exposed.
* Every other node is a ``(shard_rank, native_handle)`` pair wrapping
  the owning backend store's handle — hashable because native handles
  are.

Document order
==============

``doc_position`` keys are shard-rank-free: an entity's key is its
extent's rank tuple plus the entity's **global sequence number** (seeded
from the original document's child positions by the partitioner,
extended append-only by inserts), and nodes below an entity append the
backend store's own position key, which is only ever compared within
that one entity subtree.  Merged extents therefore interleave exactly as
the unsharded document does — results are bit-identical, not merely
deterministic — while each shard remains free to physically reorganize.

Per-shard state
===============

Each backend shard keeps its own secondary ``IndexSet`` (built at its
own load) and its own digest chain.  Mutations routed through this store
advance the touched shard's digest and mark its indexes dirty; the
scatter layer rebuilds a dirty shard's indexes before its next probe and
keys per-shard partial results by the shard digest — which is what makes
result-cache invalidation *shard-selective*: a write to shard 3 leaves
every other shard's cached partials valid.  The global ``IndexSet`` the
``ShardedStore`` itself builds at ``mark_loaded`` (over wrapped handles)
serves the compatibility path and is maintained incrementally by the
update engine like any other store's.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ShardError, StorageError
from repro.index import maintenance
from repro.shard.partition import (
    EXTENT_SPECS, DocumentPartition, DocumentPartitioner, ExtentSpec,
    route_entity,
)
from repro.storage.interface import Handle, Store
from repro.xmlio.dom import Element

#: Default backend architecture for shards (System F: main-memory tree).
DEFAULT_BACKEND = "F"


class _Virtual:
    """A virtualized structural node (site or a container)."""

    __slots__ = ("tag", "rank")

    def __init__(self, tag: str, rank: tuple[int, ...]) -> None:
        self.tag = tag
        self.rank = rank                # doc-position prefix among virtuals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<virtual {self.tag}>"


class _Extent:
    """One partitioned extent's live bookkeeping."""

    __slots__ = ("spec", "virtual", "containers", "seqs", "next_seq",
                 "_merged", "_seq_maps")

    def __init__(self, spec: ExtentSpec, virtual: _Virtual,
                 containers: list[Handle], seqs: list[list[int]]) -> None:
        self.spec = spec
        self.virtual = virtual
        self.containers = containers    # per shard: native container handle
        self.seqs = seqs                # per shard: global seqs, ascending
        self.next_seq = max((s[-1] for s in seqs if s), default=-1) + 1
        self._merged: list | None = None
        self._seq_maps: list[dict] | None = None

    def invalidate(self) -> None:
        self._merged = None
        self._seq_maps = None


class ShardedStore(Store):
    """Horizontally partitioned auction store with exact global order."""

    architecture = "sharded scatter-gather over backend stores"

    def __init__(self, shard_count: int = 2,
                 backends: tuple[str, ...] = (DEFAULT_BACKEND,)) -> None:
        super().__init__()
        if shard_count < 1:
            raise ShardError(f"shard_count must be >= 1, got {shard_count}")
        if not backends:
            raise ShardError("need at least one backend architecture")
        # At call time: repro.benchmark.systems imports the planner,
        # which this package must stay importable without.
        from repro.benchmark.systems import get_profile
        self.shard_count = shard_count
        self.backends = tuple(backends[rank % len(backends)]
                              for rank in range(shard_count))
        #: Per shard, the profile its own plans compile under: the
        #: backend's optimizer with every secondary-index family on —
        #: shard-local indexes are part of the sharded subsystem,
        #: whatever the 2002 profile of the backend.
        self.shard_profiles = [
            replace(profile, name=profile.name + "+shard",
                    use_value_index=True, use_sorted_index=True,
                    use_path_index=True)
            for profile in map(get_profile, self.backends)]
        #: Who runs this store's exchange plans: the deployment's
        #: :class:`~repro.shard.scatter.ScatterGatherExecutor` (its owner
        #: installs it), or nobody — the shards then run one after
        #: another on the calling thread.
        self.exchange = None
        self.architecture = (
            f"sharded({shard_count} x {'/'.join(self.backends)}) scatter-gather")
        self._shards: list[Store] = []
        self._partition: DocumentPartition | None = None
        self._extents: dict[tuple[str, ...], _Extent] = {}
        self._extent_by_virtual: dict[_Virtual, _Extent] = {}
        self._container_extent: list[dict] = []     # per shard: native -> _Extent
        self._id_map: dict[str, tuple[int, tuple[str, ...]]] = {}
        self._shard_dirty: list[bool] = []
        self._build_virtuals()

    def _build_virtuals(self) -> None:
        self._site = _Virtual("site", ())
        self._regions = _Virtual("regions", (0,))
        self._region_virtuals = [
            _Virtual(spec.home_region, (0, position))
            for position, spec in enumerate(EXTENT_SPECS[:6])
        ]
        self._categories = _Virtual("categories", (1,))
        self._catgraph = _Virtual("catgraph", (2,))
        self._people = _Virtual("people", (3,))
        self._open = _Virtual("open_auctions", (4,))
        self._closed = _Virtual("closed_auctions", (5,))
        self._site_children = [self._regions, self._categories, self._catgraph,
                               self._people, self._open, self._closed]
        self._virtual_of_path = {
            **{("site", "regions", v.tag): v for v in self._region_virtuals},
            ("site", "categories"): self._categories,
            ("site", "catgraph"): self._catgraph,
            ("site", "people"): self._people,
            ("site", "open_auctions"): self._open,
            ("site", "closed_auctions"): self._closed,
        }

    # -- lifecycle ---------------------------------------------------------------

    def load(self, text: str) -> None:
        partition = DocumentPartitioner(self.shard_count).partition(text)
        self._install_partition(partition)
        self.mark_loaded(text)

    def load_partition(self, partition: DocumentPartition) -> None:
        """Load the shards from an already-materialized partition.

        :meth:`load` is partitioning followed by this, split so the two
        can be timed apart.  The caller owns the digest: the loaded flag
        is set against the empty text (the merged serialization is never
        materialized here).
        """
        if partition.shard_count != self.shard_count:
            raise ShardError(
                f"partition has {partition.shard_count} shards, store wants "
                f"{self.shard_count}")
        self._install_partition(partition)
        self.mark_loaded("")

    def _install_partition(self, partition: DocumentPartition) -> None:
        from repro.benchmark.systems import make_store
        shards = [make_store(backend) for backend in self.backends]
        for store, fragment in zip(shards, partition.shard_texts):
            store.load(fragment)
        self._shards = shards
        self._partition = partition
        self._id_map = dict(partition.id_map)
        self._shard_dirty = [False] * self.shard_count
        self._extents.clear()
        self._extent_by_virtual.clear()
        self._container_extent = [dict() for _ in range(self.shard_count)]
        for spec in EXTENT_SPECS:
            containers = [self._native_container(rank, spec.path)
                          for rank in range(self.shard_count)]
            extent = _Extent(spec, self._virtual_of_path[spec.path],
                             containers, partition.extents[spec.path].seqs)
            self._extents[spec.path] = extent
            self._extent_by_virtual[extent.virtual] = extent
            for rank, container in enumerate(containers):
                self._container_extent[rank][container] = extent

    def _native_container(self, rank: int, path: tuple[str, ...]) -> Handle:
        store = self._shards[rank]
        node = store.root()
        for tag in path[1:]:
            found = store.children_by_tag(node, tag)
            if not found:
                raise ShardError(
                    f"shard {rank} fragment lacks /{'/'.join(path)}")
            node = found[0]
        return node

    def size_bytes(self) -> int:
        total = sum(store.size_bytes() for store in self._shards)
        return total + 64 * len(self._id_map)

    # -- shard introspection (scatter layer, service, CLI) -----------------------

    def shard_stores(self) -> list[Store]:
        return list(self._shards)

    def shard_store(self, rank: int) -> Store:
        return self._shards[rank]

    def shard_digest(self, rank: int) -> str | None:
        return self._shards[rank].document_digest()

    def shard_of_id(self, identifier: str) -> int | None:
        entry = self._id_map.get(identifier)
        return entry[0] if entry is not None else None

    def region_shard(self, region: str) -> int:
        return self._extents[("site", "regions", region)].spec.home_shard(
            self.shard_count)

    def extent_paths(self) -> list[tuple[str, ...]]:
        return list(self._extents)

    def extent_spec(self, path: tuple[str, ...]) -> ExtentSpec | None:
        """The partitioned extent ``path`` is the container of, if any —
        what the planner places an exchange by."""
        extent = self._extents.get(path)
        return None if extent is None else extent.spec

    def extent_members(self, path: tuple[str, ...]) -> list[list[tuple[int, Handle]]]:
        """Per shard: the extent's ``(global_seq, native_handle)`` pairs in
        shard-local (= ascending-seq) order — the scatter layer's probe
        iteration units."""
        return [self.extent_members_of(path, rank)
                for rank in range(self.shard_count)]

    def extent_members_of(self, path: tuple[str, ...],
                          rank: int) -> list[tuple[int, Handle]]:
        """One shard's slice of :meth:`extent_members` (built on demand, so
        cache-hit scatter executions never pay the materialization)."""
        extent = self._extents[path]
        children = self._entity_children(rank, extent)
        return list(zip(extent.seqs[rank], children))

    def shard_indexes_dirty(self, rank: int) -> bool:
        return self._shard_dirty[rank]

    def ensure_shard_indexes(self, rank: int) -> None:
        """Rebuild one shard's secondary indexes if writes staled them.

        Delegated mutations bypass the shards' own index maintenance (the
        engine maintains the *global* set), so touched shards are marked
        dirty and rebuilt lazily here — before the scatter layer's next
        probe against them.  Dropping/rebuilding is always safe; the cost
        is O(shard) once per write burst, priced in docs/SHARDING.md.
        """
        if self._shard_dirty[rank]:
            maintenance.rebuild(self._shards[rank])
            self._shard_dirty[rank] = False

    def partition_summary(self) -> dict:
        summary = self._partition.summary() if self._partition else {}
        summary["backends"] = list(self.backends)
        return summary

    # -- internal helpers --------------------------------------------------------

    def _entity_children(self, rank: int, extent: _Extent) -> list:
        """The shard container's element children (aligned with seqs)."""
        return self._shards[rank].children(extent.containers[rank])

    def _merged_members(self, extent: _Extent) -> list:
        if extent._merged is None:
            pairs: list[tuple[int, tuple[int, Handle]]] = []
            for rank in range(self.shard_count):
                children = self._entity_children(rank, extent)
                seqs = extent.seqs[rank]
                if len(children) != len(seqs):
                    raise ShardError(
                        f"extent /{'/'.join(extent.spec.path)} out of sync on "
                        f"shard {rank}: {len(children)} children, "
                        f"{len(seqs)} order seeds")
                pairs.extend((seq, (rank, child))
                             for seq, child in zip(seqs, children))
            pairs.sort(key=lambda pair: pair[0])
            extent._merged = [handle for _seq, handle in pairs]
        return extent._merged

    def _seq_of(self, extent: _Extent, rank: int, native: Handle) -> int:
        if extent._seq_maps is None:
            extent._seq_maps = [
                dict(zip(self._entity_children(r, extent), extent.seqs[r]))
                for r in range(self.shard_count)
            ]
        try:
            return extent._seq_maps[rank][native]
        except KeyError:
            raise ShardError("handle is not a live extent member") from None

    def _entity_prefix(self, rank: int, native: Handle) -> tuple:
        """(extent rank..., global seq) of the entity containing ``native``."""
        store = self._shards[rank]
        current = native
        while True:
            parent = store.parent(current)
            if parent is None:
                raise ShardError("handle outside every partitioned extent")
            extent = self._container_extent[rank].get(parent)
            if extent is not None:
                return extent.virtual.rank + (self._seq_of(extent, rank, current),)
            current = parent

    # -- navigation ---------------------------------------------------------------

    def root(self) -> Handle:
        return self._site

    def tag(self, node: Handle) -> str:
        if isinstance(node, _Virtual):
            return node.tag
        rank, native = node
        return self._shards[rank].tag(native)

    def children(self, node: Handle) -> list[Handle]:
        if isinstance(node, _Virtual):
            if node is self._site:
                return list(self._site_children)
            if node is self._regions:
                return list(self._region_virtuals)
            return list(self._merged_members(self._extent_by_virtual[node]))
        rank, native = node
        return [(rank, child) for child in self._shards[rank].children(native)]

    def children_by_tag(self, node: Handle, tag: str) -> list[Handle]:
        if isinstance(node, _Virtual):
            if node is self._site or node is self._regions:
                return [child for child in self.children(node) if child.tag == tag]
            extent = self._extent_by_virtual[node]
            if tag != extent.spec.entity_tag:
                return []
            return list(self._merged_members(extent))
        rank, native = node
        return [(rank, child)
                for child in self._shards[rank].children_by_tag(native, tag)]

    def descendants_by_tag(self, node: Handle, tag: str) -> list[Handle]:
        if not isinstance(node, _Virtual):
            rank, native = node
            return [(rank, found)
                    for found in self._shards[rank].descendants_by_tag(native, tag)]
        out: list[Handle] = []
        for child in self.children(node):
            if isinstance(child, _Virtual):
                if child.tag == tag:
                    out.append(child)
                out.extend(self.descendants_by_tag(child, tag))
            else:
                rank, native = child
                store = self._shards[rank]
                if store.tag(native) == tag:
                    out.append(child)
                out.extend((rank, found)
                           for found in store.descendants_by_tag(native, tag))
        return out

    def parent(self, node: Handle) -> Handle | None:
        if isinstance(node, _Virtual):
            if node is self._site:
                return None
            if node in self._region_virtuals:
                return self._regions
            return self._site
        rank, native = node
        above = self._shards[rank].parent(native)
        if above is None:
            raise ShardError("native shard roots are never exposed")
        extent = self._container_extent[rank].get(above)
        if extent is not None:
            return extent.virtual
        return (rank, above)

    def attribute(self, node: Handle, name: str) -> str | None:
        if isinstance(node, _Virtual):
            return None
        rank, native = node
        return self._shards[rank].attribute(native, name)

    def attributes(self, node: Handle) -> dict[str, str]:
        if isinstance(node, _Virtual):
            return {}
        rank, native = node
        return self._shards[rank].attributes(native)

    def child_texts(self, node: Handle) -> list[str]:
        if isinstance(node, _Virtual):
            return []
        rank, native = node
        return self._shards[rank].child_texts(native)

    def string_value(self, node: Handle) -> str:
        if isinstance(node, _Virtual):
            return "".join(self.string_value(child)
                           for child in self.children(node))
        rank, native = node
        return self._shards[rank].string_value(native)

    def content(self, node: Handle) -> list[Handle | str]:
        if isinstance(node, _Virtual):
            return list(self.children(node))
        rank, native = node
        return [(rank, part) if not isinstance(part, str) else part
                for part in self._shards[rank].content(native)]

    def doc_position(self, node: Handle):
        if isinstance(node, _Virtual):
            return node.rank
        rank, native = node
        return self._entity_prefix(rank, native) + (
            self._shards[rank].doc_position(native),)

    def build_dom(self, node: Handle) -> Element:
        if isinstance(node, _Virtual):
            return super().build_dom(node)
        rank, native = node
        return self._shards[rank].build_dom(native)

    def markup(self, node: Handle) -> str:
        if isinstance(node, _Virtual):
            return super().markup(node)
        rank, native = node
        return self._shards[rank].markup(native)

    # -- optional capabilities ------------------------------------------------------

    def lookup_id(self, value: str) -> Handle | None:
        entry = self._id_map.get(value)
        if entry is None:
            return None
        rank, path = entry
        store = self._shards[rank]
        if store.has_id_index():
            native = store.lookup_id(value)
            return (rank, native) if native is not None else None
        extent = self._extents[path]
        for native in self._entity_children(rank, extent):
            if store.attribute(native, "id") == value:
                return (rank, native)
        return None

    def has_id_index(self) -> bool:
        return True                     # the routing map is an id index

    # -- mutation ----------------------------------------------------------------------

    def insert_child(self, parent: Handle, element: Element,
                     index: int | None = None) -> Handle:
        if isinstance(parent, _Virtual):
            extent = self._extent_by_virtual.get(parent)
            if extent is None:
                raise StorageError(
                    f"cannot insert into the virtual <{parent.tag}> container")
            size = sum(len(seqs) for seqs in extent.seqs)
            if index is not None and index != size:
                raise StorageError(
                    "sharded extents support append-only entity inserts")
            rank = route_entity(extent.spec, element, self.shard_count)
            native = self._shards[rank].insert_child(
                extent.containers[rank], element)
            extent.seqs[rank].append(extent.next_seq)
            extent.next_seq += 1
            extent.invalidate()
            identifier = element.attributes.get("id")
            if identifier:
                self._id_map[identifier] = (rank, extent.spec.path)
            self._touch_shard(rank, f"ins:{extent.spec.entity_tag}")
            return (rank, native)
        rank, native_parent = parent
        native = self._shards[rank].insert_child(native_parent, element, index)
        self._touch_shard(rank, f"ins:{element.tag}")
        return (rank, native)

    def remove_node(self, node: Handle) -> None:
        if isinstance(node, _Virtual):
            raise StorageError("virtual containers cannot be removed")
        rank, native = node
        store = self._shards[rank]
        tag = store.tag(native)
        above = store.parent(native)
        if above is None:
            raise StorageError("cannot remove the document root")
        extent = self._container_extent[rank].get(above)
        if extent is not None:
            position = store.children(above).index(native)
            del extent.seqs[rank][position]
            extent.invalidate()
            identifier = store.attribute(native, "id")
            if identifier:
                self._id_map.pop(identifier, None)
        store.remove_node(native)
        self._touch_shard(rank, f"del:{tag}")

    def set_text(self, node: Handle, text: str) -> None:
        if isinstance(node, _Virtual):
            raise StorageError("virtual containers hold no text")
        rank, native = node
        self._shards[rank].set_text(native, text)
        self._touch_shard(rank, f"txt:{self._shards[rank].tag(native)}")

    def set_attribute(self, node: Handle, name: str, value: str) -> None:
        if isinstance(node, _Virtual):
            raise StorageError("virtual containers carry no attributes")
        rank, native = node
        self._shards[rank].set_attribute(native, name, value)
        self._touch_shard(rank, f"att:{name}")

    def _touch_shard(self, rank: int, token: str) -> None:
        """One shard was physically written: advance its digest chain and
        stale its secondary indexes (rebuilt lazily by the scatter layer)."""
        self._shard_dirty[rank] = True
        self._shards[rank].advance_digest(token)
