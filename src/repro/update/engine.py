"""The update engine: one operation, one store, full bookkeeping.

:func:`apply_update` is to the mutation surface what ``bulkload`` is to
``load()`` — the supported entry point that keeps every derived structure
consistent with the physical change:

1. resolves the operation's targets by ID (so the same operation means
   the same nodes on every architecture): through the store's ID index
   where it has one — a miss there is authoritative — and by a scan of
   the entity's container through the navigation API where it has none;
   the references a cascade must follow (the watches of a closing
   auction, the item and auctions a deletion takes with it) come from
   probes of the secondary value indexes, and from an extent walk only
   when those were dropped;
2. applies the physical mutations through the store's
   ``insert_child`` / ``remove_node`` / ``set_text`` surface;
3. maintains the secondary indexes by deltas (an inserted subtree enters
   each path extent as one run and the field indexes node by node; a
   removal's entries are snapshotted *before* the physical removal,
   because handles die with their subtree) — nothing when the indexes
   are dropped;
4. advances the store's document digest along the operation-token hash
   chain (stores sharing a lineage agree on the digest without comparing
   texts);
5. returns a :class:`ChangeSet` carrying the change footprint — the tag /
   attribute tokens of the touched regions and the ancestor tags above
   them — which the service's result cache uses for path-selective
   invalidation.

Mutation and maintenance wall time are accounted separately
(``mutate_seconds`` vs ``index_seconds``): the ledger's
``index.maintain_ms_per_op`` is the second one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import UpdateError
from repro.index import maintenance
from repro.index.builder import extract_values
from repro.index.indexes import normalize_key
from repro.obs.trace import NULL_TRACER
from repro.schema.auction import REGIONS, auction_dtd
from repro.storage.interface import Store, store_document_text
from repro.update.ops import (
    CloseAuction, DeleteItem, PlaceBid, RegisterPerson, UpdateOp,
)
from repro.xmlio.dom import Element


def serialize_store(store: Store) -> str:
    """The store's current document as XML text (the differential oracle)."""
    return store_document_text(store)


@dataclass(slots=True)
class ChangeSet:
    """What one applied operation changed, and what it cost.

    Every operation of the set changes the document (inserts or removals
    at minimum — only the *scalar* sub-writes inside an op can no-op), so
    an applied ChangeSet always carries an advanced digest.
    """

    op_token: str
    #: Tags and ``@attribute`` names of every inserted/removed/rewritten
    #: region (the *direct* footprint a query must mention to be affected).
    changed_tokens: frozenset[str] = frozenset()
    #: Tags strictly above the change points: a query is also affected when
    #: it binds/returns one of these (it consumes the changed subtree).
    ancestor_tags: frozenset[str] = frozenset()
    digest: str | None = None
    maintenance: str = "none"           # "incremental" | "none"
    mutate_seconds: float = 0.0
    index_seconds: float = 0.0
    nodes_indexed: int = 0
    #: What entering the inserted subtrees into ordered extents (the path
    #: index, D's summary) took: order keys computed, runs spliced.
    order_keys: int = 0
    extent_splices: int = 0


@lru_cache(maxsize=None)
def dtd_reachable_tokens(tag: str) -> frozenset[str]:
    """Every tag and ``@attribute`` token reachable below ``tag`` per the
    auction DTD — the static footprint of removing one such subtree."""
    dtd = auction_dtd()
    tokens: set[str] = set()
    seen: set[str] = set()
    stack = [tag]
    while stack:
        current = stack.pop()
        if current in seen or current not in dtd:
            continue
        seen.add(current)
        tokens.add(current)
        declaration = dtd.element(current)
        tokens.update("@" + attr.name for attr in declaration.attributes)
        stack.extend(declaration.content.allowed_tags())
    return frozenset(tokens)


def element_tokens(element: Element) -> frozenset[str]:
    """The tag and ``@attribute`` tokens of a concrete DOM subtree."""
    tokens: set[str] = set()
    stack = [element]
    while stack:
        current = stack.pop()
        tokens.add(current.tag)
        tokens.update("@" + name for name in current.attributes)
        stack.extend(current.child_elements())
    return frozenset(tokens)


class _Application:
    """One operation being applied to one store, with timed bookkeeping."""

    def __init__(self, store: Store) -> None:
        self.store = store
        self.incremental = store.indexes is not None
        self.mutate_seconds = 0.0
        self.index_seconds = 0.0
        self.nodes_indexed = 0
        self.tokens: set[str] = set()
        self.ancestors: set[str] = set()

    # -- timed primitives -------------------------------------------------------

    def insert(self, parent, parent_path: tuple[str, ...], element: Element):
        started = time.perf_counter()
        handle = self.store.insert_child(parent, element)
        self.mutate_seconds += time.perf_counter() - started
        self._index_insertion(handle, parent_path + (element.tag,))
        self.tokens |= element_tokens(element)
        self.ancestors.update(parent_path)
        return handle

    def insert_at(self, parent, parent_path: tuple[str, ...], element: Element,
                  index: int):
        started = time.perf_counter()
        handle = self.store.insert_child(parent, element, index)
        self.mutate_seconds += time.perf_counter() - started
        self._index_insertion(handle, parent_path + (element.tag,))
        self.tokens |= element_tokens(element)
        self.ancestors.update(parent_path)
        return handle

    def _index_insertion(self, handle, path: tuple[str, ...]) -> None:
        if not self.incremental:
            return
        started = time.perf_counter()
        self.nodes_indexed += maintenance.apply_insertion(
            self.store, self.store.indexes, handle, path)
        self.index_seconds += time.perf_counter() - started

    def remove(self, node, path: tuple[str, ...]) -> None:
        plan = None
        if self.incremental:
            started = time.perf_counter()
            plan = maintenance.plan_removal(self.store, self.store.indexes,
                                            node, path)
            self.index_seconds += time.perf_counter() - started
        started = time.perf_counter()
        self.store.remove_node(node)
        self.mutate_seconds += time.perf_counter() - started
        if plan is not None:
            started = time.perf_counter()
            self.nodes_indexed += maintenance.apply_removal(
                self.store.indexes, plan)
            self.index_seconds += time.perf_counter() - started
        self.tokens |= dtd_reachable_tokens(path[-1])
        self.ancestors.update(path[:-1])

    def set_text(self, node, path: tuple[str, ...], text: str) -> bool:
        if self.store.string_value(node) == text:
            return False                # a no-op write changes nothing
        plan = None
        if self.incremental:
            started = time.perf_counter()
            plan = maintenance.plan_value_change(
                self.store, self.store.indexes, node, path, "text")
            self.index_seconds += time.perf_counter() - started
        started = time.perf_counter()
        self.store.set_text(node, text)
        self.mutate_seconds += time.perf_counter() - started
        if plan is not None:
            started = time.perf_counter()
            self.nodes_indexed += maintenance.apply_value_change(
                self.store, self.store.indexes, plan)
            self.index_seconds += time.perf_counter() - started
        self.tokens.add(path[-1])
        self.ancestors.update(path[:-1])
        return True

    # -- navigation helpers -----------------------------------------------------

    def child(self, node, tag: str):
        found = self.store.children_by_tag(node, tag)
        if not found:
            raise UpdateError(f"expected a <{tag}> child and found none")
        return found[0]

    def find_by_id(self, container_path: tuple[str, ...], identifier: str):
        """The entity with @id ``identifier`` under ``container_path``."""
        store = self.store
        handle = store.lookup_id(identifier)
        if handle is not None:
            if store.tag(handle) == container_path[-1]:
                return handle
            return None
        if store.has_id_index():
            return None                 # an ID index's miss is authoritative
        node = store.root()
        for tag in container_path[1:-1]:
            candidates = store.children_by_tag(node, tag)
            if not candidates:
                return None
            node = candidates[0]
        for candidate in store.children_by_tag(node, container_path[-1]):
            if store.attribute(candidate, "id") == identifier:
                return candidate
        return None


_OPEN_PATH = ("site", "open_auctions", "open_auction")
_CLOSED_PATH = ("site", "closed_auctions", "closed_auction")
_PERSON_PATH = ("site", "people", "person")
_WATCH_PATH = ("site", "people", "person", "watches", "watch")
_ITEM_PATHS = tuple(("site", "regions", region, "item") for region in REGIONS)
_ITEMREF = ("itemref", "@item")


def _where(store: Store, path: tuple[str, ...], accessor: tuple[str, ...],
           value: str) -> list:
    """The nodes at ``path`` whose ``accessor`` yields ``value``, in
    document order: one probe of the store's value index on that field,
    or a walk over the extent when the store's indexes were dropped.

    The walk also answers a ``value`` that reads as a number (``nan``,
    ``inf`` and ``infinity`` are XML names too): the index buckets those
    by the number, where the cascade compares strings.  The probe's list
    is a copy, because ``ValueIndex.probe`` returns the live bucket, which
    removing one of these nodes edits in place.
    """
    if store.indexes is not None and normalize_key(value) == value:
        index = store.indexes.value_field(path, accessor)
        return [handle for _seq, handle in index.probe(value)]
    return _walk_where(store, path, accessor, value)


def _walk_where(store: Store, path: tuple[str, ...], accessor: tuple[str, ...],
                value: str) -> list:
    """:func:`_where` by navigation alone: every node of the extent, kept
    when ``accessor`` yields ``value`` (the reference the probe is tested
    against)."""
    return [node for node in store.children_by_path(store.root(), path[1:])
            if value in extract_values(store, node, accessor)]


def _close_auction(app: _Application, op: CloseAuction) -> None:
    store = app.store
    auction = app.find_by_id(_OPEN_PATH, op.auction_id)
    if auction is None:
        raise UpdateError(f"no open auction with id {op.auction_id!r}")
    bidders = store.children_by_tag(auction, "bidder")
    if not bidders:
        raise UpdateError(
            f"open auction {op.auction_id!r} has no bidder to buy it")
    buyer = store.attribute(app.child(bidders[-1], "personref"), "person")
    seller = store.attribute(app.child(auction, "seller"), "person")
    item = store.attribute(app.child(auction, "itemref"), "item")
    price = store.string_value(app.child(auction, "current"))
    quantity = store.string_value(app.child(auction, "quantity"))
    auction_type = store.string_value(app.child(auction, "type"))
    annotation = store.build_dom(app.child(auction, "annotation"))

    closed = Element("closed_auction")
    closed.append(Element("seller", {"person": seller}))
    closed.append(Element("buyer", {"person": buyer}))
    closed.append(Element("itemref", {"item": item}))
    for tag, text in (("price", price), ("date", op.date),
                      ("quantity", quantity), ("type", auction_type)):
        leaf = closed.append(Element(tag))
        leaf.append_text(text)
    closed.append(annotation)

    watches = _where(store, _WATCH_PATH, ("@open_auction",), op.auction_id)
    root = store.root()
    closed_container = store.children_by_tag(root, "closed_auctions")[0]
    app.insert(closed_container, _CLOSED_PATH[:-1], closed)
    for watch in watches:
        app.remove(watch, _WATCH_PATH)
    app.remove(auction, _OPEN_PATH)


def _delete_item(app: _Application, op: DeleteItem) -> None:
    store = app.store
    for item_path in _ITEM_PATHS:
        items = _where(store, item_path, ("@id",), op.item_id)
        if items:
            break
    else:
        raise UpdateError(f"no item with id {op.item_id!r}")
    doomed_open = _where(store, _OPEN_PATH, _ITEMREF, op.item_id)
    doomed_closed = _where(store, _CLOSED_PATH, _ITEMREF, op.item_id)
    for auction in doomed_open:
        for watch in _where(store, _WATCH_PATH, ("@open_auction",),
                            store.attribute(auction, "id")):
            app.remove(watch, _WATCH_PATH)
        app.remove(auction, _OPEN_PATH)
    for auction in doomed_closed:
        app.remove(auction, _CLOSED_PATH)
    app.remove(items[0], item_path)


def apply_update(store: Store, op: UpdateOp, *,
                 advance_digest: bool = True,
                 tracer=NULL_TRACER) -> ChangeSet:
    """Apply one operation to one store with full logical bookkeeping.

    ``advance_digest=False`` applies the physical change and the index
    maintenance but leaves the digest chain untouched (the returned
    ChangeSet carries ``digest=None``).  Transactions use it to batch
    several operations under one digest advance; the caller then owns
    chaining the digest over the whole batch — see
    :func:`repro.db.transaction_token`.

    A ``tracer`` records one ``update.op`` span per call carrying the
    maintenance mode, timing split, extent-splice work and
    change-footprint width.
    """
    if not tracer.enabled:
        return _apply_update(store, op, advance_digest=advance_digest)
    with tracer.span("update.op", op=op.token(),
                     architecture=store.architecture) as span:
        changes = _apply_update(store, op, advance_digest=advance_digest)
        span.set(maintenance=changes.maintenance,
                 mutate_ms=round(changes.mutate_seconds * 1000.0, 3),
                 index_ms=round(changes.index_seconds * 1000.0, 3),
                 nodes_indexed=changes.nodes_indexed,
                 order_keys=changes.order_keys,
                 extent_splices=changes.extent_splices,
                 footprint=len(changes.changed_tokens))
    return changes


def _apply_update(store: Store, op: UpdateOp, *,
                  advance_digest: bool = True) -> ChangeSet:
    store.require_loaded()
    app = _Application(store)
    stats = store.stats
    keys_before, splices_before = stats.order_keys, stats.extent_splices

    if isinstance(op, RegisterPerson):
        identifier = op.person.attributes.get("id")
        if not identifier:
            raise UpdateError("RegisterPerson needs a person with an @id")
        if app.find_by_id(_PERSON_PATH, identifier) is not None:
            raise UpdateError(f"person id {identifier!r} already registered")
        people = store.children_by_tag(store.root(), "people")[0]
        app.insert(people, _PERSON_PATH[:-1], op.person)
    elif isinstance(op, PlaceBid):
        auction = app.find_by_id(_OPEN_PATH, op.auction_id)
        if auction is None:
            raise UpdateError(f"no open auction with id {op.auction_id!r}")
        current = app.child(auction, "current")
        slot = store.children(auction).index(current)
        app.insert_at(auction, _OPEN_PATH, op.bidder_element(), slot)
        amount = float(store.string_value(current)) + op.increase
        app.set_text(current, _OPEN_PATH + ("current",), f"{amount:.2f}")
    elif isinstance(op, CloseAuction):
        _close_auction(app, op)
    elif isinstance(op, DeleteItem):
        _delete_item(app, op)
    else:
        raise UpdateError(f"unknown update operation {op!r}")

    return ChangeSet(
        op_token=op.token(),
        digest=store.advance_digest(op.token()) if advance_digest else None,
        changed_tokens=frozenset(app.tokens),
        ancestor_tags=frozenset(app.ancestors),
        maintenance="incremental" if app.incremental else "none",
        mutate_seconds=app.mutate_seconds,
        index_seconds=app.index_seconds,
        nodes_indexed=app.nodes_indexed,
        order_keys=stats.order_keys - keys_before,
        extent_splices=stats.extent_splices - splices_before,
    )


def apply_transaction_ops(stores: dict[str, Store], ops, *,
                          tracer=NULL_TRACER,
                          ) -> tuple[dict, frozenset[str], frozenset[str]]:
    """Apply a batch to a set of stores with the digest chain suppressed
    (the apply step of :meth:`repro.update.commit.WritePath.commit`, its
    one caller).

    Operations apply in operation-major order, so a deterministic failure
    (bad target id, schema violation) leaves every store at the same
    consistent prefix.  On failure each store's digest is re-chained over
    exactly its applied operations — lineages stay truthful — and
    :class:`~repro.errors.TransactionError` is raised.  On success the
    caller advances each digest once over the commit token.

    Returns ``(costs, changed_tokens, ancestor_tags)``: per-store cost
    cells plus the union change footprint for one invalidation pass.
    """
    from repro.errors import TransactionError, XMarkError
    costs = {name: {"mutate_ms": 0.0, "index_ms": 0.0, "nodes_indexed": 0}
             for name in stores}
    changed: set[str] = set()
    ancestors: set[str] = set()
    counts = {name: 0 for name in stores}
    try:
        for op in ops:
            for name, store in stores.items():
                changes = apply_update(store, op, advance_digest=False,
                                       tracer=tracer)
                counts[name] += 1
                changed |= changes.changed_tokens
                ancestors |= changes.ancestor_tags
                cells = costs[name]
                cells["mutate_ms"] += changes.mutate_seconds * 1000.0
                cells["index_ms"] += changes.index_seconds * 1000.0
                cells["nodes_indexed"] += changes.nodes_indexed
    except XMarkError as exc:
        applied = min(counts.values())
        for name, store in stores.items():
            for op in ops[:counts[name]]:
                store.advance_digest(op.token())
        raise TransactionError(
            f"transaction aborted at operation {applied + 1}/{len(ops)}: "
            f"{exc}", applied=applied) from exc
    for cells in costs.values():
        cells["mutate_ms"] = round(cells["mutate_ms"], 3)
        cells["index_ms"] = round(cells["index_ms"], 3)
    return costs, frozenset(changed), frozenset(ancestors)
