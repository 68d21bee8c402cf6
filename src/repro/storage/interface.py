"""The abstract store interface shared by all seven systems.

The query evaluator navigates documents exclusively through this API, so the
*same* plan executed on two stores differs only in what the store's physical
mapping makes cheap or expensive — which is precisely the comparison the
benchmark is designed to expose.

Handles are opaque: each store chooses its own node-handle representation
(DOM objects, dense ints, composite tuples).  The only contract is that
handles are hashable and that :meth:`Store.doc_position` returns keys that
sort in document order *within one store*.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.errors import StorageError
from repro.xmlio.dom import Element
from repro.xmlio.escape import escape_attribute, escape_text

Handle = Any


#: Code points of a document encoded at a time by :func:`document_digest`.
DIGEST_SLICE = 1 << 20


def document_digest(text: str) -> str:
    """Content digest of a document (cache keys, invalidation): the
    SHA-256 of its UTF-8 encoding, fed one slice of code points at a time
    so that no encoded copy of the whole document is made."""
    digest = hashlib.sha256()
    for start in range(0, len(text), DIGEST_SLICE):
        digest.update(text[start:start + DIGEST_SLICE].encode("utf-8"))
    return digest.hexdigest()[:16]


def chain_digest(previous: str | None, op_token: str) -> str:
    """One link of the digest hash chain over applied operation tokens.

    Factored out of :meth:`Store.advance_digest` so the write-ahead log
    can compute the post-commit digest of an operation *before* applying
    it — the WAL record must carry the digest the store will have, and
    recovery verifies the replayed chain against exactly these values.
    """
    return hashlib.sha256(
        f"{previous or ''}|{op_token}".encode("utf-8")).hexdigest()[:16]


@dataclass(slots=True)
class StoreStats:
    """Work counters; read by tests and the benchmark report."""

    nodes_visited: int = 0
    index_lookups: int = 0
    table_lookups: int = 0
    fragments_parsed: int = 0
    order_keys: int = 0                 # document-order keys computed by splices
    extent_splices: int = 0             # runs entered into ordered extents
    relabels: int = 0                   # exhausted label gaps respaced (D/E/F)

    def reset(self) -> None:
        self.nodes_visited = 0
        self.index_lookups = 0
        self.table_lookups = 0
        self.fragments_parsed = 0
        self.order_keys = 0
        self.extent_splices = 0
        self.relabels = 0


class Twig:
    """Value paths from one node, compiled once into a trie of named child
    steps for :meth:`Store.values_by_twig`.

    ``paths`` holds each distinct ``(names, attribute)`` value path — a
    run of child steps, then ``text()`` (``attribute`` None) or
    ``@attribute`` — in first-seen order; a path's position there is its
    leaf.  ``root`` is the trie: each branch a ``(text leaf or -1,
    ((attribute, leaf), ...), {child name: branch} or None)`` tuple, so a
    walk allocates nothing but the lists it fills.
    """

    __slots__ = ("paths", "root")

    def __init__(self, paths: Iterable[tuple[tuple[str, ...], str | None]]) -> None:
        self.paths = tuple(dict.fromkeys(paths))
        root: list = [-1, [], {}]
        for leaf, (names, attribute) in enumerate(self.paths):
            branch = root
            for name in names:
                branch = branch[2].setdefault(name, [-1, [], {}])
            if attribute is None:
                branch[0] = leaf
            else:
                branch[1].append((attribute, leaf))

        def freeze(branch: list) -> tuple:
            return (branch[0], tuple(branch[1]),
                    {name: freeze(kid) for name, kid in branch[2].items()} or None)
        self.root = freeze(root)


class Store(ABC):
    """Abstract XML store."""

    #: Human-readable architecture description (shown in reports).
    architecture: str = "abstract"
    #: Whether :meth:`nodes_at_path` answers every absolute child path
    #: from the store's own structures (never None).  The planner reads
    #: that extent before the secondary path index, so such a store
    #: builds none (:meth:`index_spec`).
    native_path_extents: bool = False

    def __init__(self) -> None:
        self.stats = StoreStats()
        self.indexes = None             # IndexSet, built at mark_loaded
        self._loaded = False
        self._document_digest: str | None = None

    # -- lifecycle ---------------------------------------------------------------

    @abstractmethod
    def load(self, text: str) -> None:
        """Bulkload a document (parse + convert, one completed transaction)."""

    def index_spec(self):
        """The secondary-index declarations built at load, or None for none.

        The default is the benchmark's auction spec
        (:data:`repro.index.spec.DEFAULT_AUCTION_SPEC`); on non-auction
        documents its fields simply index empty extents, and the generic
        path index covers every walked label path.  A store with
        :attr:`native_path_extents` gets the spec without the path index
        (:data:`~repro.index.spec.NATIVE_PATHS_AUCTION_SPEC`): its own
        extents serve every path plan, so a second copy would only be
        maintained, never read.

        The value and sorted indexes are built uniformly across all seven
        systems even though the scan-only profiles (F, G) never probe:
        *use* is the optimizer profile's choice, exactly as System D's
        store carries an ID index that an ablation profile may ignore —
        and the indexed-vs-scan ablation plus the probe==scan property
        tests need both access paths available on one and the same loaded
        store.  Subclasses wanting a different trade-off override this.
        """
        from repro.index.spec import DEFAULT_AUCTION_SPEC, NATIVE_PATHS_AUCTION_SPEC
        if self.native_path_extents:
            return NATIVE_PATHS_AUCTION_SPEC
        return DEFAULT_AUCTION_SPEC

    def drop_indexes(self) -> None:
        """Invalidate the secondary indexes (document superseded).

        Compiled plans carrying index-backed access paths degrade to their
        scan equivalents when the indexes are gone — the evaluator checks
        before every probe — so dropping is always safe, never wrong.
        """
        self.indexes = None

    def mark_loaded(self, text: str) -> None:
        """Record a completed load: flips the loaded flag, remembers the
        document's content digest (the invalidation key for result caches),
        and builds the secondary indexes — index construction is part of
        the completed transaction, exactly like Table 1's "conversion
        effort".  Work counters accumulated while loading and indexing are
        reset so post-load stats start from zero."""
        self._document_digest = document_digest(text)
        self._loaded = True
        self.indexes = None
        spec = self.index_spec()
        if spec is not None:
            from repro.index.builder import build_index_set
            self.indexes = build_index_set(self, spec)
        self.stats.reset()

    def document_digest(self) -> str | None:
        """Digest of the currently loaded document, or None before load."""
        return self._document_digest

    def advance_digest(self, op_token: str) -> str:
        """Chain the document digest over one applied update.

        Re-serializing the whole store per write would make the digest an
        O(document) cost; instead the digest evolves as a hash chain over
        the canonical operation tokens.  Two stores holding the same
        document lineage (same load, same update sequence) therefore agree
        on the digest without ever comparing texts, which is exactly what
        the result cache keys need.
        """
        self._document_digest = chain_digest(self._document_digest, op_token)
        return self._document_digest

    def restore_digest(self, digest: str | None) -> None:
        """Adopt a recovered digest-chain value.

        A durable reconnect bulkloads the snapshot's text, so the store's
        digest is the content digest of that text, not the operation
        hash chain the pre-crash lineage carried.  Recovery restores the
        snapshot's chain value here before it replays the WAL, so the
        replayed chain, caches, result keys, and digest-equality proofs
        line up with the never-crashed oracle.
        """
        self._document_digest = digest

    def require_loaded(self) -> None:
        if not self._loaded:
            raise StorageError(f"{type(self).__name__} has no document loaded")

    @abstractmethod
    def size_bytes(self) -> int:
        """Estimated resident size of the database after load (Table 1)."""

    # -- navigation ---------------------------------------------------------------

    @abstractmethod
    def root(self) -> Handle:
        """The document's root element."""

    @abstractmethod
    def tag(self, node: Handle) -> str:
        """The element name of ``node``."""

    @abstractmethod
    def children(self, node: Handle) -> list[Handle]:
        """Child *elements* in document order."""

    def children_by_tag(self, node: Handle, tag: str) -> list[Handle]:
        """Child elements with the given tag (default: filter children)."""
        return [child for child in self.children(node) if self.tag(child) == tag]

    def children_by_path(self, node: Handle, names: tuple[str, ...]) -> list[Handle]:
        """The nodes a run of named child steps reaches from ``node``, in
        document order (default: one ``children_by_tag`` per step and node)."""
        found = [node]
        for name in names:
            found = [child for parent in found
                     for child in self.children_by_tag(parent, name)]
        return found

    def values_by_path(self, node: Handle, names: tuple[str, ...],
                       attribute: str | None = None) -> list[str]:
        """The strings a run of named child steps followed by ``text()``
        (``attribute`` None) or ``@attribute`` reaches from ``node``, in
        document order, empty text runs dropped (default:
        :meth:`children_by_path`, then :meth:`child_texts` or
        :meth:`attribute` per node reached)."""
        found = self.children_by_path(node, names)
        if attribute is None:
            return [text for reached in found
                    for text in self.child_texts(reached) if text]
        return [value for reached in found
                if (value := self.attribute(reached, attribute)) is not None]

    def values_by_twig(self, node: Handle, twig: Twig) -> list[list[str]]:
        """:meth:`values_by_path` for every leaf of ``twig`` from ``node``:
        one list per leaf, in leaf order (default: one
        :meth:`values_by_path` call per leaf)."""
        return [self.values_by_path(node, names, attribute)
                for names, attribute in twig.paths]

    @abstractmethod
    def descendants_by_tag(self, node: Handle, tag: str) -> list[Handle]:
        """Descendant elements with the given tag, in document order."""

    def count_descendants(self, node: Handle, tag: str) -> int:
        """How many descendant elements have the given tag: always
        ``len(descendants_by_tag(node, tag))``, and by default exactly that
        call, so a store counts through its own access path (a scan, a tag
        extent) and its work counters move as that call moves them.  An
        override may count without listing the nodes, but must answer the
        same number before and after any write."""
        return len(self.descendants_by_tag(node, tag))

    def descendants(self, node: Handle) -> Iterator[Handle]:
        """All descendant elements in document order (generic walk)."""
        stack = list(reversed(self.children(node)))
        while stack:
            current = stack.pop()
            yield current
            stack.extend(reversed(self.children(current)))

    @abstractmethod
    def parent(self, node: Handle) -> Handle | None:
        """Parent element, or None at the root."""

    @abstractmethod
    def attribute(self, node: Handle, name: str) -> str | None:
        """Attribute value or None."""

    @abstractmethod
    def attributes(self, node: Handle) -> dict[str, str]:
        """All attributes."""

    @abstractmethod
    def child_texts(self, node: Handle) -> list[str]:
        """Values of the direct text-node children (contiguous runs merged)."""

    @abstractmethod
    def string_value(self, node: Handle) -> str:
        """Concatenated text of the whole subtree (XPath string value)."""

    @abstractmethod
    def content(self, node: Handle) -> list[Handle | str]:
        """Interleaved child elements and text runs (for reconstruction)."""

    @abstractmethod
    def doc_position(self, node: Handle):
        """A sortable document-order key (valid within this store only)."""

    # -- optional capabilities ------------------------------------------------------

    def lookup_id(self, value: str) -> Handle | None:
        """ID-indexed lookup, or None when the store has no ID index."""
        return None

    def has_id_index(self) -> bool:
        return False

    def count_path(self, path: tuple[str, ...]) -> int | None:
        """Cardinality of an absolute child path via a structural summary."""
        return None

    def nodes_at_path(self, path: tuple[str, ...]) -> list[Handle] | None:
        """All nodes at an absolute child path via a path index."""
        return None

    def known_tags(self) -> frozenset[str] | None:
        """The set of element names in the database (for path validation —
        the paper's Section 7 wish: warn on path expressions containing
        non-existing tags)."""
        return None

    def order_key(self, node: Handle, keys: "OrderKeys | None" = None):
        """A document-order key that is cheap even mid-write.

        On A, B and G ``doc_position`` lazily relabels the whole store
        after a mutation (an O(document) pass);
        :func:`splice_subtree` instead searches extents on this key,
        which the default builds from the sibling positions along the
        root-to-node chain — O(depth) with a native
        :meth:`sibling_position`, and sharing ancestors' keys through
        ``keys`` when a splice passes its memo.  Stores whose
        ``doc_position`` stays cheap under writes (C's ord tuples, the
        order labels of D, E and F) override this to return it directly.
        """
        return sibling_order_key(self, node, keys)

    def sibling_position(self, node: Handle) -> int | None:
        """A number ordering ``node`` among its siblings, read from the
        physical mapping without listing them (A's and B's ``pos``
        column); None when the store keeps none, and the splice's memo
        numbers ``children(parent)`` once per parent instead."""
        return None

    # -- mutation ----------------------------------------------------------------------
    #
    # The physical write surface.  Each architecture implements these with
    # its own strategy (DOM pointer splice, array append + order labels
    # placed in the gap, tuple insert/delete with index touches,
    # schema-directed shredding);
    # see docs/UPDATES.md.  They mutate ONLY the physical mapping: callers
    # are responsible for the logical bookkeeping (secondary-index deltas,
    # digest chaining, cache invalidation) — `repro.update.engine` is the
    # supported write path that does all three, exactly like `bulkload` is
    # the supported load path over `load()`.

    def insert_child(self, parent: Handle, element: Element, index: int | None = None) -> Handle:
        """Splice a detached DOM subtree in as a child element of ``parent``.

        ``index`` positions the new node among the *element* children of
        ``parent`` (None appends after every existing child).  Returns the
        handle of the inserted subtree's root.  The store takes its own
        copy/representation of ``element``; the argument is not captured.
        """
        raise StorageError(f"{type(self).__name__} does not support insert_child")

    def remove_node(self, node: Handle) -> None:
        """Detach the subtree rooted at ``node`` from the document.

        Handles into the removed subtree become invalid; removing the
        document root is an error, and so is removing a node a second time
        (a ``StorageError`` saying it was already removed).
        """
        raise StorageError(f"{type(self).__name__} does not support remove_node")

    def set_text(self, node: Handle, text: str) -> None:
        """Replace the direct text runs of ``node`` with the single run
        ``text`` (an empty string leaves the node without text)."""
        raise StorageError(f"{type(self).__name__} does not support set_text")

    def set_attribute(self, node: Handle, name: str, value: str) -> None:
        """Set (create or overwrite) one attribute of ``node``."""
        raise StorageError(f"{type(self).__name__} does not support set_attribute")

    # -- reconstruction ----------------------------------------------------------------

    def build_dom(self, node: Handle) -> Element:
        """Copy the subtree rooted at ``node`` into a result DOM.

        The default implementation reassembles the subtree through the
        navigation API, so its cost reflects the store's own navigation
        cost — reconstruction-heavy queries (Q10, Q13) are expensive exactly
        where the paper says they are.
        """
        element = Element(self.tag(node), dict(self.attributes(node)))
        for part in self.content(node):
            if isinstance(part, str):
                element.append_text(part)
            else:
                element.append(self.build_dom(part))
        return element

    def markup(self, node: Handle) -> str:
        """The subtree rooted at ``node`` as XML text, byte for byte
        ``serialize(self.build_dom(node))`` without building the DOM.

        Like :meth:`build_dom`, the default reads ``tag`` / ``attributes``
        / ``content`` through the navigation API, so rendering a result
        costs what the store's physical mapping makes it cost.
        """
        tag = self.tag(node)
        start = "<" + tag + "".join([
            f' {name}="{escape_attribute(value)}"'
            for name, value in self.attributes(node).items()])
        content = self.content(node)
        if not content:
            return start + "/>"
        return "".join([start, ">", *[
            escape_text(part) if isinstance(part, str) else self.markup(part)
            for part in content], "</", tag, ">"])


def sibling_order_key(store: Store, node: Handle,
                      keys: "OrderKeys | None" = None) -> tuple[int, ...]:
    """A document-order key computed locally, without global relabeling.

    The tuple of sibling positions along the root-to-node chain sorts in
    document order for any two nodes of one store.  One level costs a
    ``parent`` and a ``sibling_position`` read; the levels above come out
    of ``keys`` when the caller holds a memo, so the keys one splice asks
    for share every ancestor they have in common.
    """
    parent = store.parent(node)
    if parent is None:
        return ()
    if keys is None:
        keys = OrderKeys(store)
    position = store.sibling_position(node)
    if position is None:
        position = keys.child_positions(parent)[node]
    return keys(parent) + (position,)


class OrderKeys:
    """``store.order_key`` memoised for the length of one splice.

    Valid only while the store does not mutate: the splice runs after the
    physical insert and before the next one, under the update lock.
    """

    __slots__ = ("_store", "_keys", "_positions")

    def __init__(self, store: Store) -> None:
        self._store = store
        self._keys: dict = {}
        self._positions: dict = {}

    def __call__(self, node: Handle):
        key = self._keys.get(node)
        if key is None:
            key = self._keys[node] = self._store.order_key(node, self)
        return key

    def __len__(self) -> int:
        return len(self._keys)

    def child_positions(self, parent: Handle) -> dict:
        """``child -> index`` over ``children(parent)``, listed once."""
        positions = self._positions.get(parent)
        if positions is None:
            positions = self._positions[parent] = {
                child: index
                for index, child in enumerate(self._store.children(parent))}
        return positions


def rekey_id(index: dict, old: str | None, new: str, handle: Handle) -> None:
    """``handle``'s ``@id`` changed from ``old`` (None: it had none) to
    ``new``: ``index`` drops ``old`` when that still names ``handle``, and
    names ``handle`` under ``new``."""
    if old is not None and index.get(old) == handle:
        del index[old]
    index[new] = handle


def splice_subtree(store: Store, subtree: list, extent_of) -> None:
    """Enter one inserted subtree into ordered per-path extents.

    ``subtree`` lists the pre-order ``(handle, label path)`` pairs of a
    subtree that is already in the store and in no extent, root first;
    ``extent_of(path)`` returns the live document-ordered list for a path
    (empty for a path first seen).  The subtree is one interval of
    document order, so its nodes at one path are one contiguous run of
    that path's extent and every node already there lies wholly before
    or wholly after the subtree root: one search on the root's key places
    the whole run — none when the root sorts after the extent's last
    node, the append-at-container-end case — and one slice assignment
    enters it.
    """
    runs: dict = {}
    for handle, path in subtree:
        runs.setdefault(path, []).append(handle)
    root = subtree[0][0]
    keys = OrderKeys(store)
    for path, run in runs.items():
        extent = extent_of(path)
        if not extent or keys(extent[-1]) < keys(root):
            extent.extend(run)
        else:
            at = bisect_left(extent, keys(root), key=keys)
            extent[at:at] = run
    store.stats.order_keys += len(keys)
    store.stats.extent_splices += len(runs)


def runs_made_adjacent(texts: list[tuple[int, Any]], elements: Iterable[int],
                       removed: int) -> tuple[Any, Any] | None:
    """The two text runs a child's removal leaves side by side, to merge.

    ``texts`` holds a parent's ``(position, row)`` text runs, ``elements``
    the positions of the element children it keeps (read only when a run
    lies on each side), and ``removed`` the position of the child just
    removed.  Returns ``(row before, row after)`` when a run lies on each
    side of ``removed`` with no element between them, else None — the
    relational mappings' form of what the array and DOM stores do on
    their content lists.
    """
    before = max((run for run in texts if run[0] < removed), default=None)
    after = min((run for run in texts if run[0] > removed), default=None)
    if before is None or after is None or any(
            before[0] < position < after[0] for position in elements):
        return None
    return before[1], after[1]


def rank_by_walk(store: Store) -> dict:
    """Document-order ranks recomputed from the pointer structure.

    Shared by the relational stores, whose dense pre numbering stops
    encoding document order once tuples have been inserted: one O(n)
    navigation walk per mutation batch, cached by the store until the
    next write.
    """
    order: dict = {}
    rank = 0
    stack = [store.root()]
    while stack:
        node = stack.pop()
        order[node] = rank
        rank += 1
        stack.extend(reversed(store.children(node)))
    return order


def store_document_text(store: Store) -> str:
    """Serialize the store's current document back to XML text.

    Reconstructs through the navigation API, so it reflects the document as
    the store would answer queries over it — the oracle the differential
    update tests load into a fresh store.
    """
    store.require_loaded()
    return store.markup(store.root())
