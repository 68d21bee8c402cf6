"""System D analogue: compact main-memory store with a structural summary.

System D is the paper's overall winner: main-memory resident, the *smallest*
database (142 MB for the 100 MB document — its mapping is more compact than
the raw text plus DOM overhead), the fastest bulkload, and near-instant
regular-path queries thanks to its "detailed structural summary".

Compactness here is real, not claimed: relative to :class:`TreeStore` this
store drops the redundant child lists, interns tags, keeps each node's
element children as one tuple of ids, and keeps *all* its text in one
document-ordered string, the heap, instead of one ``str`` object per run;
the structural summary and ID index it adds are smaller than what was
removed.

The text heap.  In pre-order the text of a loaded subtree is contiguous,
so each loaded node has two offsets into the heap, ``_lo`` at its start
tag and ``_hi`` at its end tag, and its string value is
``heap[lo:hi]``.  Its own text runs are the heap between its children's
offsets.  A write (``insert_child``, ``remove_node``, ``set_text``) first
materialises the content of the node it changes — ids and ``str`` runs —
into the overlay, writes there, and adds the node and its ancestors to
the ``_touched`` set; inserted nodes always carry overlay content.  A
subtree is clean when its root is loaded and not touched, one hash probe,
and a string value walks only the touched part of a subtree, slicing each
clean subtree below it.

Document order is the order label :class:`TreeStore` keeps valid under
writes: a descendant step is two bisects on the label per matching
summary extent, before and after updates alike.

Concurrency: every read path (navigation, summary probes, ID lookups)
only reads — writes, which the service runs with every reader drained,
are the only thing that changes the arrays, the labels or the extents —
and keeps no shared mutable scratch, so the query service may execute
plans against one loaded instance from many threads.  The ``stats``
counters are the only shared writes; under races they can undercount
but never affect results.
"""

from __future__ import annotations

import io
import sys
from array import array
from bisect import bisect_right

from repro.storage.interface import Twig, rekey_id, splice_subtree
from repro.storage.structural_summary import StructuralSummary
from repro.storage.tree_store import _SHIFT, TreeStore
from repro.xmlio.escape import escape_attribute, escape_text
from repro.xmlio.parser import END, START, tokens


class SummaryStore(TreeStore):
    """Main-memory store with DataGuide summary and ID index (System D)."""

    architecture = "main memory + structural summary (DataGuide) + ID index (System D)"
    native_path_extents = True          # a path's extent is its summary entry

    def __init__(self) -> None:
        super().__init__()
        self._summary: StructuralSummary | None = None
        self._id_index: dict[str, int] = {}
        self._heap = ""                 # every loaded text run, in document order
        self._lo = array("i")           # heap offset of a loaded node's first text
        self._hi = array("i")           # ... and one past its subtree's last text
        self._overlay: dict[int, tuple] = {}    # written nodes: ids and str runs
        self._touched: set[int] = set()  # loaded nodes written, and their ancestors

    def load(self, text: str) -> None:
        """One pass over the tokens: child-id tuples, packed columns, the
        text heap and its offsets, the structural summary and the ID index.

        The load keeps only what it stores: each text run is written into
        the one heap buffer, and each element's id is appended to its
        path's extent, found under its parent's path in a trie that lives
        only as long as this call — a path tuple is made once per distinct
        path, not once per node."""
        # The heap is never longer than the document.
        width = "i" if len(text) < 1 << 31 else "q"
        tags: list[str] = []
        parents, posts = array("q"), array("q")
        lo, hi = array(width), array(width)
        attrs: list[dict[str, str] | None] = []
        content: list[tuple[int, ...]] = []
        id_index: dict[str, int] = {}
        summary = StructuralSummary()
        heap = io.StringIO()
        write = heap.write
        size = 0                        # heap length so far
        stack: list[int] = []
        kids: list[list[int] | None] = []       # child ids of each open element
        # Each open element's path: (its extent, its child paths by tag, the
        # path); the bottom one stands for the paths of no element.
        steps: list[tuple] = [(None, {}, ())]
        parent = -1
        for kind, value, attributes in tokens(text):
            if kind == START:
                node = len(tags)
                tags.append(value)              # interned by the tokenizer
                parents.append(parent)
                posts.append(0)
                lo.append(size)
                hi.append(size)
                content.append(())
                if attributes:
                    own = dict(attributes)
                    attrs.append(own)
                    identifier = own.get("id")
                    if identifier is not None:
                        id_index[identifier] = node
                else:
                    attrs.append(None)
                if kids:
                    siblings = kids[-1]
                    if siblings is None:
                        kids[-1] = [node]
                    else:
                        siblings.append(node)
                kids.append(None)
                below = steps[-1][1]
                step = below.get(value)
                if step is None:
                    path, extent = steps[-1][2] + (value,), array("q")
                    summary.register(path, extent)
                    step = below[value] = (extent, {}, path)
                step[0].append(node)
                steps.append(step)
                stack.append(node)
                parent = node
            elif kind == END:
                node = stack.pop()
                steps.pop()
                posts[node] = (len(tags) - 1) << _SHIFT
                hi[node] = size
                children = kids.pop()
                if children is not None:
                    content[node] = tuple(children)
                parent = stack[-1] if stack else -1
            else:
                size += write(value)
        self._tags, self._parents, self._posts = tags, parents, posts
        self._attrs, self._content, self._id_index = attrs, content, id_index
        self._heap, self._lo, self._hi = heap.getvalue(), lo, hi
        heap.close()        # some versions keep a copy after getvalue()
        self._overlay, self._touched = {}, set()
        self._labels, self._inserted, self._holes = array("q"), [], []
        self._bulk = len(tags)
        summary.compact()
        self._summary = summary
        self.mark_loaded(text)

    @property
    def summary(self) -> StructuralSummary:
        self.require_loaded()
        assert self._summary is not None
        return self._summary

    # -- text: heap slices where no write reached, the overlay where one did ---

    def _clean(self, node: int) -> bool:
        """Whether ``node``'s subtree is as loaded: no write reached it."""
        return node < self._bulk and node not in self._touched

    def _parts(self, node: int):
        """The node's content: its overlay, or the heap runs between its
        children's offsets (empty runs dropped) interleaved with their ids."""
        parts = self._overlay.get(node)
        if parts is not None:
            return parts
        heap, lo, hi = self._heap, self._lo, self._hi
        parts = []
        at = lo[node]
        for child in self._content[node]:
            start = lo[child]
            if start > at:
                parts.append(heap[at:start])
            parts.append(child)
            at = hi[child]
        end = hi[node]
        if end > at:
            parts.append(heap[at:end])
        return parts

    def child_texts(self, node: int) -> list[str]:
        self.stats.nodes_visited += 1
        if not self._content[node] and node not in self._overlay:
            text = self._heap[self._lo[node]:self._hi[node]]
            return [text] if text else []
        return [part for part in self._parts(node) if part.__class__ is str]

    def string_value(self, node: int) -> str:
        """A slice of the heap per clean subtree; a touched one walks its
        content, still slicing every clean subtree below it."""
        if self._clean(node):
            self.stats.index_lookups += 1
            return self._heap[self._lo[node]:self._hi[node]]
        heap, lo, hi = self._heap, self._lo, self._hi
        texts: list[str] = []
        stack: list = [node]
        while stack:
            current = stack.pop()
            if current.__class__ is str:
                texts.append(current)
            elif self._clean(current):
                self.stats.index_lookups += 1
                texts.append(heap[lo[current]:hi[current]])
            else:
                self.stats.nodes_visited += 1
                stack.extend(reversed(self._parts(current)))
        return "".join(texts)

    def content(self, node: int) -> list:
        self.stats.nodes_visited += 1
        return list(self._parts(node))

    def markup(self, node: int) -> str:
        """:meth:`TreeStore.markup` over the same runs :meth:`_parts`
        gives, visit for visit.  A clean subtree renders straight from the
        heap, asking nothing of the overlay; only the touched part of a
        subtree reads :meth:`_parts`.  When the heap window of the rendered
        subtree holds nothing to escape, no heap run is searched again."""
        tags, attrs_of, content = self._tags, self._attrs, self._content
        heap, lo, hi = self._heap, self._lo, self._hi
        bulk, touched, parts_of = self._bulk, self._touched, self._parts
        plain = node < bulk and all(
            heap.find(char, lo[node], hi[node]) < 0 for char in "&<>")
        elements = 0

        def text(run: str) -> str:
            if "&" in run or "<" in run or ">" in run:
                return escape_text(run)
            return run

        def start_tag(tag: str, attrs) -> str:
            return "<" + tag + "".join([f' {name}="{escape_attribute(value)}"'
                                        for name, value in attrs.items()])

        def render(node: int, at: int) -> str:      # a clean subtree from ``at``
            nonlocal elements
            elements += 1
            tag, attrs = tags[node], attrs_of[node]
            start = start_tag(tag, attrs) if attrs else "<" + tag
            children, end = content[node], hi[node]
            if not children:
                if at == end:
                    return start + "/>"
                run = heap[at:end]
                return f"{start}>{run if plain else text(run)}</{tag}>"
            pieces = [start, ">"]
            for child in children:
                begin = lo[child]
                if begin > at:
                    pieces.append(heap[at:begin] if plain else text(heap[at:begin]))
                at = hi[child]
                if content[child]:
                    pieces.append(render(child, begin))
                    continue
                # A leaf, as render would write it, without the call: most
                # elements are leaves.
                elements += 1
                leaf_tag, leaf_attrs = tags[child], attrs_of[child]
                opening = (start_tag(leaf_tag, leaf_attrs) if leaf_attrs
                           else "<" + leaf_tag)
                if begin == at:
                    pieces.append(opening + "/>")
                else:
                    run = heap[begin:at]
                    pieces.append(f"{opening}>{run if plain else text(run)}</{leaf_tag}>")
            if end > at:
                pieces.append(heap[at:end] if plain else text(heap[at:end]))
            pieces += ("</", tag, ">")
            return "".join(pieces)

        def render_touched(node: int) -> str:
            if node < bulk and node not in touched:
                return render(node, lo[node])
            nonlocal elements
            elements += 1
            tag, attrs = tags[node], attrs_of[node]
            start = start_tag(tag, attrs) if attrs else "<" + tag
            parts = parts_of(node)
            if not parts:
                return start + "/>"
            pieces = [start, ">"]
            for part in parts:
                if part.__class__ is int:
                    pieces.append(render_touched(part))
                else:
                    pieces.append(text(part))
            pieces += ("</", tag, ">")
            return "".join(pieces)

        rendered = render_touched(node)
        self.stats.nodes_visited += elements
        return rendered

    # -- navigation: content tuples hold child ids only ---------------------------

    def children(self, node: int) -> list[int]:
        self.stats.nodes_visited += 1
        return list(self._content[node])

    def children_by_tag(self, node: int, tag: str) -> list[int]:
        self.stats.nodes_visited += 1
        tags = self._tags
        return [child for child in self._content[node] if tags[child] == tag]

    def children_by_path(self, node: int, names: tuple[str, ...]) -> list[int]:
        """The whole run of child steps as one scan of child-id tuples per
        step, counting a visit per (step, node) as the per-step loop does."""
        tags, content = self._tags, self._content
        found, visited = [node], 0
        for name in names:
            visited += len(found)
            found = [child for parent in found for child in content[parent]
                     if tags[child] == name]
        self.stats.nodes_visited += visited
        return found

    def values_by_path(self, node: int, names: tuple[str, ...],
                       attribute: str | None = None) -> list[str]:
        """:meth:`Store.values_by_path` in one call, visit for visit: the
        child steps are :meth:`children_by_path`'s scan, a clean leaf's
        text is its heap slice and a written node's runs its overlay."""
        found = self.children_by_path(node, names) if names else [node]
        if attribute is not None:
            attrs = self._attrs
            return [value for reached in found
                    if (own := attrs[reached])
                    and (value := own.get(attribute)) is not None]
        self.stats.nodes_visited += len(found)
        content, overlay, heap, lo, hi = (
            self._content, self._overlay, self._heap, self._lo, self._hi)
        texts: list[str] = []
        for reached in found:
            if content[reached] or reached in overlay:
                texts += [part for part in self._parts(reached)
                          if part.__class__ is str and part]
            elif lo[reached] < hi[reached]:
                texts.append(heap[lo[reached]:hi[reached]])
        return texts

    def values_by_twig(self, node: int, twig: Twig) -> list[list[str]]:
        """:meth:`Store.values_by_twig` in one pass: each trie branch
        scans its node's child tuple once, however many leaves lie below
        it, so a shared prefix is visited once, not once per leaf.  Nodes
        are taken breadth first, which keeps every leaf's nodes in
        document order; a text leaf reads a clean leaf's heap slice or a
        written node's overlay runs, as :meth:`values_by_path` does."""
        tags, content, attrs, overlay, heap, lo, hi = (
            self._tags, self._content, self._attrs, self._overlay,
            self._heap, self._lo, self._hi)
        found: list[list[str]] = [[] for _ in twig.paths]
        visited = 0
        pending = [(node, twig.root)]
        for current, (text, named, kids) in pending:    # grows as it goes
            if kids is not None:
                visited += 1
                for child in content[current]:
                    branch = kids.get(tags[child])
                    if branch is not None:
                        pending.append((child, branch))
            if text >= 0:
                visited += 1
                if content[current] or current in overlay:
                    found[text] += [part for part in self._parts(current)
                                    if part.__class__ is str and part]
                elif lo[current] < hi[current]:
                    found[text].append(heap[lo[current]:hi[current]])
            if named and (own := attrs[current]):
                for attribute, leaf in named:
                    value = own.get(attribute)
                    if value is not None:
                        found[leaf].append(value)
        self.stats.nodes_visited += visited
        return found

    def size_bytes(self) -> int:
        """Every column and the heap (packed: ``getsizeof`` covers their
        payload), attribute dicts, the non-empty child tuples (a leaf's is
        the one shared empty tuple), the overlay with its runs and the
        touched nodes, the summary and the ID index."""
        self.require_loaded()
        getsizeof = sys.getsizeof
        total = sum(getsizeof(part) for part in (
            self._tags, self._parents, self._posts, self._attrs, self._content,
            self._heap, self._lo, self._hi, self._labels,
            self._overlay, self._touched))
        total += self._attribute_bytes()
        total += sum(getsizeof(children) for children in self._content if children)
        for parts in self._overlay.values():
            total += getsizeof(parts) + sum(
                getsizeof(part) for part in parts if part.__class__ is str)
        total += sum(getsizeof(node) for node in self._touched)
        total += self.summary.size_bytes()
        total += getsizeof(self._id_index) + 16 * len(self._id_index)
        return total

    # -- summary-powered capabilities ---------------------------------------------

    def descendants_by_tag(self, node: int, tag: str) -> list[int]:
        """Resolve via the summary: only matching path extents are touched,
        each with two bisects on the order label."""
        self.stats.index_lookups += 1
        entries = self.summary.paths_through(self._path_of(node), tag)
        found: list[int] = []
        for entry in entries:
            found += self._window(entry.nodes, node)
        if len(entries) > 1:
            found = self._in_document_order(found)
        self.stats.nodes_visited += len(found)
        return found

    def count_descendants(self, node: int, tag: str) -> int:
        """The summary's count, listing no node: the sizes of the extents
        below ``node``'s path when ``node`` is the only node at it, else
        two bisects on the label per extent, as :meth:`_window` makes
        them.  A tag absent below the path matches no extent: 0 at once."""
        self.stats.index_lookups += 1
        summary, path = self.summary, self._path_of(node)
        entries = summary.paths_through(path, tag)
        if not entries:
            return 0
        if summary.count(path) == 1:
            return sum([len(entry.nodes) for entry in entries])
        label = self.doc_position
        low, high = label(node), self._posts[node]
        return sum(bisect_right(entry.nodes, high, key=label)
                   - bisect_right(entry.nodes, low, key=label)
                   for entry in entries)

    def count_path(self, path: tuple[str, ...]) -> int | None:
        self.stats.index_lookups += 1
        return self.summary.count(path)

    def nodes_at_path(self, path: tuple[str, ...]) -> list[int] | None:
        self.stats.index_lookups += 1
        return list(self.summary.nodes(path))

    def known_tags(self) -> frozenset[str]:
        return self.summary.tags()

    def lookup_id(self, value: str) -> int | None:
        self.stats.index_lookups += 1
        return self._id_index.get(value)

    def has_id_index(self) -> bool:
        return True

    # -- mutation hooks: a write materialises the content it changes --------------

    def _child_ids(self, node: int) -> tuple[int, ...]:
        return self._content[node]

    def _reserve(self) -> None:
        self._content.append(())

    def _set_content(self, node: int, parts: list, children) -> None:
        """Write ``node``'s content into the overlay (its child ids into
        its tuple) and mark a loaded node and its ancestors touched, up to
        the first one already marked."""
        self._overlay[node] = tuple(parts)
        self._content[node] = tuple(children)
        if node < self._bulk:
            touched, parents = self._touched, self._parents
            while node >= 0 and node not in touched:
                touched.add(node)
                node = parents[node]

    # -- mutation hooks: summary extents and the ID index take deltas ------------

    def _after_insert(self, new_ids: list[int]) -> None:
        anchor = self._parents[new_ids[0]]
        paths = {anchor: self._path_of(anchor)}
        subtree = []
        for node in new_ids:                # pre-order: parents come first
            path = paths[node] = paths[self._parents[node]] + (self._tags[node],)
            subtree.append((node, path))
            attrs = self._attrs[node]
            if attrs:
                identifier = attrs.get("id")
                if identifier is not None:
                    self._id_index[identifier] = node
        splice_subtree(self, subtree, self._summary.extent)

    def _after_remove(self, removed: list[tuple[int, tuple[str, ...]]]) -> None:
        root = removed[0][0]
        for path in {path for _node, path in removed}:
            self._drop_window(self._summary.extent(path), root)
        for node, _path in removed:
            attrs = self._attrs[node]
            if attrs:
                identifier = attrs.get("id")
                if identifier is not None and self._id_index.get(identifier) == node:
                    del self._id_index[identifier]

    def _after_set_attribute(self, node: int, name: str, value: str,
                             old: str | None) -> None:
        if name == "id":
            rekey_id(self._id_index, old, value, node)
