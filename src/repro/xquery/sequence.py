"""The value model: sequences of items, atomization, comparisons.

Items are either atomic Python values (``str``/``int``/``float``/``bool``)
or :class:`NodeItem` wrappers around store handles.  Constructed elements
(from element constructors) are wrapped the same way with a
:class:`Fragment` — their markup — as the handle; the :class:`Navigator`
dispatches those to direct DOM access, which parses the markup once.

Casting follows the paper's experimental setup: "all character data in the
original document, including references, were stored as strings and cast at
runtime to richer data types whenever necessary" — comparisons and
arithmetic coerce strings to numbers at evaluation time, every time.
"""

from __future__ import annotations

import math
import operator

from repro.errors import TypeCoercionError
from repro.index.indexes import cast_double
from repro.storage.dom_store import DomStore
from repro.storage.interface import Store, Twig
from repro.xmlio.dom import Element, Text
from repro.xmlio.parser import parse
from repro.xmlio.serialize import serialize


class Fragment(Element):
    """A constructed element: an immutable row of markup.

    An element constructor writes its row's text once (``markup``), and
    that text is what every consumer reads: ``item_text``, a cursor's
    ``rowtext``, a wire page, an enclosing constructor (embedding is string
    concatenation, so a row is never copied, re-parented or mutated and is
    safe to share from a result cache).  Only a query that navigates into
    the row reads ``children`` or ``attributes``; the first such read parses
    the markup, once, into plain ``Element`` children.
    """

    __slots__ = ("markup",)

    def __init__(self, tag: str, markup: str) -> None:
        self.tag = tag
        self.markup = markup
        self.parent = None

    def __getattr__(self, name: str):
        """Only reached while a slot is unset: ``children`` and
        ``attributes`` are filled from the markup on first read."""
        if name not in ("children", "attributes"):
            raise AttributeError(name)
        root = parse(self.markup).root
        for child in root.children:
            child.parent = self
        self.children, self.attributes = root.children, root.attributes
        return getattr(self, name)


class NodeItem:
    """A node in a sequence; wraps an opaque store handle or a DOM Element."""

    __slots__ = ("handle",)

    def __init__(self, handle) -> None:
        self.handle = handle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeItem({self.handle!r})"


class NodeWindow:
    """Read-only sequence of :class:`NodeItem` over ``handles[start:stop]``.

    What every index-backed access path returns instead of a list: length
    and truth are arithmetic on the window bounds, and a handle is wrapped
    in a ``NodeItem`` only when an item is pulled (counted on
    ``owner.items_materialized``).  ``handles`` may alias a live index
    array, so a window must not outlive the evaluation that made it —
    consumers that keep items (``list.extend``, ``list()``) copy them out.
    """

    __slots__ = ("handles", "start", "stop", "_owner", "_seqs")

    def __init__(self, handles: list, start: int, stop: int, owner,
                 seqs: list | None = None) -> None:
        self.handles = handles
        self.start = start
        self.stop = stop
        self._owner = owner
        #: Build seqs parallel to ``handles`` when those are in *key* order
        #: (a sorted-index window): the first pull restores document order.
        self._seqs = seqs

    def __len__(self) -> int:
        return self.stop - self.start

    def __bool__(self) -> bool:
        return self.stop > self.start

    def __iter__(self):
        self._restore_doc_order()
        return iter(self._pull(self.start, self.stop))

    def __getitem__(self, index: int) -> NodeItem:
        self._restore_doc_order()
        position = index + (self.stop if index < 0 else self.start)
        if not self.start <= position < self.stop:
            raise IndexError("window index out of range")
        return self._pull(position, position + 1)[0]

    def raw(self) -> list:
        """The window's bare handles (for step pipelines, which wrap last)."""
        self._restore_doc_order()
        return self.handles[self.start:self.stop]

    def _restore_doc_order(self) -> None:
        """Swap a key-ordered window for its own document-ordered copy.
        Only a consumer that reads nodes pays the sort; ``len`` and truth
        never do."""
        seqs = self._seqs
        if seqs is not None:
            order = sorted(range(self.start, self.stop), key=seqs.__getitem__)
            self.handles = [self.handles[position] for position in order]
            self.start, self.stop, self._seqs = 0, len(order), None

    def _pull(self, start: int, stop: int) -> list[NodeItem]:
        self._owner.items_materialized += stop - start
        return list(map(NodeItem, self.handles[start:stop]))


class Navigator:
    """Uniform navigation over store handles and constructed DOM elements."""

    __slots__ = ("store", "_dom_handles")

    def __init__(self, store: Store) -> None:
        self.store = store
        # DomStore's native handles ARE Elements; only then can an Element
        # have a document position.
        self._dom_handles = isinstance(store, DomStore)

    def tag(self, handle) -> str:
        if isinstance(handle, Element):
            return handle.tag
        return self.store.tag(handle)

    def children_by_tag(self, handle, tag: str) -> list:
        if isinstance(handle, Element):
            return handle.find_all(tag)
        return self.store.children_by_tag(handle, tag)

    def children_by_path(self, handle, names: tuple[str, ...]) -> list:
        if isinstance(handle, Element):
            return DomNavigation.children_by_path(handle, names)
        return self.store.children_by_path(handle, names)

    def children(self, handle) -> list:
        if isinstance(handle, Element):
            return list(handle.child_elements())
        return self.store.children(handle)

    def descendants_by_tag(self, handle, tag: str) -> list:
        if isinstance(handle, Element):
            return list(handle.descendants(tag))
        return self.store.descendants_by_tag(handle, tag)

    def count_descendants(self, handle, tag: str) -> int:
        if isinstance(handle, Element):
            return len(list(handle.descendants(tag)))
        return self.store.count_descendants(handle, tag)

    def attribute(self, handle, name: str) -> str | None:
        if isinstance(handle, Element):
            return handle.attributes.get(name)
        return self.store.attribute(handle, name)

    def child_texts(self, handle) -> list[str]:
        if isinstance(handle, Element):
            return [c.value for c in handle.children if isinstance(c, Text)]
        return self.store.child_texts(handle)

    def string_value(self, handle) -> str:
        if isinstance(handle, Element):
            return handle.text_content()
        return self.store.string_value(handle)

    def doc_position(self, handle):
        if isinstance(handle, Element) and not self._dom_handles:
            raise TypeCoercionError("constructed nodes have no document order")
        try:
            return self.store.doc_position(handle)
        except KeyError:
            raise TypeCoercionError("constructed nodes have no document order") from None

    def build_dom(self, handle) -> Element:
        if isinstance(handle, Element):
            return handle.copy()
        return self.store.build_dom(handle)

    def markup(self, handle) -> str:
        """A node as XML text: a row's own markup, a node inside a row
        serialised, or the store's rendering of its own node."""
        if handle.__class__ is Fragment:
            return handle.markup
        if isinstance(handle, Element):
            return serialize(handle)
        return self.store.markup(handle)


class DomNavigation:
    """The step-navigation half of :class:`Navigator` when every handle is
    known to be an ``Element`` (System G, whose constructed nodes are
    Elements too): the plain DOM calls, with no per-call type test.  The
    emitted step kernels bind one of three navigations per path — this
    one, the store itself (an absolute path, or a variable proved to hold
    only store nodes, never meets a constructed node) or a ``Navigator``
    (a variable that may hold either kind)."""

    tag = staticmethod(Element.tag.__get__)
    children_by_tag = staticmethod(Element.find_all)
    attribute = staticmethod(Element.get)

    @staticmethod
    def children(element: Element) -> list:
        return list(element.child_elements())

    @staticmethod
    def children_by_path(element: Element, names: tuple[str, ...]) -> list:
        found = [element]
        for name in names:
            found = [child for parent in found for child in parent.children
                     if child.tag == name]
        return found

    @staticmethod
    def descendants_by_tag(element: Element, tag: str | None) -> list:
        return list(element.descendants(tag))

    @staticmethod
    def count_descendants(element: Element, tag: str | None) -> int:
        return len(list(element.descendants(tag)))

    @staticmethod
    def child_texts(element: Element) -> list[str]:
        return [c.value for c in element.children if isinstance(c, Text)]

    @staticmethod
    def values_by_path(element: Element, names: tuple[str, ...],
                       attribute: str | None = None) -> list[str]:
        found = DomNavigation.children_by_path(element, names)
        if attribute is None:
            return [c.value for reached in found for c in reached.children
                    if isinstance(c, Text) and c.value]
        return [value for reached in found
                if (value := reached.attributes.get(attribute)) is not None]

    @staticmethod
    def values_by_twig(element: Element, twig: Twig) -> list[list[str]]:
        return [DomNavigation.values_by_path(element, names, attribute)
                for names, attribute in twig.paths]


# -- atomization -------------------------------------------------------------------


def atomize_item(item, navigator: Navigator):
    """Node -> string value; atomics pass through."""
    if isinstance(item, NodeItem):
        return navigator.string_value(item.handle)
    return item


def atomize(sequence: list, navigator: Navigator) -> list:
    return [atomize_item(item, navigator) for item in sequence]


def atomic_to_string(value) -> str:
    """Stable textual form of one atomic value (for constructors/results)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):    # XQuery lexical forms, not Python's
            return "NaN" if value != value else ("INF" if value > 0 else "-INF")
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return format(value, ".10g")
    return str(value)


def sequence_to_string(sequence: list, navigator: Navigator) -> str:
    """Space-joined string of the atomized sequence (attribute templates)."""
    return " ".join(atomic_to_string(atomize_item(item, navigator)) for item in sequence)


# -- boolean / numeric coercions ---------------------------------------------------------


def effective_boolean(sequence: list) -> bool:
    """XPath-style effective boolean value."""
    if not sequence:
        return False
    first = sequence[0]
    if isinstance(first, NodeItem):
        return True
    if len(sequence) == 1:
        if isinstance(first, bool):
            return first
        if isinstance(first, (int, float)):
            return first != 0
        if isinstance(first, str):
            return bool(first)
    return True


def try_number(value) -> float | None:
    """Coerce one atomic to float, or None when impossible."""
    if type(value) is str:              # document text: the common case
        return cast_double(value)
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


def to_number(value) -> float:
    number = try_number(value)
    if number is None:
        raise TypeCoercionError(f"cannot cast {value!r} to a number")
    return number


# -- comparisons -----------------------------------------------------------------------


def mirror_op(op: str) -> str:
    """The comparison ``b OP' a`` equivalent to ``a OP b``."""
    return {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def _ordering(test):
    def compare(left, right) -> bool:
        left, right = try_number(left), try_number(right)
        return left is not None and right is not None and test(left, right)
    return compare


def _equal(left, right) -> bool:
    left_num, right_num = try_number(left), try_number(right)
    if left_num is not None and right_num is not None:
        return left_num == right_num
    return atomic_to_string(left) == atomic_to_string(right)


#: Value comparison with runtime string->number casting, one comparator
#: per operator (resolved once per call site or probe, not per pair).
#: Ordering operators always compare numerically (the benchmark's casting
#: challenge); equality compares numerically when both sides cast, else as
#: strings.
COMPARATORS = {
    "<": _ordering(operator.lt), "<=": _ordering(operator.le),
    ">": _ordering(operator.gt), ">=": _ordering(operator.ge),
    "=": _equal, "!=": lambda left, right: not _equal(left, right),
}


def general_compare(op: str, left: list, right: list, navigator: Navigator) -> bool:
    """Existential comparison over two sequences."""
    if not left or not right:
        return False
    return any_pair(op, atomize(left, navigator), atomize(right, navigator))


def any_pair(op: str, left_atoms: list, right_atoms: list) -> bool:
    """Whether any pair of atomics, one from each list, compares true."""
    compare = COMPARATORS[op]
    for a in left_atoms:
        for b in right_atoms:
            if compare(a, b):
                return True
    return False
