"""Property-based tests (hypothesis) on the core invariants."""

import string
import time
from xml.parsers import expat

import pytest
from hypothesis import given, settings, strategies as st
from test_xmlio_parser import TestIterparse

from repro.errors import XMLSyntaxError
from repro.rng.distributions import Distribution, RandomSource
from repro.rng.lcg import Lcg48
from repro.storage.dom_store import DomStore
from repro.storage.fragment_store import FragmentStore
from repro.storage.heap_store import HeapStore
from repro.storage.summary_store import SummaryStore
from repro.storage.tree_store import IndexedTreeStore, TreeStore
from repro.xmlio.canonical import canonicalize
from repro.xmlio.dom import Element, Text
from repro.xmlio import parser as xml_parser
from repro.xmlio.parser import END, START, TEXT, parse, tokens
from repro.xmlio.serialize import serialize

# -- random XML tree strategy ---------------------------------------------------

_tag = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
_attr_value = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&\"'", max_size=12)
_text_value = st.text(
    alphabet=string.ascii_letters + string.digits + " <>&", min_size=1, max_size=20)


@st.composite
def xml_trees(draw, depth=3):
    element = Element(draw(_tag))
    for name in draw(st.lists(_tag, max_size=3, unique=True)):
        element.attributes[name] = draw(_attr_value)
    if depth > 0:
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                element.append(draw(xml_trees(depth=depth - 1)))
            else:
                element.append_text(draw(_text_value))
    return element


# -- the same trees as text, in every spelling the tokenizer accepts -----------

_tag_space = st.sampled_from(["", " ", "\n", " \t", "\r\n "])
_misc = st.sampled_from(
    ["", "<!-- a > b - c -->", "<?pi some > data?>", "<!---->", "<?x?>"])


def _spell(draw, value: str, quote: str = "") -> str:
    """``value`` as character data (or, with ``quote``, as an attribute
    value): every character literal, as an entity, or as a character
    reference, the markup characters never literal."""
    parts = []
    for char in value:
        entity = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                  "'": "&apos;"}.get(char)
        choice = draw(st.integers(0, 9))
        if choice == 0:
            parts.append(f"&#{ord(char)};")
        elif choice == 1:
            parts.append(f"&#x{ord(char):X};")
        elif entity and (char in "&<" or char == quote or choice < 6):
            parts.append(entity)
        else:
            parts.append(char)
    return "".join(parts)


def _render(draw, element: Element, parts: list[str]) -> None:
    parts.append(f"<{element.tag}")
    for name, value in element.attributes.items():
        quote = draw(st.sampled_from("\"'"))
        parts.append(f"{draw(_tag_space) or ' '}{name}{draw(_tag_space)}="
                     f"{draw(_tag_space)}{quote}{_spell(draw, value, quote)}{quote}")
    parts.append(draw(_tag_space))
    if not element.children and draw(st.booleans()):
        parts.append("/>")
        return
    parts.append(">")
    for child in element.children:
        parts.append(draw(_misc))
        if isinstance(child, Element):
            _render(draw, child, parts)
        elif draw(st.integers(0, 3)) == 0:
            parts.append(f"<![CDATA[{child.value}]]>")
        else:
            parts.append(_spell(draw, child.value))
    parts.append(f"{draw(_misc)}</{element.tag}{draw(_tag_space)}>")


@st.composite
def xml_texts(draw):
    """An ``xml_trees`` tree spelled with comments, CDATA sections, PIs, a
    DOCTYPE with an internal subset, both quote styles, whitespace inside
    tags, and entity and character references."""
    tree = draw(xml_trees())
    parts = [draw(st.sampled_from(["", '<?xml version="1.0"?>\n'])), draw(_misc)]
    if draw(st.booleans()):
        parts.append(f"<!DOCTYPE {tree.tag} [\n <!ELEMENT {tree.tag} ANY>"
                     f" <!-- a > in the subset -->\n]>\n")
    _render(draw, tree, parts)
    parts += [draw(_tag_space), draw(_misc)]
    return "".join(parts)


def _merge_text(events):
    """Adjacent character runs merged (a comment, a CDATA boundary or a
    reference splits them differently in different tokenizers)."""
    merged = []
    for event in events:
        if event[0] == TEXT and merged and merged[-1][0] == TEXT:
            merged[-1] = (TEXT, merged[-1][1] + event[1], None)
        else:
            merged.append(event)
    return merged


def _expat_tokens(text: str):
    events = []
    oracle = expat.ParserCreate()
    oracle.ordered_attributes = True
    oracle.StartElementHandler = lambda name, attributes: events.append(
        (START, name, tuple(zip(attributes[::2], attributes[1::2]))))
    oracle.EndElementHandler = lambda name: events.append((END, name, None))
    oracle.CharacterDataHandler = lambda data: events.append((TEXT, data, None))
    oracle.Parse(text, True)
    return _merge_text(events)


_MALFORMED = next(
    mark.args[1] for mark in TestIterparse.test_malformed_inputs_raise.pytestmark
    if mark.name == "parametrize")


class TestTokenizerDifferential:
    @given(xml_texts())
    @settings(max_examples=300, deadline=None)
    def test_token_stream_equals_expat(self, text):
        assert _merge_text(tokens(text)) == _expat_tokens(text)

    @given(xml_texts())
    @settings(max_examples=60, deadline=None)
    def test_names_are_interned_once_per_parse(self, text):
        names: dict[str, str] = {}
        for kind, value, attributes in tokens(text):
            if kind != TEXT:
                assert names.setdefault(value, value) is value

    @pytest.mark.parametrize("bad,fragment", _MALFORMED)
    def test_malformed_inputs_keep_message_and_line(self, bad, fragment):
        with pytest.raises(XMLSyntaxError) as excinfo:
            list(tokens(bad))
        assert fragment in str(excinfo.value)
        assert excinfo.value.line == 1      # every input in the list is one line

    @pytest.mark.parametrize("bad,fragment,line", [
        ("<a>\n<?pi never closed</a>", "unterminated processing instruction", 2),
        ("<!DOCTYPE a [<!ELEMENT a ANY>\n<a/>", "unterminated DOCTYPE", 2),
        ("<a/>\n<!DOCTYPE a>", "DOCTYPE after the root", 2),
        ("<a>\n<b x='1</b></a>", "unterminated attribute value for 'x'", 2),
        ("<a>\n</b ></a>", "mismatched closing tag", 2),
        ("<a>\n</a b>", "malformed closing tag </a", 2),
        ("<a>\n<b / ></a>", "expected '/>'", 2),
        ("<a>\n<b", "unterminated tag <b", 2),
        ("<a>\n< b/></a>", "expected a name", 2),
        ("<a>\n<b x='1'y='2'/></a>", "attribute 'y' must follow whitespace", 2),
        ("<a>\n\n<b>&#xZZ;</b></a>", "bad character reference", 3),
        ("<![CDATA[x]]><a/>", "CDATA outside the root", 1),
    ])
    def test_malformed_inputs_beyond_the_list(self, bad, fragment, line):
        with pytest.raises(XMLSyntaxError) as excinfo:
            list(tokens(bad))
        assert fragment in str(excinfo.value)
        assert excinfo.value.line == line

    @pytest.mark.parametrize("attribute,tail,fragment", [
        (" x='1", "></b></a>", "expected a name"),           # quotes never close
        (' x="1', "", "expected a name"),
        (" x='1'", "", "unterminated tag <b"),                # the tag never closes
        (" x='1' ", " y</b></a>", "attribute 'y' missing '='"),
        (" x=", "></b></a>", "attribute 'x' value must be quoted"),
    ])
    def test_malformed_tags_fail_in_linear_time(self, attribute, tail, fragment):
        """A tag of 10 000 unterminated attributes fails in one pass, not
        through regex backtracking: 16 times the input stays well under the
        second a quadratic matcher would need many of."""
        for count in (10_000, 160_000):
            bad = "<a>\n<b" + attribute * count + tail
            started = time.perf_counter()
            with pytest.raises(XMLSyntaxError) as excinfo:
                list(tokens(bad))
            assert time.perf_counter() - started < 1.0
            assert fragment in str(excinfo.value) and excinfo.value.line == 2

    def test_well_formed_input_never_asks_for_a_location(self, monkeypatch):
        """Line/column cost a scan from the start of the buffer: entity-
        bearing text must not pay it unless an error is raised."""
        calls = []
        real = xml_parser._location
        monkeypatch.setattr(
            xml_parser, "_location",
            lambda text, offset: calls.append(offset) or real(text, offset))
        document = "<r>\n" + "<b x='&lt;'>x &amp; y &#33;</b>\n" * 2000 + "</r>"
        assert sum(1 for _ in tokens(document)) == 2 + 3 * 2000 + 2000 + 1
        assert calls == []
        with pytest.raises(XMLSyntaxError) as excinfo:
            list(tokens(document.replace("</r>", "<b>&bogus;</b></r>")))
        assert excinfo.value.line == 2002 and len(calls) == 1


class TestXmlRoundtrip:
    @given(xml_trees())
    @settings(max_examples=120, deadline=None)
    def test_serialize_parse_roundtrip(self, tree):
        text = serialize(tree)
        reparsed = parse(text).root
        assert serialize(reparsed) == text

    @given(xml_trees())
    @settings(max_examples=80, deadline=None)
    def test_canonicalize_idempotent(self, tree):
        once = canonicalize(tree)
        assert canonicalize(parse(once).root) == once

    @given(xml_trees())
    @settings(max_examples=50, deadline=None)
    def test_unordered_canonical_invariant_under_sibling_reversal(self, tree):
        unordered = canonicalize(tree, ordered=False)
        tree.children.reverse()
        assert canonicalize(tree, ordered=False) == unordered


class TestStoreConformanceOnRandomTrees:
    @given(xml_trees())
    @settings(max_examples=30, deadline=None)
    def test_all_stores_rebuild_random_documents(self, tree):
        text = serialize(tree)
        expected = canonicalize(parse(text).root, strip_whitespace=False)
        for store_class in (DomStore, TreeStore, IndexedTreeStore,
                            SummaryStore, HeapStore, FragmentStore):
            store = store_class()
            store.load(text)
            rebuilt = store.build_dom(store.root())
            assert canonicalize(rebuilt, strip_whitespace=False) == expected, store_class

    @given(xml_trees(), _tag)
    @settings(max_examples=40, deadline=None)
    def test_descendant_counts_agree(self, tree, probe_tag):
        text = serialize(tree)
        oracle = sum(1 for _ in parse(text).root.descendants(probe_tag))
        for store_class in (TreeStore, IndexedTreeStore, SummaryStore, HeapStore):
            store = store_class()
            store.load(text)
            assert len(store.descendants_by_tag(store.root(), probe_tag)) == oracle


class TestRngProperties:
    @given(st.integers(0, 2**48 - 1))
    @settings(max_examples=40)
    def test_clone_equivalence(self, seed):
        source = RandomSource(Lcg48(seed))
        source.uniform()
        twin = source.clone()
        assert [source.uniform() for _ in range(8)] == [twin.uniform() for _ in range(8)]

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=40).filter(sum),
           st.integers(0, 2**48 - 1), st.integers(0, 60),
           st.none() | st.floats(0, 1))
    @settings(max_examples=200)
    def test_sample_run_is_the_draw_at_a_time_loop(self, weights, seed, limit, stop):
        distribution = Distribution(weights)
        batch, single = RandomSource.from_seed(seed), RandomSource.from_seed(seed)
        run = distribution.sample_run(batch, range(len(weights)), limit, stop)
        expected, stopped = [], False
        for _ in range(limit):
            expected.append(distribution.sample(single))
            if stop is not None and single.boolean(stop):
                stopped = True
                break
        assert run == (expected, stopped)
        assert batch.core.getstate() == single.core.getstate()

    @given(st.integers(0, 2**48 - 1), st.integers(1, 1000), st.integers(0, 1000))
    @settings(max_examples=40)
    def test_sample_without_replacement_properties(self, seed, population, extra):
        source = RandomSource(Lcg48(seed))
        count = min(population, 1 + extra % population)
        sample = source.sample_without_replacement(population, count)
        assert len(set(sample)) == count
        assert all(0 <= value < population for value in sample)

    @given(st.floats(min_value=0.01, max_value=1e6), st.integers(0, 2**48 - 1))
    @settings(max_examples=40)
    def test_exponential_positive(self, mean, seed):
        source = RandomSource(Lcg48(seed))
        assert source.exponential(mean) >= 0
