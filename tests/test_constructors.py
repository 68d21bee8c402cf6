"""Element constructors render markup: one grammar, seven systems.

A constructed row is its markup (``Fragment``).  What a consumer reads —
``rowtext`` — must be the same text on every architecture, and a query that
navigates into the row must see exactly what the DOM API sees on
``parse(rowtext)``.  The cells below pin the escaping rules; the hypothesis
grammar generates nested constructors with literal text and attribute
templates over ``& < > "``, atomics, embedded store elements and attributes,
and a variable embedded twice or navigated into and embedded.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmark.systems import SYSTEMS, get_profile
from repro.shard import ShardedStore
from repro.xmlio.dom import Text
from repro.xmlio.parser import parse
from repro.xquery.evaluator import evaluate, item_text
from repro.xquery.planner import compile_query, exchange_kind

ALL_SYSTEMS = tuple(sorted(SYSTEMS))


def rowtexts(store, system: str, query: str) -> list[str]:
    result = evaluate(compile_query(query, store, get_profile(system)))
    return [item_text(item, result.navigator) for item in result.items]


# -- pinned cells -----------------------------------------------------------------------

RENDERED = [
    # references in query literals are resolved once, escaped once
    ('<a b="x&lt;y">p&amp;q</a>', '<a b="x&lt;y">p&amp;q</a>'),
    ('"a&amp;b"', "a&b"),
    ('<a>{"1 &lt; 2"}</a>', "<a>1 &lt; 2</a>"),
    ('<a b="{"&quot;&gt;"}">&#62;</a>', '<a b="&quot;>">&gt;</a>'),
    # the DOM-era edge: an empty string still opens and closes the element
    ('<a>{""}</a>', "<a></a>"),
    ("<a>{/site/nothing}</a>", "<a/>"),
    ("<a> {/site/nothing} </a>", "<a/>"),
    ('<a>{" "}</a>', "<a> </a>"),
    ("<r><a/>{1}{2}</r>", "<r><a/>12</r>"),
    ("<r>{/site/people/person[position() < 3]/@id}</r>", "<r>person0 person1</r>"),
    ("let $x := <a/> return <r>{$x}{$x}</r>", "<r><a/><a/></r>"),
    # a node navigated out of a row embeds like any other
    ("let $x := <a><b k='1'>t</b></a> return <r>{$x/b}{$x/b/@k}</r>",
     '<r><b k="1">t</b>1</r>'),
]


@pytest.mark.parametrize("system", ALL_SYSTEMS)
@pytest.mark.parametrize("query, expected", RENDERED)
def test_rendering_is_pinned(loaded_stores, system, query, expected):
    assert rowtexts(loaded_stores[system], system, query) == [expected]


ROUTED = [
    'for $p in /site/people/person[@id="person0"] return <a>{$p/name}</a>',
    'for $p in /site/people/person[@id="person0"] return (<a>{$p/name}</a>)/name',
]


@pytest.mark.parametrize("backends", [("D",), ("G",), ("D", "G")])
@pytest.mark.parametrize("query", ROUTED)
def test_a_routed_shard_returns_rows_and_nodes_inside_them(
        small_text, loaded_stores, backends, query):
    """The routed lift turns only a shard's own nodes into sharded
    handles; a row, and a node navigated out of one, stay DOM."""
    sharded = ShardedStore(2, backends)
    sharded.load(small_text)
    assert exchange_kind(compile_query(query, sharded, get_profile("D"))) == "routed"
    assert rowtexts(sharded, "D", query) == rowtexts(loaded_stores["D"], "D", query)


# -- the grammar ------------------------------------------------------------------------

TAGS = ("a", "b", "c")
#: Literal text over the characters markup must escape, with spaces and
#: braces; whitespace-only runs are boundary space and dropped.
TEXT = st.text(alphabet='xy &<>"\'{}', max_size=6)
#: Store nodes the grammar embeds: elements (one with mixed content) and
#: attributes, each matching one or several nodes.
STORE_PATHS = (
    "/site/people/person[1]/name",
    "/site/people/person[position() < 3]/@id",
    "/site/regions/europe/item[1]/description",
    "/site/open_auctions/open_auction[1]/bidder[1]",
    "/site/people/person[1]/profile/@income",
    "/site/closed_auctions/closed_auction[1]/price/text()",
)
ATOMICS = ('""', '" "', "3", "2.5", "-3", "(1 = 1)", "(1 = 2)")


def quoted(text: str) -> str:
    """A string literal for ``text``, every markup character a reference."""
    return '"' + reference(text) + '"'


def reference(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&#62;")
            .replace('"', "&quot;").replace("'", "&#x27;"))


def expressions(variable: bool):
    options = [st.sampled_from(ATOMICS), st.sampled_from(STORE_PATHS),
               TEXT.map(quoted)]
    if variable:
        # the bound row itself, and nodes navigated out of it
        options.append(st.sampled_from(("$y", "$y/*", "$y/b", "$y/@k")))
    return st.one_of(options)


@st.composite
def constructors(draw, depth: int = 2, variable: bool = False) -> str:
    tag = draw(st.sampled_from(TAGS))
    names = draw(st.lists(st.sampled_from(("a", "k")), unique=True, max_size=2))
    attributes = "".join(
        f' {name}="' + "".join(draw(st.lists(st.one_of(
            TEXT.filter(lambda t: "{" not in t and "}" not in t).map(reference),
            expressions(variable).map(lambda e: "{" + e + "}")), max_size=3))) + '"'
        for name in names)
    parts = [st.one_of(TEXT.map(lambda t: reference(t).replace("{", "{{")
                                .replace("}", "}}")),
                       expressions(variable).map(lambda e: "{" + e + "}"))]
    if depth:
        parts.append(constructors(depth - 1, variable))
    content = draw(st.lists(st.one_of(parts), max_size=4))
    if not content and draw(st.booleans()):
        return f"<{tag}{attributes}/>"
    return f"<{tag}{attributes}>" + "".join(content) + f"</{tag}>"


@st.composite
def programs(draw) -> tuple[str, str]:
    """``(binding, constructor)``: ``$y`` bound to one constructor, and a
    second that may embed it any number of times."""
    return draw(constructors()), draw(constructors(variable=True))


@settings(max_examples=60, deadline=None)
@given(program=programs())
def test_constructed_rows_agree_across_systems_and_with_the_dom(
        loaded_stores, program):
    bound, ctor = program
    prefix = f"let $y := {bound} let $x := {ctor} return "
    (markup,) = rowtexts(loaded_stores["G"], "G", prefix + "$x")
    for system in ALL_SYSTEMS:
        assert rowtexts(loaded_stores[system], system, prefix + "$x") == [markup]
    root = parse(markup).root
    c_texts = [child.value for c in root.find_all("c") for child in c.children
               if isinstance(child, Text) and child.value]
    expected = {
        "count($x/*)": [str(len(list(root.child_elements())))],
        "string($x)": [root.text_content()],
        "$x/c/text()": c_texts,
        "$x/@a": [] if root.get("a") is None else [root.get("a")],
    }
    for system in ALL_SYSTEMS:
        store = loaded_stores[system]
        for tail, answer in expected.items():
            assert rowtexts(store, system, prefix + tail) == answer, tail
