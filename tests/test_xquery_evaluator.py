"""Evaluator semantics on small handcrafted documents (DomStore-backed)."""

import pytest

from repro.benchmark.queries import query_text
from repro.benchmark.systems import get_profile
from repro.errors import QueryError, TypeCoercionError
from repro.storage.dom_store import DomStore
from repro.update import serialize_store
from repro.xmlio.serialize import serialize
from repro.xquery.evaluator import evaluate, item_text
from repro.xquery.planner import SystemProfile, compile_query

NAIVE = SystemProfile(name="test", optimizer="none", join_rewrite_depth=0,
                      use_id_index=False)

DOC = """
<site>
  <people>
    <person id="p0"><name>Ann</name><age>30</age></person>
    <person id="p1"><name>Bob</name></person>
    <person id="p2"><name>Cid</name><age>25</age></person>
  </people>
  <items>
    <item price="10"><tag>red</tag><tag>blue</tag></item>
    <item price="20"><tag>blue</tag></item>
  </items>
</site>
"""


@pytest.fixture(scope="module")
def store():
    dom = DomStore()
    dom.load(DOC)
    return dom


def run(store, query, profile=NAIVE):
    return evaluate(compile_query(query, store, profile))


class TestPaths:
    def test_absolute_child_path(self, store):
        result = run(store, "/site/people/person/name/text()")
        assert result.items == ["Ann", "Bob", "Cid"]

    def test_descendant_path(self, store):
        result = run(store, "/site//tag/text()")
        assert result.items == ["red", "blue", "blue"]

    def test_attribute_step(self, store):
        result = run(store, "/site/people/person/@id")
        assert result.items == ["p0", "p1", "p2"]

    def test_predicate_filter(self, store):
        result = run(store, '/site/people/person[@id = "p1"]/name/text()')
        assert result.items == ["Bob"]

    def test_positional_predicate(self, store):
        assert run(store, "/site/people/person[2]/name/text()").items == ["Bob"]

    def test_last_predicate(self, store):
        assert run(store, "/site/people/person[last()]/name/text()").items == ["Cid"]

    def test_existence_predicate(self, store):
        result = run(store, "/site/people/person[age]/name/text()")
        assert result.items == ["Ann", "Cid"]

    def test_missing_path_empty(self, store):
        assert run(store, "/site/nothing/here").items == []

    def test_wrong_root_tag_empty(self, store):
        assert run(store, "/wrong/people").items == []

    def test_filter_on_variable(self, store):
        result = run(store, "for $p in /site/people/person return $p[1]/name/text()")
        assert result.items == ["Ann", "Bob", "Cid"]


class TestComparisonsAndArithmetic:
    def test_numeric_string_casting(self, store):
        result = run(store, '/site/people/person[age >= 30]/name/text()')
        assert result.items == ["Ann"]

    def test_general_comparison_existential(self, store):
        result = run(store, 'for $i in /site/items/item where $i/tag = "red" return $i/@price')
        assert result.items == ["10"]

    def test_arithmetic(self, store):
        assert run(store, "1 + 2 * 3").items == [7]
        assert run(store, "10 div 4").items == [2.5]
        assert run(store, "10 mod 4").items == [2]
        assert run(store, "-(3 - 5)").items == [2]

    def test_arithmetic_empty_propagation(self, store):
        assert run(store, "/site/missing * 2").items == []

    @pytest.mark.parametrize("query", ["1 div 0", "7 mod 0", "1 div (2 - 2)",
                                       'count(/site/people/person) mod "0"'])
    def test_division_by_zero_is_a_typed_query_error(self, store, query):
        with pytest.raises(TypeCoercionError, match="by zero"):
            run(store, query)

    @pytest.mark.parametrize("literal, lexical", [
        ("NaN", "NaN"), ("INF", "INF"), ("-INF", "-INF"), ("1e400", "INF"),
        (" -1E400\t", "-INF"),
    ])
    def test_non_finite_numbers_render_in_xquery_lexical_form(self, store,
                                                              literal, lexical):
        result = run(store, f'number("{literal}")')
        assert result.serialize() == lexical
        embedded = run(store, f'<v a="{{number("{literal}")}}">'
                              f'{{number("{literal}")}}</v>')
        assert embedded.serialize() == f'<v a="{lexical}">{lexical}</v>'

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "+INF",
                                         "Infinity", "1_000", "١٢"])
    def test_python_only_number_spellings_do_not_cast(self, store, literal):
        """``float()`` reads these; ``xs:double`` does not."""
        with pytest.raises(TypeCoercionError, match="cannot cast"):
            run(store, f'number("{literal}")')
        assert run(store, f'"{literal}" = "1000"').items == [False]
        assert run(store, f'"{literal}" > 0').items == [False]

    def test_equality_string_vs_number(self, store):
        assert run(store, '"10" = 10').items == [True]
        assert run(store, '"x" = 10').items == [False]

    def test_boolean_operators(self, store):
        assert run(store, "1 = 1 and 2 = 2").items == [True]
        assert run(store, "1 = 2 or 2 = 2").items == [True]
        assert run(store, "1 = 2 and 2 = 2").items == [False]


class TestFLWOR:
    def test_let_binding(self, store):
        result = run(store, "let $n := count(/site/people/person) return $n * 2")
        assert result.items == [6]

    def test_where_filters(self, store):
        result = run(store, 'for $p in /site/people/person where empty($p/age) '
                            'return $p/name/text()')
        assert result.items == ["Bob"]

    def test_nested_for_cartesian(self, store):
        result = run(store, "for $a in /site/people/person, $b in /site/items/item "
                            "return $a/@id")
        assert len(result.items) == 6

    def test_order_by_string(self, store):
        result = run(store, "for $p in /site/people/person "
                            "order by $p/name/text() descending return $p/name/text()")
        assert result.items == ["Cid", "Bob", "Ann"]

    def test_order_by_numeric(self, store):
        result = run(store, "for $p in /site/people/person[age] "
                            "order by $p/age/text() return $p/name/text()")
        assert result.items == ["Cid", "Ann"]  # 25 < 30 numerically

    def test_order_by_empty_keys_first(self, store):
        result = run(store, "for $p in /site/people/person "
                            "order by $p/age/text() return $p/name/text()")
        assert result.items == ["Bob", "Cid", "Ann"]

    def test_if_expr(self, store):
        result = run(store, "if (count(/site/people/person) > 2) then \"many\" else \"few\"")
        assert result.items == ["many"]


class TestQuantified:
    def test_some_true(self, store):
        result = run(store, 'some $t in /site/items/item/tag satisfies $t/text() = "red"')
        assert result.items == [True]

    def test_some_false(self, store):
        result = run(store, 'some $t in /site/items/item/tag satisfies $t/text() = "green"')
        assert result.items == [False]

    def test_every(self, store):
        result = run(store, 'every $i in /site/items/item satisfies $i/@price > 5')
        assert result.items == [True]

    def test_before_operator(self, store):
        result = run(store, "some $a in /site/items/item[1]/tag[1], "
                            "$b in /site/items/item[1]/tag[2] satisfies $a << $b")
        assert result.items == [True]
        result = run(store, "some $a in /site/items/item[1]/tag[2], "
                            "$b in /site/items/item[1]/tag[1] satisfies $a << $b")
        assert result.items == [False]


class TestConstructors:
    def test_attribute_template(self, store):
        result = run(store, 'for $p in /site/people/person[1] '
                            'return <x name="{$p/name/text()}"/>')
        assert result.serialize() == '<x name="Ann"/>'

    def test_node_copy_into_content(self, store):
        result = run(store, "for $p in /site/people/person[1] return <w>{$p/name}</w>")
        assert result.serialize() == "<w><name>Ann</name></w>"

    def test_atomics_space_separated(self, store):
        result = run(store, "<c>{/site/people/person/@id}</c>")
        assert result.serialize() == "<c>p0 p1 p2</c>"

    def test_nested_constructors(self, store):
        result = run(store, "<out><inner>{1 + 1}</inner></out>")
        assert result.serialize() == "<out><inner>2</inner></out>"

    def test_count_in_constructor(self, store):
        result = run(store, "<n>{count(/site/people/person)}</n>")
        assert result.serialize() == "<n>3</n>"


class TestConstructedNodeOwnership:
    """A constructed row is immutable markup: embedding it, or a store
    node, is string concatenation — nothing is adopted, copied or
    re-parented — and every property is read through ``rowtext``,
    ``string()`` and ``count()``."""

    def test_double_embed_yields_two_nodes(self, store):
        result = run(store, "let $x := <a/> return <r>{$x}{$x}</r>")
        assert result.serialize() == "<r><a/><a/></r>"
        assert run(store, "let $x := <a/> let $r := <r>{$x}{$x}</r> "
                          "return count($r/a)").items == [2]

    def test_variable_is_readable_after_its_embed(self, store):
        result = run(store, "let $x := <a><b/></a> "
                            "return <o>{<r>{$x}</r>}{$x/b}{count($x/b)}</o>")
        assert result.serialize() == "<o><r><a><b/></a></r><b/>1</o>"

    def test_embedded_row_is_adopted_not_copied(self, store):
        """The inner row enters the outer one verbatim, and is itself
        unchanged and still navigable after the embed."""
        bind = 'let $x := <a k="v">t<b/></a> let $r := <r>{$x}</r> return '
        answers = [run(store, bind + tail).serialize() for tail in (
            "$r", "$x", "count($r/a/b)", "string($r/a/@k)", "string($x)")]
        assert answers == ['<r><a k="v">t<b/></a></r>', '<a k="v">t<b/></a>',
                           "1", "v", "t"]

    def test_store_nodes_are_copied_never_reparented(self, store):
        """System G's handles are Elements — including a parent-less root —
        and embedding renders them without touching their document."""
        before = serialize_store(store)
        root = store.root()
        people = root.find("people")
        result = run(store, "<r>{/site}{/site/people}{/site/people/person[1]}</r>")
        assert result.serialize() == "<r>{}{}{}</r>".format(
            serialize(root), serialize(people), serialize(people.find("person")))
        assert root.parent is None and people.parent is root
        assert serialize_store(store) == before
        nested = run(store, "let $r := <r>{/site/people}</r> "
                            "return count($r/people/person)")
        assert nested.items == [3] and people.parent is root

    def test_rowtext_is_repeatable_and_leaves_the_row_alone(self, store):
        result = run(store, "for $p in /site/people/person "
                            "return <w>{<n>{$p/name/text()}</n>}{$p/age}</w>")
        texts = [item_text(item, result.navigator) for item in result.items]
        assert texts == [item_text(item, result.navigator)
                         for item in result.items]
        assert "\n".join(texts) == result.serialize()
        assert texts[0] == "<w><n>Ann</n><age>30</age></w>"
        # canonical() builds a DOM of its own; the rows stay what they were
        assert result.canonical() and [
            item_text(item, result.navigator) for item in result.items] == texts

    def test_g_answers_survive_embedding_its_own_nodes(self, loaded_stores):
        """Q1-Q20 before == Q1-Q20 after constructors embedded store nodes
        (the document root among them) on the same System G store."""
        g = loaded_stores["G"]
        profile = get_profile("G")

        def answers():
            return [evaluate(compile_query(query_text(n), g, profile)).serialize()
                    for n in range(1, 21)]

        before, document = answers(), serialize_store(g)
        embed = evaluate(compile_query(
            "for $p in /site/people/person return <w>{$p}{/site/categories}</w>",
            g, profile))
        assert len(embed) > 0 and embed.serialize()
        whole = evaluate(compile_query("<all>{/site}</all>", g, profile))
        assert whole.serialize() == f"<all>{document}</all>"
        assert evaluate(compile_query(
            "let $a := <all>{/site}</all> return count($a/site/people/person)",
            g, profile)).items == evaluate(compile_query(
                "count(/site/people/person)", g, profile)).items
        assert g.root().parent is None
        assert serialize_store(g) == document
        assert answers() == before


class TestFunctions:
    def test_count_empty_string(self, store):
        assert run(store, "count(/site/people/person)").items == [3]
        assert run(store, "empty(/site/nothing)").items == [True]
        assert run(store, "string(/site/people/person[1]/name)").items == ["Ann"]

    def test_contains(self, store):
        assert run(store, 'contains("gold ring", "gold")').items == [True]
        assert run(store, 'contains(/site/people/person[1]/name, "nn")').items == [True]

    def test_not(self, store):
        assert run(store, "not(empty(/site/people))").items == [True]

    def test_sum(self, store):
        assert run(store, "sum(/site/items/item/@price)").items == [30.0]

    def test_distinct_values(self, store):
        result = run(store, "distinct-values(/site/items/item/tag/text())")
        assert result.items == ["red", "blue"]

    def test_zero_or_one(self, store):
        assert run(store, "zero-or-one(/site/missing)").items == []
        with pytest.raises(QueryError):
            run(store, "zero-or-one(/site/people/person)")

    def test_exactly_one(self, store):
        assert run(store, "exactly-one(/site/people)").items != []
        with pytest.raises(QueryError):
            run(store, "exactly-one(/site/missing)")

    def test_unknown_function(self, store):
        with pytest.raises(QueryError):
            run(store, "made-up(1)")

    def test_udf(self, store):
        result = run(store, "declare function local:twice($v) { 2 * $v }; "
                            "local:twice(count(/site/items/item))")
        assert result.items == [4.0]

    def test_udf_wrong_arity(self, store):
        with pytest.raises(QueryError):
            run(store, "declare function local:f($v) { $v }; local:f(1, 2)")

    def test_unbound_variable(self, store):
        with pytest.raises(QueryError):
            run(store, "$nope")


class TestResult:
    def test_serialize_mixed(self, store):
        result = run(store, "for $p in /site/people/person[1] return $p/name")
        assert result.serialize() == "<name>Ann</name>"

    def test_canonical_unordered(self, store):
        a = run(store, "for $p in /site/people/person return <p>{$p/@id}</p>")
        assert a.canonical(ordered=False) == a.canonical(ordered=False)
        assert len(a) == 3
