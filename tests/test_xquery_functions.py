"""Built-in function library (relational engine)."""

import math

import pytest

from repro.errors import XQueryTypeError, XQueryUnsupportedError


class TestAggregates:
    def test_count_sum_avg(self, engine):
        assert engine.query("count((1, 2, 3))").items == [3]
        assert engine.query("sum((1, 2, 3))").items == [6]
        assert engine.query("avg((2, 4))").items == [3]

    def test_min_max(self, engine):
        assert engine.query("min((3, 1, 2))").items == [1]
        assert engine.query("max((3, 1, 2))").items == [3]

    def test_sum_of_empty_is_zero(self, engine):
        assert engine.query("sum(())").items == [0]

    def test_min_of_empty_is_empty(self, engine):
        assert engine.query("min(())").items == []

    def test_count_inside_loop(self, engine):
        result = engine.query("for $p in /site/people/person return count($p/name)")
        assert result.items == [1, 1, 1]

    def test_aggregates_coerce_untyped_text(self, engine):
        assert engine.query("sum(//price)").items == [155]


class TestBooleans:
    def test_empty_exists(self, engine):
        assert engine.query("empty(())").items == [True]
        assert engine.query("exists((1))").items == [True]

    def test_not_and_boolean(self, engine):
        assert engine.query("not(1 = 1)").items == [False]
        assert engine.query("boolean((0))").items == [False]
        assert engine.query('boolean("")').items == [False]
        assert engine.query("boolean(//person)").items == [True]

    def test_true_false(self, engine):
        assert engine.query("(true(), false())").items == [True, False]


class TestStrings:
    def test_string_and_data(self, engine):
        assert engine.query('string(42)').items == ["42"]
        assert engine.query('data(/site/people/person[1]/@id)').items == ["person0"]

    def test_contains_and_starts_with(self, engine):
        assert engine.query('contains("gold watch", "gold")').items == [True]
        assert engine.query('starts-with("gold watch", "watch")').items == [False]

    def test_contains_over_node_string_value(self, engine):
        query = ('for $i in /site/regions//item '
                 'where contains(string($i/description), "gold") '
                 'return $i/@id')
        assert engine.query(query).atomized() == ["item0"]

    def test_concat_and_string_join(self, engine):
        assert engine.query('concat("a", 1, "b")').items == ["a1b"]
        assert engine.query('string-join(("a", "b", "c"), "-")').items == ["a-b-c"]

    def test_substring_and_length(self, engine):
        assert engine.query('substring("abcdef", 2, 3)').items == ["bcd"]
        assert engine.query('string-length("abc")').items == [3]

    def test_normalize_space_and_case(self, engine):
        assert engine.query('normalize-space("  a   b ")').items == ["a b"]
        assert engine.query('upper-case("ab")').items == ["AB"]
        assert engine.query('lower-case("AB")').items == ["ab"]


class TestNumbers:
    def test_number_conversion(self, engine):
        assert engine.query('number("12")').items == [12]
        assert math.isnan(engine.query('number("nope")').items[0])

    @pytest.mark.parametrize("query, expected", [
        ('number("x")', "NaN"),
        ("1 div 0", "NaN"),
        ("-(1 div 0)", "NaN"),
        ('number("INF")', "INF"),
        ('number("-INF")', "-INF"),
        ('string(number("INF"))', "INF"),
        ('string(number("-INF"))', "-INF"),
        ('number("NaN")', "NaN"),
        ('<a v="{number("-INF")}">{number("INF")}</a>',
         '<a v="-INF">INF</a>'),
        ('(number("INF"), 1, number("x"))', "INF 1 NaN"),
    ])
    def test_special_doubles_serialize(self, engine, query, expected):
        assert engine.query(query).serialize() == expected

    def test_only_xquery_spellings_of_special_doubles(self, engine):
        """``inf``/``Infinity``/``nan`` and digit grouping are Python
        numerals, not xs:double lexical forms."""
        for text in ("inf", "Infinity", "-infinity", "nan", "1_000"):
            assert engine.query(f'number("{text}")').serialize() == "NaN"
        assert engine.query('number("+INF")').serialize() == "INF"

    def test_round_floor_ceiling_abs(self, engine):
        assert engine.query("round(2.5)").items == [2]
        assert engine.query("floor(2.9)").items == [2]
        assert engine.query("ceiling(2.1)").items == [3]
        assert engine.query("abs(-3)").items == [3]


class TestSequencesFunctions:
    def test_distinct_values(self, engine):
        assert engine.query("distinct-values((1, 2, 1, 3, 2))").items == [1, 2, 3]

    def test_distinct_values_on_attributes(self, engine):
        result = engine.query("distinct-values(//buyer/@person)")
        assert result.items == ["person0", "person2"]

    def test_reverse(self, engine):
        assert engine.query("reverse((1, 2, 3))").items == [3, 2, 1]

    def test_subsequence(self, engine):
        assert engine.query("subsequence((1, 2, 3, 4), 2, 2)").items == [2, 3]

    def test_zero_or_one_enforced(self, engine):
        with pytest.raises(XQueryTypeError):
            engine.query("zero-or-one((1, 2))")

    def test_exactly_one_enforced(self, engine):
        with pytest.raises(XQueryTypeError):
            engine.query("exactly-one(())")


class TestNodeFunctions:
    def test_name_and_local_name(self, engine):
        assert engine.query("name(/site/people)").items == ["people"]
        assert engine.query("local-name(/site/people/person[1]/@id)").items == ["id"]

    def test_root(self, engine):
        assert engine.query("count(root(//person[1]))").items == [1]

    def test_doc_unknown_document(self, engine):
        from repro.errors import DocumentError
        with pytest.raises(DocumentError):
            engine.query('doc("missing.xml")')

    def test_unknown_function(self, engine):
        with pytest.raises(XQueryUnsupportedError):
            engine.query("frobnicate(1)")
