"""Lexer and parser unit tests."""

import pytest

from repro.errors import XQuerySyntaxError, XQueryUnsupportedError
from repro.staircase.axes import Axis
from repro.xquery import ast
from repro.xquery.lexer import Lexer
from repro.xquery.parser import parse, parse_expression


class TestLexer:
    def tokens(self, text):
        lexer = Lexer(text)
        result = []
        while True:
            token = lexer.next_token()
            if token.kind == "eof":
                return result
            result.append((token.kind, token.value))

    def test_names_numbers_strings(self):
        assert self.tokens('foo 42 3.14 "bar"') == [
            ("name", "foo"), ("number", 42), ("number", 3.14), ("string", "bar")]

    def test_variable_tokens(self):
        assert self.tokens("$x + $long-name") == [
            ("variable", "x"), ("symbol", "+"), ("variable", "long-name")]

    def test_prefixed_names_are_single_tokens(self):
        assert self.tokens("fn:count local:convert") == [
            ("name", "fn:count"), ("name", "local:convert")]

    def test_axis_separator_not_merged(self):
        assert ("symbol", "::") in self.tokens("child::item")

    def test_multi_char_symbols(self):
        kinds = [value for _, value in self.tokens("// :: := <= >= !=")]
        assert kinds == ["//", "::", ":=", "<=", ">=", "!="]

    def test_comments_are_skipped(self):
        assert self.tokens("1 (: a (: nested :) comment :) 2") == [
            ("number", 1), ("number", 2)]

    def test_string_escape_doubled_quote(self):
        assert self.tokens('"say ""hi"""') == [("string", 'say "hi"')]

    def test_unterminated_string(self):
        with pytest.raises(XQuerySyntaxError):
            self.tokens('"oops')


class TestParserShapes:
    def test_flwor_structure(self):
        module = parse("for $x in (1,2) let $y := $x + 1 where $y > 1 "
                       "order by $y descending return $y")
        flwor = module.body
        assert isinstance(flwor, ast.FLWORExpr)
        assert isinstance(flwor.clauses[0], ast.ForClause)
        assert isinstance(flwor.clauses[1], ast.LetClause)
        assert flwor.where is not None
        assert flwor.order_by[0].descending

    def test_for_with_positional_variable(self):
        flwor = parse("for $x at $i in (5,6) return $i").body
        assert flwor.clauses[0].position_variable == "i"

    def test_path_with_axes_and_predicates(self):
        path = parse('$a/b//c[@id = "x"]/ancestor::d/@e').body
        assert isinstance(path, ast.PathExpr)
        axes = [step.axis for step in path.steps]
        assert Axis.DESCENDANT_OR_SELF in axes
        assert Axis.ANCESTOR in axes
        assert axes[-1] is Axis.ATTRIBUTE

    def test_absolute_path(self):
        path = parse("/site/people").body
        assert path.absolute and len(path.steps) == 2

    def test_kind_tests(self):
        path = parse("$a/text()").body
        assert path.steps[0].node_test.kind == "text"

    def test_general_vs_value_comparison(self):
        assert isinstance(parse("$a = $b").body, ast.GeneralComparison)
        assert isinstance(parse("$a eq $b").body, ast.ValueComparison)

    def test_arithmetic_precedence(self):
        expression = parse("1 + 2 * 3").body
        assert isinstance(expression, ast.ArithmeticExpr)
        assert expression.op == "add"
        assert isinstance(expression.right, ast.ArithmeticExpr)

    def test_quantified_expression(self):
        expression = parse("some $x in (1,2) satisfies $x = 2").body
        assert isinstance(expression, ast.QuantifiedExpr)
        assert expression.quantifier == "some"

    def test_if_expression(self):
        expression = parse('if ($x) then 1 else 2').body
        assert isinstance(expression, ast.IfExpr)

    def test_function_declaration(self):
        module = parse("declare function local:f($a) { $a + 1 }; local:f(1)")
        assert "local:f" in module.functions
        assert module.functions["local:f"].parameters == ["a"]

    def test_variable_declaration(self):
        module = parse('declare variable $base := 10; $base + 1')
        assert module.variables[0].name == "base"

    def test_constructor_with_attribute_template(self):
        element = parse('<item id="{$x}" lang="en">{ $y }</item>').body
        assert isinstance(element, ast.ElementConstructor)
        assert element.attributes[0][0] == "id"
        parts = element.attributes[0][1].parts
        assert isinstance(parts[0], ast.Expr)
        assert element.attributes[1][1].parts == ["en"]

    def test_nested_constructors(self):
        element = parse("<a><b>{1}</b><c/></a>").body
        kinds = [type(part).__name__ for part in element.content]
        assert kinds == ["ElementConstructor", "ElementConstructor"]

    def test_sequence_expression(self):
        expression = parse("(1, 2, 3)").body
        assert isinstance(expression, ast.SequenceExpr)
        assert len(expression.items) == 3

    def test_empty_sequence(self):
        assert isinstance(parse("()").body, ast.EmptySequence)

    def test_filter_on_parenthesized_sequence(self):
        expression = parse("(1, 2, 3)[2]").body
        assert isinstance(expression, ast.FilterExpr)


class TestOperatorShapes:
    def test_or_and_chains_are_n_ary(self):
        expression = parse("$a or $b and $c and $d or $e").body
        assert isinstance(expression, ast.OrExpr)
        assert len(expression.operands) == 3
        assert isinstance(expression.operands[1], ast.AndExpr)
        assert len(expression.operands[1].operands) == 3

    def test_parenthesised_chain_stays_a_separate_node(self):
        expression = parse("($a or $b) or $c").body
        assert len(expression.operands) == 2
        assert isinstance(expression.operands[0], ast.OrExpr)

    def test_arithmetic_is_left_associative(self):
        expression = parse("1 - 2 - 3 * 4 div 5").body
        assert expression.op == "sub"
        assert isinstance(expression.left, ast.ArithmeticExpr)
        assert expression.left.op == "sub"
        assert expression.right.op == "div"
        assert expression.right.left.op == "mul"

    def test_comparison_binds_looser_than_range_and_arithmetic(self):
        expression = parse("1 + 1 = 1 to 3 and 2 > 1").body
        assert isinstance(expression, ast.AndExpr)
        comparison = expression.operands[0]
        assert isinstance(comparison, ast.GeneralComparison)
        assert isinstance(comparison.left, ast.ArithmeticExpr)
        assert isinstance(comparison.right, ast.RangeExpr)

    def test_unary_signs_nest(self):
        expression = parse("- + -1").body
        assert isinstance(expression, ast.UnaryExpr) and expression.negate
        assert not expression.operand.negate
        assert expression.operand.operand.negate


class TestNestingDepth:
    """Deep nesting fails with a typed syntax error instead of exhausting
    the interpreter stack in the parser or a recursive pass after it."""

    SHAPES = {
        "parentheses": lambda depth: "(" * depth + "1" + ")" * depth,
        "calls": lambda depth: "count(" * depth + "1" + ")" * depth,
        "predicates": lambda depth: "/site" + "[people" * depth
                                    + "]" * depth,
        "constructors": lambda depth: "<a>" * depth + "</a>" * depth,
        "signs": lambda depth: "-" * depth + "1",
        "conditionals": lambda depth: "if (1) then " * depth + "1"
                                      + " else 2" * depth,
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_depth_80_still_runs(self, engine, shape):
        engine.query(self.SHAPES[shape](80)).serialize()

    @pytest.mark.parametrize("depth", [100, 400, 5000])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_deeper_nesting_raises_syntax_error(self, engine, shape, depth):
        with pytest.raises(XQuerySyntaxError, match="nested deeper"):
            engine.prepare(self.SHAPES[shape](depth))


class TestParserErrors:
    def test_trailing_garbage(self):
        with pytest.raises(XQuerySyntaxError):
            parse("1 2 3 oops(")

    def test_missing_return(self):
        with pytest.raises(XQuerySyntaxError):
            parse("for $x in (1,2) $x")

    def test_unclosed_constructor(self):
        with pytest.raises(XQuerySyntaxError):
            parse("<a><b></a>")

    def test_unsupported_computed_constructor(self):
        from repro.errors import XQueryError
        with pytest.raises(XQueryError):
            parse('element {"a"} { 1 }')

    def test_chained_comparison_is_rejected(self):
        for text in ("1 = 2 = 3", "1 to 2 to 3", "1 = 2 to 3 to 4",
                     "1 eq 2 lt 3"):
            with pytest.raises(XQuerySyntaxError):
                parse(text)

    def test_unknown_prolog_declaration(self):
        with pytest.raises(XQueryUnsupportedError):
            parse("declare construction strip; 1")


class TestFreeVariables:
    def test_flwor_binds_its_variables(self):
        expression = parse("for $x in $src where $x = $y return $x").body
        assert expression.free_variables() == {"src", "y"}

    def test_quantifier_binds_variable(self):
        expression = parse("some $v in $seq satisfies $v = $limit").body
        assert expression.free_variables() == {"seq", "limit"}

    def test_constructor_content(self):
        expression = parse('<a b="{$x}">{$y}</a>').body
        assert expression.free_variables() == {"x", "y"}
