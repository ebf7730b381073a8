"""Recursive-descent parser for the supported XQuery subset.

The grammar covers what the XMark benchmark queries (and typical data-
oriented XQuery) need: a query prolog with function and variable
declarations, FLWOR expressions (``for``/``let``/``where``/``order by``/
``return``), quantified expressions, conditionals, and/or, general and value
comparisons, arithmetic, path expressions with all staircase-join axes and
predicates, function calls, literals, parenthesised expressions and direct
element constructors with attribute value templates and enclosed
expressions.

Anything outside the subset raises :class:`~repro.errors.XQuerySyntaxError`
or :class:`~repro.errors.XQueryUnsupportedError` with a message naming the
unsupported construct.
"""

from __future__ import annotations

from typing import Any

from ..errors import XQuerySyntaxError, XQueryUnsupportedError
from ..staircase.axes import Axis
from ..xml.parser import unescape
from . import ast
from .lexer import Lexer, Token, is_name_start


_GENERAL_COMPARISONS = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le",
                        ">": "gt", ">=": "ge"}
_VALUE_COMPARISONS = {"eq", "ne", "lt", "le", "gt", "ge"}

#: binary operator token ``(kind, value)`` -> ``(precedence, form, op)``;
#: a larger precedence binds tighter
_BINARY_OPERATORS: dict[tuple[str, Any], tuple[int, str, str | None]] = {
    ("name", "or"): (1, "or", None),
    ("name", "and"): (2, "and", None),
    **{("symbol", symbol): (3, "general", op)
       for symbol, op in _GENERAL_COMPARISONS.items()},
    **{("name", op): (3, "value", op) for op in _VALUE_COMPARISONS},
    ("name", "to"): (4, "range", None),
    ("symbol", "+"): (5, "arith", "add"),
    ("symbol", "-"): (5, "arith", "sub"),
    ("symbol", "*"): (6, "arith", "mul"),
    ("name", "div"): (6, "arith", "div"),
    ("name", "idiv"): (6, "arith", "idiv"),
    ("name", "mod"): (6, "arith", "mod"),
}
_NARY = {"or": ast.OrExpr, "and": ast.AndExpr}

#: deepest expression nesting the parser accepts: parenthesised and
#: enclosed expressions, predicates, function arguments, FLWOR/if/quantified
#: sub-expressions, unary signs and nested direct constructors each count
#: one level.  Deeper queries raise XQuerySyntaxError instead of exhausting
#: the interpreter stack here or in the recursive passes after parsing.
MAX_NESTING_DEPTH = 90

_AXIS_NAMES = {
    "child": Axis.CHILD,
    "descendant": Axis.DESCENDANT,
    "descendant-or-self": Axis.DESCENDANT_OR_SELF,
    "parent": Axis.PARENT,
    "ancestor": Axis.ANCESTOR,
    "ancestor-or-self": Axis.ANCESTOR_OR_SELF,
    "following": Axis.FOLLOWING,
    "preceding": Axis.PRECEDING,
    "following-sibling": Axis.FOLLOWING_SIBLING,
    "preceding-sibling": Axis.PRECEDING_SIBLING,
    "attribute": Axis.ATTRIBUTE,
    "self": Axis.SELF,
}

_KIND_TESTS = {"text", "node", "comment", "processing-instruction", "element"}

#: names that terminate an expression when they appear where a binary
#: operator could continue (FLWOR keywords etc.)
_CLAUSE_KEYWORDS = {"return", "where", "order", "stable", "ascending",
                    "descending", "satisfies", "then", "else", "in", "at",
                    "for", "let", "by", "empty"}


def parse(source: str) -> ast.Module:
    """Parse a query string into an :class:`~repro.xquery.ast.Module`."""
    return XQueryParser(source).parse_module()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (no prolog) — convenience for tests."""
    return parse(source).body


class XQueryParser:
    def __init__(self, source: str):
        self.lexer = Lexer(source)
        self.current: Token = self.lexer.next_token()
        #: current expression nesting depth (see :meth:`_enter`)
        self.depth = 0

    # ------------------------------------------------------------------ #
    # token plumbing
    # ------------------------------------------------------------------ #
    def _advance(self) -> Token:
        token = self.current
        self.current = self.lexer.next_token()
        return token

    def _expect_symbol(self, symbol: str) -> Token:
        if not self.current.is_symbol(symbol):
            raise self._error(f"expected {symbol!r}, found {self.current.value!r}")
        return self._advance()

    def _expect_name(self, name: str) -> Token:
        if not self.current.is_name(name):
            raise self._error(f"expected {name!r}, found {self.current.value!r}")
        return self._advance()

    def _error(self, message: str) -> XQuerySyntaxError:
        return self.lexer.error(message, position=self.current.start)

    # ------------------------------------------------------------------ #
    # module / prolog
    # ------------------------------------------------------------------ #
    def parse_module(self) -> ast.Module:
        functions: dict[str, ast.FunctionDecl] = {}
        variables: list[ast.VariableDecl] = []
        while self.current.is_name("declare"):
            self._advance()
            if self.current.is_name("function"):
                self._advance()
                declaration = self._parse_function_decl()
                functions[declaration.name] = declaration
            elif self.current.is_name("variable"):
                self._advance()
                variables.append(self._parse_variable_decl())
            elif self.current.is_name("namespace", "boundary-space", "option",
                                      "default", "base-uri"):
                # tolerated but ignored prolog declarations
                while not self.current.is_symbol(";") and self.current.kind != "eof":
                    self._advance()
                self._expect_symbol(";")
            else:
                raise XQueryUnsupportedError(
                    f"unsupported prolog declaration 'declare {self.current.value}'")
        body = self.parse_expr()
        if self.current.kind != "eof":
            raise self._error(f"unexpected trailing input {self.current.value!r}")
        return ast.Module(functions=functions, variables=variables, body=body)

    def _parse_function_decl(self) -> ast.FunctionDecl:
        if self.current.kind != "name":
            raise self._error("expected a function name")
        name = self._advance().value
        self._expect_symbol("(")
        parameters: list[str] = []
        while not self.current.is_symbol(")"):
            if self.current.kind != "variable":
                raise self._error("expected a parameter variable")
            parameters.append(self._advance().value)
            self._skip_type_annotation()
            if self.current.is_symbol(","):
                self._advance()
        self._expect_symbol(")")
        self._skip_return_type()
        self._expect_symbol("{")
        body = self.parse_expr()
        self._expect_symbol("}")
        if self.current.is_symbol(";"):
            self._advance()
        return ast.FunctionDecl(name=str(name), parameters=[str(p) for p in parameters],
                                body=body)

    def _parse_variable_decl(self) -> ast.VariableDecl:
        if self.current.kind != "variable":
            raise self._error("expected a variable name")
        name = self._advance().value
        self._skip_type_annotation()
        self._expect_symbol(":=")
        value = self.parse_expr_single()
        if self.current.is_symbol(";"):
            self._advance()
        return ast.VariableDecl(name=str(name), value=value)

    def _skip_type_annotation(self) -> None:
        if self.current.is_name("as"):
            self._advance()
            # a sequence type: name (possibly parenthesised) + occurrence marker
            if self.current.kind == "name":
                self._advance()
            if self.current.is_symbol("("):
                self._advance()
                self._expect_symbol(")")
            if self.current.is_symbol("?", "*", "+"):
                self._advance()

    def _skip_return_type(self) -> None:
        self._skip_type_annotation()

    # ------------------------------------------------------------------ #
    # expressions
    # ------------------------------------------------------------------ #
    def parse_expr(self) -> ast.Expr:
        first = self.parse_expr_single()
        if not self.current.is_symbol(","):
            return first
        items = [first]
        while self.current.is_symbol(","):
            self._advance()
            items.append(self.parse_expr_single())
        return ast.SequenceExpr(items)

    def parse_expr_single(self) -> ast.Expr:
        self._enter()
        try:
            if self.current.is_name("for", "let"):
                return self._parse_flwor()
            if self.current.is_name("some", "every"):
                return self._parse_quantified()
            if self.current.is_name("if"):
                return self._parse_if()
            return self._parse_operators()
        finally:
            self.depth -= 1

    def _enter(self, levels: int = 1) -> None:
        """Descend ``levels`` nesting levels; past
        :data:`MAX_NESTING_DEPTH` the query is rejected with a syntax error
        before the parser — or any recursive pass after it — runs out of
        interpreter stack."""
        self.depth += levels
        if self.depth > MAX_NESTING_DEPTH:
            raise self._error(
                f"expression nested deeper than {MAX_NESTING_DEPTH} levels")

    # -- FLWOR -------------------------------------------------------------- #
    def _parse_flwor(self) -> ast.FLWORExpr:
        clauses: list[ast.Expr] = []
        while self.current.is_name("for", "let"):
            keyword = self._advance().value
            while True:
                if self.current.kind != "variable":
                    raise self._error("expected a variable in FLWOR clause")
                variable = str(self._advance().value)
                self._skip_type_annotation()
                if keyword == "for":
                    position_variable = None
                    if self.current.is_name("at"):
                        self._advance()
                        if self.current.kind != "variable":
                            raise self._error("expected a positional variable after 'at'")
                        position_variable = str(self._advance().value)
                    self._expect_name("in")
                    sequence = self.parse_expr_single()
                    clauses.append(ast.ForClause(variable, sequence,
                                                 position_variable))
                else:
                    self._expect_symbol(":=")
                    value = self.parse_expr_single()
                    clauses.append(ast.LetClause(variable, value))
                if self.current.is_symbol(","):
                    self._advance()
                    continue
                break
        where = None
        if self.current.is_name("where"):
            self._advance()
            where = self.parse_expr_single()
        order_by: list[ast.OrderSpec] = []
        if self.current.is_name("stable"):
            self._advance()
        if self.current.is_name("order"):
            self._advance()
            self._expect_name("by")
            while True:
                key = self.parse_expr_single()
                descending = False
                if self.current.is_name("ascending"):
                    self._advance()
                elif self.current.is_name("descending"):
                    self._advance()
                    descending = True
                if self.current.is_name("empty"):
                    self._advance()
                    self._advance()          # greatest | least
                order_by.append(ast.OrderSpec(key, descending))
                if self.current.is_symbol(","):
                    self._advance()
                    continue
                break
        self._expect_name("return")
        return_expr = self.parse_expr_single()
        return ast.FLWORExpr(clauses=clauses, where=where, order_by=order_by,
                             return_expr=return_expr)

    def _parse_quantified(self) -> ast.QuantifiedExpr:
        quantifier = str(self._advance().value)
        bindings: list[tuple[str, ast.Expr]] = []
        while True:
            if self.current.kind != "variable":
                raise self._error("expected a variable in quantified expression")
            variable = str(self._advance().value)
            self._skip_type_annotation()
            self._expect_name("in")
            sequence = self.parse_expr_single()
            bindings.append((variable, sequence))
            if self.current.is_symbol(","):
                self._advance()
                continue
            break
        self._expect_name("satisfies")
        satisfies = self.parse_expr_single()
        return ast.QuantifiedExpr(quantifier, bindings, satisfies)

    def _parse_if(self) -> ast.IfExpr:
        self._expect_name("if")
        self._expect_symbol("(")
        condition = self.parse_expr()
        self._expect_symbol(")")
        self._expect_name("then")
        then_branch = self.parse_expr_single()
        self._expect_name("else")
        else_branch = self.parse_expr_single()
        return ast.IfExpr(condition, then_branch, else_branch)

    # -- boolean / comparison / arithmetic ----------------------------------- #
    def _parse_operators(self, min_precedence: int = 1) -> ast.Expr:
        """Binary operators by precedence climbing: or < and < comparisons
        < range < additive < multiplicative.  One frame per operand level
        instead of one per grammar level keeps deep nesting inside the
        interpreter's recursion limit.  ``or``/``and`` chains build one
        n-ary node, arithmetic is left-associative, and comparisons and
        ``to`` do not chain (after one, only looser operators may follow).
        """
        left = self._parse_unary()
        ceiling = 7  # above every precedence
        chain: list[ast.Expr] | None = None
        while True:
            token = self.current
            operator = _BINARY_OPERATORS.get((token.kind, token.value))
            if operator is None:
                return left
            precedence, form, op = operator
            if not min_precedence <= precedence < ceiling:
                return left
            self._advance()
            right = self._parse_operators(precedence + 1)
            if form in ("or", "and"):
                if chain is not None and isinstance(left, _NARY[form]):
                    chain.append(right)
                    continue
                chain = [left, right]
                left = _NARY[form](chain)
                continue
            chain = None
            if form == "arith":
                left = ast.ArithmeticExpr(op, left, right)
                continue
            ceiling = precedence
            if form == "general":
                left = ast.GeneralComparison(op, left, right)
            elif form == "value":
                left = ast.ValueComparison(op, left, right)
            else:
                left = ast.RangeExpr(left, right)

    def _parse_unary(self) -> ast.Expr:
        signs: list[bool] = []
        while self.current.is_symbol("-", "+"):
            signs.append(self._advance().value == "-")
        if not signs:
            return self._parse_path()
        self._enter(len(signs))     # every sign nests one level deeper
        operand = self._parse_path()
        self.depth -= len(signs)
        for negate in reversed(signs):
            operand = ast.UnaryExpr(negate, operand)
        return operand

    # -- paths ---------------------------------------------------------------- #
    def _parse_path(self) -> ast.Expr:
        steps: list[ast.Expr] = []
        start: ast.Expr | None = None

        if self.current.is_symbol("/", "//"):
            absolute = True
            descendant = self.current.value == "//"
            self._advance()
            if descendant:
                steps.append(ast.AxisStep(Axis.DESCENDANT_OR_SELF,
                                          ast.NodeTestExpr(kind="node")))
            elif not self._at_step_start():
                # a lone "/" selects the document root
                return ast.PathExpr(start=None, steps=[], absolute=True)
            steps.append(self._parse_step())
        else:
            absolute = False
            first = self._parse_step()
            if not self.current.is_symbol("/", "//"):
                return self._step_as_expr(first)
            steps.append(first)

        while self.current.is_symbol("/", "//"):
            if self.current.value == "//":
                self._advance()
                steps.append(ast.AxisStep(Axis.DESCENDANT_OR_SELF,
                                          ast.NodeTestExpr(kind="node")))
            else:
                self._advance()
            steps.append(self._parse_step())

        if not absolute and steps and isinstance(steps[0], ast.FilterStep):
            start_step = steps.pop(0)
            if start_step.predicates:
                start = ast.FilterExpr(start_step.expression, start_step.predicates)
            else:
                start = start_step.expression
        return ast.PathExpr(start=start, steps=steps, absolute=absolute)

    def _step_as_expr(self, step: ast.Expr) -> ast.Expr:
        """A single step that is not followed by '/': unwrap primaries."""
        if isinstance(step, ast.FilterStep):
            if step.predicates:
                return ast.FilterExpr(step.expression, step.predicates)
            return step.expression
        return ast.PathExpr(start=None, steps=[step], absolute=False)

    def _at_step_start(self) -> bool:
        token = self.current
        if token.kind in ("name", "variable", "number", "string"):
            return True
        return token.is_symbol("@", ".", "..", "*", "(", "<")

    def _parse_step(self) -> ast.Expr:
        token = self.current
        # attribute abbreviation
        if token.is_symbol("@"):
            self._advance()
            node_test = self._parse_node_test(default_kind="attribute")
            predicates = self._parse_predicates()
            return ast.AxisStep(Axis.ATTRIBUTE, node_test, predicates)
        if token.is_symbol(".."):
            self._advance()
            return ast.AxisStep(Axis.PARENT, ast.NodeTestExpr(kind="node"),
                                self._parse_predicates())
        # explicit axis
        if token.kind == "name" and token.value in _AXIS_NAMES \
                and self._peek_is_axis_separator():
            axis = _AXIS_NAMES[str(self._advance().value)]
            self._expect_symbol("::")
            default_kind = "attribute" if axis is Axis.ATTRIBUTE else "element"
            node_test = self._parse_node_test(default_kind=default_kind)
            predicates = self._parse_predicates()
            return ast.AxisStep(axis, node_test, predicates)
        # kind tests and plain name tests (child axis)
        if token.is_symbol("*"):
            self._advance()
            return ast.AxisStep(Axis.CHILD, ast.NodeTestExpr(kind="element", name="*"),
                                self._parse_predicates())
        if token.kind == "name":
            if token.value in _KIND_TESTS and self._peek_is_symbol("("):
                node_test = self._parse_node_test(default_kind="element")
                return ast.AxisStep(Axis.CHILD, node_test, self._parse_predicates())
            if not self._peek_is_symbol("(") and not self._peek_is_symbol("{"):
                name = str(self._advance().value)
                return ast.AxisStep(Axis.CHILD,
                                    ast.NodeTestExpr(kind="element", name=name),
                                    self._parse_predicates())
        # fall back to a primary expression step
        primary = self._parse_primary()
        predicates = self._parse_predicates()
        return ast.FilterStep(primary, predicates)

    def _peek_is_axis_separator(self) -> bool:
        save = self.lexer.position
        next_token = self.lexer.next_token()
        self.lexer.position = save
        return next_token.is_symbol("::")

    def _peek_is_symbol(self, symbol: str) -> bool:
        save = self.lexer.position
        next_token = self.lexer.next_token()
        self.lexer.position = save
        return next_token.is_symbol(symbol)

    def _parse_node_test(self, *, default_kind: str) -> ast.NodeTestExpr:
        token = self.current
        if token.is_symbol("*"):
            self._advance()
            return ast.NodeTestExpr(kind=default_kind, name="*")
        if token.kind != "name":
            raise self._error(f"expected a node test, found {token.value!r}")
        name = str(self._advance().value)
        if name in _KIND_TESTS and self.current.is_symbol("("):
            self._advance()
            argument = None
            if self.current.kind in ("string", "name"):
                argument = str(self._advance().value)
            self._expect_symbol(")")
            kind = name
            return ast.NodeTestExpr(kind=kind, name=argument)
        return ast.NodeTestExpr(kind=default_kind, name=name)

    def _parse_predicates(self) -> list[ast.Expr]:
        predicates: list[ast.Expr] = []
        while self.current.is_symbol("["):
            self._advance()
            predicates.append(self.parse_expr())
            self._expect_symbol("]")
        return predicates

    # -- primaries ------------------------------------------------------------ #
    def _parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind == "number":
            self._advance()
            return ast.Literal(token.value)
        if token.kind == "string":
            self._advance()
            return ast.Literal(str(token.value))
        if token.kind == "variable":
            self._advance()
            return ast.VarRef(str(token.value))
        if token.is_symbol("("):
            self._advance()
            if self.current.is_symbol(")"):
                self._advance()
                return ast.EmptySequence()
            expression = self.parse_expr()
            self._expect_symbol(")")
            return expression
        if token.is_symbol("."):
            self._advance()
            return ast.ContextItem()
        if token.is_symbol("<"):
            return self._parse_direct_constructor()
        if token.kind == "name":
            if self.current.value == "text" and self._peek_is_symbol("{"):
                self._advance()
                self._expect_symbol("{")
                content = self.parse_expr()
                self._expect_symbol("}")
                return ast.TextConstructor(content)
            if self.current.value == "element" and self._peek_is_symbol("{"):
                raise XQueryUnsupportedError(
                    "computed element constructors are not supported; "
                    "use direct constructors")
            if self._peek_is_symbol("("):
                return self._parse_function_call()
        raise self._error(f"unexpected token {token.value!r}")

    def _parse_function_call(self) -> ast.FunctionCall:
        name = str(self._advance().value)
        self._expect_symbol("(")
        arguments: list[ast.Expr] = []
        while not self.current.is_symbol(")"):
            arguments.append(self.parse_expr_single())
            if self.current.is_symbol(","):
                self._advance()
        self._expect_symbol(")")
        # strip the fn: prefix — the function library is prefix-free
        if name.startswith("fn:"):
            name = name[3:]
        return ast.FunctionCall(name, arguments)

    # ------------------------------------------------------------------ #
    # direct element constructors (raw character parsing)
    # ------------------------------------------------------------------ #
    def _parse_direct_constructor(self) -> ast.ElementConstructor:
        # self.current is the '<' token; raw parsing starts right after it
        self.lexer.position = self.current.end
        element = self._parse_raw_element()
        self._advance_after_raw()
        return element

    def _advance_after_raw(self) -> None:
        """Re-establish the one-token lookahead after raw character parsing."""
        self.current = self.lexer.next_token()

    def _raw_read_name(self) -> str:
        lexer = self.lexer
        start = lexer.position
        while not lexer.at_end() and (lexer.peek_char().isalnum()
                                      or lexer.peek_char() in "_-.:"):
            lexer.position += 1
        if start == lexer.position:
            raise lexer.error("expected a name in element constructor")
        return lexer.source[start:lexer.position]

    def _raw_skip_spaces(self) -> None:
        while not self.lexer.at_end() and self.lexer.peek_char().isspace():
            self.lexer.position += 1

    def _parse_raw_element(self) -> ast.ElementConstructor:
        lexer = self.lexer
        name = self._raw_read_name()
        attributes: list[tuple[str, ast.AttributeValue]] = []
        while True:
            self._raw_skip_spaces()
            char = lexer.peek_char()
            if char == "/":
                if lexer.peek_char(1) != ">":
                    raise lexer.error("malformed empty-element tag")
                lexer.position += 2
                return ast.ElementConstructor(name, attributes, [])
            if char == ">":
                lexer.position += 1
                content = self._parse_raw_content(name)
                return ast.ElementConstructor(name, attributes, content)
            attribute_name = self._raw_read_name()
            self._raw_skip_spaces()
            if lexer.peek_char() != "=":
                raise lexer.error("expected '=' in attribute")
            lexer.position += 1
            self._raw_skip_spaces()
            quote = lexer.peek_char()
            if quote not in "\"'":
                raise lexer.error("expected a quoted attribute value")
            lexer.position += 1
            attributes.append((attribute_name, self._parse_raw_value_template(quote)))

    def _parse_raw_value_template(self, quote: str) -> ast.AttributeValue:
        lexer = self.lexer
        parts: list[Any] = []
        text: list[str] = []
        while True:
            if lexer.at_end():
                raise lexer.error("unterminated attribute value")
            char = lexer.peek_char()
            if char == quote:
                lexer.position += 1
                break
            if char == "{":
                if lexer.peek_char(1) == "{":
                    text.append("{")
                    lexer.position += 2
                    continue
                if text:
                    parts.append(unescape("".join(text)))
                    text = []
                lexer.position += 1
                parts.append(self._parse_enclosed_expr())
                continue
            if char == "}" and lexer.peek_char(1) == "}":
                text.append("}")
                lexer.position += 2
                continue
            text.append(char)
            lexer.position += 1
        if text:
            parts.append(unescape("".join(text)))
        return ast.AttributeValue(parts)

    def _parse_enclosed_expr(self) -> ast.Expr:
        """Parse ``{ expr }`` starting right after the opening brace."""
        self._advance_after_raw()
        expression = self.parse_expr()
        if not self.current.is_symbol("}"):
            raise self._error("expected '}' to close the enclosed expression")
        # continue raw parsing right after the closing brace
        self.lexer.position = self.current.end
        return expression

    def _parse_raw_content(self, name: str) -> list[Any]:
        lexer = self.lexer
        content: list[Any] = []
        text: list[str] = []

        def flush_text(*, keep_whitespace: bool = False) -> None:
            if not text:
                return
            chunk = "".join(text)
            text.clear()
            if chunk.strip() or keep_whitespace:
                content.append(unescape(chunk))

        while True:
            if lexer.at_end():
                raise lexer.error(f"unterminated element constructor <{name}>")
            char = lexer.peek_char()
            if char == "<":
                if lexer.peek_char(1) == "/":
                    flush_text()
                    lexer.position += 2
                    end_name = self._raw_read_name()
                    self._raw_skip_spaces()
                    if lexer.peek_char() != ">":
                        raise lexer.error("malformed end tag")
                    lexer.position += 1
                    if end_name != name:
                        raise lexer.error(
                            f"mismatched end tag </{end_name}> for <{name}>")
                    return content
                if lexer.source.startswith("<!--", lexer.position):
                    end = lexer.source.find("-->", lexer.position)
                    if end == -1:
                        raise lexer.error("unterminated comment in constructor")
                    lexer.position = end + 3
                    continue
                flush_text()
                lexer.position += 1
                self._enter()   # a nested constructor is one level deeper
                content.append(self._parse_raw_element())
                self.depth -= 1
                continue
            if char == "{":
                if lexer.peek_char(1) == "{":
                    text.append("{")
                    lexer.position += 2
                    continue
                flush_text(keep_whitespace=True)
                lexer.position += 1
                content.append(self._parse_enclosed_expr())
                continue
            if char == "}" and lexer.peek_char(1) == "}":
                text.append("}")
                lexer.position += 2
                continue
            text.append(char)
            lexer.position += 1
