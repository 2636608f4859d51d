"""Recursive-descent parser for the XPath 1.0 grammar."""

from __future__ import annotations

from repro.xpath import ast
from repro.xpath.errors import XPathSyntaxError
from repro.xpath.lexer import Token, TokenType, tokenize


def parse(expression: str) -> ast.Expr:
    """Parse *expression* into an AST; raises :class:`XPathSyntaxError`."""
    parser = _Parser(expression, tokenize(expression))
    tree = parser.parse_or_expr()
    parser.expect(TokenType.EOF)
    return tree


def parse_prefix(text: str, start: int) -> tuple[ast.Expr, int]:
    """Parse the longest expression beginning at ``text[start]``.

    Returns the AST and the offset of the first token that does not
    continue it — where a grammar that embeds XPath (FLWOR) resumes.
    """
    parser = _Parser(text, tokenize(text, start, prefix=True))
    return parser.parse_or_expr(), parser.current.position


class _Parser:
    def __init__(self, expression: str, tokens: list[Token]) -> None:
        self._expression = expression
        self._tokens = tokens
        self._index = 0

    # -- token plumbing -----------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def advance(self) -> Token:
        token = self.current
        self._index += 1
        return token

    def accept(self, type_: TokenType, value: str | None = None) -> Token | None:
        token = self.current
        if token.type is type_ and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, type_: TokenType, value: str | None = None) -> Token:
        token = self.accept(type_, value)
        if token is None:
            raise self.error(
                f"expected {value or type_.name}, found {self.current.value!r}"
            )
        return token

    def error(self, message: str) -> XPathSyntaxError:
        return XPathSyntaxError(message, self._expression, self.current.position)

    # -- expression grammar ---------------------------------------------------

    def parse_or_expr(self) -> ast.Expr:
        parts = [self.parse_and_expr()]
        while self.accept(TokenType.OPERATOR, "or"):
            parts.append(self.parse_and_expr())
        return parts[0] if len(parts) == 1 else ast.OrExpr(tuple(parts))

    def parse_and_expr(self) -> ast.Expr:
        parts = [self.parse_equality_expr()]
        while self.accept(TokenType.OPERATOR, "and"):
            parts.append(self.parse_equality_expr())
        return parts[0] if len(parts) == 1 else ast.AndExpr(tuple(parts))

    def parse_equality_expr(self) -> ast.Expr:
        left = self.parse_relational_expr()
        while self.current.type is TokenType.OPERATOR and self.current.value in (
            "=",
            "!=",
        ):
            op = self.advance().value
            left = ast.ComparisonExpr(op, left, self.parse_relational_expr())
        return left

    def parse_relational_expr(self) -> ast.Expr:
        left = self.parse_additive_expr()
        while self.current.type is TokenType.OPERATOR and self.current.value in (
            "<",
            "<=",
            ">",
            ">=",
        ):
            op = self.advance().value
            left = ast.ComparisonExpr(op, left, self.parse_additive_expr())
        return left

    def parse_additive_expr(self) -> ast.Expr:
        left = self.parse_multiplicative_expr()
        while self.current.type is TokenType.OPERATOR and self.current.value in (
            "+",
            "-",
        ):
            op = self.advance().value
            left = ast.ArithmeticExpr(op, left, self.parse_multiplicative_expr())
        return left

    def parse_multiplicative_expr(self) -> ast.Expr:
        left = self.parse_unary_expr()
        while self.current.type is TokenType.OPERATOR and self.current.value in (
            "*",
            "div",
            "mod",
        ):
            op = self.advance().value
            left = ast.ArithmeticExpr(op, left, self.parse_unary_expr())
        return left

    def parse_unary_expr(self) -> ast.Expr:
        negations = 0
        while self.accept(TokenType.OPERATOR, "-"):
            negations += 1
        expr = self.parse_union_expr()
        for _ in range(negations):
            expr = ast.NegateExpr(expr)
        return expr

    def parse_union_expr(self) -> ast.Expr:
        parts = [self.parse_path_expr()]
        while self.accept(TokenType.PIPE):
            parts.append(self.parse_path_expr())
        return parts[0] if len(parts) == 1 else ast.UnionExpr(tuple(parts))

    # -- paths ------------------------------------------------------------

    def parse_path_expr(self) -> ast.Expr:
        if self._at_primary_expr():
            primary = self.parse_primary_expr()
            predicates = self.parse_predicates()
            filtered: ast.Expr = (
                primary
                if not predicates
                else ast.FilterExpr(primary, tuple(predicates))
            )
            if self.current.type in (TokenType.SLASH, TokenType.DOUBLE_SLASH):
                glue = self.advance().type is TokenType.DOUBLE_SLASH
                path = self.parse_relative_location_path()
                return ast.PathExpr(filtered, glue, path)
            return filtered
        return self.parse_location_path()

    def _at_primary_expr(self) -> bool:
        token = self.current
        if token.type in (
            TokenType.NUMBER,
            TokenType.LITERAL,
            TokenType.VARIABLE,
            TokenType.LPAREN,
            TokenType.FUNCTION_NAME,
        ):
            return True
        return False

    def parse_primary_expr(self) -> ast.Expr:
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            return ast.NumberLiteral(float(token.value))
        if token.type is TokenType.LITERAL:
            self.advance()
            return ast.StringLiteral(token.value)
        if token.type is TokenType.VARIABLE:
            self.advance()
            return ast.VariableRef(token.value)
        if token.type is TokenType.LPAREN:
            self.advance()
            inner = self.parse_or_expr()
            self.expect(TokenType.RPAREN)
            return inner
        if token.type is TokenType.FUNCTION_NAME:
            self.advance()
            self.expect(TokenType.LPAREN)
            args: list[ast.Expr] = []
            if self.current.type is not TokenType.RPAREN:
                args.append(self.parse_or_expr())
                while self.accept(TokenType.COMMA):
                    args.append(self.parse_or_expr())
            self.expect(TokenType.RPAREN)
            return ast.FunctionCall(token.value, tuple(args))
        raise self.error("expected a primary expression")

    def parse_location_path(self) -> ast.LocationPath:
        if self.accept(TokenType.DOUBLE_SLASH):
            steps = [_descendant_or_self_step()]
            rest = self.parse_relative_location_path()
            return ast.LocationPath(True, tuple(steps) + rest.steps)
        if self.accept(TokenType.SLASH):
            if self._at_step():
                rest = self.parse_relative_location_path()
                return ast.LocationPath(True, rest.steps)
            return ast.LocationPath(True, ())
        return self.parse_relative_location_path()

    def parse_relative_location_path(self) -> ast.LocationPath:
        steps = [self.parse_step()]
        while True:
            if self.accept(TokenType.DOUBLE_SLASH):
                steps.append(_descendant_or_self_step())
                steps.append(self.parse_step())
            elif self.accept(TokenType.SLASH):
                steps.append(self.parse_step())
            else:
                break
        return ast.LocationPath(False, tuple(steps))

    def _at_step(self) -> bool:
        return self.current.type in (
            TokenType.NAME,
            TokenType.WILDCARD,
            TokenType.NODE_TYPE,
            TokenType.AXIS,
            TokenType.AT,
            TokenType.DOT,
            TokenType.DOTDOT,
        )

    def parse_step(self) -> ast.Step:
        if self.accept(TokenType.DOT):
            return ast.Step("self", ast.NodeTest("node"))
        if self.accept(TokenType.DOTDOT):
            return ast.Step("parent", ast.NodeTest("node"))

        axis = "child"
        if self.current.type is TokenType.AXIS:
            axis = self.advance().value
        elif self.accept(TokenType.AT):
            axis = "attribute"

        test = self.parse_node_test()
        predicates = self.parse_predicates()
        return ast.Step(axis, test, tuple(predicates))

    def parse_node_test(self) -> ast.NodeTest:
        token = self.current
        if token.type is TokenType.WILDCARD:
            self.advance()
            return ast.NodeTest("wildcard")
        if token.type is TokenType.NODE_TYPE:
            self.advance()
            self.expect(TokenType.LPAREN)
            if token.value == "processing-instruction":
                self.accept(TokenType.LITERAL)
            self.expect(TokenType.RPAREN)
            return ast.NodeTest(token.value)
        if token.type is TokenType.NAME:
            self.advance()
            prefix, sep, local = token.value.partition(":")
            if not sep:
                return ast.NodeTest("name", "", token.value)
            if local == "*":
                return ast.NodeTest("wildcard", prefix, "")
            return ast.NodeTest("name", prefix, local)
        raise self.error("expected a node test")

    def parse_predicates(self) -> list[ast.Expr]:
        predicates: list[ast.Expr] = []
        while self.accept(TokenType.LBRACKET):
            predicates.append(self.parse_or_expr())
            self.expect(TokenType.RBRACKET)
        return predicates


def _descendant_or_self_step() -> ast.Step:
    return ast.Step("descendant-or-self", ast.NodeTest("node"))
