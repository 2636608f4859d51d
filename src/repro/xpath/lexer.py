"""XPath 1.0 tokenizer.

Implements the lexical rules of the XPath 1.0 recommendation, including the
disambiguation notes of §3.7: ``*`` is a multiply operator when preceded by
an operand, a wildcard otherwise; an NCName followed by ``(`` is a function
name unless it is a node-type or axis keyword, and so on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from repro.xpath.errors import XPathSyntaxError


class TokenType(Enum):
    NUMBER = auto()
    LITERAL = auto()
    NAME = auto()          # NCName or prefixed name (prefix:local / prefix:*)
    WILDCARD = auto()      # *
    NODE_TYPE = auto()     # node | text | comment | processing-instruction
    FUNCTION_NAME = auto()
    AXIS = auto()          # axis name followed by ::
    VARIABLE = auto()      # $qname
    OPERATOR = auto()      # and or mod div + - = != < <= > >= | / // union etc.
    LPAREN = auto()
    RPAREN = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    COMMA = auto()
    DOT = auto()
    DOTDOT = auto()
    AT = auto()
    SLASH = auto()
    DOUBLE_SLASH = auto()
    PIPE = auto()
    EOF = auto()


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int


_NUMBER_RE = re.compile(r"\d+(\.\d*)?|\.\d+")
_NCNAME = r"[A-Za-z_À-￿][\w.\-·À-￿]*"
_NAME_RE = re.compile(rf"({_NCNAME})(:({_NCNAME}|\*))?")
_WS_RE = re.compile(r"\s+")

_AXIS_NAMES = {
    "ancestor",
    "ancestor-or-self",
    "attribute",
    "child",
    "descendant",
    "descendant-or-self",
    "following",
    "following-sibling",
    "parent",
    "preceding",
    "preceding-sibling",
    "self",
}
_NODE_TYPES = {"node", "text", "comment", "processing-instruction"}
_NAMED_OPERATORS = {"and", "or", "mod", "div"}


def tokenize(expression: str, start: int = 0, prefix: bool = False) -> list[Token]:
    """Tokenize *expression* from *start*; raises :class:`XPathSyntaxError`
    on bad input — or, with *prefix*, ends the token list there: text that
    embeds an expression (a FLWOR clause) lexes up to whatever follows it
    and lets the parser decide where the expression ends."""
    tokens: list[Token] = []
    try:
        _scan(expression, start, tokens)
    except XPathSyntaxError as exc:
        if not prefix:
            raise
        tokens.append(Token(TokenType.EOF, "", exc.position))
    return tokens


def _scan(expression: str, pos: int, tokens: list[Token]) -> None:
    n = len(expression)

    def prev_is_operand() -> bool:
        """Per XPath §3.7: decide whether ``*``/names act as operators."""
        if not tokens:
            return False
        last = tokens[-1]
        if last.type in (
            TokenType.NUMBER,
            TokenType.LITERAL,
            TokenType.RPAREN,
            TokenType.RBRACKET,
            TokenType.DOT,
            TokenType.DOTDOT,
            TokenType.VARIABLE,
            TokenType.NAME,
            TokenType.WILDCARD,
            TokenType.NODE_TYPE,
        ):
            return True
        return False

    while pos < n:
        ws = _WS_RE.match(expression, pos)
        if ws:
            pos = ws.end()
            continue
        ch = expression[pos]

        if ch in "'\"":
            end = expression.find(ch, pos + 1)
            if end < 0:
                raise XPathSyntaxError("unterminated literal", expression, pos)
            tokens.append(Token(TokenType.LITERAL, expression[pos + 1 : end], pos))
            pos = end + 1
            continue

        number = _NUMBER_RE.match(expression, pos)
        if number and (ch.isdigit() or ch == "."):
            if ch == "." and not (pos + 1 < n and expression[pos + 1].isdigit()):
                pass  # fall through: '.' / '..'
            else:
                tokens.append(Token(TokenType.NUMBER, number.group(), pos))
                pos = number.end()
                continue

        if expression.startswith("..", pos):
            tokens.append(Token(TokenType.DOTDOT, "..", pos))
            pos += 2
            continue
        if ch == ".":
            tokens.append(Token(TokenType.DOT, ".", pos))
            pos += 1
            continue
        if expression.startswith("//", pos):
            tokens.append(Token(TokenType.DOUBLE_SLASH, "//", pos))
            pos += 2
            continue
        if ch == "/":
            tokens.append(Token(TokenType.SLASH, "/", pos))
            pos += 1
            continue
        if ch == "|":
            tokens.append(Token(TokenType.PIPE, "|", pos))
            pos += 1
            continue
        if ch == "(":
            tokens.append(Token(TokenType.LPAREN, "(", pos))
            pos += 1
            continue
        if ch == ")":
            tokens.append(Token(TokenType.RPAREN, ")", pos))
            pos += 1
            continue
        if ch == "[":
            tokens.append(Token(TokenType.LBRACKET, "[", pos))
            pos += 1
            continue
        if ch == "]":
            tokens.append(Token(TokenType.RBRACKET, "]", pos))
            pos += 1
            continue
        if ch == ",":
            tokens.append(Token(TokenType.COMMA, ",", pos))
            pos += 1
            continue
        if ch == "@":
            tokens.append(Token(TokenType.AT, "@", pos))
            pos += 1
            continue
        if ch == "$":
            name = _NAME_RE.match(expression, pos + 1)
            if not name or name.group().endswith("*"):
                raise XPathSyntaxError("invalid variable name", expression, pos)
            tokens.append(Token(TokenType.VARIABLE, name.group(), pos))
            pos = name.end()
            continue
        if expression.startswith(("<=", ">=", "!="), pos):
            tokens.append(Token(TokenType.OPERATOR, expression[pos : pos + 2], pos))
            pos += 2
            continue
        if ch in "<>=+-":
            tokens.append(Token(TokenType.OPERATOR, ch, pos))
            pos += 1
            continue
        if ch == "*":
            if prev_is_operand():
                tokens.append(Token(TokenType.OPERATOR, "*", pos))
            else:
                tokens.append(Token(TokenType.WILDCARD, "*", pos))
            pos += 1
            continue

        name = _NAME_RE.match(expression, pos)
        if name:
            text = name.group()
            end = name.end()
            # Named operators only in operand position.
            if text in _NAMED_OPERATORS and prev_is_operand():
                tokens.append(Token(TokenType.OPERATOR, text, pos))
                pos = end
                continue
            rest = expression[end:]
            rest_stripped = rest.lstrip()
            if rest_stripped.startswith("::"):
                if text not in _AXIS_NAMES:
                    raise XPathSyntaxError(f"unknown axis {text!r}", expression, pos)
                tokens.append(Token(TokenType.AXIS, text, pos))
                pos = end + (len(rest) - len(rest_stripped)) + 2
                continue
            if rest_stripped.startswith("("):
                if text in _NODE_TYPES:
                    tokens.append(Token(TokenType.NODE_TYPE, text, pos))
                else:
                    tokens.append(Token(TokenType.FUNCTION_NAME, text, pos))
                pos = end
                continue
            tokens.append(Token(TokenType.NAME, text, pos))
            pos = end
            continue

        raise XPathSyntaxError(f"unexpected character {ch!r}", expression, pos)

    tokens.append(Token(TokenType.EOF, "", n))
