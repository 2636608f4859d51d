"""An XQuery FLWOR-lite evaluator.

Supports the profile WS-DAIX's ``XQueryExecute`` exercises:

* clauses: ``for $v in <xpath>``, ``let $v := <xpath>``, ``where <xpath>``,
  ``order by <xpath> [ascending|descending]``, ``return <expr>``;
* return expressions: an XPath expression, or a direct element
  constructor with ``{...}`` enclosed expressions in content and
  attribute values;
* expressions are XPath 1.0 (via :mod:`repro.xpath`) with variable
  references bound by the enclosing clauses.

This is not the full XQuery 1.0 language (no modules, types, user
functions, or nested FLWOR) — DESIGN.md records the subset.

A query text is parsed once into a cached :class:`_Plan`: clause
keywords are recognised only where the XPath parser says the previous
expression has ended (so ``/policy/return`` is a path, not a clause),
every ``for``/``let``/``where``/``order by``/enclosed expression is a
compiled closure and the constructor is a pre-parsed template.  A run
keeps one :class:`DocumentContext` per document for the whole statement,
so a node bound by one clause is the same object in every later one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.obs import get_tracer
from repro.xmldb.errors import XQueryError
from repro.xmlutil import QName, XmlElement
from repro.xmlutil.tree import Text
from repro.xpath import XPathEngine, XPathError
from repro.xpath.context import DocumentContext, string_value
from repro.xpath.evaluator import compile_prefix, compile_xpath
from repro.xpath.functions import to_boolean, to_number, to_string

_KEYWORD_RE = re.compile(r"\s*(for|let|where|order\s+by|return)(?![\w\-])", re.I)
_FOR_RE = re.compile(r"\s*\$([A-Za-z_][\w\-]*)\s+in\s", re.I)
_LET_RE = re.compile(r"\s*\$([A-Za-z_][\w\-]*)\s*:=")
_DIRECTION_RE = re.compile(r"\s*(ascending|descending)(?![\w\-])", re.I)


@dataclass(frozen=True)
class _Expr:
    """A compiled XPath expression and the text it came from."""

    text: str
    run: Callable


@dataclass(frozen=True)
class _Constructor:
    name: QName
    attributes: tuple  # of (QName, parts); a part is a str or an _Expr
    content: tuple  # of str | _Expr | _Constructor


@dataclass(frozen=True)
class _Plan:
    clauses: tuple | None  # of (kind, variable, _Expr); None: bare XPath
    order: tuple  # of (_Expr, ascending)
    result: _Expr | _Constructor


def _expr(text: str, namespaces: tuple) -> _Expr:
    try:
        return _Expr(text, compile_xpath(text, namespaces))
    except XPathError as exc:
        raise XQueryError(f"error in expression {text!r}: {exc}") from exc


@lru_cache(maxsize=512)
def _plan(query: str, namespaces: tuple) -> _Plan:
    """Parse *query* once: clause by clause, each body ending where the
    XPath parser stops, which is the only place a keyword can start."""
    if not re.match(r"(for|let)\b", query, re.IGNORECASE):
        return _Plan(None, (), _expr(query, namespaces))
    clauses: list[tuple] = []
    order: list[tuple] = []
    pos = 0
    while True:
        keyword = _KEYWORD_RE.match(query, pos)
        if keyword is None:
            if not query[pos:].strip():
                raise XQueryError("FLWOR must end with a return clause")
            raise XQueryError(f"expected a clause keyword at {query[pos:].strip()!r}")
        kind = keyword.group(1).lower()
        pos = keyword.end()
        if kind == "return":
            return _Plan(
                tuple(clauses), tuple(order), _parse_return(query[pos:], namespaces)
            )
        variable = None
        if kind in ("for", "let"):
            binding = (_FOR_RE if kind == "for" else _LET_RE).match(query, pos)
            if binding is None:
                raise XQueryError(
                    f"expected '$variable {'in' if kind == 'for' else ':='}' "
                    f"after {kind} in {query[pos:].strip()!r}"
                )
            variable, pos = binding.group(1), binding.end()
        try:
            run, end = compile_prefix(query, pos, namespaces)
        except XPathError as exc:
            raise XQueryError(
                f"error in expression {query[pos:].strip()!r}: {exc}"
            ) from exc
        expr, pos = _Expr(query[pos:end].strip(), run), end
        if kind in ("for", "let", "where"):
            clauses.append((kind, variable, expr))
        else:
            direction = _DIRECTION_RE.match(query, pos)
            if direction is not None:
                pos = direction.end()
            order.append(
                (expr, direction is None or direction.group(1).lower() == "ascending")
            )


def _parse_return(text: str, namespaces: tuple) -> _Expr | _Constructor:
    text = text.strip()
    if text.startswith("<"):
        constructor, rest = _parse_constructor(text, namespaces)
        if rest.strip():
            raise XQueryError(f"trailing content after constructor: {rest!r}")
        return constructor
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    return _expr(text, namespaces)


class XQueryEngine:
    """Evaluates FLWOR-lite queries against one document root."""

    def __init__(self, namespaces: dict[str, str] | None = None) -> None:
        self._xpath = XPathEngine(namespaces=namespaces)

    def execute(
        self,
        query: str,
        root: XmlElement | list[XmlElement],
        variables: dict | None = None,
    ) -> list:
        """Run *query* against one document or a collection of documents.

        With a list of roots, the outermost ``for`` clause ranges over
        every document (collection semantics: ``where``/``order by``
        apply globally across documents).  A query without FLWOR clauses
        is evaluated as a bare XPath expression per document.  One
        statement is one ``xpath.evaluate`` span.
        """
        roots = root if isinstance(root, list) else [root]
        if not roots:
            return []
        with get_tracer().span(
            "xpath.evaluate", expression=query, documents=len(roots)
        ) as span:
            plan = _plan(query.strip(), self._xpath.namespace_key)
            documents = [DocumentContext(r) for r in roots]
            variables = dict(variables or {})
            if plan.clauses is None:
                bindings = [(document, variables) for document in documents]
            else:
                bindings = self._bind(plan, documents, variables)
            results: list = []
            for anchor, binding in bindings:
                if isinstance(plan.result, _Constructor):
                    results.append(self._build(plan.result, anchor, binding))
                else:
                    value = self._eval(plan.result, anchor, binding)
                    results.extend(value if isinstance(value, list) else [value])
            if span.recording:
                span.set_attribute("result_nodes", len(results))
            return results

    def _bind(
        self, plan: _Plan, documents: list[DocumentContext], variables: dict
    ) -> list[tuple[DocumentContext, dict]]:
        """The binding tuples the clauses produce, in result order: each
        is (the document it is anchored to, its variables)."""
        bindings = [(documents[0], variables)]
        fan_out = documents if len(documents) > 1 else None
        for kind, variable, expr in plan.clauses:
            if kind == "for":
                out = []
                for anchor, binding in bindings:
                    for document in fan_out or (anchor,):
                        value = self._eval(expr, document, binding)
                        for item in value if isinstance(value, list) else [value]:
                            out.append((document, {**binding, variable: [item]}))
                bindings, fan_out = out, None
            elif kind == "let":
                bindings = [
                    (anchor, {**binding, variable: self._eval(expr, anchor, binding)})
                    for anchor, binding in bindings
                ]
            else:
                bindings = [
                    pair for pair in bindings if to_boolean(self._eval(expr, *pair))
                ]
        # Sort per spec, last key first, honouring direction (stable sort).
        for expr, ascending in reversed(plan.order):
            bindings.sort(
                key=lambda pair: _order_key(self._eval(expr, *pair)),
                reverse=not ascending,
            )
        return bindings

    def _build(
        self, node: _Constructor, anchor: DocumentContext, binding: dict
    ) -> XmlElement:
        element = XmlElement(node.name)
        for name, parts in node.attributes:
            element.attributes[name] = "".join(
                part
                if isinstance(part, str)
                else _atomize(self._eval(part, anchor, binding))
                for part in parts
            )
        for part in node.content:
            if isinstance(part, str):
                element.append(Text(part))
            elif isinstance(part, _Expr):
                _append_value(element, self._eval(part, anchor, binding))
            else:
                element.append(self._build(part, anchor, binding))
        return element

    def _eval(self, expr: _Expr, document: DocumentContext, binding: dict):
        try:
            return expr.run(
                document.document, self._xpath.context(document, binding)
            )
        except XPathError as exc:
            raise XQueryError(f"error in expression {expr.text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# constructor parsing
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][\w.\-:]*")


def _qname(name: str) -> QName:
    try:
        return QName.parse(name)
    except ValueError as exc:
        raise XQueryError(f"bad name in constructor: {exc}") from exc


def _parse_constructor(text: str, namespaces: tuple) -> tuple[_Constructor, str]:
    """Parse one direct element constructor; returns (node, remainder)."""
    if not text.startswith("<"):
        raise XQueryError(f"expected a constructor, got {text[:20]!r}")
    match = _NAME_RE.match(text, 1)
    if match is None:
        raise XQueryError(f"bad constructor tag in {text[:20]!r}")
    name = match.group()
    index = match.end()
    attributes: list[tuple[QName, tuple]] = []

    while True:
        while index < len(text) and text[index].isspace():
            index += 1
        if index >= len(text):
            raise XQueryError("unterminated constructor start tag")
        if text.startswith("/>", index):
            return _Constructor(_qname(name), tuple(attributes), ()), text[index + 2 :]
        if text[index] == ">":
            index += 1
            break
        attr_match = _NAME_RE.match(text, index)
        if attr_match is None:
            raise XQueryError(f"bad attribute in constructor {name!r}")
        attr_name = attr_match.group()
        index = attr_match.end()
        if not text.startswith("=", index):
            raise XQueryError(f"attribute {attr_name!r} missing value")
        index += 1
        quote = text[index : index + 1]
        if quote not in ("'", '"'):
            raise XQueryError(f"attribute {attr_name!r} value must be quoted")
        end = text.find(quote, index + 1)
        if end < 0:
            raise XQueryError(f"unterminated attribute {attr_name!r}")
        attributes.append(
            (
                _qname(attr_name),
                tuple(_split_enclosed(text[index + 1 : end], namespaces)),
            )
        )
        index = end + 1

    content: list = []
    buffer: list[str] = []
    while True:
        if index >= len(text):
            raise XQueryError(f"missing </{name}>")
        if text.startswith(f"</{name}>", index):
            if buffer:
                content.extend(_split_enclosed("".join(buffer), namespaces))
            return (
                _Constructor(_qname(name), tuple(attributes), tuple(content)),
                text[index + len(name) + 3 :],
            )
        if text.startswith("<", index) and not text.startswith("<!", index):
            if buffer:
                content.extend(_split_enclosed("".join(buffer), namespaces))
                buffer = []
            child, rest = _parse_constructor(text[index:], namespaces)
            content.append(child)
            text = rest
            index = 0
            continue
        buffer.append(text[index])
        index += 1


def _split_enclosed(text: str, namespaces: tuple) -> list:
    """Split text into literal strings and compiled enclosed expressions."""
    parts: list = []
    index = 0
    while index < len(text):
        open_brace = text.find("{", index)
        if open_brace < 0:
            parts.append(text[index:])
            break
        if open_brace > index:
            parts.append(text[index:open_brace])
        close_brace = _matching_brace(text, open_brace)
        parts.append(_expr(text[open_brace + 1 : close_brace].strip(), namespaces))
        index = close_brace + 1
    return [p for p in parts if not (isinstance(p, str) and p == "")]


def _matching_brace(text: str, open_index: int) -> int:
    depth = 0
    quote: str | None = None
    for index in range(open_index, len(text)):
        ch = text[index]
        if quote:
            if ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return index
    raise XQueryError(f"unbalanced braces in {text!r}")


# ---------------------------------------------------------------------------
# value rendering
# ---------------------------------------------------------------------------


def _atomize(value) -> str:
    if isinstance(value, list):
        return " ".join(string_value(item) for item in value)
    return to_string(value)


def _append_value(element: XmlElement, value) -> None:
    if isinstance(value, list):
        for item in value:
            if isinstance(item, XmlElement):
                element.append(item.copy())
            else:
                element.append(Text(string_value(item)))
    elif isinstance(value, XmlElement):
        element.append(value.copy())
    else:
        element.append(Text(to_string(value)))


def _order_key(value) -> tuple:
    """Empty and NaN keys least, then numbers, then other strings."""
    text = to_string(value)
    number = to_number(text)
    if number == number:
        return (1, number, "")
    if not text.strip() or text == "NaN":
        return (0, 0.0, "")
    return (2, 0.0, text)
