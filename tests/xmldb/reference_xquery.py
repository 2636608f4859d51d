"""The per-call FLWOR loop the engine used before queries were planned,
kept verbatim as the oracle for :mod:`repro.xmldb.xquery`.

:class:`ReferenceXQueryEngine` re-splits the query text at every
top-level keyword, re-parses the constructor once per binding and hands
every clause evaluation to the reference XPath interpreter with a fresh
document context.  ``test_xquery_differential.py`` checks the planned
engine against it.  Known, deliberate differences the differential
steers around (each has its own regression test against literal
expected values instead):

* ``_split_clauses`` takes an element or attribute *named* ``for``,
  ``let``, ``where``, ``order`` or ``return`` for a clause keyword;
* a fresh context per clause means an attribute bound by ``let`` is not
  the same node as that attribute selected again later;
* a syntax error in a clause no binding reaches goes unnoticed.

``_order_key`` is imported from the engine: its NaN/lexical-form fix is
meant for both sides.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.xmldb.errors import XQueryError
from repro.xmldb.xquery import _order_key
from repro.xmlutil import QName, XmlElement
from repro.xmlutil.tree import Text
from repro.xpath import XPathError
from repro.xpath.context import string_value
from repro.xpath.functions import to_string

from tests.xpath.reference_evaluator import ReferenceXPathEngine

_CLAUSE_RE = re.compile(
    r"\b(for|let|where|order\s+by|return)\b", re.IGNORECASE
)
_VAR_RE = re.compile(r"\$([A-Za-z_][\w\-]*)")


@dataclass
class _Clause:
    kind: str  # for / let / where / order / return
    text: str


def _split_clauses(query: str) -> list[_Clause]:
    """Split the query at top-level clause keywords (depth-0, unquoted)."""
    clauses: list[_Clause] = []
    boundaries: list[tuple[int, int, str]] = []
    depth = 0
    quote: str | None = None
    index = 0
    while index < len(query):
        ch = query[index]
        if quote:
            if ch == quote:
                quote = None
            index += 1
            continue
        if ch in "'\"":
            quote = ch
            index += 1
            continue
        if ch in "([{":
            depth += 1
            index += 1
            continue
        if ch == "<" and index + 1 < len(query) and (
            query[index + 1].isalpha() or query[index + 1] in "_/"
        ):
            # A constructor tag (not a comparison operator).
            depth += 1
            index += 1
            continue
        if ch in ")]}":
            depth = max(0, depth - 1)
            index += 1
            continue
        if ch == ">":
            depth = max(0, depth - 1)
            index += 1
            continue
        if depth == 0:
            match = _CLAUSE_RE.match(query, index)
            if match and _word_boundary(query, index, match.end()):
                keyword = re.sub(r"\s+", " ", match.group(1).lower())
                boundaries.append((index, match.end(), keyword))
                index = match.end()
                continue
        index += 1
    if not boundaries:
        raise XQueryError("not a FLWOR expression (no clauses found)")
    for i, (start, body_start, keyword) in enumerate(boundaries):
        end = boundaries[i + 1][0] if i + 1 < len(boundaries) else len(query)
        kind = "order" if keyword.startswith("order") else keyword
        clauses.append(_Clause(kind, query[body_start:end].strip()))
    head = query[: boundaries[0][0]].strip()
    if head:
        raise XQueryError(f"unexpected text before first clause: {head!r}")
    return clauses


def _word_boundary(query: str, start: int, end: int) -> bool:
    before_ok = start == 0 or not (query[start - 1].isalnum() or query[start - 1] in "_$-")
    after_ok = end >= len(query) or not (query[end].isalnum() or query[end] == "_")
    return before_ok and after_ok


class ReferenceXQueryEngine:
    """Evaluates FLWOR-lite queries against one document root."""

    def __init__(self, namespaces: dict[str, str] | None = None) -> None:
        self._xpath = ReferenceXPathEngine(namespaces=namespaces)

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
        is evaluated as a bare XPath expression per document.
        """
        roots = root if isinstance(root, list) else [root]
        if not roots:
            return []
        query = query.strip()
        if not re.match(r"(for|let)\b", query, re.IGNORECASE):
            results: list = []
            for document_root in roots:
                results.extend(
                    self._bare_expression(query, document_root, variables)
                )
            return results

        clauses = _split_clauses(query)
        if clauses[-1].kind != "return":
            raise XQueryError("FLWOR must end with a return clause")
        return_text = clauses[-1].text
        # Each tuple is (document root this binding is anchored to, vars).
        bindings: list[tuple[XmlElement, dict]] = [
            (roots[0], dict(variables or {}))
        ]
        first_for_pending = len(roots) > 1
        order_specs: list[tuple[str, bool]] = []

        for clause in clauses[:-1]:
            if clause.kind == "for":
                bindings = self._apply_for(
                    clause.text,
                    bindings,
                    roots if first_for_pending else None,
                )
                first_for_pending = False
            elif clause.kind == "let":
                bindings = self._apply_let(clause.text, bindings)
            elif clause.kind == "where":
                bindings = [
                    (anchor, b)
                    for anchor, b in bindings
                    if self._boolean(clause.text, anchor, b)
                ]
            elif clause.kind == "order":
                order_specs.append(_parse_order_spec(clause.text))
            else:
                raise XQueryError(f"misplaced {clause.kind} clause")

        if order_specs:
            bindings = self._order(bindings, order_specs)

        results = []
        for anchor, binding in bindings:
            results.extend(self._evaluate_return(return_text, anchor, binding))
        return results

    # -- clause evaluation -------------------------------------------------

    def _apply_for(
        self,
        text: str,
        bindings: list[tuple[XmlElement, dict]],
        fan_out_roots: list[XmlElement] | None,
    ) -> list[tuple[XmlElement, dict]]:
        variable, expression = _parse_binding(text, "in")
        out: list[tuple[XmlElement, dict]] = []
        for anchor, binding in bindings:
            anchors = fan_out_roots if fan_out_roots is not None else [anchor]
            for document_root in anchors:
                value = self._eval(expression, document_root, binding)
                items = value if isinstance(value, list) else [value]
                for item in items:
                    extended = dict(binding)
                    extended[variable] = (
                        [item] if not isinstance(item, list) else item
                    )
                    out.append((document_root, extended))
        return out

    def _apply_let(
        self, text: str, bindings: list[tuple[XmlElement, dict]]
    ) -> list[tuple[XmlElement, dict]]:
        variable, expression = _parse_binding(text, ":=")
        out = []
        for anchor, binding in bindings:
            extended = dict(binding)
            extended[variable] = self._eval(expression, anchor, binding)
            out.append((anchor, extended))
        return out

    def _order(
        self,
        bindings: list[tuple[XmlElement, dict]],
        specs: list[tuple[str, bool]],
    ) -> list[tuple[XmlElement, dict]]:
        # Sort per spec, last key first, honouring direction (stable sort).
        ordered = list(bindings)
        for position in range(len(specs) - 1, -1, -1):
            expression, ascending = specs[position]
            ordered.sort(
                key=lambda pair: _order_key(
                    self._eval(expression, pair[0], pair[1])
                ),
                reverse=not ascending,
            )
        return ordered

    # -- return evaluation -------------------------------------------------

    def _evaluate_return(
        self, text: str, root: XmlElement, binding: dict
    ) -> list:
        text = text.strip()
        if text.startswith("<"):
            constructor, rest = _parse_constructor(text)
            if rest.strip():
                raise XQueryError(f"trailing content after constructor: {rest!r}")
            return [self._build(constructor, root, binding)]
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1]
        value = self._eval(text, root, binding)
        return value if isinstance(value, list) else [value]

    def _build(self, node: "_Constructor", root: XmlElement, binding: dict):
        element = XmlElement(QName.parse(node.name))
        for attr_name, attr_parts in node.attributes:
            rendered = "".join(
                part
                if isinstance(part, str)
                else _atomize(self._eval(part.code, root, binding))
                for part in attr_parts
            )
            element.set(QName.parse(attr_name), rendered)
        for part in node.content:
            if isinstance(part, str):
                if part:
                    element.append(Text(part))
            elif isinstance(part, _Enclosed):
                value = self._eval(part.code, root, binding)
                _append_value(element, value)
            else:
                element.append(self._build(part, root, binding))
        return element

    # -- expression plumbing -----------------------------------------------

    def _bare_expression(self, query: str, root: XmlElement, variables) -> list:
        value = self._eval(query, root, dict(variables or {}))
        return value if isinstance(value, list) else [value]

    def _eval(self, expression: str, root: XmlElement, binding: dict):
        try:
            return self._xpath.evaluate(expression, root, variables=binding)
        except XPathError as exc:
            raise XQueryError(f"error in expression {expression!r}: {exc}") from exc

    def _boolean(self, expression: str, root: XmlElement, binding: dict) -> bool:
        from repro.xpath.functions import to_boolean

        return to_boolean(self._eval(expression, root, binding))


# ---------------------------------------------------------------------------
# binding / constructor parsing
# ---------------------------------------------------------------------------


def _parse_binding(text: str, separator: str) -> tuple[str, str]:
    match = _VAR_RE.match(text.strip())
    if match is None:
        raise XQueryError(f"expected a $variable in {text!r}")
    rest = text.strip()[match.end() :].lstrip()
    if separator == "in":
        if not rest.lower().startswith("in") or not rest[2:3].isspace():
            raise XQueryError(f"expected 'in' after variable in {text!r}")
        expression = rest[2:].strip()
    else:
        if not rest.startswith(":="):
            raise XQueryError(f"expected ':=' after variable in {text!r}")
        expression = rest[2:].strip()
    if not expression:
        raise XQueryError(f"missing expression in {text!r}")
    return match.group(1), expression


def _parse_order_spec(text: str) -> tuple[str, bool]:
    lowered = text.lower()
    if lowered.endswith("descending"):
        return text[: -len("descending")].strip(), False
    if lowered.endswith("ascending"):
        return text[: -len("ascending")].strip(), True
    return text.strip(), True


@dataclass
class _Enclosed:
    code: str


@dataclass
class _Constructor:
    name: str
    attributes: list[tuple[str, list]]
    content: list


_NAME_RE = re.compile(r"[A-Za-z_][\w.\-:]*")


def _parse_constructor(text: str) -> tuple[_Constructor, str]:
    """Parse one direct element constructor; returns (node, remainder)."""
    if not text.startswith("<"):
        raise XQueryError(f"expected a constructor, got {text[:20]!r}")
    match = _NAME_RE.match(text, 1)
    if match is None:
        raise XQueryError(f"bad constructor tag in {text[:20]!r}")
    name = match.group()
    index = match.end()
    attributes: list[tuple[str, list]] = []

    while True:
        while index < len(text) and text[index].isspace():
            index += 1
        if index >= len(text):
            raise XQueryError("unterminated constructor start tag")
        if text.startswith("/>", index):
            return _Constructor(name, attributes, []), text[index + 2 :]
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
            (attr_name, _split_enclosed(text[index + 1 : end]))
        )
        index = end + 1

    content: list = []
    buffer: list[str] = []
    while True:
        if index >= len(text):
            raise XQueryError(f"missing </{name}>")
        if text.startswith(f"</{name}>", index):
            if buffer:
                content.extend(_split_enclosed("".join(buffer)))
            return (
                _Constructor(name, attributes, content),
                text[index + len(name) + 3 :],
            )
        if text.startswith("<", index) and not text.startswith("<!", index):
            if buffer:
                content.extend(_split_enclosed("".join(buffer)))
                buffer = []
            child, rest = _parse_constructor(text[index:])
            content.append(child)
            text = rest
            index = 0
            continue
        buffer.append(text[index])
        index += 1


def _split_enclosed(text: str) -> list:
    """Split text into literal strings and ``_Enclosed`` expressions."""
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
        parts.append(_Enclosed(text[open_brace + 1 : close_brace].strip()))
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
