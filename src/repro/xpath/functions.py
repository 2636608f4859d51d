"""The XPath 1.0 core function library.

Each function receives the call context and already-evaluated arguments
and returns an XPath value.  Type coercions follow the recommendation:
``string()``, ``number()`` and ``boolean()`` are exposed both as callable
functions and as the coercion helpers the evaluator itself uses.
"""

from __future__ import annotations

import math
import re

from repro.xpath.context import XPathContext, expanded_name, string_value
from repro.xpath.errors import XPathEvaluationError


def to_string(value) -> str:
    """XPath ``string()`` coercion."""
    if isinstance(value, list):
        return string_value(value[0]) if value else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    return value


def format_number(value: float) -> str:
    """Render a number the way XPath 1.0 prescribes (no trailing ``.0``)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


#: XPath 1.0 §4.4 ``Number``: optional minus, digits with an optional
#: fraction, XML whitespace around it.  ``float()`` alone is laxer
#: (``1_0``, ``1e3``, ``inf``, ``nan``, non-ASCII digits).
_NUMBER_RE = re.compile(r"[ \t\r\n]*-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[ \t\r\n]*")


def to_number(value) -> float:
    """XPath ``number()`` coercion (NaN on strings that are not a Number)."""
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return float(value) if _NUMBER_RE.fullmatch(value) else math.nan
    if isinstance(value, list):
        return to_number(to_string(value))
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    return math.nan


def to_boolean(value) -> bool:
    """XPath ``boolean()`` coercion."""
    if isinstance(value, list):
        return bool(value)
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return bool(value) and not math.isnan(value)
    return bool(value)


def _require_nodeset(value, function: str) -> list:
    if not isinstance(value, list):
        raise XPathEvaluationError(f"{function}() requires a node-set argument")
    return value


# -- node-set functions -------------------------------------------------------


def fn_last(ctx: XPathContext) -> float:
    return float(ctx.size)


def fn_position(ctx: XPathContext) -> float:
    return float(ctx.position)


def fn_count(ctx: XPathContext, nodes) -> float:
    return float(len(_require_nodeset(nodes, "count")))


def fn_local_name(ctx: XPathContext, nodes=None) -> str:
    node = _context_or_first(ctx, nodes, "local-name")
    name = expanded_name(node) if node is not None else None
    return name.local if name else ""


def fn_namespace_uri(ctx: XPathContext, nodes=None) -> str:
    node = _context_or_first(ctx, nodes, "namespace-uri")
    name = expanded_name(node) if node is not None else None
    return name.namespace if name else ""


def fn_name(ctx: XPathContext, nodes=None) -> str:
    # Without in-scope prefix tracking on output, the expanded local name
    # is the most useful stable rendering.
    return fn_local_name(ctx, nodes)


def _context_or_first(ctx: XPathContext, nodes, function: str):
    if nodes is None:
        return ctx.node
    nodeset = _require_nodeset(nodes, function)
    return nodeset[0] if nodeset else None


# -- string functions ---------------------------------------------------------


def fn_string(ctx: XPathContext, value=None) -> str:
    if value is None:
        return string_value(ctx.node)
    return to_string(value)


def fn_concat(ctx: XPathContext, *parts) -> str:
    if len(parts) < 2:
        raise XPathEvaluationError("concat() requires at least two arguments")
    return "".join(to_string(p) for p in parts)


def fn_starts_with(ctx: XPathContext, a, b) -> bool:
    return to_string(a).startswith(to_string(b))


def fn_contains(ctx: XPathContext, a, b) -> bool:
    return to_string(b) in to_string(a)


def fn_substring_before(ctx: XPathContext, a, b) -> str:
    text, sep = to_string(a), to_string(b)
    index = text.find(sep)  # an empty separator is found at 0
    return text[:index] if index >= 0 else ""


def fn_substring_after(ctx: XPathContext, a, b) -> str:
    text, sep = to_string(a), to_string(b)
    index = text.find(sep)
    return text[index + len(sep) :] if index >= 0 else ""


def fn_substring(ctx: XPathContext, value, start, length=None) -> str:
    text = to_string(value)
    begin = to_number(start)
    if math.isnan(begin):
        return ""
    begin = round(begin)
    if length is None:
        end = len(text) + 1
    else:
        span = to_number(length)
        if math.isnan(span):
            return ""
        end = begin + round(span)
    # XPath positions are 1-based and the window is [begin, begin+len).
    lo = max(1, begin)
    hi = max(lo, end)
    return text[lo - 1 : hi - 1]


def fn_string_length(ctx: XPathContext, value=None) -> float:
    text = string_value(ctx.node) if value is None else to_string(value)
    return float(len(text))


def fn_normalize_space(ctx: XPathContext, value=None) -> str:
    text = string_value(ctx.node) if value is None else to_string(value)
    return " ".join(text.split())


def fn_translate(ctx: XPathContext, value, src, dst) -> str:
    text, from_chars, to_chars = to_string(value), to_string(src), to_string(dst)
    table: dict[int, int | None] = {}
    for index, ch in enumerate(from_chars):
        if ord(ch) in table:
            continue
        table[ord(ch)] = ord(to_chars[index]) if index < len(to_chars) else None
    return text.translate(table)


# -- boolean functions --------------------------------------------------------


def fn_boolean(ctx: XPathContext, value) -> bool:
    return to_boolean(value)


def fn_not(ctx: XPathContext, value) -> bool:
    return not to_boolean(value)


def fn_true(ctx: XPathContext) -> bool:
    return True


def fn_false(ctx: XPathContext) -> bool:
    return False


def fn_lang(ctx: XPathContext, value) -> bool:
    # xml:lang support: walk ancestors looking for the attribute.
    from repro.xmlutil.names import XML_NS
    from repro.xmlutil import QName, XmlElement

    wanted = to_string(value).lower()
    node = ctx.node
    while node is not None:
        if isinstance(node, XmlElement):
            lang = node.get(QName(XML_NS, "lang"))
            if lang is not None:
                lang = lang.lower()
                return lang == wanted or lang.startswith(wanted + "-")
        node = ctx.document.parent_of(node)
    return False


# -- number functions ---------------------------------------------------------


def fn_number(ctx: XPathContext, value=None) -> float:
    if value is None:
        return to_number(string_value(ctx.node))
    return to_number(value)


def fn_sum(ctx: XPathContext, nodes) -> float:
    return float(
        sum(to_number(string_value(n)) for n in _require_nodeset(nodes, "sum"))
    )


def _integral(value, rounding) -> float:
    number = to_number(value)
    return float(rounding(number)) if math.isfinite(number) else number


def fn_floor(ctx: XPathContext, value) -> float:
    return _integral(value, math.floor)


def fn_ceiling(ctx: XPathContext, value) -> float:
    return _integral(value, math.ceil)


def fn_round(ctx: XPathContext, value) -> float:
    # XPath rounds .5 toward positive infinity.
    return _integral(value, lambda number: math.floor(number + 0.5))


CORE_FUNCTIONS = {
    "last": fn_last,
    "position": fn_position,
    "count": fn_count,
    "local-name": fn_local_name,
    "namespace-uri": fn_namespace_uri,
    "name": fn_name,
    "string": fn_string,
    "concat": fn_concat,
    "starts-with": fn_starts_with,
    "contains": fn_contains,
    "substring-before": fn_substring_before,
    "substring-after": fn_substring_after,
    "substring": fn_substring,
    "string-length": fn_string_length,
    "normalize-space": fn_normalize_space,
    "translate": fn_translate,
    "boolean": fn_boolean,
    "not": fn_not,
    "true": fn_true,
    "false": fn_false,
    "lang": fn_lang,
    "number": fn_number,
    "sum": fn_sum,
    "floor": fn_floor,
    "ceiling": fn_ceiling,
    "round": fn_round,
}
