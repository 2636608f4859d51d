"""The classic recursive-descent parser, kept as a differential oracle.

This is the parser ``repro.xmlutil`` shipped before the iterative,
run-recognising one replaced it, moved here verbatim together with the
character-by-character attribute scanner the token pattern replaced:
one Python frame per element, no token pattern, no raw-name or
open-tag memo, no interned-vocabulary seeding, no sibling-run regexes.
It shares the scanner primitives (``_Scanner``, name resolution) with
the shipped parser and none of its control flow, so
``test_parser_differential.py`` can fuzz one against the other, and
``make bench-fig2`` takes its "before" leg from here.
"""

from repro.xmlutil.escape import unescape
from repro.xmlutil.parser import (
    _WS_RE,
    XmlParseError,
    _QCache,
    _resolve,
    _Scanner,
    _skip_misc,
    _split_prefixed,
)
from repro.xmlutil.tree import Comment, Text, XmlElement

__all__ = ["XmlParseError", "parse"]


def _parse_attributes(scanner: _Scanner) -> dict[str, str]:
    text = scanner.text
    size = len(text)
    attributes: dict[str, str] = {}
    while True:
        match = _WS_RE.match(text, scanner.pos)
        if match:
            scanner.pos = match.end()
        pos = scanner.pos
        ch = text[pos] if pos < size else ""
        if ch == ">" or (ch == "/" and text.startswith("/>", pos)):
            return attributes
        raw_name = scanner.name()
        scanner.skip_ws()
        scanner.expect("=")
        scanner.skip_ws()
        quote = '"' if scanner.accept('"') else None
        if quote is None:
            if not scanner.accept("'"):
                raise scanner.error("attribute value must be quoted")
            quote = "'"
        value = scanner.until(quote)
        if "<" in value:
            raise scanner.error("'<' not allowed in attribute values")
        if raw_name in attributes:
            raise scanner.error(f"duplicate attribute {raw_name!r}")
        try:
            attributes[raw_name] = unescape(value)
        except ValueError as exc:
            raise scanner.error(str(exc)) from None


def parse(text: str) -> XmlElement:
    """Parse an XML document string with the classic element parser."""
    scanner = _Scanner(text)
    if scanner.accept("\ufeff"):
        pass  # tolerate a BOM that survived decoding
    _skip_misc(scanner)
    if scanner.peek("<!DOCTYPE"):
        raise scanner.error("DTDs are not supported")
    if not scanner.peek("<"):
        raise scanner.error("expected the root element")
    root = _parse_element_classic(scanner, {}, {})
    _skip_misc(scanner)
    if not scanner.eof():
        raise scanner.error("content after the root element")
    return root


def _parse_element_classic(
    scanner: _Scanner, nsmap: dict[str, str], qcache: _QCache
) -> XmlElement:
    text = scanner.text
    size = len(text)
    pos = scanner.pos
    if pos >= size or text[pos] != "<":
        raise scanner.error("expected '<'")
    scanner.pos = pos + 1
    raw_tag = scanner.name()

    plain: dict[str, str] | None = None
    pos = scanner.pos
    ch = text[pos] if pos < size else ""
    if ch != ">" and not (ch == "/" and text.startswith("/>", pos)):
        raw_attributes = _parse_attributes(scanner)
        scope: dict[str, str] | None = None
        for raw_name, value in raw_attributes.items():
            if raw_name == "xmlns":
                if scope is None:
                    scope = {}
                scope[""] = value
            elif raw_name.startswith("xmlns:"):
                if not value:
                    raise scanner.error("cannot undeclare a namespace prefix")
                if scope is None:
                    scope = {}
                scope[raw_name[6:]] = value
            else:
                if plain is None:
                    plain = {}
                plain[raw_name] = value
        if scope:
            nsmap = {**nsmap, **scope}
        pos = scanner.pos
        ch = text[pos] if pos < size else ""

    prefix, local = _split_prefixed(raw_tag, scanner)
    tag = _resolve(prefix, local, nsmap, scanner, False, qcache)
    node = XmlElement(tag)
    if plain:
        for raw_name, value in plain.items():
            aprefix, alocal = _split_prefixed(raw_name, scanner)
            aname = _resolve(aprefix, alocal, nsmap, scanner, True, qcache)
            if aname in node.attributes:
                raise scanner.error(f"duplicate attribute {aname.clark()}")
            node.attributes[aname] = value

    if ch == "/":
        scanner.pos = pos + 2
        return node
    if ch != ">":
        raise scanner.error("expected '>'")
    scanner.pos = pos + 1
    _parse_content_classic(scanner, node, nsmap, qcache)

    closing = scanner.name()
    if closing != raw_tag:
        raise scanner.error(
            f"mismatched end tag: expected </{raw_tag}>, got </{closing}>"
        )
    pos = scanner.pos
    if pos < size and text[pos] == ">":
        scanner.pos = pos + 1
    else:
        scanner.skip_ws()
        scanner.expect(">")
    return node


def _parse_content_classic(
    scanner: _Scanner,
    node: XmlElement,
    nsmap: dict[str, str],
    qcache: _QCache,
) -> None:
    text = scanner.text
    size = len(text)
    buffer: list[str] = []

    while True:
        pos = scanner.pos
        if pos >= size:
            raise scanner.error(f"unexpected end of input inside <{node.tag.local}>")
        ch = text[pos]
        if ch != "<":
            end = text.find("<", pos)
            if end < 0:
                raise scanner.error("unexpected end of input in character data")
            raw = text[pos:end]
            scanner.pos = end
            try:
                buffer.append(unescape(raw))
            except ValueError as exc:
                raise scanner.error(str(exc)) from None
            continue
        nxt = text[pos + 1] if pos + 1 < size else ""
        if nxt == "/":
            scanner.pos = pos + 2
            if buffer:
                node.append(Text("".join(buffer)))
            return
        if nxt == "?":
            scanner.pos = pos + 2
            scanner.until("?>")
            continue
        if nxt == "!":
            if text.startswith("<![CDATA[", pos):
                scanner.pos = pos + 9
                buffer.append(scanner.until("]]>"))
                continue
            if text.startswith("<!--", pos):
                scanner.pos = pos + 4
                if buffer:
                    node.append(Text("".join(buffer)))
                    buffer.clear()
                node.append(Comment(scanner.until("-->")))
                continue
        if buffer:
            node.append(Text("".join(buffer)))
            buffer.clear()
        node.append(_parse_element_classic(scanner, nsmap, qcache))
