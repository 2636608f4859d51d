"""A from-scratch, namespace-aware XML parser.

Covers the profile of XML that appears on a DAIS wire: the prolog,
elements, attributes, namespace declarations (prefixed and default),
character data with the predefined/numeric entities, CDATA sections,
comments and processing instructions (skipped).  DTDs are rejected, which
doubles as a defence against entity-expansion attacks.
"""

from __future__ import annotations

import re

from repro.xmlutil.escape import unescape
from repro.xmlutil.names import XML_NS, QName
from repro.xmlutil.tree import Comment, Text, XmlElement


class XmlParseError(ValueError):
    """Raised for any well-formedness or namespace violation."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_NAME_RE = re.compile(r"[A-Za-z_:À-￿][\w.\-:·À-￿]*")
_WS_RE = re.compile(r"[ \t\r\n]+")


class _Scanner:
    """Cursor over the document text with primitive token operations."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> XmlParseError:
        return XmlParseError(message, self.pos)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def accept(self, literal: str) -> bool:
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.accept(literal):
            raise self.error(f"expected {literal!r}")

    def skip_ws(self) -> None:
        match = _WS_RE.match(self.text, self.pos)
        if match:
            self.pos = match.end()

    def name(self) -> str:
        match = _NAME_RE.match(self.text, self.pos)
        if not match:
            raise self.error("expected an XML name")
        self.pos = match.end()
        return match.group()

    def until(self, literal: str) -> str:
        end = self.text.find(literal, self.pos)
        if end < 0:
            raise self.error(f"unterminated construct, missing {literal!r}")
        chunk = self.text[self.pos : end]
        self.pos = end + len(literal)
        return chunk


def _split_prefixed(name: str, scanner: _Scanner) -> tuple[str, str]:
    prefix, sep, local = name.partition(":")
    if not sep:
        return "", name
    if not prefix or not local or ":" in local:
        raise scanner.error(f"malformed qualified name {name!r}")
    return prefix, local


_QCache = dict[tuple[str, str], QName]

#: Process-wide interned QNames for the *known* wire vocabularies
#: (SOAP/WS-Addressing envelope terms, WS-DAI(R/X) message and dataset
#: tags).  Only :func:`intern_vocabulary` writes here — parses never do —
#: so a hostile peer cannot grow process-lifetime state; per-parse
#: caches seed from it and skip NCName validation entirely for the tags
#: that dominate every DAIS document.
_SHARED_QNAMES: dict[tuple[str, str], QName] = {}


def intern_vocabulary(namespace: str, locals_: "tuple[str, ...] | list[str]") -> None:
    """Pre-validate and intern the QNames of a known wire vocabulary.

    Called at import time by the namespace modules; parses reuse the
    interned instances so repeat tags cost one dict hit.
    """
    for local in locals_:
        _SHARED_QNAMES.setdefault((namespace, local), QName(namespace, local))


def interned_qname(namespace: str, local: str) -> QName:
    """The interned instance for a known-vocabulary name, if registered.

    Parses resolve registered names to these exact instances, so callers
    walking freshly parsed trees can compare tags by identity first and
    fall back to equality only for hand-built trees.
    """
    qname = _SHARED_QNAMES.get((namespace, local))
    if qname is None:
        qname = QName(namespace, local)
    return qname


def _qname(namespace: str, local: str, qcache: _QCache) -> QName:
    """Construct-or-reuse a QName.

    A wire document repeats a small tag vocabulary hundreds of times
    (think row elements in a result set); caching per parse skips the
    NCName validation all but once per distinct name without letting a
    hostile peer grow a process-lifetime cache.  Known vocabularies come
    straight from the interned table.
    """
    key = (namespace, local)
    qname = qcache.get(key)
    if qname is None:
        qname = _SHARED_QNAMES.get(key)
        if qname is None:
            qname = QName(namespace, local)
        qcache[key] = qname
    return qname


def _resolve(
    prefix: str,
    local: str,
    nsmap: dict[str, str],
    scanner: _Scanner,
    is_attribute: bool,
    qcache: _QCache,
) -> QName:
    if prefix == "xml":
        return _qname(XML_NS, local, qcache)
    if not prefix:
        if is_attribute:
            return _qname("", local, qcache)
        return _qname(nsmap.get("", ""), local, qcache)
    try:
        namespace = nsmap[prefix]
    except KeyError:
        raise scanner.error(f"undeclared namespace prefix {prefix!r}") from None
    return _qname(namespace, local, qcache)


class _NsContext:
    """One namespace scope plus its raw-name resolution caches.

    Splitting ``wsa:MessageID`` on ``:`` and walking the prefix map is
    pure repetition after the first occurrence: within one scope a raw
    prefixed name always resolves to the same QName.  Each scope keeps
    two single-level dicts (elements and attributes resolve unprefixed
    names differently), so the per-tag cost on the hot path collapses to
    one dict hit.  DAIS documents declare every namespace on the root,
    so in practice one context serves the whole parse.
    """

    __slots__ = ("nsmap", "etags", "attrs")

    def __init__(self, nsmap: dict[str, str]) -> None:
        self.nsmap = nsmap
        self.etags: dict[str, QName] = {}
        self.attrs: dict[str, QName] = {}

    def child(self, scope: dict[str, str]) -> "_NsContext":
        return _NsContext({**self.nsmap, **scope})

    def element_qname(
        self, raw: str, scanner: _Scanner, qcache: _QCache
    ) -> QName:
        prefix, local = _split_prefixed(raw, scanner)
        tag = _resolve(prefix, local, self.nsmap, scanner, False, qcache)
        self.etags[raw] = tag
        return tag

    def attribute_qname(
        self, raw: str, scanner: _Scanner, qcache: _QCache
    ) -> QName:
        prefix, local = _split_prefixed(raw, scanner)
        name = _resolve(prefix, local, self.nsmap, scanner, True, qcache)
        self.attrs[raw] = name
        return name


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


def _skip_misc(scanner: _Scanner) -> None:
    """Skip whitespace, comments and PIs between top-level constructs."""
    while True:
        scanner.skip_ws()
        if scanner.accept("<!--"):
            scanner.until("-->")
        elif scanner.peek("<?"):
            scanner.pos += 2
            scanner.until("?>")
        else:
            return


def parse(text: str) -> XmlElement:
    """Parse an XML document string and return its root element."""
    scanner = _Scanner(text)
    if scanner.accept("﻿"):
        pass  # tolerate a BOM that survived decoding
    _skip_misc(scanner)
    if scanner.peek("<!DOCTYPE"):
        raise scanner.error("DTDs are not supported")
    if not scanner.peek("<"):
        raise scanner.error("expected the root element")
    root = _parse_element(scanner, _NsContext({}), {})
    _skip_misc(scanner)
    if not scanner.eof():
        raise scanner.error("content after the root element")
    return root


def parse_bytes(data: bytes) -> XmlElement:
    """Decode UTF-8 bytes (BOM tolerated) and parse."""
    return parse(data.decode("utf-8-sig"))


def _parse_element(
    scanner: _Scanner, ctx: _NsContext, qcache: _QCache
) -> XmlElement:
    """The hot-path parser: one iterative loop for the whole subtree.

    A DAIS response is thousands of tiny elements; per-element Python
    call frames are the dominant parse cost once tokenizing is cheap.
    This loop keeps an explicit stack instead of recursing, resolves
    raw names through the scope caches, remembers the two most recent
    open-tag spellings (rowsets alternate between exactly two), takes a
    ``<Tag>text</Tag>`` shortcut for simple content, and compares end
    tags against the raw open-tag slice before paying for a name scan.
    The scanner's ``pos`` is synced only around slow paths and errors.
    """
    text = scanner.text
    size = len(text)
    pos = scanner.pos
    startswith = text.startswith
    find = text.find
    element_new = XmlElement.__new__
    text_new = Text.__new__

    # Frames of open elements; ``node is None`` means we are at the root
    # level (about to open the root, or just closed it).
    stack: list = []
    node: XmlElement | None = None
    raw_tag = ""
    buffer: list[str] | None = None
    t1 = t2 = ""  # most-recently-seen raw open-tag spellings
    rcache: dict = {}  # per-parse raw tag -> compiled sibling-run pattern

    while True:
        if node is not None:
            # ---- content of the current open element -----------------
            while True:
                if pos >= size:
                    scanner.pos = pos
                    raise scanner.error(
                        f"unexpected end of input inside <{node.tag.local}>"
                    )
                ch = text[pos]
                if ch != "<":
                    end = find("<", pos)
                    if end < 0:
                        scanner.pos = pos
                        raise scanner.error(
                            "unexpected end of input in character data"
                        )
                    raw = text[pos:end]
                    pos = end
                    if "&" in raw:
                        scanner.pos = end
                        try:
                            raw = unescape(raw)
                        except ValueError as exc:
                            raise scanner.error(str(exc)) from None
                    buffer.append(raw)
                    continue
                nxt = text[pos + 1] if pos + 1 < size else ""
                if nxt == "/":
                    pos += 2
                    if buffer:
                        joined = "".join(buffer)
                        if joined:
                            node.children.append(Text(joined))
                    # End tags nearly always match byte-for-byte: compare
                    # the raw slice before paying for a name scan.
                    after = pos + len(raw_tag)
                    if (
                        startswith(raw_tag, pos)
                        and after < size
                        and text[after] == ">"
                    ):
                        pos = after + 1
                    else:
                        # longer name, whitespace or a mismatch: slow close
                        scanner.pos = pos
                        closing = scanner.name()
                        if closing != raw_tag:
                            raise scanner.error(
                                "mismatched end tag: expected "
                                f"</{raw_tag}>, got </{closing}>"
                            )
                        scanner.skip_ws()
                        scanner.expect(">")
                        pos = scanner.pos
                    closed = node
                    node, raw_tag, ctx, buffer = stack.pop()
                    if node is None:
                        scanner.pos = pos
                        return closed
                    node.children.append(closed)
                    continue
                if nxt == "?":
                    scanner.pos = pos + 2
                    scanner.until("?>")
                    pos = scanner.pos
                    continue
                if nxt == "!":
                    if startswith("<![CDATA[", pos):
                        scanner.pos = pos + 9
                        buffer.append(scanner.until("]]>"))
                        pos = scanner.pos
                        continue
                    if startswith("<!--", pos):
                        scanner.pos = pos + 4
                        if buffer:
                            joined = "".join(buffer)
                            if joined:
                                node.children.append(Text(joined))
                            buffer.clear()
                        node.children.append(Comment(scanner.until("-->")))
                        pos = scanner.pos
                        continue
                    # any other "<!" falls through to element parsing,
                    # which reports the usual malformed-name error
                if buffer:
                    joined = "".join(buffer)
                    if joined:
                        node.children.append(Text(joined))
                    buffer.clear()
                break  # a child element opens at ``pos``

        # ---- an element open tag at ``pos`` --------------------------
        if pos >= size or text[pos] != "<":
            scanner.pos = pos
            raise scanner.error("expected '<'")
        pos += 1
        nraw = None
        if t1 and startswith(t1, pos):
            after = pos + len(t1)
            nc = text[after] if after < size else ""
            if nc == ">" or nc == "/":
                nraw = t1
                pos = after
        elif t2 and startswith(t2, pos):
            after = pos + len(t2)
            nc = text[after] if after < size else ""
            if nc == ">" or nc == "/":
                nraw = t2
                t1, t2 = t2, t1
                pos = after
        if nraw is None:
            scanner.pos = pos
            nraw = scanner.name()
            pos = scanner.pos
            if nraw != t1:
                t1, t2 = nraw, t1

        plain: dict[str, str] | None = None
        ectx = ctx
        ch = text[pos] if pos < size else ""
        if ch != ">" and not (ch == "/" and startswith("/>", pos)):
            scanner.pos = pos
            raw_attributes = _parse_attributes(scanner)
            pos = scanner.pos
            scope: dict[str, str] | None = None
            for raw_name, value in raw_attributes.items():
                if raw_name == "xmlns":
                    if scope is None:
                        scope = {}
                    scope[""] = value
                elif raw_name.startswith("xmlns:"):
                    if not value:
                        scanner.pos = pos
                        raise scanner.error(
                            "cannot undeclare a namespace prefix"
                        )
                    if scope is None:
                        scope = {}
                    scope[raw_name[6:]] = value
                else:
                    if plain is None:
                        plain = {}
                    plain[raw_name] = value
            if scope:
                ectx = ctx.child(scope)
            ch = text[pos] if pos < size else ""

        tag = ectx.etags.get(nraw)
        if tag is None:
            scanner.pos = pos
            tag = ectx.element_qname(nraw, scanner, qcache)
        # Inline construction: the dataclass __init__ + __post_init__
        # re-validate what the parser already guarantees.
        elem = element_new(XmlElement)
        elem.tag = tag
        elem.attributes = {}
        elem.children = []
        if plain:
            attrs = ectx.attrs
            for raw_name, value in plain.items():
                aname = attrs.get(raw_name)
                if aname is None:
                    scanner.pos = pos
                    aname = ectx.attribute_qname(raw_name, scanner, qcache)
                if aname in elem.attributes:
                    scanner.pos = pos
                    raise scanner.error(
                        f"duplicate attribute {aname.clark()}"
                    )
                elem.attributes[aname] = value

        simple = False
        if ch == "/":
            # _parse_attributes (and the fast check above) only stop at
            # '>' or '/>', so '/' here is always the start of '/>'.
            pos += 2
        elif ch != ">":
            scanner.pos = pos
            raise scanner.error("expected '>'")
        else:
            pos += 1
            # Simple-content shortcut: <Tag>chars</Tag> with no markup
            # inside — the shape of every rowset value on a DAIS wire.
            end = find("<", pos)
            if (
                end >= 0
                and end + 1 < size
                and text[end + 1] == "/"
                and startswith(nraw, end + 2)
                and end + 2 + len(nraw) < size
                and text[end + 2 + len(nraw)] == ">"
            ):
                if end > pos:
                    raw = text[pos:end]
                    if "&" in raw:
                        scanner.pos = end
                        try:
                            raw = unescape(raw)
                        except ValueError as exc:
                            raise scanner.error(str(exc)) from None
                    if raw:
                        elem.children.append(Text(raw))
                pos = end + 3 + len(nraw)
                simple = True
            else:
                # Descend: this element becomes the open node.
                stack.append((node, raw_tag, ctx, buffer))
                node, raw_tag, ctx, buffer = elem, nraw, ectx, []
                continue

        # The element closed without descending; attach it.
        if node is None:
            scanner.pos = pos
            return elem
        siblings = node.children
        siblings.append(elem)

        if simple and ectx is ctx:
            # Sibling run: a simple-content element is nearly always
            # followed by more spelled exactly the same way (the Value
            # columns of a row).  A run of escape-free values is matched
            # by one C-level regex and split on the close+open seam, so
            # the Python loop only builds nodes; values carrying '&'
            # (and the end of the run) fall to the probe loop below.
            # Content cannot contain a raw '<', so the pattern cannot
            # skip over markup.  The run reuses this element's QName, so
            # it is skipped when the element declared a namespace itself
            # (its attribute-free siblings resolve in the outer scope).
            run = rcache.get(nraw)
            if run is None:
                escaped = re.escape(nraw)
                probe = "<" + nraw + ">"
                close = "</" + nraw + ">"
                run = (
                    re.compile(f"(?:<{escaped}>[^<&]*</{escaped}>)+"),
                    probe,
                    close,
                    close + probe,
                    len(probe),
                    len(close),
                )
                rcache[nraw] = run
            run_re, probe, close, seam, plen, clen = run
            append_sibling = siblings.append
            while True:
                match = run_re.match(text, pos)
                if match is not None:
                    run_end = match.end()
                    for raw in text[pos + plen : run_end - clen].split(seam):
                        sib = element_new(XmlElement)
                        sib.tag = tag
                        sib.attributes = {}
                        if raw:
                            tnode = text_new(Text)
                            tnode.value = raw
                            sib.children = [tnode]
                        else:
                            sib.children = []
                        append_sibling(sib)
                    pos = run_end
                # A value containing '&' (legal, just not regex-fast):
                # unescape it by hand, then try the regex again.
                if not startswith(probe, pos):
                    break
                vstart = pos + plen
                end = find("<", vstart)
                if end < 0 or text[end : end + clen] != close:
                    break
                raw = text[vstart:end]
                if "&" in raw:
                    scanner.pos = end
                    try:
                        raw = unescape(raw)
                    except ValueError as exc:
                        raise scanner.error(str(exc)) from None
                sib = element_new(XmlElement)
                sib.tag = tag
                sib.attributes = {}
                if raw:
                    tnode = text_new(Text)
                    tnode.value = raw
                    sib.children = [tnode]
                else:
                    sib.children = []
                append_sibling(sib)
                pos = end + clen

            # Row run: when the value run filled its parent to the brim
            # (the parent's end tag starts right here), whole sibling
            # rows of the same two-level lattice — <Row><Value>…</Value>
            # …</Row> — are consumed by one C-level match and two split
            # passes.  Attribute-free tags spelled identically resolve
            # to the same QNames (a pattern row cannot introduce xmlns),
            # so node construction is the only Python-loop work left —
            # unless the first row declared a namespace of its own, in
            # which case its siblings do not share its scope.
            if node is not None and startswith("</" + raw_tag + ">", pos):
                rraw = raw_tag
                pos += len(rraw) + 3
                closed = node
                node, raw_tag, ctx, buffer = stack.pop()
                if node is None:
                    scanner.pos = pos
                    return closed
                node.children.append(closed)
                # A row spelled like its values (<A><A>…</A></A>) has
                # one seam for both levels: it cannot be split by text.
                if ctx is not ectx or rraw == nraw:
                    continue
                rkey = (rraw, nraw)
                row_re = rcache.get(rkey)
                if row_re is None:
                    er, ev = re.escape(rraw), re.escape(nraw)
                    row_re = re.compile(
                        f"(?:<{er}>(?:<{ev}>[^<&]*</{ev}>)*</{er}>)+"
                    )
                    rcache[rkey] = row_re
                match = row_re.match(text, pos)
                if match is not None:
                    run_end = match.end()
                    row_tag = closed.tag
                    rplen = len(rraw) + 2
                    rclen = rplen + 1
                    rseam = "</" + rraw + "><" + rraw + ">"
                    append_row = node.children.append
                    for body in text[pos + rplen : run_end - rclen].split(
                        rseam
                    ):
                        rowel = element_new(XmlElement)
                        rowel.tag = row_tag
                        rowel.attributes = {}
                        if body:
                            children = []
                            append_value = children.append
                            for raw in body[plen : len(body) - clen].split(
                                seam
                            ):
                                sib = element_new(XmlElement)
                                sib.tag = tag
                                sib.attributes = {}
                                if raw:
                                    tnode = text_new(Text)
                                    tnode.value = raw
                                    sib.children = [tnode]
                                else:
                                    sib.children = []
                                append_value(sib)
                            rowel.children = children
                        else:
                            rowel.children = []
                        append_row(rowel)
                    pos = run_end
