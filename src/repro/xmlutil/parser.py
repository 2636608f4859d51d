"""A from-scratch, namespace-aware XML parser.

Covers the profile of XML that appears on a DAIS wire: the prolog,
elements, attributes, namespace declarations (prefixed and default),
character data with the predefined/numeric entities, CDATA sections,
comments and processing instructions (skipped).  DTDs are rejected, which
doubles as a defence against entity-expansion attacks.

One tokenizer reads every document: a single compiled pattern
(``_TOKEN_RE``) whose quantifiers are all possessive, so no match ever
backtracks and any input is read in linear time.  What the pattern does
not match — comments, CDATA, PIs and every error — goes to a cold path
that re-scans only that construct.  Each distinct open-tag spelling is
resolved once per namespace scope into a memo held by that scope; the
memo grows by O(distinct spellings), whose total length is at most the
document's, and is freed with the parse, like the QName cache.
"""

from __future__ import annotations

import re
from typing import NoReturn

from repro.xmlutil.escape import unescape
from repro.xmlutil.names import XML_NS, QName
from repro.xmlutil.tree import Comment, Text, XmlElement


class XmlParseError(ValueError):
    """Raised for any well-formedness or namespace violation."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


#: A name starts with ``[A-Za-z_:À-￿]``, spelled as its complement so that
#: compiling it does not walk 65 000 code points in Python (~4 ms a class).
_NAME = r"[^\x00-9;-@\[-^`{-\xbf\U00010000-\U0010ffff][\w.\-:·À-￿]*+"
_WS = r"[ \t\r\n]*+"
_NAME_RE = re.compile(_NAME)
_WS_RE = re.compile(r"[ \t\r\n]+")

#: One attribute of a run ``_TOKEN_RE`` has checked, so a name is what
#: stands before ``=``; the value is group 2 (``"…"``) or 3 (``'…'``).
_ATTRIBUTE_RE = re.compile(
    rf"""{_WS}([^ \t\r\n=]++){_WS}={_WS}(?:"([^"<]*+)"|'([^'<]*+)')"""
)
_ATTRIBUTES = rf"""(?:{_WS}{_NAME}{_WS}={_WS}(?:"[^"<]*+"|'[^'<]*+'))*+{_WS}"""

#: Every token of element content, told apart by ``match.lastindex``: 1 an
#: open tag (group 1 its spelling: raw name plus attribute run, group 2 the
#: raw name), 3 an empty-element tag, 4 a text-only leaf ``<t …>chars</t>``
#: (group 4 the chars), 5 an end tag (its raw name, only compared with the
#: open one), 6 character data.  Possessive quantifiers cannot split one
#: name into a tag plus an attribute, nor re-read an attribute run.
_TOKEN_RE = re.compile(
    rf"<(({_NAME}){_ATTRIBUTES})(?:(/>)|>(?:([^<]*+)</\2{_WS}>)?)"
    rf"|</([^ \t\r\n>]++){_WS}>"
    r"|([^<]++)"
)
_OPEN, _LEAF, _END, _CHARS = 1, 4, 5, 6


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
    """One namespace scope plus its per-parse resolution caches.

    ``etags``/``attrs`` map raw element/attribute names (which resolve
    unprefixed names differently) to QNames; ``opens`` maps an open-tag
    spelling to its memo entry ``(scope, QName, attributes, raw name)``,
    *scope* being the context its content is read in: this one, or the
    child its ``xmlns`` attributes declare.  DAIS documents declare
    every namespace on the root, so one context serves the parse.
    """

    __slots__ = ("nsmap", "etags", "attrs", "opens")

    def __init__(self, nsmap: dict[str, str]) -> None:
        self.nsmap = nsmap
        self.etags: dict[str, QName] = {}
        self.attrs: dict[str, QName] = {}
        self.opens: dict[str, tuple] = {}

    def child(self, scope: dict[str, str]) -> "_NsContext":
        return _NsContext({**self.nsmap, **scope})

    def qname(
        self, raw: str, scanner: _Scanner, qcache: _QCache, attribute: bool
    ) -> QName:
        cache = self.attrs if attribute else self.etags
        name = cache.get(raw)
        if name is None:
            prefix, local = _split_prefixed(raw, scanner)
            name = cache[raw] = _resolve(
                prefix, local, self.nsmap, scanner, attribute, qcache
            )
        return name


def _unescaped(raw: str, position: int, text: str = "", run_end: int = 0) -> str:
    """*raw* with its references resolved.  For a value of a run over
    *position*..*run_end*, the error names the first malformed leaf."""
    try:
        return unescape(raw)
    except ValueError as exc:
        for token in _TOKEN_RE.finditer(text, position, run_end):
            if token.lastindex == _LEAF:
                _unescaped(token.group(_LEAF), token.start(_LEAF))
        raise XmlParseError(str(exc), position) from None


def _open_tag(
    scanner: _Scanner, ctx: _NsContext, match: re.Match, qcache: _QCache
) -> tuple:
    """Resolve a spelling seen for the first time in *ctx* into its memo
    entry: split and unescape the attributes, check duplicates (raw and
    resolved), apply ``xmlns`` and intern the names."""
    ectx = ctx
    plain: list[tuple[str, str, int]] = []
    start, end = match.end(2), match.end(1)
    if start != end:  # an attribute run
        seen: set[str] = set()
        scope: dict[str, str] = {}
        for attr in _ATTRIBUTE_RE.finditer(scanner.text, start, end):
            name = attr.group(1)
            scanner.pos = attr.start(1)
            if name in seen:
                raise scanner.error(f"duplicate attribute {name!r}")
            seen.add(name)
            value = attr.group(attr.lastindex)
            if "&" in value:
                value = _unescaped(value, attr.start(attr.lastindex))
            if name == "xmlns":
                scope[""] = value
            elif name.startswith("xmlns:"):
                if not value:
                    raise scanner.error("cannot undeclare a namespace prefix")
                scope[name[6:]] = value
            else:
                plain.append((name, value, scanner.pos))
        if scope:
            ectx = ctx.child(scope)
    raw = match.group(2)
    scanner.pos = match.start(2)
    tag = ectx.qname(raw, scanner, qcache, False)
    attributes: dict[QName, str] = {}
    for name, value, offset in plain:
        scanner.pos = offset
        aname = ectx.qname(name, scanner, qcache, True)
        if aname in attributes:
            raise scanner.error(f"duplicate attribute {aname.clark()}")
        attributes[aname] = value
    entry = ctx.opens[match.group(1)] = (ectx, tag, attributes, raw)
    return entry


def _diagnose(scanner: _Scanner, pos: int) -> NoReturn:
    """Name what is wrong with the tag at *pos*, a ``<`` the token
    pattern could not match, at the offset where it goes wrong.  The
    document is already rejected; this only re-scans that construct."""
    if scanner.text.startswith("<!DOCTYPE", pos):
        raise XmlParseError("DTDs are not supported", pos)
    scanner.pos = pos + 1
    closing = scanner.accept("/")
    scanner.name()
    while not closing:  # walk the attributes up to the first bad one
        scanner.skip_ws()
        if scanner.eof() or scanner.peek(">") or scanner.peek("/>"):
            break
        if not _NAME_RE.match(scanner.text, scanner.pos):
            raise scanner.error("expected an attribute name, '>' or '/>'")
        scanner.name()
        scanner.skip_ws()
        scanner.expect("=")
        scanner.skip_ws()
        quote = scanner.text[scanner.pos : scanner.pos + 1]
        if quote not in ('"', "'"):
            raise scanner.error("attribute value must be quoted")
        start = scanner.pos = scanner.pos + 1
        value = scanner.until(quote)
        if "<" in value:
            scanner.pos = start + value.index("<")
            raise scanner.error("'<' not allowed in attribute values")
    scanner.skip_ws()
    if scanner.eof():
        raise scanner.error("unexpected end of input inside a tag")
    scanner.expect(">")
    raise XmlParseError("malformed markup", pos)


def _flush(node: XmlElement, buffer: list[str]) -> None:
    """Attach the character data collected since the last node."""
    joined = "".join(buffer)
    if joined:
        node.children.append(Text(joined))
    buffer.clear()


def _markup(
    scanner: _Scanner, pos: int, node: XmlElement | None, buffer: list[str]
) -> int:
    """The cold path at a ``<`` the token pattern did not match: skip a
    comment, CDATA section or PI inside content, or diagnose the error."""
    scanner.pos = pos
    if node is not None:
        if scanner.accept("<!--"):
            _flush(node, buffer)
            node.children.append(Comment(scanner.until("-->")))
            return scanner.pos
        if scanner.accept("<![CDATA["):
            buffer.append(scanner.until("]]>"))
            return scanner.pos
        if scanner.accept("<?"):
            scanner.until("?>")
            return scanner.pos
    _diagnose(scanner, pos)


def _skip_misc(scanner: _Scanner) -> None:
    """Skip whitespace, comments and PIs between top-level constructs."""
    while True:
        scanner.skip_ws()
        if scanner.accept("<!--"):
            scanner.until("-->")
        elif scanner.accept("<?"):
            scanner.until("?>")
        else:
            return


def parse(text: str) -> XmlElement:
    """Parse an XML document string and return its root element."""
    scanner = _Scanner(text)
    scanner.accept("﻿")  # tolerate a BOM that survived decoding
    _skip_misc(scanner)
    if not scanner.peek("<") or scanner.peek("</"):
        raise scanner.error("expected the root element")
    root = _parse_element(scanner, _NsContext({}))
    _skip_misc(scanner)
    if not scanner.eof():
        raise scanner.error("content after the root element")
    return root


def parse_bytes(data: bytes) -> XmlElement:
    """Decode UTF-8 bytes (BOM tolerated) and parse."""
    return parse(data.decode("utf-8-sig"))


def _parse_element(scanner: _Scanner, ctx: _NsContext) -> XmlElement:
    """The token loop: one ``_TOKEN_RE`` match per construct, one
    explicit stack instead of recursion, open tags resolved through the
    scope memo, text-only leaves built without a frame.  After a leaf,
    the sibling-run and row-run recognisers hand the rest of a rowset
    lattice to the regex engine.  The scanner's ``pos`` is synced only
    around cold paths and errors.
    """
    text = scanner.text
    pos = scanner.pos
    startswith = text.startswith
    token = _TOKEN_RE.match
    element_new = XmlElement.__new__
    text_new = Text.__new__
    qcache: _QCache = {}
    rcache: dict = {}  # run patterns by value tag, or by (row, value) tags

    stack: list = []  # frames of the open elements' parents
    node: XmlElement | None = None  # the open element; None at the root level
    raw_tag = ""
    buffer: list[str] = []  # character data not yet attached to ``node``

    while True:
        match = token(text, pos)
        if match is None:
            if pos >= len(text):
                raise XmlParseError(
                    f"unexpected end of input inside <{node.tag.local}>", pos
                )
            pos = _markup(scanner, pos, node, buffer)
            continue
        kind = match.lastindex
        if kind == _CHARS:
            raw = match.group(_CHARS)
            if "&" in raw:
                raw = _unescaped(raw, pos)
            buffer.append(raw)
            pos = match.end()
            continue
        if kind == _END:
            closing = match.group(_END)
            if closing != raw_tag:
                raise XmlParseError(
                    f"mismatched end tag: expected </{raw_tag}>, got </{closing}>",
                    pos,
                )
            pos = match.end()
            if buffer:
                _flush(node, buffer)
            closed = node
            node, raw_tag, ctx = stack.pop()
            if node is None:
                scanner.pos = pos
                return closed
            node.children.append(closed)
            continue

        entry = ctx.opens.get(match.group(1))
        if entry is None:
            entry = _open_tag(scanner, ctx, match, qcache)
        ectx, tag, attributes, nraw = entry
        pos = match.end()
        # Inline construction: the dataclass __init__ + __post_init__
        # re-validate what the parser already guarantees.
        elem = element_new(XmlElement)
        elem.tag = tag
        elem.attributes = attributes.copy() if attributes else {}
        elem.children = []
        if buffer:
            _flush(node, buffer)
        if kind == _OPEN:
            stack.append((node, raw_tag, ctx))
            node, raw_tag, ctx = elem, nraw, ectx
            continue
        if kind == _LEAF:
            raw = match.group(_LEAF)
            if raw:
                if "&" in raw:
                    raw = _unescaped(raw, match.start(_LEAF))
                tnode = text_new(Text)
                tnode.value = raw
                elem.children.append(tnode)
        if node is None:
            scanner.pos = pos
            return elem
        siblings = node.children
        siblings.append(elem)
        if kind != _LEAF or ectx is not ctx:
            continue

        # Sibling run: a text-only leaf is nearly always followed by more
        # spelled exactly the same way (the Value columns of a row): one
        # C-level match, split on the close+open seam, so the Python loop
        # only builds nodes.  Content holds no raw '<', so the pattern
        # cannot skip over markup.  The run reuses this element's QName,
        # so it is skipped when the element declared a namespace itself.
        probe = "<" + nraw + ">"
        seam = "</" + nraw + ">" + probe
        plen = len(probe)
        if startswith(probe, pos):
            run_re = rcache.get(nraw)
            if run_re is None:
                escaped = re.escape(nraw)
                run_re = rcache[nraw] = re.compile(
                    f"(?:<{escaped}>[^<]*+</{escaped}>)++"
                )
            match = run_re.match(text, pos)
            if match is not None:
                run_end = match.end()
                for raw in text[pos + plen : run_end - plen - 1].split(seam):
                    sib = element_new(XmlElement)
                    sib.tag = tag
                    sib.attributes = {}
                    if raw:
                        if "&" in raw:
                            raw = _unescaped(raw, pos, text, run_end)
                        tnode = text_new(Text)
                        tnode.value = raw
                        sib.children = [tnode]
                    else:
                        sib.children = []
                    siblings.append(sib)
                pos = run_end

        # Row run: when the value run filled its parent and the next row
        # opens right after it (``</Row><Row>``), whole rows of the same
        # two-level lattice are consumed by one C-level match and two
        # split passes.  Identically spelled attribute-free tags resolve
        # to the same QNames unless the first row declared a namespace
        # itself; a row spelled like its values (<A><A>…</A></A>) has
        # one seam for both levels and cannot be split by text.
        rraw = raw_tag
        rseam = "</" + rraw + "><" + rraw + ">"
        if rraw == nraw or not startswith(rseam, pos):
            continue
        outer, _, outer_ctx = stack[-1]
        if outer is None or outer_ctx is not ctx:
            continue
        rkey = (rraw, nraw)
        row_re = rcache.get(rkey)
        if row_re is None:
            er, ev = re.escape(rraw), re.escape(nraw)
            row_re = rcache[rkey] = re.compile(
                f"(?:<{er}>(?:<{ev}>[^<]*+</{ev}>)*+</{er}>)++"
            )
        closed = node
        node, raw_tag, ctx = stack.pop()
        node.children.append(closed)
        pos += len(rraw) + 3
        match = row_re.match(text, pos)
        if match is None:
            continue
        run_end = match.end()
        row_tag = closed.tag
        rplen = len(rraw) + 2
        append_row = node.children.append
        for body in text[pos + rplen : run_end - rplen - 1].split(rseam):
            rowel = element_new(XmlElement)
            rowel.tag = row_tag
            rowel.attributes = {}
            if body:
                children = []
                append_value = children.append
                for raw in body[plen : len(body) - plen - 1].split(seam):
                    sib = element_new(XmlElement)
                    sib.tag = tag
                    sib.attributes = {}
                    if raw:
                        if "&" in raw:
                            raw = _unescaped(raw, pos, text, run_end)
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
