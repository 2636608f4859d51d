"""Shipped parser vs the classic oracle, on a seeded fragment soup.

``repro.xmlutil.parse`` is an iterative loop with raw-slice end-tag
compares, open-tag memos and C-level sibling/row run recognition; the
recursive parser it replaced lives on as ``reference_parser``.  Every
generated document must either produce the *same serialised tree* from
both or make *both* raise :class:`XmlParseError` — a shortcut that
accepts what the grammar rejects, or builds a different tree, fails here
with the seed and the document to replay.

Documents are grown mostly balanced (so the parsers get deep before
anything goes wrong) with a small chance per step of a fragment that
breaks well-formedness: the wrong end tag, a stray delimiter, a run
truncated mid-row, a bad reference, an undeclared prefix.  The
well-formed side is also covered by ``test_roundtrip_fuzz.py``.

``PARSER_DIFF_SEED`` replays or varies the run (``make bench-fig2`` runs
the fixed seed, then a fresh one).
"""

import os
import random

from repro.dair.datasets import parse_rowset
from repro.dair.namespaces import (
    SQLROWSET_FORMAT_URI,
    WEBROWSET_FORMAT_URI,
    WEBROWSET_NS,
    WSDAIR_NS,
)
from repro.xmlutil import (
    RowRun,
    XmlElement,
    XmlParseError,
    parse,
    serialize,
    stored_children,
)
from tests.xmlutil import reference_parser

SEED = int(os.environ.get("PARSER_DIFF_SEED", "19"))
DOCUMENTS = 20_000

_NAMES = ["a", "b", "c", "Row", "Value", "p:a", "p:Row", "q:b"]
_CLOSE_TAILS = [">", ">", ">", " >", "\n>", "\t >"]
_TEXTS = [
    "t", " ", "x y", "1", "&amp;", "&#65;", "&#x42;", "&lt;tag&gt;", "a&amp;b",
    "<![CDATA[a<b&c]]>", "<![CDATA[]]>", "<!--c-->", "<!-- a - b -->",
    "<?pi data?>", "é…",
]
_ATTRIBUTES = [
    "", "", "", ' k="v"', " k='v'", ' k="&lt;&#65;"', ' p:k="v"', ' k="1" j="2"',
    ' xmlns="urn:d"', ' xmlns=""', ' xmlns:p="urn:p2"', ' xmlns:q="urn:q"',
]
_NOISE = [
    "<", ">", "&", "&bogus;", "&#0;", "&amp", "</a>", "</x>", "</Row>", "<a",
    "<a k=v>", '<a k="1" k="2">', '<a k="<">', '<a p:k="1" p:k="2"/>',
    '<a xmlns:p="">', "<z:a/>", "<!--open", "<![CDATA[open", "<?open",
    "<!DOCTYPE a>", "<1a/>", "<a/ >", "]]>", "<a:b:c/>", "<:a/>",
]


def _lattice(rng: random.Random) -> str:
    """A ``<Row><Value>…`` block: whole, ragged, or cut off mid-run."""
    row, value = rng.choice(
        [("Row", "Value"), ("p:Row", "p:a"), ("a", "b"), ("a", "a")]
    )
    cells = ["1", "x", "cell 3", "", "&amp;", "4.5"]
    rows = []
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.08:
            rows.append(f"<{row}/>")
            continue
        parts = []
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if roll < 0.08:
                parts.append("<Null/>")
            elif roll < 0.16:
                parts.append(f"<{value}/>")
            elif roll < 0.20:
                parts.append(f'<{value} k="v">1</{value}>')
            else:
                parts.append(f"<{value}>{rng.choice(cells)}</{value}>")
        rows.append(f"<{row}>{''.join(parts)}</{row}>")
    block = "".join(rows)
    if rng.random() < 0.06:
        block = block[: rng.randrange(len(block))]  # truncated mid-run
    return block


def _document(rng: random.Random) -> str:
    parts = []
    if rng.random() < 0.1:
        parts.append(rng.choice(['<?xml version="1.0"?>', "﻿", "<!--pre-->\n"]))
    root = rng.choice(_NAMES)
    parts.append(f'<{root} xmlns:p="urn:p" xmlns:q="urn:q"{rng.choice(_ATTRIBUTES)}>')
    stack = [root]
    for _ in range(rng.randint(0, 14)):
        roll = rng.random()
        if roll < 0.04:
            parts.append(rng.choice(_NOISE))
        elif roll < 0.30 and len(stack) < 6:
            name = rng.choice(_NAMES)
            tail = rng.choice(["", "", " ", "\n"])
            parts.append(f"<{name}{rng.choice(_ATTRIBUTES)}{tail}>")
            stack.append(name)
        elif roll < 0.52 and len(stack) > 1:
            parts.append(f"</{stack.pop()}{rng.choice(_CLOSE_TAILS)}")
        elif roll < 0.64:
            tail = rng.choice(["/>", "/>", " />"])
            parts.append(f"<{rng.choice(_NAMES)}{rng.choice(_ATTRIBUTES)}{tail}")
        elif roll < 0.76:
            name = rng.choice(_NAMES)
            parts.append(f"<{name}>{rng.choice(_TEXTS)}</{name}>")
        elif roll < 0.88:
            parts.append(_lattice(rng))
        else:
            parts.append(rng.choice(_TEXTS))
    if rng.random() < 0.03:
        stack.pop()  # leave one element open
    while stack:
        parts.append(f"</{stack.pop()}{rng.choice(_CLOSE_TAILS)}")
    if rng.random() < 0.03:
        parts.append(rng.choice(["<a/>", "junk", "<!--post-->", " \n"]))
    return "".join(parts)


def _outcome(parser, document: str):
    try:
        return serialize(parser(document))
    except XmlParseError:
        return XmlParseError


def test_shipped_parser_agrees_with_the_classic_oracle():
    rng = random.Random(SEED)
    trees = 0
    for index in range(DOCUMENTS):
        document = _document(rng)
        shipped = _outcome(parse, document)
        oracle = _outcome(reference_parser.parse, document)
        assert shipped == oracle, (
            f"PARSER_DIFF_SEED={SEED} document #{index}: {document!r}\n"
            f"  shipped: {shipped!r}\n  oracle:  {oracle!r}"
        )
        trees += shipped is not XmlParseError
    # The soup must exercise both verdicts, not collapse into one.
    assert DOCUMENTS * 0.2 < trees < DOCUMENTS * 0.9, trees


# -- dataset lattices: rows read from tokens -----------------------------------
#
# The parser hands a run of whole rows to its holder as tuples and builds
# their nodes only when something reads them; parse_rowset takes the
# tuples.  Over SQLRowset and WebRowSet bodies with every row shape the
# run stops at, the rows read from the shipped parse must equal the rows
# walked from the oracle's node tree, and the trees must serialize equal.

DATASETS = 4_000

_SQL_CELLS = [
    "<r:Value>{}</r:Value>", "<r:Value>{}</r:Value>", "<r:Value>{}</r:Value>",
    "<r:Null/>", "<r:Value/>", "<r:Value></r:Value>", '<r:Value k="v">{}</r:Value>',
    "<r:Value><!--c-->{}</r:Value>", "<r:Other>{}</r:Other>", "<r:Null>{}</r:Null>",
]
_WEB_CELLS = [
    "<columnValue>{}</columnValue>", "<columnValue>{}</columnValue>",
    "<columnValue>{}</columnValue>", '<columnValue null="true"/>',
    "<columnValue/>", "<columnValue></columnValue>", "<other>{}</other>",
    '<columnValue null="false">{}</columnValue>',
]
_DATA_TEXTS = ["1", "x", "cell 3", "4.5", "&amp;", "a&lt;b", "&#65;&#x42;", " ", "é…"]
#: Between rows, or in place of a row's plain open tag.
_SQL_ROW_OPENS = ["<r:Row>"] * 12 + [
    '<r:Row k="v">', f'<r:Row xmlns:r="{WSDAIR_NS}">', "<r:Row >", "<r:Row\n>",
]
_WEB_ROW_OPENS = ["<currentRow>"] * 12 + [
    '<currentRow k="v">', f'<currentRow xmlns="{WEBROWSET_NS}">', "<currentRow >",
]
_GAPS = [""] * 12 + [" ", "\n  ", "<!--row-->", "<?pi?>", "<![CDATA[]]>"]


def _rows(rng: random.Random, opens, close, cells, plain: int) -> str:
    rows = []
    for _ in range(rng.randint(0, 9)):
        if rng.random() < 0.04:
            rows.append(close.replace("</", "<")[:-1] + "/>")  # <Row/>
            continue
        parts = []
        for _ in range(rng.randint(0, 5)):
            cell = cells[rng.randrange(plain)] if rng.random() < 0.8 else rng.choice(cells)
            parts.append(cell.format(rng.choice(_DATA_TEXTS)))
        rows.append(rng.choice(_GAPS) + rng.choice(opens) + "".join(parts) + close)
    return "".join(rows)


def _dataset(rng: random.Random) -> tuple[str, str]:
    """A SQLRowset or WebRowSet document: ragged rows, NULL, empty and
    escaped cells, the row shapes a run stops at, sometimes cut off."""
    if rng.random() < 0.5:
        body = _rows(rng, _SQL_ROW_OPENS, "</r:Row>", _SQL_CELLS, 3)
        document = (
            f'<r:SQLRowset xmlns:r="{WSDAIR_NS}"><r:ColumnMetadata>'
            '<r:Column name="a" type="INTEGER"/><r:Column name="b"/>'
            f"</r:ColumnMetadata>{body}</r:SQLRowset>"
        )
        uri = SQLROWSET_FORMAT_URI
    else:
        body = _rows(rng, _WEB_ROW_OPENS, "</currentRow>", _WEB_CELLS, 3)
        data = f"<data>{body}</data>" if body or rng.random() < 0.5 else "<data/>"
        document = (
            f'<webRowSet xmlns="{WEBROWSET_NS}"><metadata><column-count>1</column-count>'
            "<column-definition><column-index>1</column-index>"
            "<column-name>a</column-name></column-definition></metadata>"
            f"{data}</webRowSet>"
        )
        uri = WEBROWSET_FORMAT_URI
    if rng.random() < 0.05:
        document = document[: rng.randrange(len(document))]  # cut off mid-run
    return document, uri


def _rows_of(parser, document: str, uri: str):
    try:
        tree = parser(document)
    except XmlParseError:
        return XmlParseError, XmlParseError
    rows = parse_rowset(uri, tree).rows  # before anything builds the nodes
    return rows, serialize(tree)


def test_rows_read_from_tokens_equal_rows_walked_from_nodes():
    rng = random.Random(SEED)
    runs = 0
    for index in range(DATASETS):
        document, uri = _dataset(rng)
        shipped = _rows_of(parse, document, uri)
        oracle = _rows_of(reference_parser.parse, document, uri)
        assert shipped == oracle, (
            f"PARSER_DIFF_SEED={SEED} dataset #{index}: {document!r}\n"
            f"  shipped: {shipped!r}\n  oracle:  {oracle!r}"
        )
        if shipped[0] is not XmlParseError:
            runs += _holds_a_run(parse(document))
    # the run path and the node path must both be exercised
    assert DATASETS * 0.2 < runs < DATASETS * 0.9, runs


def _holds_a_run(root) -> bool:
    stack = [root]
    while stack:
        items = stored_children(stack.pop())
        if any(isinstance(item, RowRun) for item in items):
            return True
        stack.extend(item for item in items if isinstance(item, XmlElement))
    return False
