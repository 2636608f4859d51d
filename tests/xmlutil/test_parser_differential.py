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

from repro.xmlutil import XmlParseError, parse, serialize
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
