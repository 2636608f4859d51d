"""Deterministic round-trip fuzzing for the xmlutil parser/serializer.

Random trees — nested namespaces, attribute soup, escape-worthy text,
mixed content, comments — must survive ``parse(serialize(tree))`` with
structural equality, and serialization must be a fixed point (a second
serialize of the reparsed tree yields identical text).  The same text is
parsed by the classic oracle (``reference_parser``) too, so the
well-formed side of the parser differential reuses this generator.
Seeds are fixed so failures reproduce exactly.
"""

import random
import string

import pytest

from repro.xmlutil import (
    Comment,
    QName,
    XmlElement,
    parse,
    parse_bytes,
    serialize,
    serialize_bytes,
)
from tests.xmlutil import reference_parser

NAMESPACES = [
    "",  # no namespace (xmlutil canonical form is the empty string)
    "http://example.org/a",
    "http://example.org/b",
    "urn:fuzz:deep/nested",
]

# Names the XML spec allows that also exercise prefix assignment.
LOCAL_NAMES = ["doc", "item", "Row", "a-b", "x_y", "value.1", "N0de"]

# Text drawn from characters that stress escaping: markup delimiters,
# quotes, whitespace runs, and some non-ASCII.
TEXT_ALPHABET = string.ascii_letters + string.digits + " <>&\"'\t\n;=/é£…"


def _random_text(rng: random.Random) -> str:
    length = rng.randint(1, 24)
    return "".join(rng.choice(TEXT_ALPHABET) for _ in range(length))


def _random_comment(rng: random.Random) -> Comment:
    # "--" is illegal inside comments; strip it rather than filter-loop.
    value = _random_text(rng).replace("--", "- ")
    if value.endswith("-"):
        value += " "
    return Comment(value)


def _random_qname(rng: random.Random) -> QName:
    return QName(rng.choice(NAMESPACES), rng.choice(LOCAL_NAMES))


def _random_element(rng: random.Random, depth: int) -> XmlElement:
    element = XmlElement(_random_qname(rng))
    for _ in range(rng.randint(0, 3)):
        # Attribute values take the escape-heavy alphabet too.
        element.set(_random_qname(rng), _random_text(rng))
    for _ in range(rng.randint(0, 4 if depth > 0 else 2)):
        roll = rng.random()
        if roll < 0.45 and depth > 0:
            element.append(_random_element(rng, depth - 1))
        elif roll < 0.85:
            # append() normalizes text (merges adjacent runs), so the
            # in-memory tree is already in the parser's normal form.
            element.append(_random_text(rng))
        else:
            element.append(_random_comment(rng))
    return element


@pytest.mark.parametrize("seed", range(25))
def test_random_tree_round_trips(seed):
    rng = random.Random(seed)
    tree = _random_element(rng, depth=4)

    text = serialize(tree)
    reparsed = parse(text)
    assert reparsed.equals(tree), f"seed {seed}: reparse lost structure"
    assert reference_parser.parse(text).equals(tree), f"seed {seed}: oracle"

    # Serialization is a fixed point after one round trip.
    assert serialize(reparsed) == text


@pytest.mark.parametrize("seed", range(25, 35))
def test_random_tree_round_trips_via_bytes(seed):
    rng = random.Random(seed)
    tree = _random_element(rng, depth=3)

    data = serialize_bytes(tree)
    assert data.startswith(b"<?xml")
    reparsed = parse_bytes(data)
    assert reparsed.equals(tree), f"seed {seed}: byte round trip lost structure"
    oracle = reference_parser.parse(data.decode("utf-8"))
    assert oracle.equals(tree), f"seed {seed}: oracle"
    assert serialize_bytes(reparsed) == data


@pytest.mark.parametrize("seed", range(35, 45))
def test_attribute_values_survive_escaping(seed):
    rng = random.Random(seed)
    tree = XmlElement(QName("", "doc"))
    expected = {}
    for index in range(8):
        name = QName("", f"attr{index}")
        value = _random_text(rng)
        tree.set(name, value)
        expected[name] = value
    reparsed = parse(serialize(tree))
    for name, value in expected.items():
        assert reparsed.get(name) == value


@pytest.mark.parametrize("seed", range(45, 55))
def test_text_content_survives_escaping(seed):
    rng = random.Random(seed)
    value = _random_text(rng)
    tree = XmlElement(QName("urn:fuzz:text", "doc"))
    tree.append(value)
    reparsed = parse(serialize(tree))
    assert reparsed.full_text() == value


def test_known_nasty_corpus_round_trips():
    """A few hand-picked cases fuzzing has historically missed."""
    nasties = [
        "]]>",  # CDATA-end outside CDATA must still escape the '>'
        "a&amp;b raw-looking entity text",
        "quote soup: \" ' \" '",
        "angle < brackets > and &amp; mid-text",
        "trailing whitespace   ",
        "\n\tleading whitespace",
    ]
    for value in nasties:
        tree = XmlElement(QName("", "t"))
        tree.append(value)
        reparsed = parse(serialize(tree))
        assert reparsed.full_text() == value, value


# -- reference strictness fuzzing -------------------------------------------
#
# The serializer only ever emits the five named entities, but parsed input
# may carry arbitrary numeric references.  Valid references (any XML 1.0
# Char) must round-trip through escape on re-serialization; malformed or
# out-of-range references must be rejected, never smuggled through.

_VALID_CODEPOINTS = (
    [0x9, 0xA, 0xD]
    + list(range(0x20, 0x7F))
    + [0xE9, 0x2026, 0xD7FF, 0xE000, 0xFFFD, 0x10000, 0x1F600, 0x10FFFF]
)

_INVALID_REFERENCES = [
    "&#x110000;", "&#1114112;", "&#0;", "&#x8;", "&#xD800;", "&#xDC00;",
    "&#xDFFF;", "&#xFFFE;", "&#xFFFF;", "&#;", "&#x;", "&bogus;", "&amp",
    "&#x1F", "&", "&;",
]


@pytest.mark.parametrize("seed", range(55, 65))
def test_numeric_references_round_trip(seed):
    rng = random.Random(seed)
    codes = [rng.choice(_VALID_CODEPOINTS) for _ in range(12)]
    refs = "".join(
        f"&#x{code:X};" if rng.random() < 0.5 else f"&#{code};"
        for code in codes
    )
    tree = parse(f"<doc>{refs}</doc>")
    assert tree.text == "".join(chr(code) for code in codes)
    # Re-serialization escapes what must be escaped and reparses equal.
    assert parse(serialize(tree)).equals(tree)


@pytest.mark.parametrize("seed", range(65, 75))
def test_malformed_references_rejected_wherever_they_land(seed):
    from repro.xmlutil import XmlParseError

    rng = random.Random(seed)
    bad = rng.choice(_INVALID_REFERENCES)
    prefix = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 6)))
    if rng.random() < 0.5:
        document = f"<doc>{prefix}{bad}</doc>"
    else:
        document = f'<doc a="{prefix}{bad}"/>'
    with pytest.raises(XmlParseError):
        parse(document)
