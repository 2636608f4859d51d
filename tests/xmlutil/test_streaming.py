"""StreamedElement / LazyText / serialize_chunks primitives."""

import pytest

from repro.xmlutil import (
    E,
    LazyText,
    QName,
    StreamedElement,
    escape_text,
    serialize,
    serialize_chunks,
)

NS = "urn:test:stream"


def _streamed(values):
    def chunks(q):
        item = q(QName(NS, "item"))
        for value in values:
            yield f"<{item}>{escape_text(value)}</{item}>"

    return StreamedElement(QName(NS, "list"), chunks, namespaces=(NS,))


class TestSerializeChunks:
    def test_chunked_equals_eager(self):
        root = E(QName(NS, "root"), _streamed(["a", "b & c", "<d>"]))
        assert "".join(serialize_chunks(root)) == serialize(root)

    def test_empty_stream_collapses_element(self):
        root = E(QName(NS, "root"), _streamed([]))
        text = "".join(serialize_chunks(root))
        assert text == serialize(root)
        assert "<list/>" in text or ":list/>" in text

    def test_fresh_generator_per_serialization(self):
        root = E(QName(NS, "root"), _streamed(["x"]))
        first = "".join(serialize_chunks(root))
        second = "".join(serialize_chunks(root))
        assert first == second

    def test_chunk_boundaries_fall_on_streamed_content(self):
        root = E(
            QName(NS, "root"),
            E(QName(NS, "before"), "b"),
            _streamed(["one", "two"]),
            E(QName(NS, "after"), "a"),
        )
        parts = list(serialize_chunks(root))
        # Static markup coalesces; each streamed chunk stays separate.
        assert len(parts) >= 3
        assert "".join(parts) == serialize(root)

    def test_declared_namespaces_include_lazy_content(self):
        other = "urn:test:other"

        def chunks(q):
            yield f"<{q(QName(other, 'x'))}/>"

        element = StreamedElement(
            QName(NS, "list"), chunks, namespaces=(other,)
        )
        text = "".join(serialize_chunks(E(QName(NS, "root"), element)))
        assert other in text  # declared on the root, usable by chunks


class TestLazyText:
    def test_thunk_called_at_serialization(self):
        calls = []

        def value():
            calls.append(1)
            return "late"

        element = E(QName(NS, "root"))
        element.children.append(LazyText(value))
        assert calls == []
        assert ">late<" in serialize(element)
        assert calls == [1]

    def test_lazy_text_escapes(self):
        element = E(QName(NS, "root"))
        element.children.append(LazyText(lambda: "<&>"))
        assert "&lt;&amp;&gt;" in serialize(element)

    def test_lazy_text_in_chunked_serialization(self):
        element = E(QName(NS, "root"))
        element.children.append(LazyText(lambda: "tail"))
        assert "".join(serialize_chunks(element)) == serialize(element)


# -- one writer: serialize is the join of what serialize_chunks yields ------------


def _q(local):
    return QName(NS, local)


def _counted():
    """A value after a streamed region that is only known once the
    region has been drained: how many items it produced."""
    seen = []

    def chunks(q):
        item = q(_q("item"))
        for value in "abc":
            seen.append(value)
            yield f"<{item}>{value}</{item}>"

    count = E(_q("count"))
    count.children.append(LazyText(lambda: len(seen)))
    return E(
        _q("root"), StreamedElement(_q("list"), chunks), count, E(_q("after"), "a & b")
    )


_OPEN = '<ns0:root xmlns:ns0="urn:test:stream">'

#: name → (tree factory — a streamed source is drained once —, the
#: chunks of the compact document, the same document indented).  The
#: strings were produced by the two writers this one replaced.
WRITER_CASES = {
    "no region": (
        lambda: E(_q("root"), E(_q("a"), "x < y"), E(_q("b")), "tail"),
        [_OPEN + "<ns0:a>x &lt; y</ns0:a><ns0:b/>tail</ns0:root>"],
        _OPEN + "\n  <ns0:a>x &lt; y</ns0:a>\n  <ns0:b/>tail\n</ns0:root>",
    ),
    "one region": (
        lambda: E(
            _q("root"),
            E(_q("before"), "b"),
            _streamed(["one", "t&o"]),
            E(_q("after"), "a"),
        ),
        [
            _OPEN + "<ns0:before>b</ns0:before><ns0:list>",
            "<ns0:item>one</ns0:item>",
            "<ns0:item>t&amp;o</ns0:item>",
            "</ns0:list><ns0:after>a</ns0:after></ns0:root>",
        ],
        _OPEN + "\n  <ns0:before>b</ns0:before>\n  <ns0:list><ns0:item>one</ns0:item>"
        "<ns0:item>t&amp;o</ns0:item></ns0:list>\n  <ns0:after>a</ns0:after>\n</ns0:root>",
    ),
    "two regions": (
        lambda: E(_q("root"), _streamed(["1"]), E(_q("mid")), _streamed(["2", "3"])),
        [
            _OPEN + "<ns0:list>",
            "<ns0:item>1</ns0:item>",
            "</ns0:list><ns0:mid/><ns0:list>",
            "<ns0:item>2</ns0:item>",
            "<ns0:item>3</ns0:item>",
            "</ns0:list></ns0:root>",
        ],
        _OPEN + "\n  <ns0:list><ns0:item>1</ns0:item></ns0:list>\n  <ns0:mid/>\n  <ns0:list>"
        "<ns0:item>2</ns0:item><ns0:item>3</ns0:item></ns0:list>\n</ns0:root>",
    ),
    "empty region": (
        lambda: E(_q("root"), E(_q("before")), _streamed([])),
        [_OPEN + "<ns0:before/><ns0:list/></ns0:root>"],
        _OPEN + "\n  <ns0:before/>\n  <ns0:list/>\n</ns0:root>",
    ),
    "lazy text after a region": (
        _counted,
        [
            _OPEN + "<ns0:list>",
            "<ns0:item>a</ns0:item>",
            "<ns0:item>b</ns0:item>",
            "<ns0:item>c</ns0:item>",
            "</ns0:list><ns0:count>3</ns0:count><ns0:after>a &amp; b</ns0:after></ns0:root>",
        ],
        _OPEN + "\n  <ns0:list><ns0:item>a</ns0:item><ns0:item>b</ns0:item><ns0:item>c</ns0:item>"
        "</ns0:list>\n  <ns0:count>3</ns0:count>\n  <ns0:after>a &amp; b</ns0:after>\n</ns0:root>",
    ),
}


class TestOneWriter:
    @pytest.mark.parametrize("case", WRITER_CASES)
    def test_join_of_the_chunks_is_the_document(self, case):
        build, chunks, _ = WRITER_CASES[case]
        assert list(serialize_chunks(build())) == chunks
        assert serialize(build()) == "".join(chunks)
        declaration = '<?xml version="1.0" encoding="UTF-8"?>\n'
        assert "".join(serialize_chunks(build(), xml_declaration=True)) == (
            serialize(build(), xml_declaration=True)
        ) == declaration + "".join(chunks)

    @pytest.mark.parametrize("case", WRITER_CASES)
    def test_indent_mode(self, case):
        """Static markup is indented; a streamed region stays compact."""
        build, _, indented = WRITER_CASES[case]
        assert serialize(build(), indent="  ") == indented
