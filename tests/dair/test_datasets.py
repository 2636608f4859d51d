"""Dataset format emitting/parsing tests: what ``stream_rowset`` writes,
read back through real XML text."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import InvalidDatasetFormatFault
from repro.dair import (
    CSV_FORMAT_URI,
    SQLROWSET_FORMAT_URI,
    WEBROWSET_FORMAT_URI,
    Rowset,
    parse_rowset,
)
from repro.dair.datasets import stream_rowset
from repro.dair.messages import SQLExecuteResponse
from repro.relational import Database
from repro.relational.types import NULL
from repro.soap import Envelope, MessageHeaders
from repro.xmlutil import RowRun, XmlElement, parse, serialize, stored_children
from tests.xmlutil import reference_parser

FORMATS = [SQLROWSET_FORMAT_URI, WEBROWSET_FORMAT_URI, CSV_FORMAT_URI]


def _written(format_uri, rowset):
    """The dataset as a consumer receives it: emitted, then parsed."""
    return parse(serialize(stream_rowset(format_uri, rowset)))


@pytest.fixture()
def rowset():
    return Rowset(
        columns=["id", "name", "price"],
        types=["INTEGER", "VARCHAR", "FLOAT"],
        rows=[
            ("1", "widget", "9.99"),
            ("2", NULL, "0.5"),
            ("3", "it's, \"quoted\"", NULL),
        ],
    )


class TestFormats:
    @pytest.mark.parametrize("format_uri", FORMATS)
    def test_round_trip(self, format_uri, rowset):
        assert parse_rowset(format_uri, _written(format_uri, rowset)) == rowset

    def test_unknown_format_faults(self, rowset):
        with pytest.raises(InvalidDatasetFormatFault):
            stream_rowset("urn:fmt:nope", rowset)
        with pytest.raises(InvalidDatasetFormatFault):
            parse_rowset("urn:fmt:nope", _written(FORMATS[0], rowset))

    def test_sqlrowset_structure(self, rowset):
        rendered = _written(SQLROWSET_FORMAT_URI, rowset)
        assert rendered.tag.local == "SQLRowset"
        assert len(rendered.descendants("{%s}Row" % rendered.tag.namespace)) == 3

    def test_webrowset_structure(self, rowset):
        rendered = _written(WEBROWSET_FORMAT_URI, rowset)
        assert rendered.tag.local == "webRowSet"
        ns = rendered.tag.namespace
        count = rendered.find("{%s}metadata" % ns).findtext(
            "{%s}column-count" % ns
        )
        assert count == "3"

    def test_csv_is_compact(self, rowset):
        csv_size = len(serialize(stream_rowset(CSV_FORMAT_URI, rowset)))
        web_size = len(serialize(stream_rowset(WEBROWSET_FORMAT_URI, rowset)))
        assert csv_size < web_size

    def test_empty_rowset_round_trips(self):
        empty = Rowset(columns=["a"], types=[""], rows=[])
        for format_uri in FORMATS:
            parsed = parse_rowset(format_uri, _written(format_uri, empty))
            assert parsed.columns == ["a"]
            assert parsed.rows == []

    def test_from_result_preserves_nulls(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1),(NULL)")
        rowset = Rowset.from_result(db.execute("SELECT a FROM t"))
        assert rowset.rows == [("1",), (NULL,)]

    def test_slice_windows(self, rowset):
        window = rowset.slice(1, 1)
        assert window.rows == [("2", NULL, "0.5")]
        assert window.columns == rowset.columns

    def test_slice_beyond_end_is_empty(self, rowset):
        assert rowset.slice(10, 5).rows == []

    def test_slice_negative_rejected(self, rowset):
        with pytest.raises(ValueError):
            rowset.slice(-1, 2)


_VALUES = st.one_of(
    st.just(NULL),
    # what CSV must quote or keep apart from its NULL token, verbatim
    st.sampled_from(["\\N", '"\\N"', "\\N,", '"', ",", "\n", "\r", "\r\n", ""]),
    st.text(
        alphabet=st.characters(
            codec="utf-8", categories=("L", "N", "P", "Zs"),
            include_characters=',"\n\r\\N',
        ),
        max_size=25,
    ),
)


class TestFormatProperties:
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda width: st.tuples(
                st.just([f"c{i}" for i in range(width)]),
                st.lists(
                    st.tuples(*([_VALUES] * width)).map(tuple), max_size=12
                ),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_all_formats_round_trip(self, data):
        columns, rows = data
        rowset = Rowset(columns, ["" for _ in columns], rows)
        for format_uri in FORMATS:
            assert parse_rowset(format_uri, _written(format_uri, rowset)) == rowset


def _reply(format_uri: str, rows: int = 1000) -> bytes:
    """A SQLExecute reply as the wire carries it: *rows* rows of five
    columns, one value of each row needing an escape."""
    rowset = Rowset(
        ["id", "order_id", "product", "qty", "price"],
        ["INTEGER", "INTEGER", "VARCHAR(20)", "INTEGER", "FLOAT"],
        [
            (str(i), str(i // 3), f"part-{i % 7} & co", str(i % 20), f"{i * 0.25:.2f}")
            for i in range(rows)
        ],
    )
    response = SQLExecuteResponse(
        dataset_format_uri=format_uri, dataset=stream_rowset(format_uri, rowset)
    )
    envelope = Envelope(
        headers=MessageHeaders(to="http://127.0.0.1/dai", action="urn:reply"),
        payload=response.to_xml(),
    )
    return b"".join(envelope.iter_bytes())


def _decode(reply: bytes):
    response = SQLExecuteResponse.from_xml(Envelope.from_bytes(reply).payload)
    return response, parse_rowset(response.dataset_format_uri, response.dataset)


class TestRowsFromTokens:
    """A consumer decodes a dataset reply into tuples: the parser hands
    the row lattice to ``parse_rowset`` as tuples, and no row or value
    node is built unless something reads the tree."""

    @pytest.mark.parametrize("format_uri", FORMATS[:2])
    def test_a_1000_row_reply_builds_no_row_or_value_node(self, format_uri):
        response, rowset = _decode(_reply(format_uri))
        assert len(rowset.rows) == 1000
        assert rowset.rows[7] == ("7", "2", "part-0 & co", "7", "1.75")
        elements, runs = [], []
        stack = [response.dataset]
        while stack:  # the tree as stored: nothing here builds a node
            for item in stored_children(stack.pop()):
                if isinstance(item, RowRun):
                    runs.append(item)
                elif isinstance(item, XmlElement):
                    elements.append(item.tag.local)
                    stack.append(item)
        assert [len(run.rows) for run in runs] == [1000]
        assert not {"Row", "Value", "currentRow", "columnValue"} & set(elements)
        # a tree reader sees every row, built as the oracle parser builds it
        text = _reply(format_uri).decode()
        assert serialize(parse(text)) == serialize(reference_parser.parse(text))

    def test_decoding_a_1000_row_reply_peaks_under_five_times_its_size(self):
        reply = _reply(SQLROWSET_FORMAT_URI)
        _decode(reply)  # warm: interned names, compiled run patterns
        tracemalloc.start()
        try:
            _decode(reply)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * len(reply), (peak, len(reply))
