"""Dataset format emitting/parsing tests: what ``stream_rowset`` writes,
read back through real XML text."""

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
from repro.relational import Database
from repro.relational.types import NULL
from repro.xmlutil import parse, serialize

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
    st.text(
        alphabet=st.characters(
            codec="utf-8", categories=("L", "N", "P", "Zs"),
            include_characters=',"\n',
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
