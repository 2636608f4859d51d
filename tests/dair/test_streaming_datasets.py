"""The dataset emitters against the oracle renderers, type metadata
plumbing and CSV robustness.

``stream_rowset`` is the only writer of the three formats in ``src/``;
``tests/dair/reference_render.py`` states the same documents as element
trees.  The fuzz below holds the two equal byte for byte, whichever row
source feeds the emitter and whichever way the serializer is driven.
"""

import random

import pytest

from repro.dair import (
    CSV_FORMAT_URI,
    SQLROWSET_FORMAT_URI,
    WEBROWSET_FORMAT_URI,
)
from repro.dair.datasets import (
    Rowset,
    StreamingRowset,
    parse_rowset,
    stream_rowset,
)
from repro.relational import Database
from repro.relational.types import NULL
from repro.xmlutil import parse, serialize, serialize_chunks
from tests.dair.reference_render import render_rowset

ALL_FORMATS = [SQLROWSET_FORMAT_URI, WEBROWSET_FORMAT_URI, CSV_FORMAT_URI]

NASTY = [
    "plain",
    "",
    "a,b",
    'quo"te',
    "line\nbreak",
    "\\N",
    '"',
    ",",
    "\n",
    "\r",
    "<&>",
    '""\\N""',
    "trailing,",
]


def _random_rowset(rng: random.Random, min_columns: int = 0) -> Rowset:
    """Zero to four columns (a row of no columns is ``<Row/>``), zero to
    six rows or enough to cross the emitters' 64-row batches."""
    column_count = rng.randint(min_columns, 4)
    columns = [f"c{i}" for i in range(column_count)]
    types = [
        rng.choice(["", "INTEGER", "VARCHAR(16)", "DECIMAL(10,2)"])
        for _ in range(column_count)
    ]
    rows = [
        tuple(
            NULL if rng.random() < 0.15 else rng.choice(NASTY)
            for _ in range(column_count)
        )
        for _ in range(rng.choice([0, 1, 2, 3, 4, 5, 6, 6, 64, 65, 130]))
    ]
    return Rowset(columns, types, rows)


def _lazy(rowset: Rowset) -> StreamingRowset:
    return StreamingRowset(rowset.columns, rowset.types, iter(rowset.rows))


def _written(format_uri, rowset):
    """The dataset as a consumer receives it: emitted, then parsed."""
    return parse(serialize(stream_rowset(format_uri, rowset)))


class TestStreamingRowset:
    def _streaming(self, rows):
        return StreamingRowset(["k"], ["INTEGER"], iter(rows))

    def test_iteration_counts_rows(self):
        rowset = self._streaming([(str(i),) for i in range(5)])
        assert list(rowset) == [(str(i),) for i in range(5)]
        assert rowset.rows_streamed == 5

    def test_window_skips_and_bounds(self):
        rowset = self._streaming([(str(i),) for i in range(10)])
        assert list(rowset.window(2, 3)) == [("2",), ("3",), ("4",)]
        # Regression: the window must not pull a row beyond its bound —
        # 2 skipped + 3 yielded, the 6th row stays in the stream.
        assert rowset.rows_streamed == 5
        assert next(iter(rowset)) == ("5",)

    def test_window_count_none_means_rest(self):
        rowset = self._streaming([(str(i),) for i in range(4)])
        assert list(rowset.window(1)) == [("1",), ("2",), ("3",)]

    def test_window_count_zero_is_empty(self):
        rowset = self._streaming([("0",)])
        assert list(rowset.window(0, 0)) == []
        assert rowset.rows_streamed == 0

    def test_window_negative_rejected(self):
        rowset = self._streaming([])
        with pytest.raises(ValueError):
            list(rowset.window(-1))
        with pytest.raises(ValueError):
            list(rowset.window(0, -1))

    def test_from_result_is_lazy_and_lexicalizes(self):
        db = Database("lazy")
        db.execute("CREATE TABLE t (k INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1),(2)")
        result = db.create_session().execute("SELECT k FROM t", stream=True)
        rowset = StreamingRowset.from_result(result)
        assert rowset.rows_streamed == 0
        assert rowset.materialize().rows == [("1",), ("2",)]


class TestEmitterParity:
    """An emitted dataset must serialize byte-for-byte identically to
    the oracle's tree of the same rowset, for every format, from either
    kind of row source, through either serializer entry point."""

    @pytest.mark.parametrize("format_uri", ALL_FORMATS)
    def test_fuzzed_parity(self, format_uri):
        rng = random.Random(20260806)
        for _ in range(150):
            rowset = _random_rowset(rng)
            expected = serialize(render_rowset(format_uri, rowset))
            for source in (lambda: rowset, lambda: _lazy(rowset)):
                element = stream_rowset(format_uri, source())
                assert "".join(serialize_chunks(element)) == expected
                # Drained in one piece: loopback, and every reply whose
                # rows were already in memory.
                assert serialize(stream_rowset(format_uri, source())) == expected

    @pytest.mark.parametrize("format_uri", ALL_FORMATS)
    def test_empty_rowset_parity(self, format_uri):
        rowset = Rowset([], [], [])
        eager = serialize(render_rowset(format_uri, rowset))
        assert "".join(serialize_chunks(stream_rowset(format_uri, rowset))) == eager
        assert serialize(stream_rowset(format_uri, _lazy(rowset))) == eager

    @pytest.mark.parametrize("format_uri", ALL_FORMATS)
    def test_streaming_source_parity(self, format_uri):
        rowset = Rowset(["a", "b"], ["INTEGER", ""], [("1", "x"), (NULL, "")])
        eager = serialize(render_rowset(format_uri, rowset))
        assert "".join(serialize_chunks(stream_rowset(format_uri, _lazy(rowset)))) == eager

    @pytest.mark.parametrize("format_uri", ALL_FORMATS)
    def test_laziness_follows_the_row_source(self, format_uri):
        """Nobody says whether a dataset is lazy: rows in memory are
        not, rows behind an iterator are, and a copy keeps the answer."""
        rowset = Rowset(["a"], [""], [("1",)])
        assert stream_rowset(format_uri, rowset).lazy is False
        assert stream_rowset(format_uri, rowset).copy().lazy is False
        assert stream_rowset(format_uri, _lazy(rowset)).lazy is True
        assert stream_rowset(format_uri, _lazy(rowset)).copy().lazy is True
        with pytest.raises(AttributeError):
            stream_rowset(format_uri, rowset).lazy = True


class TestTypeMetadataRoundTrip:
    """Satellite regression: SQL type names survive result → dataset →
    parse for every format (Rowset.from_result used to drop them)."""

    @pytest.fixture()
    def typed_result(self):
        db = Database("typed")
        db.execute(
            "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(8), d DECIMAL(10))"
        )
        db.execute("INSERT INTO t VALUES (1,'one',1.25)")
        return db.create_session().execute("SELECT k, v, d FROM t")

    def test_from_result_keeps_types(self, typed_result):
        rowset = Rowset.from_result(typed_result)
        assert rowset.types == ["INTEGER", "VARCHAR(8)", "DECIMAL(10)"]

    @pytest.mark.parametrize("format_uri", ALL_FORMATS)
    def test_types_round_trip(self, typed_result, format_uri):
        rowset = Rowset.from_result(typed_result)
        parsed = parse_rowset(format_uri, _written(format_uri, rowset))
        assert parsed.types == ["INTEGER", "VARCHAR(8)", "DECIMAL(10)"]
        assert parsed.columns == ["k", "v", "d"]
        assert parsed.rows == rowset.rows

    def test_comma_bearing_type_survives_csv(self):
        rowset = Rowset(["d"], ["DECIMAL(10,2)"], [("1.25",)])
        parsed = parse_rowset(CSV_FORMAT_URI, _written(CSV_FORMAT_URI, rowset))
        assert parsed.types == ["DECIMAL(10,2)"]


class TestCsvRoundTrip:
    def test_fuzzed_round_trip(self):
        rng = random.Random(8062026)
        for _ in range(300):
            # CSV cannot say "no columns": an empty header reads as one.
            rowset = _random_rowset(rng, min_columns=1)
            parsed = parse_rowset(
                CSV_FORMAT_URI, _written(CSV_FORMAT_URI, rowset)
            )
            assert parsed.columns == rowset.columns
            assert parsed.rows == rowset.rows

    def test_quoted_null_token_stays_literal(self):
        rowset = Rowset(["c"], [""], [(NULL,), ("\\N",)])
        parsed = parse_rowset(CSV_FORMAT_URI, _written(CSV_FORMAT_URI, rowset))
        assert parsed.rows[0][0] is NULL
        assert parsed.rows[1][0] == "\\N"

    def test_embedded_structure_characters(self):
        rowset = Rowset(
            ["a", "b"],
            ["", ""],
            [('x,"y"', "line\none"), ("", ","), ('"', "\r")],
        )
        parsed = parse_rowset(CSV_FORMAT_URI, _written(CSV_FORMAT_URI, rowset))
        assert parsed.rows == rowset.rows
