"""Rowset dataset formats.

A :class:`Rowset` is the neutral in-memory form (column names, SQL type
names, row tuples).  Three wire renderings are supported, negotiated via
``DatasetMap`` (paper §4.1: "the DataFormatURI specifies the format in
which the data should be returned ... valid return formats are specified
in one or more DatasetMap properties"):

* **SQLRowset XML** — the WS-DAIR native rendering;
* **WebRowSet** — the Sun JDBC WebRowSet dialect Figure 5 calls out;
* **CSV** — a compact textual rendering inside a wrapper element.

All three parse back to an equal :class:`Rowset` (values come back as
their lexical strings; NULL is preserved exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from repro.core.faults import InvalidDatasetFormatFault
from repro.dair.namespaces import (
    CSV_FORMAT_URI,
    SQLROWSET_FORMAT_URI,
    WEBROWSET_FORMAT_URI,
    WEBROWSET_NS,
    WSDAIR_NS,
)
from repro.relational.engine import ResultSet
from repro.relational.types import NULL
from repro.xmlutil import (
    QName,
    StreamedElement,
    Text,
    XmlElement,
    escape_attribute,
    escape_text,
    interned_qname,
)

_WEBROWSET_NS = WEBROWSET_NS


def _result_types(result: ResultSet) -> list[str]:
    """Column type names for a result, aligned to its columns."""
    if len(result.column_types) == len(result.columns):
        return list(result.column_types)
    return ["" for _ in result.columns]


@dataclass
class Rowset:
    """Format-neutral rowset: names, type names, lexical row values."""

    columns: list[str]
    types: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)

    @classmethod
    def from_result(cls, result: ResultSet) -> "Rowset":
        """Capture a relational result set (values become lexical text).

        A streaming result is drained here; use :class:`StreamingRowset`
        to keep it lazy.
        """
        return cls(
            columns=list(result.columns),
            types=_result_types(result),
            rows=list(_lexical_rows(result)),
        )

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def slice(self, start: int, count: int | None = None) -> "Rowset":
        """Rows [start, start+count) — the GetTuples paging window.

        ``count=None`` means the rest of the rowset (a GetTuples request
        that omits Count); an explicit 0 is an empty window.
        """
        if start < 0 or (count is not None and count < 0):
            raise ValueError("start and count must be non-negative")
        stop = None if count is None else start + count
        return Rowset(
            columns=list(self.columns),
            types=list(self.types),
            rows=self.rows[start:stop],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rowset):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows


class StreamingRowset:
    """A rowset whose rows come lazily from a one-shot iterator.

    Columns and type names are known up front (they come from catalog
    metadata, not the data); rows are lexicalized as they are pulled, so
    peak memory is one row regardless of result size.  ``rows_streamed``
    counts rows already yielded — after exhaustion it is the total, which
    is how a communication area serialized *after* a streamed dataset
    reports the true row count.
    """

    def __init__(
        self,
        columns: Iterable[str],
        types: Iterable[str],
        source: Iterable[tuple],
    ) -> None:
        self.columns = list(columns)
        self.types = list(types)
        self._source = iter(source)
        self.rows_streamed = 0

    @classmethod
    def from_result(cls, result: ResultSet) -> "StreamingRowset":
        """Wrap a result set without draining it."""
        return cls(
            list(result.columns), _result_types(result), _lexical_rows(result)
        )

    def __iter__(self) -> Iterator[tuple]:
        for row in self._source:
            self.rows_streamed += 1
            yield row

    def window(self, start: int, count: int | None = None) -> Iterator[tuple]:
        """Spill-free forward window: skip to *start*, yield up to
        *count* rows (``None`` = the rest).  Skipped rows are discarded
        as they are pulled; the stream cannot rewind."""
        if start < 0 or (count is not None and count < 0):
            raise ValueError("start and count must be non-negative")
        if count == 0:
            return
        remaining = count
        skipped = 0
        for row in self:
            if skipped < start:
                skipped += 1
                continue
            yield row
            if remaining is not None:
                remaining -= 1
                if remaining == 0:
                    return

    def materialize(self) -> Rowset:
        """Drain the stream into an ordinary :class:`Rowset`."""
        return Rowset(list(self.columns), list(self.types), list(self))


def _lexical_rows(result: ResultSet) -> Iterator[tuple]:
    """A result's rows, every value as its lexical text (NULL kept),
    produced as they are pulled."""
    return (
        tuple(
            [
                str(v)
                if type(v) is int
                else v
                if type(v) is str
                else NULL if v is NULL else _lexical(v)
                for v in row
            ]
        )
        for row in result.iter_rows()
    )


def _lexical(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


#: Format URIs every SQL resource advertises, in preference order.
ALL_FORMATS = [SQLROWSET_FORMAT_URI, WEBROWSET_FORMAT_URI, CSV_FORMAT_URI]


def parse_rowset(data_format_uri: str, element: XmlElement) -> Rowset:
    """Parse a rendering back to a :class:`Rowset`."""
    parser = _PARSERS.get(data_format_uri)
    if parser is None:
        raise InvalidDatasetFormatFault(
            f"unsupported dataset format {data_format_uri!r}"
        )
    return parser(element)


# ---------------------------------------------------------------------------
# SQLRowset XML (WS-DAIR native)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _q(local: str) -> QName:
    return QName(WSDAIR_NS, local)


def _parse_sqlrowset(element: XmlElement) -> Rowset:
    metadata = element.find(_q("ColumnMetadata"))
    columns: list[str] = []
    types: list[str] = []
    if metadata is not None:
        for column in metadata.findall(_q("Column")):
            columns.append(column.get("name", "") or "")
            types.append(column.get("type", "") or "")
    rows = []
    # One pass over raw children with the tag QNames bound once.
    # Freshly parsed trees carry the interned instances, so tags
    # compare by identity; equality is the fallback for hand-built
    # trees.  A Value's single merged Text child is read directly
    # instead of through the joining ``text`` property.
    row_qi = interned_qname(WSDAIR_NS, "Row")
    value_qi = interned_qname(WSDAIR_NS, "Value")
    null_qi = interned_qname(WSDAIR_NS, "Null")
    for row_el in element.children:
        if type(row_el) is not XmlElement or (
            row_el.tag is not row_qi and row_el.tag != row_qi
        ):
            continue
        values = []
        append = values.append
        for child in row_el.children:
            if type(child) is not XmlElement:
                continue
            tag = child.tag
            if tag is value_qi:
                inner = child.children
                if len(inner) == 1 and type(inner[0]) is Text:
                    append(inner[0].value)
                else:
                    append(child.text)
            elif tag is null_qi or tag == null_qi:
                append(NULL)
            else:
                append(child.text)
        rows.append(tuple(values))
    return Rowset(columns, types, rows)


# ---------------------------------------------------------------------------
# WebRowSet (Sun JDBC dialect)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _w(local: str) -> QName:
    return QName(_WEBROWSET_NS, local)


def _parse_webrowset(element: XmlElement) -> Rowset:
    metadata = element.find(_w("metadata"))
    columns: list[str] = []
    types: list[str] = []
    if metadata is not None:
        for definition in metadata.findall(_w("column-definition")):
            columns.append(definition.findtext(_w("column-name"), "") or "")
            types.append(definition.findtext(_w("column-type-name"), "") or "")
    rows = []
    data = element.find(_w("data"))
    if data is not None:
        for current in data.findall(_w("currentRow")):
            values = []
            for column_value in current.findall(_w("columnValue")):
                if column_value.get("null") == "true":
                    values.append(NULL)
                else:
                    values.append(column_value.text)
            rows.append(tuple(values))
    return Rowset(columns, types, rows)


# ---------------------------------------------------------------------------
# CSV-in-XML
# ---------------------------------------------------------------------------

_NULL_TOKEN = "\\N"


def _csv_escape(value: str) -> str:
    if value == _NULL_TOKEN or any(c in value for c in ',"\n\r'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _csv_split_fields(line: str) -> list[tuple[str, bool]]:
    """Split one record into (text, was_quoted) fields.

    The quoted flag distinguishes the NULL token ``\\N`` (bare) from a
    literal value ``"\\N"`` (quoted) — dropping it during unquoting is
    exactly how a quoted literal would collapse into NULL on parse.
    """
    fields: list[tuple[str, bool]] = []
    buffer: list[str] = []
    index = 0
    in_quotes = False
    quoted = False
    while index < len(line):
        ch = line[index]
        if in_quotes:
            if ch == '"':
                if index + 1 < len(line) and line[index + 1] == '"':
                    buffer.append('"')
                    index += 1
                else:
                    in_quotes = False
            else:
                buffer.append(ch)
        elif ch == '"':
            in_quotes = True
            quoted = True
        elif ch == ",":
            fields.append(("".join(buffer), quoted))
            buffer.clear()
            quoted = False
        else:
            buffer.append(ch)
        index += 1
    fields.append(("".join(buffer), quoted))
    return fields


def _csv_split(line: str) -> list[str]:
    return [text for text, _ in _csv_split_fields(line)]


def _set_csv_types(element: XmlElement, rowset) -> None:
    """CSV bodies cannot carry type names, so they ride the container
    element as a CSV-escaped attribute (escaped because type names like
    ``DECIMAL(10,2)`` contain the separator).  Omitted when no column
    has a type, keeping untyped wire bytes unchanged."""
    if any(rowset.types):
        element.set(
            "types", ",".join(_csv_escape(t) for t in rowset.types)
        )


def _split_records(text: str) -> list[str]:
    """Split CSV text into records, honouring quoted newlines."""
    records: list[str] = []
    buffer: list[str] = []
    in_quotes = False
    for ch in text:
        if ch == '"':
            in_quotes = not in_quotes
            buffer.append(ch)
        elif ch == "\n" and not in_quotes:
            records.append("".join(buffer))
            buffer.clear()
        else:
            buffer.append(ch)
    records.append("".join(buffer))
    return records


def _parse_csv(element: XmlElement) -> Rowset:
    text = element.text
    if not text:
        return Rowset([], [], [])
    lines = _split_records(text)
    columns = _csv_split(lines[0]) if lines else []
    rows = []
    for line in lines[1:]:
        rows.append(
            tuple(
                NULL if field == _NULL_TOKEN and not quoted else field
                for field, quoted in _csv_split_fields(line)
            )
        )
    types_attr = element.get("types")
    types = _csv_split(types_attr) if types_attr else []
    if len(types) != len(columns):
        types = ["" for _ in columns]
    return Rowset(columns, types, rows)


_PARSERS = {
    SQLROWSET_FORMAT_URI: _parse_sqlrowset,
    WEBROWSET_FORMAT_URI: _parse_webrowset,
    CSV_FORMAT_URI: _parse_csv,
}


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------
#
# The one writer of each format.  An emitter wraps a rowset in a
# StreamedElement whose chunk source serializes column metadata as one
# chunk and then the rows, a batch to a chunk — no tree and no full
# string ever exist.  The rowset may be a materialized Rowset or a
# StreamingRowset; rows are pulled only when the serializer (and so the
# transport) is ready to write them.  tests/dair/reference_render.py
# states the same three documents as element trees and a fuzz holds the
# two equal byte for byte.


def stream_rowset(
    data_format_uri: str, rowset: Rowset | StreamingRowset
) -> StreamedElement:
    """Emit *rowset* in the requested format; faults on unknown URIs."""
    emitter = _EMITTERS.get(data_format_uri)
    if emitter is None:
        raise InvalidDatasetFormatFault(
            f"unsupported dataset format {data_format_uri!r}"
        )
    return emitter(rowset)


class _Dataset(StreamedElement):
    """What :func:`stream_rowset` returns: a streamed element that knows
    its row source, and so whether rows are still to be pulled."""

    __slots__ = ("rowset",)

    def __init__(self, tag: QName, chunk_source, rowset, attributes=None) -> None:
        super().__init__(tag, chunk_source, attributes=attributes)
        self.rowset = rowset

    @property
    def lazy(self) -> bool:
        """False for a materialized :class:`Rowset`: emitting it costs
        no more memory than it already holds."""
        return not isinstance(self.rowset, Rowset)

    def copy(self) -> "_Dataset":
        return _Dataset(
            self.tag, self.chunk_source, self.rowset, dict(self.attributes)
        )


def _rows_of(rowset: Rowset | StreamingRowset) -> Iterator[tuple]:
    if isinstance(rowset, Rowset):
        return iter(rowset.rows)
    return iter(rowset)


def _type_of(rowset: Rowset | StreamingRowset, index: int) -> str:
    if index < len(rowset.types):
        return rowset.types[index]
    return ""


#: Rows accumulated per yielded chunk.  One-chunk-per-row makes the
#: serializer/transport handshake the per-row cost; batching amortizes it
#: while the HTTP layer's coalescing buffer (8 KiB) still bounds latency.
_ROW_BATCH = 64


def _row_chunks(
    rows: Iterator[tuple], row_tag: str, value_tag: str, null_v: str
) -> Iterator[str]:
    """The row loop of both element-per-value formats, which differ in
    their tag names and in how a NULL is spelled, nothing else."""
    # Static markup is rendered once; the row loop only escapes and
    # joins.  Rows with no NULL/empty values — the common shape by
    # far — become one join over the </Value><Value> seam.
    open_r, close_r, empty_r = f"<{row_tag}>", f"</{row_tag}>", f"<{row_tag}/>"
    open_v, close_v, empty_v = f"<{value_tag}>", f"</{value_tag}>", f"<{value_tag}/>"
    pre_rv = open_r + open_v
    post_vr = close_v + close_r
    join_vv = (close_v + open_v).join
    escape = escape_text
    batch: list[str] = []
    for row in rows:
        if row and NULL not in row and "" not in row:
            batch.append(
                pre_rv
                + join_vv(
                    [
                        v
                        if "&" not in v and "<" not in v and ">" not in v
                        else escape(v)
                        for v in row
                    ]
                )
                + post_vr
            )
        elif not row:
            batch.append(empty_r)
        else:
            parts = [open_r]
            for value in row:
                if value is NULL:
                    parts.append(null_v)
                elif value == "":
                    parts.append(empty_v)
                else:
                    parts.append(open_v)
                    parts.append(escape(value))
                    parts.append(close_v)
            parts.append(close_r)
            batch.append("".join(parts))
        if len(batch) >= _ROW_BATCH:
            yield "".join(batch)
            batch.clear()
    if batch:
        yield "".join(batch)


def _stream_sqlrowset(rowset: Rowset | StreamingRowset) -> StreamedElement:
    def chunks(q) -> Iterator[str]:
        metadata_tag = q(_q("ColumnMetadata"))
        parts = [f"<{metadata_tag}"]
        if not rowset.columns:
            parts.append("/>")
        else:
            parts.append(">")
            column_tag = q(_q("Column"))
            for index, name in enumerate(rowset.columns):
                parts.append(f'<{column_tag} name="{escape_attribute(name)}"')
                type_name = _type_of(rowset, index)
                if type_name:
                    parts.append(f' type="{escape_attribute(type_name)}"')
                parts.append("/>")
            parts.append(f"</{metadata_tag}>")
        yield "".join(parts)
        yield from _row_chunks(
            _rows_of(rowset), q(_q("Row")), q(_q("Value")), f"<{q(_q('Null'))}/>"
        )

    return _Dataset(_q("SQLRowset"), chunks, rowset)


def _stream_webrowset(rowset: Rowset | StreamingRowset) -> StreamedElement:
    def chunks(q) -> Iterator[str]:
        def simple(tag: str, text: str) -> str:
            if text:
                return f"<{tag}>{escape_text(text)}</{tag}>"
            return f"<{tag}/>"

        metadata_tag = q(_w("metadata"))
        definition_tag = q(_w("column-definition"))
        parts = [
            f"<{metadata_tag}>",
            simple(q(_w("column-count")), str(len(rowset.columns))),
        ]
        for index, name in enumerate(rowset.columns):
            parts.append(f"<{definition_tag}>")
            parts.append(simple(q(_w("column-index")), str(index + 1)))
            parts.append(simple(q(_w("column-name")), name))
            type_name = _type_of(rowset, index)
            if type_name:
                parts.append(simple(q(_w("column-type-name")), type_name))
            parts.append(f"</{definition_tag}>")
        parts.append(f"</{metadata_tag}>")
        yield "".join(parts)

        data_tag = q(_w("data"))
        value_tag = q(_w("columnValue"))
        rows = _row_chunks(
            _rows_of(rowset),
            q(_w("currentRow")),
            value_tag,
            f'<{value_tag} null="true"/>',
        )
        first = next(rows, None)
        if first is None:
            yield f"<{data_tag}/>"
        else:
            yield f"<{data_tag}>" + first
            yield from rows
            yield f"</{data_tag}>"

    return _Dataset(_w("webRowSet"), chunks, rowset)


def _stream_csv(rowset: Rowset | StreamingRowset) -> StreamedElement:
    def chunks(q) -> Iterator[str]:
        header = ",".join(_csv_escape(name) for name in rowset.columns)
        if header:
            yield escape_text(header)
        batch: list[str] = []
        for row in _rows_of(rowset):
            line = ",".join(
                _NULL_TOKEN if value is NULL else _csv_escape(value)
                for value in row
            )
            batch.append(escape_text("\n" + line))
            if len(batch) >= _ROW_BATCH:
                yield "".join(batch)
                batch.clear()
        if batch:
            yield "".join(batch)

    element = _Dataset(_q("CsvRowset"), chunks, rowset)
    element.set("columns", len(rowset.columns))
    _set_csv_types(element, rowset)
    return element


_EMITTERS = {
    SQLROWSET_FORMAT_URI: _stream_sqlrowset,
    WEBROWSET_FORMAT_URI: _stream_webrowset,
    CSV_FORMAT_URI: _stream_csv,
}
