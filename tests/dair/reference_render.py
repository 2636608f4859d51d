"""The tree renderers of the three dataset formats — the oracle.

These built every dataset reply as an ``E()`` tree of one ``XmlElement``
per value until the incremental emitters of
:mod:`repro.dair.datasets` became the only writers in ``src/``.  They
moved here verbatim (as the classic parser and the three interpreters
moved before them) and are what ``test_streaming_datasets.py`` holds the
emitters to, byte for byte: a format is stated twice, once as the tree
a reader would expect and once as the text that is actually sent.

Nothing here is imported from the module under test except the
``Rowset`` value type: names, CSV escaping and the CSV type attribute
are stated again, so a slip in either copy shows up as a difference.
"""

from functools import lru_cache

from repro.core.faults import InvalidDatasetFormatFault
from repro.dair.datasets import Rowset
from repro.dair.namespaces import (
    CSV_FORMAT_URI,
    SQLROWSET_FORMAT_URI,
    WEBROWSET_FORMAT_URI,
    WEBROWSET_NS,
    WSDAIR_NS,
)
from repro.relational.types import NULL
from repro.xmlutil import E, QName, XmlElement


@lru_cache(maxsize=None)
def _q(local: str) -> QName:
    return QName(WSDAIR_NS, local)


@lru_cache(maxsize=None)
def _w(local: str) -> QName:
    return QName(WEBROWSET_NS, local)


def render_rowset(data_format_uri: str, rowset: Rowset) -> XmlElement:
    """Render *rowset* in the requested format; faults on unknown URIs."""
    renderer = _RENDERERS.get(data_format_uri)
    if renderer is None:
        raise InvalidDatasetFormatFault(
            f"unsupported dataset format {data_format_uri!r}"
        )
    return renderer(rowset)


def _render_sqlrowset(rowset: Rowset) -> XmlElement:
    root = E(_q("SQLRowset"))
    metadata = E(_q("ColumnMetadata"))
    for index, name in enumerate(rowset.columns):
        column = E(_q("Column"))
        column.set("name", name)
        if index < len(rowset.types) and rowset.types[index]:
            column.set("type", rowset.types[index])
        metadata.append(column)
    root.append(metadata)
    for row in rowset.rows:
        row_el = E(_q("Row"))
        for value in row:
            if value is NULL:
                row_el.append(E(_q("Null")))
            else:
                row_el.append(E(_q("Value"), value))
        root.append(row_el)
    return root


def _render_webrowset(rowset: Rowset) -> XmlElement:
    metadata = E(_w("metadata"), E(_w("column-count"), len(rowset.columns)))
    for index, name in enumerate(rowset.columns):
        definition = E(
            _w("column-definition"),
            E(_w("column-index"), index + 1),
            E(_w("column-name"), name),
        )
        if index < len(rowset.types) and rowset.types[index]:
            definition.append(E(_w("column-type-name"), rowset.types[index]))
        metadata.append(definition)
    data = E(_w("data"))
    for row in rowset.rows:
        current = E(_w("currentRow"))
        for value in row:
            if value is NULL:
                column_value = E(_w("columnValue"))
                column_value.set("null", "true")
                current.append(column_value)
            else:
                current.append(E(_w("columnValue"), value))
        data.append(current)
    return E(_w("webRowSet"), metadata, data)


_NULL_TOKEN = "\\N"


def _csv_escape(value: str) -> str:
    if value == _NULL_TOKEN or any(c in value for c in ',"\n\r'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _render_csv(rowset: Rowset) -> XmlElement:
    lines = [",".join(_csv_escape(name) for name in rowset.columns)]
    for row in rowset.rows:
        lines.append(
            ",".join(
                _NULL_TOKEN if value is NULL else _csv_escape(value)
                for value in row
            )
        )
    root = E(_q("CsvRowset"), "\n".join(lines))
    root.set("columns", len(rowset.columns))
    _set_csv_types(root, rowset)
    return root


def _set_csv_types(element: XmlElement, rowset) -> None:
    """CSV bodies cannot carry type names, so they ride the container
    element as a CSV-escaped attribute (escaped because type names like
    ``DECIMAL(10,2)`` contain the separator).  Omitted when no column
    has a type, keeping untyped wire bytes unchanged."""
    if any(rowset.types):
        element.set(
            "types", ",".join(_csv_escape(t) for t in rowset.types)
        )


_RENDERERS = {
    SQLROWSET_FORMAT_URI: _render_sqlrowset,
    WEBROWSET_FORMAT_URI: _render_webrowset,
    CSV_FORMAT_URI: _render_csv,
}
