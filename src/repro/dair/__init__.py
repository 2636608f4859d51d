"""WS-DAIR: the relational realisation (paper §4).

Extends the WS-DAI core with the port types of Figure 6:

* **SQLAccess** — ``SQLExecute`` (direct access) and
  ``GetSQLPropertyDocument``;
* **SQLFactory** — ``SQLExecuteFactory`` (indirect access: derive a
  *SQL response* resource);
* **ResponseAccess** — ``GetSQLRowset``, ``GetSQLUpdateCount``,
  ``GetSQLCommunicationArea``, ``GetSQLReturnValue``,
  ``GetSQLOutputParameter``, ``GetSQLResponseItem``,
  ``GetSQLResponsePropertyDocument``;
* **ResponseFactory** — ``SQLRowsetFactory`` (derive a rowset resource
  in a chosen dataset format, e.g. WebRowSet);
* **RowsetAccess** — ``GetTuples`` (paged retrieval) and
  ``GetRowsetPropertyDocument``.

Figure 5's three-service pipeline is assembled from these pieces; see
``examples/relational_pipeline.py``.
"""

from repro.dair.namespaces import (
    WSDAIR_NS,
    SQLROWSET_FORMAT_URI,
    WEBROWSET_FORMAT_URI,
    CSV_FORMAT_URI,
)
from repro.dair.datasets import Rowset, parse_rowset
from repro.dair.resources import (
    SQLDataResource,
    SQLResponseResource,
    SQLRowsetResource,
)
from repro.dair.service import SQLRealisationService, PORT_TYPES

__all__ = [
    "WSDAIR_NS",
    "SQLROWSET_FORMAT_URI",
    "WEBROWSET_FORMAT_URI",
    "CSV_FORMAT_URI",
    "Rowset",
    "parse_rowset",
    "SQLDataResource",
    "SQLResponseResource",
    "SQLRowsetResource",
    "SQLRealisationService",
    "PORT_TYPES",
]
