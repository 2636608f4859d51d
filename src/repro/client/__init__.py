"""Consumer-side proxies.

A *consumer* (paper §3) talks to data services through these clients:
:class:`CoreClient` covers the WS-DAI operations; the realisation
clients — :class:`~repro.client.sql.SQLClient` for WS-DAIR,
:class:`~repro.client.xml.XMLClient` for WS-DAIX and
:class:`~repro.client.files.FilesClient` for files — extend it.  Every
proxy builds a request message and hands it to :meth:`CoreClient.call`,
which sends it through a transport (loopback or HTTP), decodes the
reply the request's class names and raises typed DAIS faults on error
responses.
"""

from repro.client.core import CoreClient
from repro.client.sql import RowsetReader, SQLClient

__all__ = ["CoreClient", "RowsetReader", "SQLClient"]
