"""WS-DAIX data resources.

* :class:`XMLCollectionResource` — an externally managed XML collection
  (a node of a :class:`~repro.xmldb.collection.CollectionManager` tree);
* :class:`XMLSequenceResource` — a service managed, pageable sequence of
  result items derived by an XPath/XQuery factory.
"""

from __future__ import annotations

from repro.core.faults import (
    DataResourceUnavailableFault,
    InvalidExpressionFault,
)
from repro.core.names import AbstractName
from repro.core.namespaces import (
    XPATH_LANGUAGE_URI,
    XQUERY_LANGUAGE_URI,
)
from repro.core.properties import (
    ConfigurableProperties,
    CorePropertyDocument,
    DataResourceManagement,
    DatasetMapEntry,
)
from repro.core.resource import DataResource
from repro.daix.namespaces import WSDAIX_NS
from repro.xmldb import (
    Collection,
    XmlDbError,
    XQueryEngine,
    XQueryError,
    XUpdateProcessor,
)
from repro.xmlutil import E, QName, XmlElement
from repro.xmlutil.tree import Text
from repro.xpath import AttributeNode, XPathEngine, XPathError
from repro.xpath.functions import format_number


def _q(local: str) -> QName:
    return QName(WSDAIX_NS, local)


#: Dataset format URI for item sequences (the only one WS-DAIX needs here).
XML_SEQUENCE_FORMAT_URI = f"{WSDAIX_NS}/ItemSequence"


def value_to_items(value) -> list[XmlElement]:
    """Render an XPath/XQuery result as a list of ``Item`` elements.

    Elements are embedded whole; attributes, text nodes and atomic
    values become text items — the WS-DAIX item-sequence convention.
    """
    values = value if isinstance(value, list) else [value]
    items: list[XmlElement] = []
    for entry in values:
        item = E(_q("Item"))
        if isinstance(entry, XmlElement):
            item.append(entry.copy())
        elif isinstance(entry, AttributeNode):
            item.set("name", entry.name.clark())
            item.append(Text(entry.value))
        elif isinstance(entry, Text):
            item.append(Text(entry.value))
        elif isinstance(entry, bool):
            item.append(Text("true" if entry else "false"))
        elif isinstance(entry, float):
            item.append(Text(format_number(entry)))
        else:
            item.append(Text(str(entry)))
        items.append(item)
    return items


class XMLCollectionResource(DataResource):
    """An externally managed XML collection behind a data service."""

    def __init__(
        self,
        abstract_name: AbstractName,
        collection: Collection,
        namespaces: dict[str, str] | None = None,
    ) -> None:
        super().__init__(
            abstract_name, DataResourceManagement.EXTERNALLY_MANAGED
        )
        self.collection = collection
        self._namespaces = dict(namespaces or {})
        self._xpath = XPathEngine(namespaces=self._namespaces)
        self._xquery = XQueryEngine(namespaces=self._namespaces)
        self._xupdate = XUpdateProcessor(namespaces=self._namespaces)

    # -- query execution ------------------------------------------------------

    def xpath_execute(
        self, expression: str, document_name: str | None = None
    ) -> list[XmlElement]:
        """Evaluate XPath over one document or every document in turn."""
        try:
            roots = [d.root for d in self._documents(document_name)]
            results: list[XmlElement] = []
            for value in self._xpath.evaluate_each(expression, roots):
                results.extend(value_to_items(value))
            return results
        except XPathError as exc:
            raise InvalidExpressionFault(f"XPath error: {exc}") from exc

    def xquery_execute(
        self, query: str, document_name: str | None = None
    ) -> list[XmlElement]:
        """Evaluate an XQuery (FLWOR-lite) over the collection.

        The outermost ``for`` ranges across every document, so ``where``
        and ``order by`` apply globally (collection semantics).
        """
        try:
            roots = [d.root for d in self._documents(document_name)]
            value = self._xquery.execute(query, roots)
            return value_to_items(value)
        except XQueryError as exc:
            raise InvalidExpressionFault(f"XQuery error: {exc}") from exc

    def xupdate_execute(
        self, modifications: XmlElement, document_name: str | None = None
    ) -> int:
        """Apply XUpdate modifications; returns total nodes modified."""
        try:
            total = 0
            for document in self._documents(document_name):
                total += self._xupdate.apply(modifications, document.root)
            return total
        except XmlDbError as exc:
            raise InvalidExpressionFault(f"XUpdate error: {exc}") from exc

    def _documents(self, document_name: str | None):
        if document_name:
            return [self.collection.get(document_name)]
        return self.collection.documents()

    # -- generic query (core spec) ----------------------------------------------

    def generic_query_languages(self) -> list[str]:
        return [XPATH_LANGUAGE_URI, XQUERY_LANGUAGE_URI]

    def generic_query(
        self, language_uri: str, expression: str, parameters: list[str]
    ) -> list[XmlElement]:
        if language_uri == XPATH_LANGUAGE_URI:
            return self.xpath_execute(expression)
        return self.xquery_execute(expression)

    # -- property document -------------------------------------------------------

    def property_document(
        self, configurable: ConfigurableProperties
    ) -> CorePropertyDocument:
        document = CorePropertyDocument(
            abstract_name=self.abstract_name,
            management=self.management,
            parent=self.parent,
            dataset_maps=[
                DatasetMapEntry(_q("XPathExecuteRequest"), XML_SEQUENCE_FORMAT_URI),
                DatasetMapEntry(_q("XQueryExecuteRequest"), XML_SEQUENCE_FORMAT_URI),
            ],
            # LanguageMap advertises exactly what GenericQuery accepts;
            # XUpdate rides its own operation, not the generic interface.
            languages=[XPATH_LANGUAGE_URI, XQUERY_LANGUAGE_URI],
            configurable=configurable,
        )
        document.ROOT_LOCAL = "XMLCollectionPropertyDocument"
        document.ROOT_NS = WSDAIX_NS
        return document


class XMLSequenceResource(DataResource):
    """A derived, pageable sequence of query result items.

    Like WS-DAIR responses, a sequence honours the ``Sensitivity``
    property: an *insensitive* sequence (the default) snapshots its items
    at creation; a *sensitive* one re-runs the stored query against the
    parent collection on every access.
    """

    def __init__(
        self,
        abstract_name: AbstractName,
        parent: XMLCollectionResource,
        items: list[XmlElement],
        query: str | None = None,
        use_xquery: bool = False,
        document_name: str | None = None,
        sensitive: bool = False,
    ) -> None:
        super().__init__(
            abstract_name,
            DataResourceManagement.SERVICE_MANAGED,
            parent=parent.abstract_name,
        )
        self._parent_resource = parent
        self._items = [item.copy() for item in items]
        self._query = query
        self._use_xquery = use_xquery
        self._document_name = document_name
        self._sensitive = sensitive and query is not None
        self._destroyed = False

    def items(self) -> list[XmlElement]:
        if self._destroyed:
            raise DataResourceUnavailableFault(
                f"sequence {self.abstract_name} has been destroyed"
            )
        if self._sensitive:
            if self._use_xquery:
                return self._parent_resource.xquery_execute(
                    self._query, self._document_name
                )
            return self._parent_resource.xpath_execute(
                self._query, self._document_name
            )
        return self._items

    def get_items(self, start: int, count: int) -> list[XmlElement]:
        if start < 0 or count < 0:
            raise InvalidExpressionFault(
                "GetItems start/count must be non-negative"
            )
        return [item.copy() for item in self.items()[start : start + count]]

    @property
    def item_count(self) -> int:
        return len(self.items())

    def on_destroy(self) -> None:
        super().on_destroy()
        self._items = []
        self._destroyed = True

    def property_document(
        self, configurable: ConfigurableProperties
    ) -> CorePropertyDocument:
        document = CorePropertyDocument(
            abstract_name=self.abstract_name,
            management=self.management,
            parent=self.parent,
            dataset_maps=[
                DatasetMapEntry(_q("GetItemsRequest"), XML_SEQUENCE_FORMAT_URI)
            ],
            configurable=configurable,
        )
        document.ROOT_LOCAL = "XMLSequencePropertyDocument"
        document.ROOT_NS = WSDAIX_NS
        return document
