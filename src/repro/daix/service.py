"""The WS-DAIX data service."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.faults import InvalidExpressionFault, InvalidResourceNameFault
from repro.core.names import mint_abstract_name
from repro.core.properties import Sensitivity
from repro.core.service import DataService, Factory, ResourceBinding
from repro.daix import messages as msg
from repro.daix.namespaces import (
    WSDAIX_NS,
    XML_SEQUENCE_ACCESS_PT,
)
from repro.daix.resources import XMLCollectionResource, XMLSequenceResource
from repro.soap.addressing import MessageHeaders
from repro.xmldb.errors import XmlDbError


class XMLRealisationService(DataService):
    """A data service exposing a configurable set of WS-DAIX port types."""

    OPERATIONS = {
        **DataService.OPERATIONS,
        "collection_access": (
            (msg.AddDocumentsRequest, "_handle_add_documents"),
            (msg.GetDocumentsRequest, "_handle_get_documents"),
            (msg.RemoveDocumentsRequest, "_handle_remove_documents"),
            (msg.ListDocumentsRequest, "_handle_list_documents"),
            (msg.CreateSubcollectionRequest, "_handle_create_subcollection"),
            (msg.RemoveSubcollectionRequest, "_handle_remove_subcollection"),
            (
                msg.GetCollectionPropertyDocumentRequest,
                "_handle_property_document",
            ),
        ),
        "xpath_access": ((msg.XPathExecuteRequest, "_handle_xpath_execute"),),
        "xquery_access": ((msg.XQueryExecuteRequest, "_handle_xquery_execute"),),
        "xupdate_access": (
            (msg.XUpdateExecuteRequest, "_handle_xupdate_execute"),
        ),
        "xpath_factory": ((msg.XPathExecuteFactoryRequest, "_handle_factory"),),
        "xquery_factory": ((msg.XQueryExecuteFactoryRequest, "_handle_factory"),),
        "sequence_access": ((msg.GetItemsRequest, "_handle_get_items"),),
    }
    _SEQUENCE_FACTORY = Factory(
        binding="_collection_binding",
        target="sequence_target",
        port_type="sequence_access",
        port_type_qname=XML_SEQUENCE_ACCESS_PT,
        readable=True,
        derive="_derive_sequence",
        kind="xml-factory",
    )
    DOCUMENTS = {
        **DataService.DOCUMENTS,
        msg.GetCollectionPropertyDocumentRequest: "_collection_binding",
    }
    FACTORIES = {
        msg.XPathExecuteFactoryRequest: _SEQUENCE_FACTORY,
        msg.XQueryExecuteFactoryRequest: _SEQUENCE_FACTORY,
    }

    def __init__(
        self,
        name: str,
        address: str,
        port_types: Iterable[str] | None = None,
        sequence_target: Optional["XMLRealisationService"] = None,
        **kwargs,
    ) -> None:
        from repro.core.namespaces import WSDAI_NS

        kwargs.setdefault(
            "property_namespaces", {"wsdai": WSDAI_NS, "wsdaix": WSDAIX_NS}
        )
        super().__init__(name, address, **kwargs)
        self.sequence_target = sequence_target or self
        self.install_own_port_types(port_types)
        self._index_counters = (
            self.metrics.counter(
                "xmldb.index.hits", "Collection statements served by a live value index"
            ),
            self.metrics.counter(
                "xmldb.index.misses", "Collection value indexes built (none was live)"
            ),
            self.metrics.counter(
                "xmldb.index.invalidations",
                "Collection value indexes dropped because the collection changed",
            ),
        )

    def add_resource(self, resource, configurable=None, lifetime_seconds=None):
        binding = super().add_resource(resource, configurable, lifetime_seconds)
        if isinstance(resource, XMLCollectionResource):
            resource.collection.indexes.bind_counters(*self._index_counters)
        return binding

    # -- typed binding lookups ----------------------------------------------

    def _collection_binding(self, abstract_name: str) -> ResourceBinding:
        binding = self.binding(abstract_name)
        if not isinstance(binding.resource, XMLCollectionResource):
            raise InvalidResourceNameFault(
                f"{abstract_name} is not an XML collection resource"
            )
        return binding

    def _sequence_binding(self, abstract_name: str) -> ResourceBinding:
        binding = self.binding(abstract_name)
        if not isinstance(binding.resource, XMLSequenceResource):
            raise InvalidResourceNameFault(
                f"{abstract_name} is not an XML sequence resource"
            )
        return binding

    # -- XMLCollectionAccess -------------------------------------------------

    def _handle_add_documents(
        self, request: msg.AddDocumentsRequest, headers: MessageHeaders
    ) -> msg.AddDocumentsResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_writeable()
        collection = binding.resource.collection
        results = []
        for name, content in request.documents:
            try:
                collection.add(name, content, replace=request.replace)
                results.append((name, "Added"))
            except XmlDbError as exc:
                results.append((name, f"Error: {exc}"))
        return msg.AddDocumentsResponse(results=results)

    def _handle_get_documents(
        self, request: msg.GetDocumentsRequest, headers: MessageHeaders
    ) -> msg.GetDocumentsResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_readable()
        collection = binding.resource.collection
        documents = []
        for name in request.names:
            try:
                documents.append((name, collection.get(name).root.copy()))
            except XmlDbError:
                continue  # absent documents are simply omitted
        return msg.GetDocumentsResponse(documents=documents)

    def _handle_remove_documents(
        self, request: msg.RemoveDocumentsRequest, headers: MessageHeaders
    ) -> msg.RemoveDocumentsResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_writeable()
        collection = binding.resource.collection
        removed = 0
        for name in request.names:
            try:
                collection.remove(name)
                removed += 1
            except XmlDbError:
                continue
        return msg.RemoveDocumentsResponse(removed=removed)

    def _handle_list_documents(
        self, request: msg.ListDocumentsRequest, headers: MessageHeaders
    ) -> msg.ListDocumentsResponse:
        binding = self._collection_binding(request.abstract_name)
        collection = binding.resource.collection
        return msg.ListDocumentsResponse(
            names=collection.document_names(),
            subcollections=collection.child_names(),
        )

    def _handle_create_subcollection(
        self, request: msg.CreateSubcollectionRequest, headers: MessageHeaders
    ) -> msg.CreateSubcollectionResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_writeable()
        parent: XMLCollectionResource = binding.resource
        try:
            child = parent.collection.create_child(request.collection_name)
        except XmlDbError as exc:
            raise InvalidExpressionFault(str(exc)) from exc
        derived = XMLCollectionResource(
            mint_abstract_name("xmlcollection"),
            child,
            namespaces=parent._namespaces,
        )
        derived.parent = parent.abstract_name
        self.add_resource(derived, binding.configurable.copy())
        return msg.CreateSubcollectionResponse(
            address=self.epr_for(derived.abstract_name),
            abstract_name=derived.abstract_name,
        )

    def _handle_remove_subcollection(
        self, request: msg.RemoveSubcollectionRequest, headers: MessageHeaders
    ) -> msg.RemoveSubcollectionResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_writeable()
        collection = binding.resource.collection
        try:
            removed = collection.remove_child(request.collection_name)
        except XmlDbError as exc:
            raise InvalidExpressionFault(str(exc)) from exc
        # Destroy any binding this service holds for the removed subtree.
        for name in list(self.resource_names()):
            other = self.binding(name).resource
            if (
                isinstance(other, XMLCollectionResource)
                and other.collection is removed
            ):
                self.destroy_resource(name)
        return msg.RemoveSubcollectionResponse(removed=request.collection_name)

    # -- query access ------------------------------------------------------

    def _handle_xpath_execute(
        self, request: msg.XPathExecuteRequest, headers: MessageHeaders
    ) -> msg.XPathExecuteResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_readable()
        items = binding.resource.xpath_execute(
            request.expression, request.document_name
        )
        return msg.XPathExecuteResponse(items=items)

    def _handle_xquery_execute(
        self, request: msg.XQueryExecuteRequest, headers: MessageHeaders
    ) -> msg.XQueryExecuteResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_readable()
        items = binding.resource.xquery_execute(
            request.expression, request.document_name
        )
        return msg.XQueryExecuteResponse(items=items)

    def _handle_xupdate_execute(
        self, request: msg.XUpdateExecuteRequest, headers: MessageHeaders
    ) -> msg.XUpdateExecuteResponse:
        binding = self._collection_binding(request.abstract_name)
        binding.require_writeable()
        if request.modifications is None:
            raise InvalidExpressionFault(
                "XUpdateExecute requires an xupdate:modifications element"
            )
        modified = binding.resource.xupdate_execute(
            request.modifications, request.document_name
        )
        return msg.XUpdateExecuteResponse(modified=modified)

    # -- factories ------------------------------------------------------------

    def _derive_sequence(
        self, binding, target, configurable, request: msg.XPathExecuteFactoryRequest
    ) -> str:
        """Evaluate an XPath/XQuery factory expression into the derived
        sequence resource."""
        resource: XMLCollectionResource = binding.resource
        use_xquery = isinstance(request, msg.XQueryExecuteFactoryRequest)
        execute = resource.xquery_execute if use_xquery else resource.xpath_execute
        derived = XMLSequenceResource(
            mint_abstract_name("xmlsequence"),
            resource,
            execute(request.expression, request.document_name),
            query=request.expression,
            use_xquery=use_xquery,
            document_name=request.document_name,
            sensitive=configurable.sensitivity is Sensitivity.SENSITIVE,
        )
        target.add_resource(derived, configurable)
        return derived.abstract_name

    # -- SequenceAccess -----------------------------------------------------------

    def _handle_get_items(
        self, request: msg.GetItemsRequest, headers: MessageHeaders
    ) -> msg.GetItemsResponse:
        binding = self._sequence_binding(request.abstract_name)
        binding.require_readable()
        resource: XMLSequenceResource = binding.resource
        return msg.GetItemsResponse(
            items=resource.get_items(request.start_position, request.count),
            total_items=resource.item_count,
        )
