"""The WS-DAIX data service."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.faults import (
    DataResourceUnavailableFault,
    InvalidExpressionFault,
    InvalidPortTypeQNameFault,
    InvalidResourceNameFault,
)
from repro.core.names import mint_abstract_name
from repro.core.service import DataService, ResourceBinding
from repro.daix import messages as msg
from repro.daix.namespaces import (
    WSDAIX_NS,
    XML_SEQUENCE_ACCESS_PT,
)
from repro.daix.resources import XMLCollectionResource, XMLSequenceResource
from repro.jobs.namespaces import MODE_ASYNCHRONOUS
from repro.soap.addressing import MessageHeaders
from repro.xmldb.errors import XmlDbError
from repro.xmlutil import parse, serialize

#: Short names of the WS-DAIX port types.
PORT_TYPES = {
    "collection_access",
    "xpath_access",
    "xquery_access",
    "xupdate_access",
    "xpath_factory",
    "xquery_factory",
    "sequence_access",
}


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
                "_handle_get_collection_property_document",
            ),
        ),
        "xpath_access": ((msg.XPathExecuteRequest, "_handle_xpath_execute"),),
        "xquery_access": ((msg.XQueryExecuteRequest, "_handle_xquery_execute"),),
        "xupdate_access": (
            (msg.XUpdateExecuteRequest, "_handle_xupdate_execute"),
        ),
        "xpath_factory": (
            (msg.XPathExecuteFactoryRequest, "_handle_xpath_factory"),
        ),
        "xquery_factory": (
            (msg.XQueryExecuteFactoryRequest, "_handle_xquery_factory"),
        ),
        "sequence_access": ((msg.GetItemsRequest, "_handle_get_items"),),
    }

    def __init__(
        self,
        name: str,
        address: str,
        port_types: Iterable[str] = tuple(sorted(PORT_TYPES)),
        sequence_target: Optional["XMLRealisationService"] = None,
        **kwargs,
    ) -> None:
        from repro.core.namespaces import WSDAI_NS

        kwargs.setdefault(
            "property_namespaces", {"wsdai": WSDAI_NS, "wsdaix": WSDAIX_NS}
        )
        super().__init__(name, address, **kwargs)
        self.port_types = set(port_types)
        unknown = self.port_types - PORT_TYPES
        if unknown:
            raise ValueError(f"unknown port types {sorted(unknown)}")
        self.sequence_target = sequence_target or self

        self.install_port_types(self.port_types)

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

    def _handle_get_collection_property_document(
        self, request: msg.GetCollectionPropertyDocumentRequest, headers: MessageHeaders
    ) -> msg.GetCollectionPropertyDocumentResponse:
        binding = self._collection_binding(request.abstract_name)
        return msg.GetCollectionPropertyDocumentResponse(
            document=binding.reply_document()
        )

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

    def _handle_xpath_factory(
        self, request: msg.XPathExecuteFactoryRequest, headers: MessageHeaders
    ) -> msg.XPathExecuteFactoryResponse:
        return msg.XPathExecuteFactoryResponse(
            **self._run_factory(request, use_xquery=False)
        )

    def _handle_xquery_factory(
        self, request: msg.XQueryExecuteFactoryRequest, headers: MessageHeaders
    ) -> msg.XQueryExecuteFactoryResponse:
        return msg.XQueryExecuteFactoryResponse(
            **self._run_factory(request, use_xquery=True)
        )

    def _run_factory(
        self, request: msg.XPathExecuteFactoryRequest, use_xquery: bool
    ) -> dict:
        binding = self._collection_binding(request.abstract_name)
        binding.require_readable()
        resource: XMLCollectionResource = binding.resource

        requested_pt = request.port_type_qname or XML_SEQUENCE_ACCESS_PT
        if requested_pt != XML_SEQUENCE_ACCESS_PT:
            raise InvalidPortTypeQNameFault(
                f"XML factories wire up {XML_SEQUENCE_ACCESS_PT.clark()}, "
                f"not {requested_pt.clark()}"
            )
        target = self.sequence_target
        if "sequence_access" not in target.port_types:
            raise InvalidPortTypeQNameFault(
                f"target service {target.name!r} lacks SequenceAccess"
            )

        configurable = binding.configurable.copy()
        if request.configuration_document is not None:
            configurable = configurable.apply_configuration_document(
                request.configuration_document
            )

        if request.execution_mode == MODE_ASYNCHRONOUS:
            if self.jobs is None:
                raise DataResourceUnavailableFault(
                    f"service {self.name!r} does not accept asynchronous "
                    "factory requests (no job queue attached)"
                )
            job = self.jobs.submit(
                self._xml_factory_kind(),
                {
                    "resource": str(request.abstract_name),
                    "expression": request.expression,
                    "document_name": request.document_name,
                    "use_xquery": use_xquery,
                    "configuration": serialize(request.configuration_document)
                    if request.configuration_document is not None
                    else "",
                },
            )
            return {"job_id": job.job_id}

        derived = self._materialize_sequence(
            binding,
            configurable,
            request.expression,
            request.document_name,
            use_xquery,
        )
        target.add_resource(derived, configurable)
        try:
            return {
                "address": target.epr_for(derived.abstract_name),
                "abstract_name": derived.abstract_name,
            }
        except BaseException:
            # A failure after the name was reserved must not leave the
            # registry entry dangling.
            target.destroy_resource(derived.abstract_name)
            raise

    def _materialize_sequence(
        self,
        binding: ResourceBinding,
        configurable,
        expression: str,
        document_name: Optional[str],
        use_xquery: bool,
    ) -> XMLSequenceResource:
        """Evaluate an XPath/XQuery factory expression into the derived
        sequence resource (not yet registered)."""
        from repro.core.properties import Sensitivity

        resource: XMLCollectionResource = binding.resource
        if use_xquery:
            items = resource.xquery_execute(expression, document_name)
        else:
            items = resource.xpath_execute(expression, document_name)
        return XMLSequenceResource(
            mint_abstract_name("xmlsequence"),
            resource,
            items,
            query=expression,
            use_xquery=use_xquery,
            document_name=document_name,
            sensitive=configurable.sensitivity is Sensitivity.SENSITIVE,
        )

    # -- asynchronous factory execution ------------------------------------

    def _xml_factory_kind(self) -> str:
        """Executor-registry key, service-scoped (see the WS-DAIR twin)."""
        return f"{self.name}:xml-factory"

    def enable_jobs(self, jobs, terminal_ttl: float | None = None) -> None:
        super().enable_jobs(jobs, terminal_ttl)
        if {"xpath_factory", "xquery_factory"} & self.port_types:
            jobs.register_executor(
                self._xml_factory_kind(),
                self._execute_xml_factory_job,
                rollback=self._rollback_xml_factory_job,
            )

    def _execute_xml_factory_job(self, job) -> dict:
        """Run one deferred XPath/XQuery factory request."""
        payload = job.payload
        binding = self._collection_binding(payload["resource"])
        binding.require_readable()
        configurable = binding.configurable.copy()
        if payload.get("configuration"):
            configurable = configurable.apply_configuration_document(
                parse(payload["configuration"])
            )
        derived = self._materialize_sequence(
            binding,
            configurable,
            payload["expression"],
            payload.get("document_name"),
            bool(payload.get("use_xquery")),
        )
        target = self.sequence_target
        target.add_resource(derived, configurable)
        return {
            "abstract_name": str(derived.abstract_name),
            "address": target.address,
        }

    def _rollback_xml_factory_job(self, job, result: dict) -> None:
        name = result.get("abstract_name")
        if name and self.sequence_target.has_resource(name):
            self.sequence_target.destroy_resource(name)

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
