"""Consumer proxies for the WS-DAIX port types."""

from __future__ import annotations

from typing import Optional

from repro.client.core import CoreClient
from repro.daix import messages as msg
from repro.soap.addressing import EndpointReference
from repro.xmlutil import QName, XmlElement


class XMLClient(CoreClient):
    """WS-DAIX consumer: collection management, queries, factories."""

    # -- XMLCollectionAccess ------------------------------------------------

    def add_documents(
        self,
        address: str,
        abstract_name: str,
        documents: list[tuple[str, XmlElement]],
        replace: bool = False,
    ) -> list[tuple[str, str]]:
        request = msg.AddDocumentsRequest(
            abstract_name=abstract_name, documents=documents, replace=replace
        )
        return self.call(address, request).results

    def get_documents(
        self, address: str, abstract_name: str, names: list[str]
    ) -> list[tuple[str, XmlElement]]:
        request = msg.GetDocumentsRequest(abstract_name=abstract_name, names=names)
        return self.call(address, request).documents

    def remove_documents(
        self, address: str, abstract_name: str, names: list[str]
    ) -> int:
        request = msg.RemoveDocumentsRequest(
            abstract_name=abstract_name, names=names
        )
        return self.call(address, request).removed

    def list_documents(
        self, address: str, abstract_name: str
    ) -> msg.ListDocumentsResponse:
        request = msg.ListDocumentsRequest(abstract_name=abstract_name)
        return self.call(address, request)

    def create_subcollection(
        self, address: str, abstract_name: str, collection_name: str
    ) -> msg.CreateSubcollectionResponse:
        request = msg.CreateSubcollectionRequest(
            abstract_name=abstract_name, collection_name=collection_name
        )
        return self.call(address, request)

    def remove_subcollection(
        self, address: str, abstract_name: str, collection_name: str
    ) -> str:
        request = msg.RemoveSubcollectionRequest(
            abstract_name=abstract_name, collection_name=collection_name
        )
        return self.call(address, request).removed

    def get_collection_property_document(
        self, address: str, abstract_name: str
    ) -> XmlElement:
        request = msg.GetCollectionPropertyDocumentRequest(
            abstract_name=abstract_name
        )
        return self._property_document(address, request)

    # -- query access --------------------------------------------------------

    def xpath_execute(
        self,
        address: str,
        abstract_name: str,
        expression: str,
        document_name: Optional[str] = None,
    ) -> list[XmlElement]:
        request = msg.XPathExecuteRequest(
            abstract_name=abstract_name,
            expression=expression,
            document_name=document_name,
        )
        return self.call(address, request).items

    def xquery_execute(
        self,
        address: str,
        abstract_name: str,
        query: str,
        document_name: Optional[str] = None,
    ) -> list[XmlElement]:
        request = msg.XQueryExecuteRequest(
            abstract_name=abstract_name,
            expression=query,
            document_name=document_name,
        )
        return self.call(address, request).items

    def xupdate_execute(
        self,
        address: str,
        abstract_name: str,
        modifications: XmlElement,
        document_name: Optional[str] = None,
    ) -> int:
        request = msg.XUpdateExecuteRequest(
            abstract_name=abstract_name,
            modifications=modifications,
            document_name=document_name,
        )
        return self.call(address, request).modified

    # -- factories + SequenceAccess ---------------------------------------------

    def xpath_execute_factory(
        self,
        address: str,
        abstract_name: str,
        expression: str,
        document_name: Optional[str] = None,
        port_type_qname: Optional[QName] = None,
        configuration: Optional[XmlElement] = None,
        execution_mode: str = "",
    ) -> msg.XPathExecuteFactoryResponse:
        request = msg.XPathExecuteFactoryRequest(
            abstract_name=abstract_name,
            expression=expression,
            document_name=document_name,
            port_type_qname=port_type_qname,
            configuration_document=configuration,
            execution_mode=execution_mode,
        )
        return self.call(address, request)

    def xquery_execute_factory(
        self,
        address: str,
        abstract_name: str,
        query: str,
        document_name: Optional[str] = None,
        port_type_qname: Optional[QName] = None,
        configuration: Optional[XmlElement] = None,
        execution_mode: str = "",
    ) -> msg.XQueryExecuteFactoryResponse:
        request = msg.XQueryExecuteFactoryRequest(
            abstract_name=abstract_name,
            expression=query,
            document_name=document_name,
            port_type_qname=port_type_qname,
            configuration_document=configuration,
            execution_mode=execution_mode,
        )
        return self.call(address, request)

    def get_items(
        self,
        epr: EndpointReference,
        abstract_name: str,
        start_position: int,
        count: int,
    ) -> tuple[list[XmlElement], int]:
        request = msg.GetItemsRequest(
            abstract_name=abstract_name,
            start_position=start_position,
            count=count,
        )
        response = self.call(epr, request)
        return response.items, response.total_items
