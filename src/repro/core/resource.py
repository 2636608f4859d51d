"""The data resource abstraction.

A :class:`DataResource` is "any entity that can act as a source or sink
of data" (paper §3).  Concrete resources — a relational database, an XML
collection, a derived SQL response or rowset — subclass this and
implement the hooks their port types need.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.names import AbstractName
from repro.core.properties import (
    ConfigurableProperties,
    CorePropertyDocument,
    DataResourceManagement,
)
from repro.obs.journal import record_event
from repro.obs.tracing import current_span


class DataResource(ABC):
    """Base class for everything a data service can represent."""

    def __init__(
        self,
        abstract_name: AbstractName,
        management: DataResourceManagement,
        parent: str = "",
    ) -> None:
        self.abstract_name = abstract_name
        self.management = management
        self.parent = parent
        #: The (trace_id, span_id) under which this resource was created,
        #: when a trace was live — factory-derived resources use it to
        #: link later accesses back to the creating trace.
        span = current_span()
        self.creating_trace: tuple[str, str] | None = (
            (span.trace_id, span.span_id) if span.recording else None
        )
        record_event(
            "created",
            abstract_name,
            type=type(self).__name__,
            management=management.value,
            parent=parent or None,
        )

    # -- property document -------------------------------------------------

    @abstractmethod
    def property_document(
        self, configurable: ConfigurableProperties
    ) -> CorePropertyDocument:
        """Build the current property document for this resource as bound
        to a service with the given configurable properties."""

    def property_version(self) -> int | None:
        """Version stamp for property-document caching.

        The served document may be rebuilt from cached bytes as long as
        this value is unchanged (see
        :class:`repro.core.propcache.PropertyDocumentCache`).  Resources
        whose document derives from mutable state return a counter that
        bumps on every mutation (the relational resource returns
        :attr:`Catalog.version`); fully static documents keep the
        default ``0``.  Return ``None`` to opt out of caching entirely.
        """
        return 0

    # -- generic query ----------------------------------------------------

    def generic_query_languages(self) -> list[str]:
        """Language URIs this resource's ``generic_query(language_uri,
        expression, parameters)`` accepts; a resource that advertises
        one defines that method.  The service faults any other language
        before calling it."""
        return []

    # -- lifecycle -----------------------------------------------------------

    def on_destroy(self) -> None:
        """Release resource state when the service↔resource relationship
        is destroyed.

        Externally managed resources typically do nothing with their
        data (it remains in place, paper §4.3); service managed
        resources drop theirs.  Overrides must call ``super()`` so the
        destruction lands in the lifecycle journal.
        """
        record_event(
            "destroyed", self.abstract_name, management=self.management.value
        )
