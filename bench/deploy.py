"""Each workload's deployment, built from public constructors only.

The subprocess server (``bench.serve``), the in-process layer walk and
the generator's oracle all build their data here, so the three agree
by construction: same scale, same seed, same extra tables.
``DaisHttpServer`` is always constructed with its defaults — a change
to a default is then measured, not masked.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import ServiceRegistry, mint_abstract_name
from repro.daix import XMLCollectionResource, XMLRealisationService
from repro.transport import DaisHttpServer
from repro.workload import (
    RelationalWorkload,
    XmlCorpus,
    build_http_deployment,
    populate_catalog_collection,
    populate_shop_database,
)

#: Fattens the property document toward the paper's 10–92 KB (fig. 4).
EXTRA_TABLES = 12


def relational_scale(seed: int) -> RelationalWorkload:
    """300 customers / 1 200 orders / 3 600 line items."""
    return RelationalWorkload(
        customers=300, orders_per_customer=4, items_per_order=3, seed=seed
    )


def add_extra_tables(database) -> None:
    for index in range(EXTRA_TABLES):
        database.execute(
            f"CREATE TABLE extra_{index} "
            "(id INT PRIMARY KEY, a VARCHAR(20), b FLOAT, c INT, d INT)"
        )


def build_database(seed: int, extra_tables: bool):
    """The shop database alone (the oracle's twin of the served one)."""
    database = populate_shop_database(relational_scale(seed))
    if extra_tables:
        add_extra_tables(database)
    return database


def build_collection(seed: int):
    return populate_catalog_collection(XmlCorpus(documents=300, seed=seed))


@dataclass
class Deployment:
    """One server (not yet started) with the service a workload targets."""

    server: DaisHttpServer
    service: object
    resource: object

    @property
    def address(self) -> str:
        return self.service.address

    @property
    def name(self) -> str:
        return str(self.resource.abstract_name)


def build_deployment(realisation: str, extra_tables: bool, seed: int) -> Deployment:
    if realisation == "sql":
        http = build_http_deployment(relational_scale(seed))
        if extra_tables:
            add_extra_tables(http.database)
        return Deployment(http.server, http.service, http.resource)
    registry = ServiceRegistry()
    server = DaisHttpServer(registry)
    service = XMLRealisationService("http-xml", server.url_for("/xml"))
    registry.register(service)
    resource = XMLCollectionResource(
        mint_abstract_name("catalog"), build_collection(seed)
    )
    service.add_resource(resource)
    return Deployment(server, service, resource)
