"""Standard deployment topologies used by tests, examples and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

from repro.client.sql import SQLClient
from repro.client.xml import XMLClient
from repro.core import ServiceRegistry, mint_abstract_name
from repro.core.names import AbstractName
from repro.dair import SQLDataResource, SQLRealisationService
from repro.daix import XMLCollectionResource, XMLRealisationService
from repro.jobs import JobJournal, JobManager, JobRunner
from repro.relational import Database
from repro.transport import LoopbackTransport
from repro.transport.wire import NetworkModel
from repro.workload.relational import RelationalWorkload, populate_shop_database
from repro.workload.xmlcorpus import XmlCorpus, populate_catalog_collection
from repro.wsrf import Clock


@dataclass
class SingleServiceDeployment:
    """One service exposing every WS-DAIR port type over one database."""

    registry: ServiceRegistry
    service: SQLRealisationService
    database: Database
    resource: SQLDataResource
    client: SQLClient

    @property
    def address(self) -> str:
        return self.service.address

    @property
    def name(self) -> AbstractName:
        return self.resource.abstract_name


def build_single_service(
    workload: RelationalWorkload = RelationalWorkload(),
    wsrf: bool = False,
    network: NetworkModel | None = None,
    clock: Clock | None = None,
) -> SingleServiceDeployment:
    """One-service topology: the common direct-access setup."""
    database = populate_shop_database(workload)
    registry = ServiceRegistry()
    service = SQLRealisationService(
        "sql-service", "dais://sql-service", wsrf=wsrf, clock=clock
    )
    registry.register(service)
    resource = SQLDataResource(mint_abstract_name("shop"), database)
    service.add_resource(resource)
    client = SQLClient(LoopbackTransport(registry, network=network))
    return SingleServiceDeployment(registry, service, database, resource, client)


@dataclass
class JobsDeployment(SingleServiceDeployment):
    """A single-service deployment with the durable job queue attached.

    Factories on :attr:`service` accept ``ExecutionMode=asynchronous``;
    :attr:`runner` executes queued jobs (``runner.drain()`` inline for
    deterministic tests, ``runner.start()`` for a background pool).
    """

    jobs: JobManager = None
    runner: JobRunner = None


def build_jobs_deployment(
    workload: RelationalWorkload = RelationalWorkload(),
    wsrf: bool = False,
    network: NetworkModel | None = None,
    clock: Clock | None = None,
    journal_path: str | None = None,
    recover: bool = False,
    workers: int = 2,
    lease_seconds: float = 30.0,
    terminal_ttl: float | None = None,
) -> JobsDeployment:
    """One service, one database, plus the async job spine.

    ``journal_path=None`` keeps the journal in memory (fast tests);
    give a path for durability, and pass ``recover=True`` to rebuild
    the job table from that journal after a crash — the deployment
    half of the submit → crash → restart → recover story.
    """
    base = build_single_service(
        workload, wsrf=wsrf, network=network, clock=clock
    )
    if recover:
        if journal_path is None:
            raise ValueError("recover=True requires a journal_path")
        manager = JobManager.recover(
            journal_path, clock=clock, default_lease_seconds=lease_seconds
        )
    else:
        manager = JobManager(
            journal=JobJournal(journal_path),
            clock=clock,
            default_lease_seconds=lease_seconds,
        )
    base.service.enable_jobs(manager, terminal_ttl=terminal_ttl)
    runner = JobRunner(manager, workers=workers)
    return JobsDeployment(
        base.registry,
        base.service,
        base.database,
        base.resource,
        base.client,
        jobs=manager,
        runner=runner,
    )


@dataclass
class Figure5Deployment:
    """The paper's Figure 5 topology: three chained services.

    * service 1: SQLAccess + SQLFactory over the relational database;
    * service 2: ResponseAccess + ResponseFactory (derived responses);
    * service 3: RowsetAccess (derived rowsets).
    """

    registry: ServiceRegistry
    service1: SQLRealisationService
    service2: SQLRealisationService
    service3: SQLRealisationService
    database: Database
    resource: SQLDataResource
    client: SQLClient


def build_figure5_deployment(
    workload: RelationalWorkload = RelationalWorkload(),
    wsrf: bool = False,
    network: NetworkModel | None = None,
    clock: Clock | None = None,
) -> Figure5Deployment:
    database = populate_shop_database(workload)
    registry = ServiceRegistry()
    service3 = SQLRealisationService(
        "data-service-3", "dais://ds3", port_types=["rowset_access"],
        wsrf=wsrf, clock=clock,
    )
    service2 = SQLRealisationService(
        "data-service-2", "dais://ds2",
        port_types=["response_access", "response_factory"],
        rowset_target=service3, wsrf=wsrf, clock=clock,
    )
    service1 = SQLRealisationService(
        "data-service-1", "dais://ds1",
        port_types=["sql_access", "sql_factory"],
        response_target=service2, wsrf=wsrf, clock=clock,
    )
    for service in (service1, service2, service3):
        registry.register(service)
    resource = SQLDataResource(mint_abstract_name("shop"), database)
    service1.add_resource(resource)
    client = SQLClient(LoopbackTransport(registry, network=network))
    return Figure5Deployment(
        registry, service1, service2, service3, database, resource, client
    )


@dataclass
class XmlDeployment:
    """One WS-DAIX service over a catalog collection."""

    registry: ServiceRegistry
    service: XMLRealisationService
    resource: XMLCollectionResource
    client: XMLClient

    @property
    def address(self) -> str:
        return self.service.address

    @property
    def name(self) -> AbstractName:
        return self.resource.abstract_name


def build_xml_deployment(
    corpus: XmlCorpus = XmlCorpus(),
    wsrf: bool = False,
    network: NetworkModel | None = None,
    clock: Clock | None = None,
) -> XmlDeployment:
    collection = populate_catalog_collection(corpus)
    registry = ServiceRegistry()
    service = XMLRealisationService(
        "xml-service", "dais://xml-service", wsrf=wsrf, clock=clock
    )
    registry.register(service)
    resource = XMLCollectionResource(
        mint_abstract_name("catalog"), collection
    )
    service.add_resource(resource)
    client = XMLClient(LoopbackTransport(registry, network=network))
    return XmlDeployment(registry, service, resource, client)


@dataclass
class HttpDeployment:
    """One WS-DAIR service behind the real event-loop HTTP binding.

    Unlike the loopback topologies above, this one binds a TCP port:
    the load/soak tests, ``make bench-load`` and ``python -m repro
    serve`` all deploy through here so they exercise the same server
    configuration surface (worker pool, admission queue, deadlines).
    """

    registry: ServiceRegistry
    server: "DaisHttpServer"
    service: SQLRealisationService
    database: Database
    resource: SQLDataResource

    @property
    def address(self) -> str:
        return self.service.address

    @property
    def name(self) -> AbstractName:
        return self.resource.abstract_name

    @property
    def port(self) -> int:
        return self.server.port


def build_http_deployment(
    workload: RelationalWorkload = RelationalWorkload(),
    port: int = 0,
    **server_knobs,
) -> HttpDeployment:
    """One service on a real HTTP port (server not yet started).

    *server_knobs* pass straight to :class:`DaisHttpServer` — workers,
    queue_depth, queue_deadline, read_deadline, idle_timeout,
    write_timeout.
    """
    from repro.transport import DaisHttpServer

    database = populate_shop_database(workload)
    registry = ServiceRegistry()
    server = DaisHttpServer(registry, port=port, **server_knobs)
    address = server.url_for("/sql")
    service = SQLRealisationService("http-sql", address)
    registry.register(service)
    resource = SQLDataResource(mint_abstract_name("shop"), database)
    service.add_resource(resource)
    return HttpDeployment(registry, server, service, database, resource)
