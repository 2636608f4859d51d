"""End-to-end asynchronous factories: submit, poll, fetch, recover.

The acceptance contract: a factory request submitted with
``ExecutionMode=asynchronous`` must deliver, via the job queue and the
usual derived resources, *byte-identical* results to the same request
executed synchronously — the job spine changes when work happens, never
what the consumer reads.
"""

import dataclasses

import pytest

from repro.client.sql import configuration_document
from repro.core.faults import (
    DataResourceUnavailableFault,
    InvalidConfigurationDocumentFault,
    InvalidExpressionFault,
    InvalidResourceNameFault,
    NotAuthorizedFault,
    UnknownJobFault,
)
from repro.dair import SQLDataResource
from repro.dair import messages as dmsg
from repro.daix import messages as xmsg
from repro.dair.datasets import parse_rowset
from repro.jobs import (
    CANCELLED,
    COMPLETED,
    ERROR,
    MODE_ASYNCHRONOUS,
    JobManager,
    JobRunner,
)
from repro.jobs.messages import JOB_SET
from repro.soap.fault import SoapFault
from repro.workload import (
    RelationalWorkload,
    build_jobs_deployment,
    build_single_service,
    build_xml_deployment,
)
from repro.xmlutil import serialize_bytes

QUERY = "SELECT name, region FROM customers ORDER BY name"
PAGE = 3


@pytest.fixture()
def deployment():
    return build_jobs_deployment(RelationalWorkload(customers=10))


def _wait(deployment, job_id, **kwargs):
    """Poll without real sleeping (the loopback fabric is instant)."""
    return deployment.client.wait_for_job(
        deployment.address, job_id, sleep=lambda delay: None, **kwargs
    )


def _streamed_pages(client, response_epr, response_name) -> list[bytes]:
    """Serialize every streamed GetTuples window of the derived rowset."""
    rowset = client.sql_rowset_factory(response_epr, response_name)
    pages: list[bytes] = []
    position = 0
    while True:
        page = client.call(
            rowset.address,
            dmsg.GetTuplesRequest(
                abstract_name=rowset.abstract_name,
                start_position=position,
                count=PAGE,
            ),
        )
        if page.dataset is None:
            return pages
        pages.append(serialize_bytes(page.dataset))
        fetched = len(
            parse_rowset(page.dataset_format_uri, page.dataset).rows
        )
        position += fetched
        if position >= page.total_rows or fetched == 0:
            return pages


def test_async_results_byte_identical_to_sync(deployment):
    """The acceptance test: async vs sync, paged GetTuples, same bytes.

    Both requests carry a (empty) configuration document, which turns
    shared-result reuse off: the job derives its own resource, and the
    pages compared are two independent derivations."""
    client, address, name = deployment.client, deployment.address, deployment.name
    configuration = configuration_document()

    sync = client.sql_execute_factory(
        address, name, QUERY, configuration=configuration
    )
    assert sync.address is not None and not sync.job_id

    submitted = client.sql_execute_factory(
        address, name, QUERY, configuration=configuration,
        execution_mode=MODE_ASYNCHRONOUS,
    )
    assert submitted.job_id and submitted.address is None
    assert deployment.jobs.get(submitted.job_id).phase == "PENDING"

    deployment.runner.drain()
    status = _wait(deployment, submitted.job_id)
    assert status.phase == COMPLETED
    assert status.attempts == 1
    assert status.address is not None and status.result_name
    assert status.result_name != sync.abstract_name

    sync_pages = _streamed_pages(client, sync.address, sync.abstract_name)
    async_pages = _streamed_pages(client, status.address, status.result_name)
    assert len(sync_pages) > 1  # genuinely streamed, several windows
    assert async_pages == sync_pages

    # The streamed reader agrees end to end as well.
    sync_rowset = client.sql_rowset_factory(sync.address, sync.abstract_name)
    async_rowset = client.sql_rowset_factory(status.address, status.result_name)
    sync_rows = client.rowset_reader(
        sync_rowset.address, sync_rowset.abstract_name, page_size=PAGE
    ).read_all()
    async_rows = client.rowset_reader(
        async_rowset.address, async_rowset.abstract_name, page_size=PAGE
    ).read_all()
    assert async_rows == sync_rows
    assert len(sync_rows.rows) == 10


def test_async_xml_factory_matches_sync(tmp_path):
    deployment, manager, runner = _xml_deployment()
    client, address, name = deployment.client, deployment.address, deployment.name
    expression = "//product/name"

    sync = client.xpath_execute_factory(address, name, expression)
    submitted = client.xpath_execute_factory(
        address, name, expression, execution_mode=MODE_ASYNCHRONOUS
    )
    assert submitted.job_id and submitted.address is None
    runner.drain()
    status = client.wait_for_job(
        address, submitted.job_id, sleep=lambda delay: None
    )
    assert status.phase == COMPLETED

    sync_items, sync_total = client.get_items(
        sync.address, sync.abstract_name, 0, 1_000
    )
    async_items, async_total = client.get_items(
        status.address, status.result_name, 0, 1_000
    )
    assert async_total == sync_total > 0
    assert [serialize_bytes(item) for item in async_items] == [
        serialize_bytes(item) for item in sync_items
    ]


def _files_deployment():
    """A files service over ``data/{a,b}.csv`` + ``notes.md``, with jobs."""
    from repro.client.files import FilesClient
    from repro.core import ServiceRegistry, mint_abstract_name
    from repro.daif import FileCollectionResource, FileRealisationService
    from repro.filestore import FileStore
    from repro.transport import LoopbackTransport
    from repro.wsrf import ManualClock

    store = FileStore(ManualClock(0.0))
    store.make_directory("data")
    for name in ("a.csv", "b.csv", "notes.md"):
        store.write(f"data/{name}", b"x")
    registry = ServiceRegistry()
    service = FileRealisationService("files", "dais://files")
    registry.register(service)
    resource = FileCollectionResource(
        mint_abstract_name("data"), store, base_path="data"
    )
    service.add_resource(resource)
    manager = JobManager()
    service.enable_jobs(manager)
    runner = JobRunner(manager, workers=1)
    client = FilesClient(LoopbackTransport(registry))
    return service, resource, manager, runner, client


def _xml_deployment():
    deployment = build_xml_deployment()
    manager = JobManager()
    deployment.service.enable_jobs(manager)
    return deployment, manager, JobRunner(manager, workers=1)


def test_async_file_selection_factory_matches_sync():
    service, resource, manager, runner, client = _files_deployment()

    sync = client.file_selection_factory(
        "dais://files", resource.abstract_name, "*.csv"
    )
    submitted = client.file_selection_factory(
        "dais://files", resource.abstract_name, "*.csv",
        execution_mode=MODE_ASYNCHRONOUS,
    )
    assert submitted.job_id and submitted.address is None
    runner.drain()
    status = client.wait_for_job(
        "dais://files", submitted.job_id, sleep=lambda delay: None
    )
    assert status.phase == COMPLETED

    sync_members, sync_total = client.get_fileset_members(
        sync.address, sync.abstract_name, 0, 100
    )
    async_members, async_total = client.get_fileset_members(
        status.address, status.result_name, 0, 100
    )
    assert async_members == sync_members
    assert async_total == sync_total == 2


def test_async_error_carries_original_typed_fault(deployment):
    client, address, name = deployment.client, deployment.address, deployment.name
    bad = "SELECT broken FROM nowhere"
    with pytest.raises(InvalidExpressionFault) as sync_fault:
        client.sql_execute_factory(address, name, bad)

    submitted = client.sql_execute_factory(
        address, name, bad, execution_mode=MODE_ASYNCHRONOUS
    )
    before = set(deployment.service.resource_names())
    deployment.runner.drain()

    status = _wait(deployment, submitted.job_id, raise_on_error=False)
    assert status.phase == ERROR
    assert status.fault_type == "InvalidExpressionFault"
    # ...and the polling default rehydrates the same typed fault the
    # synchronous path raised.
    with pytest.raises(InvalidExpressionFault) as async_fault:
        _wait(deployment, submitted.job_id)
    assert type(async_fault.value) is type(sync_fault.value)
    # The reservation-leak contract: a failed execution leaves no
    # dangling derived resource behind.
    assert set(deployment.service.resource_names()) == before


def test_async_admission_faults_synchronously(deployment):
    """Bad input faults at submit time, not as a buried ERROR job."""
    client, address = deployment.client, deployment.address
    with pytest.raises(InvalidResourceNameFault):
        client.sql_execute_factory(
            address, "urn:no-such-resource", QUERY,
            execution_mode=MODE_ASYNCHRONOUS,
        )
    assert deployment.jobs.jobs() == []  # nothing was queued


def test_async_without_job_queue_is_unavailable():
    plain = build_single_service()
    with pytest.raises(DataResourceUnavailableFault):
        plain.client.sql_execute_factory(
            plain.address, plain.name, QUERY,
            execution_mode=MODE_ASYNCHRONOUS,
        )


def test_sync_factory_rolls_back_reserved_name(deployment, monkeypatch):
    """Regression: a failure after the derived name is reserved must
    destroy the reservation before the fault propagates."""
    service = deployment.service
    before = set(service.resource_names())

    def explode(abstract_name):
        raise RuntimeError("epr minting exploded after registration")

    monkeypatch.setattr(service, "epr_for", explode)
    # The fabric maps the unexpected error to a generic server fault on
    # the wire; what matters here is the rollback on the service side.
    with pytest.raises(SoapFault):
        deployment.client.sql_execute_factory(
            deployment.address, deployment.name, QUERY
        )
    assert set(service.resource_names()) == before


def test_cancel_before_execution_leaves_no_resource(deployment):
    client, address, name = deployment.client, deployment.address, deployment.name
    submitted = client.sql_execute_factory(
        address, name, QUERY, execution_mode=MODE_ASYNCHRONOUS
    )
    before = set(deployment.service.resource_names())
    cancelled = client.cancel_job(address, submitted.job_id)
    assert cancelled.phase == CANCELLED

    assert deployment.runner.drain() == 0  # nothing left to execute
    status = _wait(deployment, submitted.job_id)
    assert status.phase == CANCELLED
    assert set(deployment.service.resource_names()) == before


def test_unknown_job_id_is_a_typed_fault(deployment):
    with pytest.raises(UnknownJobFault):
        deployment.client.get_job_status(deployment.address, "urn:dais:job:nope")
    with pytest.raises(UnknownJobFault):
        deployment.client.cancel_job(deployment.address, "urn:dais:job:nope")


def test_job_set_rides_the_property_document(deployment):
    client, address, name = deployment.client, deployment.address, deployment.name
    submitted = client.sql_execute_factory(
        address, name, QUERY, execution_mode=MODE_ASYNCHRONOUS
    )
    deployment.runner.drain()
    document = client.get_property_document(address, name)
    job_set = document.find(JOB_SET)
    assert job_set is not None
    statuses = {
        status.get("job"): status.get("phase")
        for status in job_set.element_children()
    }
    assert statuses[submitted.job_id] == COMPLETED


def test_crash_restart_recovers_submitted_job(tmp_path):
    """The full story: submit async, crash before execution, restart
    from the journal, recover, execute, fetch the same rows."""
    journal_path = str(tmp_path / "jobs.jsonl")
    first = build_jobs_deployment(
        RelationalWorkload(customers=6), journal_path=journal_path
    )
    submitted = first.client.sql_execute_factory(
        first.address, first.name, QUERY, execution_mode=MODE_ASYNCHRONOUS
    )
    baseline = first.client.sql_query_rowset(first.address, first.name, QUERY)
    first.jobs.journal.close()  # the process dies before any worker ran

    second = build_jobs_deployment(
        RelationalWorkload(customers=6),
        journal_path=journal_path,
        recover=True,
    )
    # The restarted service re-registers the same durable resource name
    # the recovered job's payload points at.
    second.service.add_resource(
        SQLDataResource(first.name, second.database)
    )
    recovered = second.jobs.get(submitted.job_id)
    assert recovered.phase == "PENDING"

    second.runner.drain()
    status = second.client.wait_for_job(
        second.address, submitted.job_id, sleep=lambda delay: None
    )
    assert status.phase == COMPLETED
    rowset = second.client.sql_rowset_factory(status.address, status.result_name)
    rows = second.client.rowset_reader(
        rowset.address, rowset.abstract_name, page_size=2
    ).read_all()
    assert rows.rows == baseline.rows


# -- every factory, both modes ------------------------------------------------


def _sql_case():
    deployment = build_jobs_deployment(RelationalWorkload(customers=6))
    client, address = deployment.client, deployment.address
    # A configuration document turns shared-result reuse off, so each
    # mode derives its own response resource.
    request = dmsg.SQLExecuteFactoryRequest(
        abstract_name=deployment.name,
        expression=QUERY,
        configuration_document=configuration_document(),
    )
    return client, address, deployment.runner, request, client.get_sql_rowset


def _rowset_case():
    client, address, runner, request, _ = _sql_case()
    response = client.call(address, request)
    request = dmsg.SQLRowsetFactoryRequest(abstract_name=response.abstract_name)
    return client, response.address, runner, request, None


def _sequence_case(request_cls, expression):
    deployment, manager, runner = _xml_deployment()
    request = request_cls(abstract_name=deployment.name, expression=expression)

    def read(address, name):
        items, total = deployment.client.get_items(address, name, 0, 1_000)
        return total, [serialize_bytes(item) for item in items]

    return deployment.client, deployment.address, runner, request, read


def _fileset_case():
    from repro.daif import messages as fmsg

    service, resource, manager, runner, client = _files_deployment()
    request = fmsg.FileSelectionFactoryRequest(
        abstract_name=resource.abstract_name, expression="*.csv"
    )

    def read(address, name):
        return client.get_fileset_members(address, name, 0, 100)

    return client, service.address, runner, request, read


#: Each factory request: (client, address, runner, request, read), where
#: ``read(address, name)`` fetches the derived resource's data and None
#: means the factory has no asynchronous mode.
FACTORY_CASES = {
    "SQLExecuteFactory": _sql_case,
    "SQLRowsetFactory": _rowset_case,
    "XPathExecuteFactory": lambda: _sequence_case(
        xmsg.XPathExecuteFactoryRequest, "//product/name"
    ),
    "XQueryExecuteFactory": lambda: _sequence_case(
        xmsg.XQueryExecuteFactoryRequest,
        "for $p in /product order by $p/price return $p/price",
    ),
    "FileSelectionFactory": _fileset_case,
}


@pytest.mark.parametrize("case", sorted(FACTORY_CASES))
def test_async_equals_sync_for_every_factory(case):
    """The same request in both modes derives the same data; only when
    the work runs differs.  A factory without an asynchronous mode
    refuses it at submit and queues nothing."""
    client, address, runner, request, read = FACTORY_CASES[case]()
    deferred = dataclasses.replace(request, execution_mode=MODE_ASYNCHRONOUS)
    if read is None:
        with pytest.raises(InvalidConfigurationDocumentFault, match="asynchronous"):
            client.call(address, deferred)
        assert runner.manager.jobs() == []
        return
    sync = client.call(address, request)
    submitted = client.call(address, deferred)
    assert submitted.job_id and submitted.address is None
    assert runner.drain() == 1
    status = client.wait_for_job(address, submitted.job_id, sleep=lambda _: None)
    assert status.phase == COMPLETED
    assert status.result_name != sync.abstract_name  # two derivations
    assert read(status.address, status.result_name) == read(
        sync.address, sync.abstract_name
    )


def test_async_sql_factory_is_answered_by_the_shared_result(deployment):
    """An asynchronous SQLExecuteFactory derives exactly as the
    synchronous one would, shared-result reuse included."""
    client, address, name = deployment.client, deployment.address, deployment.name
    sync = client.sql_execute_factory(address, name, QUERY)
    submitted = client.sql_execute_factory(
        address, name, QUERY, execution_mode=MODE_ASYNCHRONOUS
    )
    deployment.runner.drain()
    status = _wait(deployment, submitted.job_id)
    assert status.result_name == sync.abstract_name
    assert deployment.service.binding(sync.abstract_name).refcount == 2


@pytest.mark.parametrize("realisation", ["xml", "files"])
def test_async_admission_of_unreadable_collection_faults_at_submit(realisation):
    if realisation == "xml":
        deployment, manager, _ = _xml_deployment()
        service, client = deployment.service, deployment.client
        request = xmsg.XPathExecuteFactoryRequest(
            abstract_name=deployment.name,
            expression="//product/name",
            execution_mode=MODE_ASYNCHRONOUS,
        )
    else:
        from repro.daif import messages as fmsg

        service, resource, manager, _, client = _files_deployment()
        request = fmsg.FileSelectionFactoryRequest(
            abstract_name=resource.abstract_name,
            expression="*.csv",
            execution_mode=MODE_ASYNCHRONOUS,
        )
    service.binding(request.abstract_name).configurable.readable = False
    with pytest.raises(NotAuthorizedFault):
        client.call(service.address, request)
    assert manager.jobs() == []


def test_async_sensitive_sql_response_is_evaluated_once_before_completion(
    deployment, monkeypatch
):
    """A SENSITIVE response is evaluated on access; asynchronously the
    work happens in the job, so the job forces one evaluation — and a
    faulting expression ends the job in ERROR, not at fetch time."""
    from repro.core import Sensitivity
    from repro.dair.resources import SQLResponseResource

    client, address, name = deployment.client, deployment.address, deployment.name
    sensitive = configuration_document(sensitivity=Sensitivity.SENSITIVE)
    evaluations = []
    evaluate = SQLResponseResource._evaluate

    def counted(resource):
        evaluations.append(resource.abstract_name)
        return evaluate(resource)

    monkeypatch.setattr(SQLResponseResource, "_evaluate", counted)
    client.sql_execute_factory(address, name, QUERY, configuration=sensitive)
    assert evaluations == []  # synchronously: not before first access

    submitted = client.sql_execute_factory(
        address, name, QUERY, configuration=sensitive,
        execution_mode=MODE_ASYNCHRONOUS,
    )
    deployment.runner.drain()
    status = _wait(deployment, submitted.job_id)
    assert evaluations == [status.result_name]

    bad = "SELECT broken FROM nowhere"
    assert client.sql_execute_factory(
        address, name, bad, configuration=sensitive
    ).abstract_name  # the synchronous EPR defers the fault to access
    before = set(deployment.service.resource_names())
    failing = client.sql_execute_factory(
        address, name, bad, configuration=sensitive,
        execution_mode=MODE_ASYNCHRONOUS,
    )
    deployment.runner.drain()
    status = _wait(deployment, failing.job_id, raise_on_error=False)
    assert status.phase == ERROR
    assert status.fault_type == "InvalidExpressionFault"
    assert set(deployment.service.resource_names()) == before
