"""Durable asynchronous factories: submit, crash, recover, fetch.

Submits a factory request with ``ExecutionMode=asynchronous``, kills
the process before any worker runs, restarts from the job journal,
recovers and executes the job, then pages the derived rowset through
streamed ``GetTuples``.

Run:  python examples/durable_jobs.py
"""

import os
import tempfile

from repro.dair import SQLDataResource
from repro.jobs import MODE_ASYNCHRONOUS, read_journal
from repro.workload import RelationalWorkload, build_jobs_deployment

QUERY = "SELECT region, COUNT(*) FROM customers GROUP BY region ORDER BY 1"


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="dais-jobs-") as scratch:
        run(os.path.join(scratch, "jobs.jsonl"))


def run(journal_path: str) -> None:
    workload = RelationalWorkload(customers=10)
    print("1. first process: submit an asynchronous factory request")
    first = build_jobs_deployment(workload, journal_path=journal_path)
    submitted = first.client.sql_execute_factory(
        first.address, first.name, QUERY, execution_mode=MODE_ASYNCHRONOUS
    )
    job = first.jobs.get(submitted.job_id)
    print(f"   job {job.job_id}")
    print(f"   phase {job.phase}, journalled to {journal_path}")

    print("2. crash: the process dies before any worker claims the job")
    first.jobs.journal.close()
    records = read_journal(journal_path)
    print(f"   journal holds {len(records)} durable record(s)")

    print("3. restart: rebuild the job table from the journal")
    second = build_jobs_deployment(
        workload, journal_path=journal_path, recover=True
    )
    # The restarted service re-registers the same durable resource name
    # the recovered job's payload points at.
    second.service.add_resource(SQLDataResource(first.name, second.database))
    recovered = second.jobs.get(submitted.job_id)
    print(f"   recovered phase {recovered.phase}")

    print("4. execute: drain the queue, poll to a terminal phase")
    second.runner.drain()
    status = second.client.wait_for_job(
        second.address, submitted.job_id, sleep=lambda delay: None
    )
    print(f"   phase {status.phase}, attempts {status.attempts}")
    print(f"   derived resource {status.result_name}")

    print("5. fetch: page the derived rowset through streamed GetTuples")
    rowset = second.client.sql_rowset_factory(status.address, status.result_name)
    reader = second.client.rowset_reader(
        rowset.address, rowset.abstract_name, page_size=2
    )
    for row in reader:
        print("   " + " | ".join(str(value) for value in row))
    print(f"   {reader.total_rows} row(s) in {reader.pages_fetched} GetTuples page(s)")
    print(f"\njob table after the run: {second.jobs.counts()}")


if __name__ == "__main__":
    main()
