"""Experiment X5 — transaction initiation modes (paper §2.4 / Figure 4).

The ``TransactionInitiation`` property offers three modes: none,
automatic (one atomic transaction per message) and consumer-controlled
contexts.  This benchmark measures what consumer contexts buy: a batch
of N updates as N autocommit messages vs N messages inside one context,
plus the atomicity difference under failure.
"""

from benchmarks.harness import Table, measure_wall
from repro.core.properties import TransactionInitiation
from repro.workload import RelationalWorkload, build_single_service

BATCH = 40


def _deployment():
    deployment = build_single_service(RelationalWorkload(customers=60))
    binding = deployment.service.binding(deployment.name)
    binding.configurable.transaction_initiation = TransactionInitiation.CONSUMER
    return deployment


def test_x5_batch_update_modes(benchmark):
    table = Table(
        "X5 — batch of 40 single-row updates",
        ["mode", "ms", "round trips"],
        note="consumer context adds begin/commit trips but one commit",
    )

    def run_comparison():
        deployment = _deployment()
        client, address, name = (
            deployment.client, deployment.address, deployment.name,
        )

        def autocommit_batch():
            for customer_id in range(1, BATCH + 1):
                client.sql_execute(
                    address, name,
                    "UPDATE customers SET segment = 'auto' WHERE id = ?",
                    parameters=[str(customer_id)],
                )

        def context_batch():
            context = client.begin_transaction(address, name)
            for customer_id in range(1, BATCH + 1):
                client.sql_execute(
                    address, name,
                    "UPDATE customers SET segment = 'ctx' WHERE id = ?",
                    parameters=[str(customer_id)],
                    transaction_context=context,
                )
            client.commit_transaction(address, name, context)

        stats = client.transport.stats
        auto_seconds = measure_wall(autocommit_batch, repeat=2)
        stats.reset()
        autocommit_batch()
        auto_calls = stats.call_count

        ctx_seconds = measure_wall(context_batch, repeat=2)
        stats.reset()
        context_batch()
        ctx_calls = stats.call_count

        table.add("autocommit", f"{auto_seconds * 1e3:8.2f}", auto_calls)
        table.add("consumer context", f"{ctx_seconds * 1e3:8.2f}", ctx_calls)

    benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table.show()
    assert table.rows[1][2] == table.rows[0][2] + 2  # begin + commit


def test_x5_atomicity_under_failure(benchmark):
    table = Table(
        "X5 — failure mid-batch: what survives?",
        ["mode", "rows changed after failure"],
        note="autocommit keeps the prefix; a context rolls back everything",
    )

    def run_comparison():
        # Autocommit: the first half lands, the failure loses only itself.
        deployment = _deployment()
        client, address, name = (
            deployment.client, deployment.address, deployment.name,
        )
        for customer_id in (1, 2):
            client.sql_execute(
                address, name,
                "UPDATE customers SET segment = 'x' WHERE id = ?",
                parameters=[str(customer_id)],
            )
        try:
            client.sql_execute(address, name, "THIS FAILS")
        except Exception:
            pass
        survived = client.sql_query_rowset(
            address, name,
            "SELECT COUNT(*) FROM customers WHERE segment = 'x'",
        ).rows[0][0]
        table.add("autocommit", survived)

        # Context: the same sequence rolls back as a unit.
        deployment = _deployment()
        client, address, name = (
            deployment.client, deployment.address, deployment.name,
        )
        context = client.begin_transaction(address, name)
        for customer_id in (1, 2):
            client.sql_execute(
                address, name,
                "UPDATE customers SET segment = 'x' WHERE id = ?",
                parameters=[str(customer_id)],
                transaction_context=context,
            )
        try:
            client.sql_execute(
                address, name, "THIS FAILS", transaction_context=context
            )
        except Exception:
            pass
        client.rollback_transaction(address, name, context)
        survived = client.sql_query_rowset(
            address, name,
            "SELECT COUNT(*) FROM customers WHERE segment = 'x'",
        ).rows[0][0]
        table.add("consumer context", survived)

    benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table.show()
    assert table.rows[0][1] == "2"
    assert table.rows[1][1] == "0"


def test_x5_context_execute_latency(benchmark):
    deployment = _deployment()
    client, address, name = (
        deployment.client, deployment.address, deployment.name,
    )
    context = client.begin_transaction(address, name)
    benchmark(
        lambda: client.sql_execute(
            address, name,
            "UPDATE customers SET segment = 'bench' WHERE id = 1",
            transaction_context=context,
        )
    )
    client.rollback_transaction(address, name, context)
