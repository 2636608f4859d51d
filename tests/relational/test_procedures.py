"""Stored procedure (CALL) tests."""

import pytest

from repro.relational import (
    CatalogError,
    Database,
    ProcedureResult,
    SqlError,
)


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE accounts (id INT PRIMARY KEY, balance INT NOT NULL "
        "CHECK (balance >= 0))"
    )
    database.execute("INSERT INTO accounts VALUES (1, 100), (2, 50)")

    def transfer(execute, source, target, amount):
        amount = int(amount)
        balance = execute(
            "SELECT balance FROM accounts WHERE id = ?", (int(source),)
        ).scalar()
        execute(
            "UPDATE accounts SET balance = balance - ? WHERE id = ?",
            (amount, int(source)),
        )
        execute(
            "UPDATE accounts SET balance = balance + ? WHERE id = ?",
            (amount, int(target)),
        )
        return ProcedureResult(
            update_count=2,
            return_value="0",
            output_parameters={"previous_balance": str(balance)},
        )

    def top_accounts(execute, limit):
        result = execute(
            f"SELECT id, balance FROM accounts ORDER BY balance DESC "
            f"LIMIT {int(limit)}"
        )
        return ProcedureResult(columns=result.columns, rows=result.rows)

    database.register_procedure("transfer", transfer)
    database.register_procedure("top_accounts", top_accounts)
    return database


class TestCall:
    def test_procedure_mutates_and_reports(self, db):
        result = db.execute("CALL transfer(1, 2, 30)")
        assert result.statement_kind == "CALL"
        assert result.update_count == 2
        assert result.return_value == "0"
        assert result.output_parameters == {"previous_balance": "100"}
        balances = db.execute("SELECT balance FROM accounts ORDER BY id").rows
        assert balances == [(70,), (80,)]

    def test_procedure_returning_rows(self, db):
        result = db.execute("CALL top_accounts(1)")
        assert result.columns == ["id", "balance"]
        assert result.rows == [(1, 100)]

    def test_call_without_parens(self, db):
        db.register_procedure(
            "noop", lambda execute: ProcedureResult(update_count=0)
        )
        assert db.execute("CALL noop").update_count == 0

    def test_unknown_procedure(self, db):
        with pytest.raises(CatalogError, match="no such procedure"):
            db.execute("CALL missing()")

    def test_duplicate_registration_rejected(self, db):
        with pytest.raises(CatalogError):
            db.register_procedure("transfer", lambda execute: None)

    def test_procedure_must_return_result(self, db):
        db.register_procedure("bad", lambda execute: 42)
        with pytest.raises(SqlError, match="ProcedureResult"):
            db.execute("CALL bad()")

    def test_procedure_joins_transaction(self, db):
        session = db.create_session()
        session.execute("BEGIN")
        session.execute("CALL transfer(1, 2, 100)")
        session.execute("ROLLBACK")
        balances = db.execute("SELECT balance FROM accounts ORDER BY id").rows
        assert balances == [(100,), (50,)]

    def test_failed_procedure_statement_rolls_back_call(self, db):
        # Moving 200 overdraws account 1 (CHECK balance >= 0): the second
        # update never runs, and the first is undone by statement atomicity.
        with pytest.raises(Exception):
            db.execute("CALL transfer(1, 2, 200)")
        balances = db.execute("SELECT balance FROM accounts ORDER BY id").rows
        assert balances == [(100,), (50,)]


class TestCallThroughDais:
    def test_return_value_and_out_params_over_the_wire(self, db):
        from repro.client.sql import SQLClient
        from repro.core import ServiceRegistry, mint_abstract_name
        from repro.dair import SQLDataResource, SQLRealisationService
        from repro.transport import LoopbackTransport

        registry = ServiceRegistry()
        service = SQLRealisationService("proc", "dais://proc")
        registry.register(service)
        resource = SQLDataResource(mint_abstract_name("proc"), db)
        service.add_resource(resource)
        client = SQLClient(LoopbackTransport(registry))

        factory = client.sql_execute_factory(
            "dais://proc", resource.abstract_name, "CALL transfer(1, 2, 10)"
        )
        epr, name = factory.address, factory.abstract_name
        assert client.get_sql_return_value(epr, name) == "0"
        assert (
            client.get_sql_output_parameter(epr, name, "previous_balance")
            == "100"
        )
        items = client.get_sql_response_items(epr, name)
        assert "SQLReturnValue" in items
        assert "previous_balance" in items
        assert client.get_sql_update_count(epr, name) == 2

    def test_procedure_rows_flow_as_rowset(self, db):
        from repro.client.sql import SQLClient
        from repro.core import ServiceRegistry, mint_abstract_name
        from repro.dair import SQLDataResource, SQLRealisationService
        from repro.transport import LoopbackTransport

        registry = ServiceRegistry()
        service = SQLRealisationService("proc", "dais://proc")
        registry.register(service)
        resource = SQLDataResource(mint_abstract_name("proc"), db)
        service.add_resource(resource)
        client = SQLClient(LoopbackTransport(registry))

        rowset = client.sql_query_rowset(
            "dais://proc", resource.abstract_name, "CALL top_accounts(2)"
        )
        assert rowset.columns == ["id", "balance"]
        assert len(rowset.rows) == 2


def test_read_only_session_refuses_writes_before_they_run(db):
    """Reads run; a write — DML, DDL or one inside a procedure — is
    refused before it touches anything."""
    from repro.relational.errors import ReadOnlyViolation

    session = db.create_session()
    session.read_only = True
    for sql in (
        "UPDATE accounts SET balance = 0",
        "DELETE FROM accounts",
        "CREATE TABLE scratch (id INT)",
        "DROP TABLE accounts",
        "CALL transfer(1, 2, 10)",
    ):
        with pytest.raises(ReadOnlyViolation) as refused:
            session.execute(sql)
        assert refused.value.sqlstate == "25006"
    assert session.execute("CALL top_accounts(5)").rows == [(1, 100), (2, 50)]
    assert db.execute("SELECT id, balance FROM accounts ORDER BY id").rows == [
        (1, 100),
        (2, 50),
    ]


def test_non_writeable_resource_serves_a_call_that_only_reads(db):
    """Writeability is the read-only session's one check: a CALL whose
    body only reads is served even when it returns no rows, and one
    whose body writes is refused before the write."""
    from repro.core import ConfigurableProperties, mint_abstract_name
    from repro.core.faults import NotAuthorizedFault
    from repro.dair import SQLDataResource

    def audit(execute):
        execute("SELECT COUNT(*) FROM accounts")
        return ProcedureResult(update_count=0)

    db.register_procedure("audit", audit)
    resource = SQLDataResource(mint_abstract_name("proc"), db)
    read_only = ConfigurableProperties(writeable=False)
    assert not resource.sql_execute("CALL audit()", [], read_only).is_query
    with pytest.raises(NotAuthorizedFault, match="not writeable"):
        resource.sql_execute("CALL transfer(1, 2, 10)", [], read_only)
    assert db.execute("SELECT balance FROM accounts ORDER BY id").rows == [
        (100,),
        (50,),
    ]


def test_non_readable_resource_refuses_a_call_that_returns_rows_unchanged(db):
    """Whether a CALL returns rows shows only after it ran: on a
    non-readable, writeable binding the refusal rolls the statement back,
    so the procedure's insert is not committed."""
    from repro.core import ConfigurableProperties, mint_abstract_name
    from repro.core.faults import NotAuthorizedFault
    from repro.dair import SQLDataResource

    db.execute("CREATE TABLE audit_log (id INT)")

    def log_and_list(execute):
        execute("INSERT INTO audit_log VALUES (1)")
        result = execute("SELECT id FROM audit_log")
        return ProcedureResult(columns=result.columns, rows=result.rows)

    db.register_procedure("log_and_list", log_and_list)
    resource = SQLDataResource(mint_abstract_name("proc"), db)
    write_only = ConfigurableProperties(readable=False, writeable=True)
    assert db.execute("SELECT COUNT(*) FROM audit_log").rows == [(0,)]
    with pytest.raises(NotAuthorizedFault, match="not readable"):
        resource.sql_execute("CALL log_and_list()", [], write_only)
    assert db.execute("SELECT COUNT(*) FROM audit_log").rows == [(0,)]
    # A write that returns no rows is still committed.
    assert resource.sql_execute(
        "INSERT INTO audit_log VALUES (2)", [], write_only
    ).update_count == 1
    assert db.execute("SELECT id FROM audit_log").rows == [(2,)]
