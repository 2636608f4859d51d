"""Statement execution.

The executor turns parsed statements into results against the storage
layer.  Queries flow through relation-shaped intermediates — a
:class:`Relation` is a list of bindings plus materialized rows — which
keeps joins, grouping and set operations composable; DML routes every
mutation through the active transaction's journal so rollback can undo it.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import reduce
from operator import add
from typing import Any, Iterator

from repro.obs import add_to_current_span, get_tracer
from repro.relational import ast_nodes as ast
from repro.relational.catalog import Catalog
from repro.relational.errors import (
    CatalogError,
    ConstraintViolation,
    SqlError,
    SqlTypeError,
)
from repro.relational.expressions import (
    Compiled,
    Context,
    compile_expression,
    compile_filter,
    compile_row,
)
from repro.relational.planner import (
    EqualityLookup,
    RangeLookup,
    choose_access_path,
    conjuncts,
    recognise_equi_join,
)
from repro.relational.storage import TableStorage
from repro.relational.types import (
    NULL,
    Null,
    coerce,
    compare_values,
    comparison_key,
)


@dataclass
class Relation:
    """An intermediate result: qualified bindings + materialized rows."""

    bindings: tuple  # (qualifier, column) pairs, lower-cased
    rows: list[tuple]

    def qualifiers(self) -> set[str]:
        return {qualifier for qualifier, _ in self.bindings}


class Journal:
    """Mutation log for the active transaction (or autocommit statement)."""

    def __init__(self) -> None:
        self.entries: list[tuple] = []

    def record_insert(self, storage: TableStorage, row_id: int) -> None:
        self.entries.append(("insert", storage, row_id))

    def record_delete(self, storage: TableStorage, row_id: int, row: tuple) -> None:
        self.entries.append(("delete", storage, row_id, row))

    def record_update(self, storage: TableStorage, row_id: int, old: tuple) -> None:
        self.entries.append(("update", storage, row_id, old))

    def undo(self) -> None:
        for entry in reversed(self.entries):
            kind = entry[0]
            if kind == "insert":
                _, storage, row_id = entry
                storage.delete(row_id)
            elif kind == "delete":
                _, storage, row_id, row = entry
                storage.restore(row_id, row)
            else:
                _, storage, row_id, old = entry
                storage.update(row_id, old)
        self.entries.clear()


class Executor:
    """Executes one statement against catalog + storage."""

    def __init__(
        self,
        catalog: Catalog,
        storages: dict[str, TableStorage],
        parameters: tuple = (),
        journal: Journal | None = None,
        on_table_read=None,
        on_table_write=None,
        compiled: dict | None = None,
    ) -> None:
        self._catalog = catalog
        self._storages = storages
        self._parameters = parameters
        self._journal = journal if journal is not None else Journal()
        self._on_table_read = on_table_read or (lambda name: None)
        self._on_table_write = on_table_write or (lambda name: None)
        #: Closures by (compiler, AST, scopes).  A cached plan lends its
        #: own memo, so a repeat statement binds nothing.
        self._compiled = {} if compiled is None else compiled
        self._ctx = Context(parameters, self._run_subquery)

    # -- helpers --------------------------------------------------------------

    def with_parameters(self, parameters: tuple) -> "Executor":
        """A sibling executor sharing this one's journal and lock hooks —
        used by stored procedures to run parameterised statements inside
        the caller's transaction."""
        return Executor(
            self._catalog,
            self._storages,
            parameters,
            journal=self._journal,
            on_table_read=self._on_table_read,
            on_table_write=self._on_table_write,
        )

    def _storage(self, table: str) -> TableStorage:
        schema = self._catalog.table(table)
        return self._storages[schema.name.lower()]

    def _bind(self, compiler, node, bindings: tuple, ctx: Context) -> Compiled:
        """*node* compiled by *compiler* for rows shaped like *bindings*
        inside *ctx*'s enclosing queries — once per (node, scopes)."""
        scopes = (bindings, *ctx.scopes)
        key = (compiler, node, scopes)
        bound = self._compiled.get(key)
        if bound is None:
            # setdefault: sessions racing on one cached plan share a closure
            bound = self._compiled.setdefault(key, compiler(node, scopes))
        return bound

    def _constant(self, expr: ast.Expression, ctx: Context) -> Any:
        """Evaluate a row-less expression (LIMIT, VALUES, DEFAULT)."""
        return self._bind(compile_expression, expr, (), ctx)((), ctx)

    def _run_subquery(self, query: ast.Select, ctx: Context) -> list[tuple]:
        return self.execute_select(query, ctx)[1]

    # =========================================================================
    # SELECT
    # =========================================================================

    def execute_select(
        self, select: ast.Select, ctx: Context | None = None
    ) -> tuple[list[str], list[tuple]]:
        """Run a SELECT; returns (output column names, rows).

        Each evaluation is one ``sql.select`` span whose counter
        attributes (``rows_scanned``, ``join_rows``, …) the operator
        methods below accumulate; subqueries and unions nest as child
        spans, so a trace shows the operator tree's row flow.
        """
        with get_tracer().span("sql.select") as span:
            columns, rows = self._execute_select(select, ctx or self._ctx, span)
            if span.recording:
                span.set_attribute("rows_out", len(rows))
            return columns, rows

    def _execute_select(
        self, select: ast.Select, ctx: Context, span
    ) -> tuple[list[str], list[tuple]]:
        if self.can_stream(select):
            columns, source = self._pipeline(select, ctx, span)
            return columns, list(source)
        offset, limit = self._window(select, ctx)
        end = None if limit is None else offset + limit
        # UNION and DISTINCT lose the source rows: they order on outputs.
        on_outputs = select.union is not None or select.distinct
        columns, rows = self._select_core(
            select, ctx, sort=not on_outputs, window=end
        )
        if select.union is not None:
            union_columns, union_rows = self.execute_select(select.union.query, ctx)
            if len(union_columns) != len(columns):
                raise SqlError("UNION operands must have the same column count")
            rows = rows + union_rows
            if not select.union.all:
                rows = _distinct(rows)
        if select.order_by and on_outputs:
            outputs = Relation(_aliases(columns), rows)
            keys = self._order_keys(select, columns, rows, outputs, ctx)
            rows = [rows[i] for i in _sort_order(keys, select.order_by)]
        return columns, rows[offset:end]

    # -- streaming ----------------------------------------------------------

    def can_stream(self, select: ast.Select) -> bool:
        """True when the plan can yield rows lazily.

        Sorting, grouping, aggregation, DISTINCT and UNION are pipeline
        breakers — they need the whole input before the first output row
        — so those plans stay on :meth:`execute_select`.
        """
        if select.union is not None or select.order_by or select.distinct:
            return False
        if select.group_by or _collect_aggregates(select):
            return False
        return True

    def iter_select(
        self, select: ast.Select
    ) -> tuple[list[str], Iterator[tuple]]:
        """Lazy SELECT: output column names now, rows as a generator.

        Scan, filter, OFFSET/LIMIT and projection all run per pulled
        row, so peak memory is O(1) rows for a base-table plan (the
        storage snapshot holds row *references*, never projected
        copies).  Views, subqueries and joins fall back to a
        materialized source but still project lazily.  Callers must
        check :meth:`can_stream` first.
        """
        if not self.can_stream(select):
            raise SqlError("plan has a pipeline breaker; use execute_select")
        with get_tracer().span("sql.select") as span:
            if span.recording:
                span.set_attribute("streamed", True)
            return self._pipeline(select, self._ctx, span)

    def _pipeline(
        self, select: ast.Select, ctx: Context, span
    ) -> tuple[list[str], Iterator[tuple]]:
        """Scan → filter → OFFSET/LIMIT → project, one pulled row at a
        time.  Everything is bound before the first row is pulled, so a
        bad name is an error here, not halfway through a reply."""
        where_parts = tuple(conjuncts(select.where))
        item = select.from_item
        lazy = isinstance(item, ast.TableRef) and not self._catalog.has_view(
            item.name
        )
        if lazy:
            bindings, source = self._scan(item, where_parts)
        else:
            relation = self._evaluate_from(select, where_parts, ctx)
            bindings, source = relation.bindings, relation.rows
        columns, project = self._projector(select, bindings, bindings, ctx)
        passes = (
            self._bind(compile_filter, where_parts, bindings, ctx)
            if where_parts
            else None
        )
        offset, limit = self._window(select, ctx)

        def rows() -> Iterator[tuple]:
            scanned = skipped = produced = 0
            try:
                if limit == 0:
                    return
                for row in source:
                    scanned += 1
                    if passes is not None and not passes(row, ctx):
                        continue
                    if skipped < offset:
                        skipped += 1
                        continue
                    yield project(row, ctx)
                    produced += 1
                    if produced == limit:
                        return
            finally:
                # A streamed plan's span ended (and was exported) when
                # setup finished; exporters hold the span object, so the
                # counts land on it once known — the one honest moment
                # for a lazy plan.
                if span.recording:
                    span.set_attribute("rows_out", produced)
                    if lazy:
                        span.add("rows_scanned", scanned)
                    if passes is not None:
                        span.add("rows_filtered_out", scanned - skipped - produced)

        return columns, rows()

    def _scan(
        self, ref: ast.TableRef, where_parts: tuple
    ) -> tuple[tuple, Iterator[tuple]]:
        """Bindings and a lazy row source for a base table, through the
        best index the WHERE conjuncts allow."""
        schema = self._catalog.table(ref.name)
        self._on_table_read(schema.name.lower())
        storage = self._storage(ref.name)
        qualifier = (ref.alias or ref.name).lower()
        bindings = _table_bindings(schema, qualifier)

        path = choose_access_path(storage, qualifier, where_parts, self._parameters)
        if path is None:
            add_to_current_span("table_scans")
            return bindings, (row for _, row in storage.iter_rows())
        add_to_current_span("index_lookups")
        fetched = map(storage.get, _row_ids(path))
        return bindings, (row for row in fetched if row is not None)

    # -- column type metadata ------------------------------------------------

    def select_column_types(self, select: ast.Select) -> list[str]:
        """Best-effort SQL type names for the SELECT's output columns.

        Base-table columns resolve through the catalog (views and
        derived tables recursively); computed expressions and aggregates
        report ``""``.  Shape errors degrade to all-blank rather than
        failing the query — type metadata is advisory.
        """
        try:
            return [type_name for _, type_name in self._select_shape(select)]
        except SqlError:
            return []

    def _select_shape(self, select: ast.Select) -> list[tuple[str, str]]:
        """(output name, type name) pairs for a SELECT's projection."""
        bindings = self._binding_types(select.from_item)
        pairs: list[tuple[str, str]] = []
        for item in select.items:
            expression = item.expression
            if isinstance(expression, ast.Star):
                wanted = expression.table.lower() if expression.table else None
                for (qualifier, column), type_name in bindings:
                    if wanted is None or qualifier == wanted:
                        pairs.append((column, type_name))
                continue
            name = _output_name(item)
            if isinstance(expression, ast.ColumnRef):
                pairs.append((name, _lookup_type(bindings, expression)))
            else:
                pairs.append((name, ""))
        return pairs

    def _binding_types(
        self, item: ast.FromItem | None
    ) -> list[tuple[tuple[str, str], str]]:
        """Ordered ((qualifier, column), type name) for a FROM tree."""
        if item is None:
            return []
        if isinstance(item, ast.TableRef):
            qualifier = (item.alias or item.name).lower()
            if self._catalog.has_view(item.name):
                view = self._catalog.view(item.name)
                pairs = self._select_shape(view.query)
                if view.columns:
                    pairs = [
                        (declared, type_name)
                        for declared, (_, type_name) in zip(view.columns, pairs)
                    ]
                return [
                    ((qualifier, name.lower()), type_name)
                    for name, type_name in pairs
                ]
            schema = self._catalog.table(item.name)
            return [
                ((qualifier, column.name.lower()), column.type_display)
                for column in schema.columns
            ]
        if isinstance(item, ast.SubqueryRef):
            alias = item.alias.lower()
            return [
                ((alias, name.lower()), type_name)
                for name, type_name in self._select_shape(item.query)
            ]
        if isinstance(item, ast.Join):
            return self._binding_types(item.left) + self._binding_types(
                item.right
            )
        return []

    def _select_core(
        self, select: ast.Select, ctx: Context, sort: bool, window: int | None
    ) -> tuple[list[str], list[tuple]]:
        """FROM → WHERE → GROUP BY/HAVING → select list (no union/limit).

        With *sort* the rows come back in ORDER BY order, at most
        *window* of them, keyed on the source rows so ORDER BY may name
        columns the select list drops.
        """
        where_parts = tuple(conjuncts(select.where))
        ordered = self._ordered_path(select, where_parts)
        if ordered is not None:
            relation = self._ordered_walk(select, ordered, where_parts, window, ctx)
        else:
            relation = self._evaluate_from(select, where_parts, ctx)
            if where_parts:
                relation = self._filter(relation, where_parts, ctx)

        source = relation.bindings  # what * expands to
        aggregates = _collect_aggregates(select)
        if select.group_by or aggregates:
            relation = self._grouped(select, relation, aggregates, ctx)
        columns, project = self._projector(select, source, relation.bindings, ctx)
        rows = relation.rows

        if select.order_by and sort:
            by_output = _orders_by_output(select.order_by, columns)
            if by_output:
                rows = [project(row, ctx) for row in rows]
                keys = self._order_keys(select, columns, rows, relation, ctx)
            else:  # keys from the source rows; project only what LIMIT keeps
                terms = [
                    self._bind(compile_expression, o.expression, relation.bindings, ctx)
                    for o in select.order_by
                ]
                keys = [[term(row, ctx) for row in rows] for term in terms]
            order = _sort_order(keys, select.order_by)[:window]
            return columns, [
                rows[i] if by_output else project(rows[i], ctx) for i in order
            ]

        rows = [project(row, ctx) for row in rows]
        return columns, _distinct(rows) if select.distinct else rows

    # -- ordered top-k --------------------------------------------------------

    def _ordered_path(self, select: ast.Select, where_parts: tuple) -> RangeLookup | None:
        """The access path when ``ORDER BY … LIMIT`` can take its rows
        from an in-order walk of the first ORDER BY column's index: one
        base table, no grouping, aggregates, DISTINCT or UNION, and a
        lead term that is that table's column, not an output alias of
        another expression, whose index the planner ranges over."""
        item = select.from_item
        if (
            select.limit is None
            or not select.order_by
            or select.group_by
            or select.distinct
            or select.union is not None
            or not isinstance(item, ast.TableRef)
            or self._catalog.has_view(item.name)
        ):
            return None
        lead = select.order_by[0].expression
        qualifier = (item.alias or item.name).lower()
        if not isinstance(lead, ast.ColumnRef):
            return None
        if lead.table is not None and lead.table.lower() != qualifier:
            return None
        if lead.table is None and _shadowed(select.items, lead.column, qualifier):
            return None
        storage = self._storage(item.name)
        if not storage.schema.has_column(lead.column) or _collect_aggregates(select):
            return None
        path = choose_access_path(storage, qualifier, where_parts, self._parameters)
        if not isinstance(path, RangeLookup):
            return None
        if path.index.position != storage.schema.column_index(lead.column):
            return None
        return path

    def _ordered_walk(
        self,
        select: ast.Select,
        path: RangeLookup,
        where_parts: tuple,
        need: int,
        ctx: Context,
    ) -> Relation:
        """The rows the sort needs: walk *path*'s index in the lead
        term's direction, run the whole WHERE on each row, and stop once
        *need* rows have passed and every row tied with the last of them
        on the index key has been read.  Every row of the sorted first
        *need* is among them, and they come back in row-id order, as a
        scan gives them, so the one stable sort orders ties the same."""
        ref = select.from_item
        schema = self._catalog.table(ref.name)
        self._on_table_read(schema.name.lower())
        storage = self._storage(ref.name)
        bindings = _table_bindings(schema, (ref.alias or ref.name).lower())
        passes = self._bind(compile_filter, where_parts, bindings, ctx)
        add_to_current_span("index_lookups")
        entries = path.index.walk(
            path.low,
            path.high,
            path.low_inclusive,
            path.high_inclusive,
            descending=not select.order_by[0].ascending,
        )
        chosen: dict[int, tuple] = {}
        visited = 0
        last = _UNSET  # the need-th row's key as the sort compares it
        for key, row_id in entries:
            if len(chosen) >= need and comparison_key(key)[1] != last:
                break
            visited += 1
            row = storage.get(row_id)
            if row is None or not passes(row, ctx):
                continue
            chosen[row_id] = row
            if len(chosen) == need:
                last = comparison_key(key)[1]
        add_to_current_span("rows_scanned", visited)
        add_to_current_span("rows_filtered_out", visited - len(chosen))
        return Relation(bindings, [chosen[row_id] for row_id in sorted(chosen)])

    # -- FROM -------------------------------------------------------------

    def _evaluate_from(
        self, select: ast.Select, where_parts: tuple, ctx: Context
    ) -> Relation:
        if select.from_item is None:
            return Relation((), [()])  # one empty row: SELECT 1+1
        return self._from_item(select.from_item, where_parts, ctx)

    def _from_item(
        self, item: ast.FromItem, where_parts: tuple, ctx: Context
    ) -> Relation:
        if isinstance(item, ast.TableRef):
            if self._catalog.has_view(item.name):
                return self._view(item)
            bindings, source = self._scan(item, where_parts)
            rows = list(source)
            add_to_current_span("rows_scanned", len(rows))
            return Relation(bindings, rows)
        if isinstance(item, ast.SubqueryRef):
            columns, rows = self.execute_select(item.query, ctx)
            alias = item.alias.lower()
            return Relation(tuple((alias, c.lower()) for c in columns), rows)
        if isinstance(item, ast.Join):
            return self._join(item, where_parts, ctx)
        raise SqlError(f"unsupported FROM item {type(item).__name__}")

    def _view(self, ref: ast.TableRef) -> Relation:
        """Expand a view: run its stored query, bind under the alias."""
        view = self._catalog.view(ref.name)
        columns, rows = self.execute_select(view.query)
        if view.columns:
            if len(view.columns) != len(columns):
                raise SqlError(
                    f"view {view.name!r} declares {len(view.columns)} "
                    f"columns but its query yields {len(columns)}"
                )
            columns = list(view.columns)
        qualifier = (ref.alias or ref.name).lower()
        return Relation(tuple((qualifier, c.lower()) for c in columns), rows)

    def _join(self, join: ast.Join, where_parts: tuple, ctx: Context) -> Relation:
        left = self._from_item(join.left, where_parts, ctx)
        right = self._from_item(join.right, where_parts, ctx)
        bindings = left.bindings + right.bindings

        if join.kind == "CROSS":
            rows = [
                lrow + rrow for lrow in left.rows for rrow in right.rows
            ]
            relation = Relation(bindings, rows)
            add_to_current_span("cross_joins")
        else:
            equi = recognise_equi_join(
                join.condition, left.qualifiers(), right.qualifiers()
            )
            if equi is not None:
                relation = self._hash_join(join.kind, left, right, equi, ctx)
                add_to_current_span("hash_joins")
            else:
                relation = self._nested_loop_join(join, left, right, ctx)
                add_to_current_span("nested_loop_joins")
        add_to_current_span("join_rows", len(relation.rows))
        return relation

    def _hash_join(
        self, kind: str, left: Relation, right: Relation, equi, ctx: Context
    ) -> Relation:
        bindings = left.bindings + right.bindings
        left_key = self._bind(compile_expression, equi.left_expr, left.bindings, ctx)
        right_key = self._bind(
            compile_expression, equi.right_expr, right.bindings, ctx
        )
        residual = (
            self._bind(compile_filter, tuple(equi.residual), bindings, ctx)
            if equi.residual
            else None
        )
        buckets: dict[Any, list[tuple]] = {}
        for rrow in right.rows:
            key = right_key(rrow, ctx)
            if key is not NULL:
                buckets.setdefault(_group_key(key), []).append(rrow)

        null_padding = (NULL,) * len(right.bindings)
        rows: list[tuple] = []
        for lrow in left.rows:
            key = left_key(lrow, ctx)
            matched = False
            for rrow in () if key is NULL else buckets.get(_group_key(key), ()):
                combined = lrow + rrow
                if residual is None or residual(combined, ctx):
                    rows.append(combined)
                    matched = True
            if kind == "LEFT" and not matched:
                rows.append(lrow + null_padding)
        return Relation(bindings, rows)

    def _nested_loop_join(
        self, join: ast.Join, left: Relation, right: Relation, ctx: Context
    ) -> Relation:
        bindings = left.bindings + right.bindings
        condition = (
            self._bind(compile_expression, join.condition, bindings, ctx)
            if join.condition is not None
            else None
        )
        null_padding = (NULL,) * len(right.bindings)
        rows: list[tuple] = []
        for lrow in left.rows:
            matched = False
            for rrow in right.rows:
                combined = lrow + rrow
                if condition is None or condition(combined, ctx) is True:
                    rows.append(combined)
                    matched = True
            if join.kind == "LEFT" and not matched:
                rows.append(lrow + null_padding)
        return Relation(bindings, rows)

    # -- WHERE -------------------------------------------------------------

    def _filter(
        self, relation: Relation, where_parts: tuple, ctx: Context
    ) -> Relation:
        passes = self._bind(compile_filter, where_parts, relation.bindings, ctx)
        rows = [row for row in relation.rows if passes(row, ctx)]
        add_to_current_span("rows_filtered_out", len(relation.rows) - len(rows))
        return Relation(relation.bindings, rows)

    # -- projection ---------------------------------------------------------

    def _projector(
        self, select: ast.Select, source: tuple, bindings: tuple, ctx: Context
    ) -> tuple[list[str], Compiled]:
        """Output names and the row → output-tuple closure of the select
        list; ``*`` expands to *source*, expressions bind to *bindings*."""
        names: list[str] = []
        expressions: list[ast.Expression] = []
        for item in select.items:
            expression = item.expression
            if isinstance(expression, ast.Star):
                wanted = expression.table.lower() if expression.table else None
                matched = [
                    (qualifier, column)
                    for qualifier, column in source
                    if wanted is None or qualifier == wanted
                ]
                if not matched:
                    raise CatalogError(
                        f"unknown table alias {expression.table!r} in select list"
                    )
                names += [column for _, column in matched]
                expressions += [ast.ColumnRef(q, column) for q, column in matched]
                continue
            names.append(_output_name(item))
            expressions.append(expression)
        return names, self._bind(compile_row, tuple(expressions), bindings, ctx)

    def _order_keys(
        self,
        select: ast.Select,
        columns: list[str],
        projected: list[tuple],
        source: Relation,
        ctx: Context,
    ) -> list[list]:
        """One list of keys per ORDER BY term, evaluated with the output
        aliases layered over the source rows, so both ``ORDER BY alias``
        and ``ORDER BY raw_col`` (and 1-based ordinals) resolve."""
        under = Context(
            ctx.parameters, ctx.run_subquery, (source.bindings, *ctx.scopes)
        )
        aliases = _aliases(columns)
        names = [name for _, name in aliases]
        keys: list[list] = []
        for order in select.order_by:
            expression = order.expression
            position = None
            if _is_ordinal(expression):
                position = expression.value - 1
                if not 0 <= position < len(columns):
                    raise SqlError(f"ORDER BY ordinal {position + 1} out of range")
            elif isinstance(expression, ast.ColumnRef) and expression.table is None:
                if names.count(expression.column.lower()) == 1:
                    position = names.index(expression.column.lower())
            if position is not None:  # an output column as it stands
                keys.append([row[position] for row in projected])
                continue
            term = self._bind(compile_expression, expression, aliases, under)
            column = []
            for row, source_row in zip(projected, source.rows):
                under.outer = (source_row, *ctx.outer)
                column.append(term(row, under))
            keys.append(column)
        return keys

    # -- grouping ------------------------------------------------------------

    def _grouped(
        self,
        select: ast.Select,
        relation: Relation,
        aggregates: list[ast.Aggregate],
        ctx: Context,
    ) -> Relation:
        """One row per group that passes HAVING: a representative source
        row followed by the group's aggregate results (bound, in the
        scope, as the ``ast.Aggregate`` nodes themselves)."""
        bindings = relation.bindings
        key_of = self._bind(compile_row, select.group_by, bindings, ctx)
        groups: dict[tuple, list[tuple]] = {}
        for row in relation.rows:
            key = tuple(map(_group_key, key_of(row, ctx)))
            groups.setdefault(key, []).append(row)
        if not select.group_by and not groups:
            groups[()] = []

        arguments = [
            None  # COUNT(*)
            if aggregate.argument is None
            else self._bind(compile_expression, aggregate.argument, bindings, ctx)
            for aggregate in aggregates
        ]
        grouped = bindings + tuple(aggregates)
        having = (
            self._bind(compile_expression, select.having, grouped, ctx)
            if select.having is not None
            else None
        )
        padding = (NULL,) * len(bindings)
        rows = []
        for members in groups.values():
            row = (members[0] if members else padding) + tuple(
                _aggregate(aggregate, argument, members, ctx)
                for aggregate, argument in zip(aggregates, arguments)
            )
            if having is None or having(row, ctx) is True:
                rows.append(row)
        return Relation(grouped, rows)

    def _window(self, select: ast.Select, ctx: Context) -> tuple[int, int | None]:
        """(OFFSET, LIMIT) as integers; LIMIT is None when absent."""
        offset, limit = 0, None
        if select.offset is not None:
            offset = _expect_int(self._constant(select.offset, ctx), "OFFSET")
        if select.limit is not None:
            limit = _expect_int(self._constant(select.limit, ctx), "LIMIT")
        return offset, limit

    # -- EXPLAIN ---------------------------------------------------------------

    def explain_select(self, select: ast.Select) -> list[str]:
        """A one-line-per-source description of the chosen access paths."""
        lines: list[str] = []
        where_parts = tuple(conjuncts(select.where))
        ordered = self._ordered_path(select, where_parts)
        if ordered is not None:
            table = self._catalog.table(select.from_item.name).name
            line = f"INDEX ORDERED SCAN {table} ({ordered.index.name})"
            try:
                offset, limit = self._window(select, self._ctx)
                line += f" LIMIT {offset + limit}"
            except SqlError:  # EXPLAIN was not given the window's parameters
                pass
            lines.append(line)
        else:
            self._explain_from(select.from_item, where_parts, lines)
        if select.group_by or _collect_aggregates(select):
            lines.append("AGGREGATE")
        if select.order_by and ordered is None:
            lines.append(f"SORT ({len(select.order_by)} key(s))")
        if select.limit is not None:
            lines.append("LIMIT")
        return lines

    def _explain_from(self, item, where_parts, lines: list[str]) -> None:
        if item is None:
            lines.append("NO TABLE (constant row)")
            return
        if isinstance(item, ast.TableRef):
            if self._catalog.has_view(item.name):
                lines.append(f"VIEW EXPANSION {item.name}")
                return
            schema = self._catalog.table(item.name)
            storage = self._storages[schema.name.lower()]
            qualifier = (item.alias or item.name).lower()
            path = choose_access_path(
                storage, qualifier, where_parts, self._parameters
            )
            if isinstance(path, EqualityLookup):
                lines.append(
                    f"INDEX LOOKUP {schema.name} ({path.index.name})"
                )
            elif isinstance(path, RangeLookup):
                lines.append(
                    f"INDEX RANGE SCAN {schema.name} ({path.index.name})"
                )
            else:
                lines.append(f"FULL SCAN {schema.name}")
            return
        if isinstance(item, ast.SubqueryRef):
            lines.append(f"DERIVED TABLE {item.alias}")
            return
        if isinstance(item, ast.Join):
            self._explain_from(item.left, where_parts, lines)
            self._explain_from(item.right, where_parts, lines)
            if item.kind == "CROSS":
                lines.append("CROSS JOIN")
                return
            left_q = self._qualifiers_of(item.left)
            right_q = self._qualifiers_of(item.right)
            equi = recognise_equi_join(item.condition, left_q, right_q)
            strategy = "HASH JOIN" if equi is not None else "NESTED LOOP JOIN"
            lines.append(f"{item.kind} {strategy}")

    def _qualifiers_of(self, item) -> set[str]:
        if isinstance(item, ast.TableRef):
            return {(item.alias or item.name).lower()}
        if isinstance(item, ast.SubqueryRef):
            return {item.alias.lower()}
        if isinstance(item, ast.Join):
            return self._qualifiers_of(item.left) | self._qualifiers_of(item.right)
        return set()

    # =========================================================================
    # DML
    # =========================================================================

    def execute_insert(self, insert: ast.Insert) -> int:
        with get_tracer().span("sql.insert", table=insert.table) as span:
            count = self._execute_insert(insert)
            span.set_attribute("rows", count)
            return count

    def _execute_insert(self, insert: ast.Insert) -> int:
        schema = self._catalog.table(insert.table)
        self._on_table_write(schema.name.lower())
        storage = self._storage(insert.table)

        if insert.columns:
            positions = [schema.column_index(c) for c in insert.columns]
        else:
            positions = list(range(len(schema.columns)))

        if insert.query is not None:
            _, source_rows = self.execute_select(insert.query)
            value_rows = source_rows
        else:
            value_rows = [
                self._bind(compile_row, row, (), self._ctx)((), self._ctx)
                for row in insert.rows
            ]

        count = 0
        for values in value_rows:
            if len(values) != len(positions):
                raise SqlError(
                    f"INSERT supplies {len(values)} values for "
                    f"{len(positions)} columns"
                )
            row = self._build_row(schema, positions, values)
            self._check_row(schema, row)
            self._check_foreign_keys(schema, row)
            row_id = storage.insert(row)
            self._journal.record_insert(storage, row_id)
            count += 1
        return count

    def _build_row(self, schema, positions: list[int], values: tuple) -> tuple:
        row: list[Any] = [None] * len(schema.columns)
        supplied = set(positions)
        for position, value in zip(positions, values):
            column = schema.columns[position]
            row[position] = coerce(value, column.sql_type, column.length)
        for position, column in enumerate(schema.columns):
            if position in supplied:
                continue
            if column.default is not None:
                row[position] = coerce(
                    self._constant(column.default, self._ctx),
                    column.sql_type,
                    column.length,
                )
            else:
                row[position] = NULL
        return tuple(row)

    def _check_row(self, schema, row: tuple) -> None:
        for column in schema.columns:
            if column.not_null and row[column.position] is NULL:
                raise ConstraintViolation(
                    f"column {schema.name}.{column.name} may not be NULL"
                )
        for check in schema.checks:
            if check.compiled is None:
                # Unqualified references match any qualifier, so one
                # binding set under the table name serves both styles.
                check.compiled = compile_expression(
                    check.expression, (_table_bindings(schema),)
                )
            # NULL passes a CHECK per the standard
            if check.compiled(row, self._ctx) is False:
                raise ConstraintViolation(
                    f"check constraint {check.name!r} violated"
                )

    def _check_foreign_keys(self, schema, row: tuple) -> None:
        for fk in schema.foreign_keys:
            key = tuple(
                row[schema.column_index(column)] for column in fk.columns
            )
            if any(value is NULL for value in key):
                continue
            parent_schema = self._catalog.table(fk.ref_table)
            parent_storage = self._storage(fk.ref_table)
            index = parent_storage.find_hash_index(fk.ref_columns)
            if index is not None:
                if not index.lookup(key):
                    raise ConstraintViolation(
                        f"foreign key {fk.name!r}: no parent row {key!r} "
                        f"in {fk.ref_table}"
                    )
                continue
            positions = [parent_schema.column_index(c) for c in fk.ref_columns]
            if not any(
                tuple(parent_row[p] for p in positions) == key
                for _, parent_row in parent_storage.rows()
            ):
                raise ConstraintViolation(
                    f"foreign key {fk.name!r}: no parent row {key!r} "
                    f"in {fk.ref_table}"
                )

    def _check_no_children(self, schema, row: tuple) -> None:
        """RESTRICT semantics: reject delete/update of a referenced key."""
        for other_name in self._catalog.table_names():
            other = self._catalog.table(other_name)
            for fk in other.foreign_keys:
                if fk.ref_table.lower() != schema.name.lower():
                    continue
                key = tuple(
                    row[schema.column_index(c)] for c in fk.ref_columns
                )
                if any(value is NULL for value in key):
                    continue
                child_storage = self._storage(other_name)
                index = child_storage.find_hash_index(fk.columns)
                if index is not None:
                    if index.lookup(key):
                        raise ConstraintViolation(
                            f"row is referenced by {other.name}.{fk.name}"
                        )
                    continue
                positions = [other.column_index(c) for c in fk.columns]
                for _, child_row in child_storage.rows():
                    if tuple(child_row[p] for p in positions) == key:
                        raise ConstraintViolation(
                            f"row is referenced by {other.name}.{fk.name}"
                        )

    def execute_update(self, update: ast.Update) -> int:
        with get_tracer().span("sql.update", table=update.table) as span:
            count = self._execute_update(update)
            span.set_attribute("rows", count)
            return count

    def _execute_update(self, update: ast.Update) -> int:
        schema = self._catalog.table(update.table)
        self._on_table_write(schema.name.lower())
        storage = self._storage(update.table)
        bindings, ctx = _table_bindings(schema), self._ctx

        assignments = [
            (
                schema.column_index(column),
                schema.column(column),
                self._bind(compile_expression, expression, bindings, ctx),
            )
            for column, expression in update.assignments
        ]
        targets = self._targets(storage, update.where, bindings)

        for row_id, old_row in targets:
            new_values = list(old_row)
            for position, column, expression in assignments:
                value = expression(old_row, ctx)
                new_values[position] = coerce(value, column.sql_type, column.length)
            new_row = tuple(new_values)
            self._check_row(schema, new_row)
            self._check_foreign_keys(schema, new_row)
            if self._key_changed(schema, old_row, new_row):
                self._check_no_children(schema, old_row)
            storage.update(row_id, new_row)
            self._journal.record_update(storage, row_id, old_row)
        return len(targets)

    def _key_changed(self, schema, old_row: tuple, new_row: tuple) -> bool:
        referenced: set[int] = set()
        for other_name in self._catalog.table_names():
            for fk in self._catalog.table(other_name).foreign_keys:
                if fk.ref_table.lower() == schema.name.lower():
                    referenced.update(
                        schema.column_index(c) for c in fk.ref_columns
                    )
        return any(
            compare_values(old_row[p], new_row[p]) != 0
            if old_row[p] is not NULL and new_row[p] is not NULL
            else (old_row[p] is NULL) != (new_row[p] is NULL)
            for p in referenced
        )

    def _targets(
        self, storage: TableStorage, where: ast.Expression | None, bindings: tuple
    ) -> list[tuple[int, tuple]]:
        """The (row id, row) pairs an UPDATE/DELETE's WHERE selects.  The
        WHERE picks an index as a SELECT's does (:meth:`_scan`) and still
        runs whole on every candidate; indexed candidates come in row-id
        order, as :meth:`_scan` reads them."""
        path = None
        if where is not None:
            path = choose_access_path(
                storage,
                storage.schema.name.lower(),
                tuple(conjuncts(where)),
                self._parameters,
            )
        if path is None:
            add_to_current_span("table_scans")
            candidates = list(storage.rows())
        else:
            add_to_current_span("index_lookups")
            candidates = [
                (row_id, row)
                for row_id in _row_ids(path)
                if (row := storage.get(row_id)) is not None
            ]
        add_to_current_span("rows_scanned", len(candidates))
        if where is None:
            return candidates
        test = self._bind(compile_expression, where, bindings, self._ctx)
        ctx = self._ctx
        return [pair for pair in candidates if test(pair[1], ctx) is True]

    def execute_delete(self, delete: ast.Delete) -> int:
        with get_tracer().span("sql.delete", table=delete.table) as span:
            count = self._execute_delete(delete)
            span.set_attribute("rows", count)
            return count

    def _execute_delete(self, delete: ast.Delete) -> int:
        schema = self._catalog.table(delete.table)
        self._on_table_write(schema.name.lower())
        storage = self._storage(delete.table)
        targets = self._targets(storage, delete.where, _table_bindings(schema))

        for row_id, row in targets:
            self._check_no_children(schema, row)
            storage.delete(row_id)
            self._journal.record_delete(storage, row_id, row)
        return len(targets)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


#: No key yet: unequal to every key the ordered walk compares with it.
_UNSET = object()


def _row_ids(path: EqualityLookup | RangeLookup) -> list[int]:
    """The row ids an index access path selects, in row-id order."""
    if isinstance(path, EqualityLookup):
        return sorted(path.index.lookup(path.key))
    return sorted(
        set(
            path.index.range(
                path.low, path.high, path.low_inclusive, path.high_inclusive
            )
        )
    )


def _output_name(item: ast.SelectItem) -> str:
    if item.alias:
        return item.alias
    expression = item.expression
    if isinstance(expression, ast.ColumnRef):
        return expression.column
    if isinstance(expression, ast.Aggregate):
        return expression.name
    if isinstance(expression, ast.FunctionCall):
        return expression.name
    return "expr"


def _lookup_type(
    bindings: list[tuple[tuple[str, str], str]], ref: ast.ColumnRef
) -> str:
    wanted_table = ref.table.lower() if ref.table else None
    wanted_column = ref.column.lower()
    for (qualifier, column), type_name in bindings:
        if column != wanted_column:
            continue
        if wanted_table is None or qualifier == wanted_table:
            return type_name
    return ""


def _table_bindings(schema, qualifier: str | None = None) -> tuple:
    """The scope a table's rows bind under (its own name by default)."""
    qualifier = qualifier or schema.name.lower()
    return tuple((qualifier, c.lower()) for c in schema.column_names)


def _aliases(columns: list[str]) -> tuple:
    """The output columns as an unqualified scope (ORDER BY's alias layer)."""
    return tuple(("", c.lower()) for c in columns)


def _walk(node) -> Iterator:
    """*node* and the expressions below it.  Subqueries manage their own
    names and aggregates, and nested aggregates are invalid anyway, so
    neither is descended into."""
    yield node
    if isinstance(node, (ast.Aggregate, ast.Select)):
        return
    for field_name in getattr(node, "__dataclass_fields__", ()):
        value = getattr(node, field_name)
        for element in value if isinstance(value, tuple) else (value,):
            for sub in element if isinstance(element, tuple) else (element,):
                yield from _walk(sub)


def _collect_aggregates(select: ast.Select) -> list[ast.Aggregate]:
    roots = [item.expression for item in select.items]
    roots += [] if select.having is None else [select.having]
    roots += [order.expression for order in select.order_by]
    found: dict[ast.Aggregate, None] = {}
    for root in roots:
        for node in _walk(root):
            if isinstance(node, ast.Aggregate):
                found.setdefault(node)
    return list(found)


def _shadowed(items: tuple, column: str, qualifier: str) -> bool:
    """True when an output column named *column* is not that column of
    the table bound as *qualifier*: ``ORDER BY column`` then sorts on it."""
    column = column.lower()
    for item in items:
        expression = item.expression
        if isinstance(expression, ast.Star) or _output_name(item).lower() != column:
            continue
        if not (
            isinstance(expression, ast.ColumnRef)
            and expression.column.lower() == column
            and (expression.table or qualifier).lower() == qualifier
        ):
            return True
    return False


def _is_ordinal(expression: ast.Expression) -> bool:
    return isinstance(expression, ast.Literal) and type(expression.value) is int


def _orders_by_output(order_by: tuple, columns: list[str]) -> bool:
    """True when an ORDER BY term needs the projected row: an ordinal, an
    unqualified name that is an output column, or (conservatively) a
    subquery.  Otherwise the keys come from the source rows alone and
    only the rows that survive LIMIT are projected."""
    names = {c.lower() for c in columns}
    for order in order_by:
        if _is_ordinal(order.expression):
            return True
        for node in _walk(order.expression):
            if isinstance(node, ast.ColumnRef):
                if node.table is None and node.column.lower() in names:
                    return True
            elif isinstance(node, (ast.Exists, ast.InSubquery, ast.ScalarSubquery)):
                return True
    return False


def _aggregate(
    aggregate: ast.Aggregate, argument: Compiled | None, rows: list, ctx: Context
) -> Any:
    if argument is None:  # COUNT(*)
        return len(rows)
    values = [v for v in [argument(row, ctx) for row in rows] if v is not NULL]
    if aggregate.distinct:
        values = _distinct_values(values)
    return _fold_aggregate(aggregate.name, values)


def _fold_aggregate(name: str, values: list) -> Any:
    if name == "COUNT":
        return len(values)
    if not values:
        return NULL
    if name == "SUM":
        return _numeric_sum(values)
    if name == "AVG":
        total = _numeric_sum(values)
        if isinstance(total, Decimal):
            return total / Decimal(len(values))
        return total / len(values)
    if name == "MIN":
        return _extreme(values, want_smaller=True)
    if name == "MAX":
        return _extreme(values, want_smaller=False)
    raise SqlError(f"unknown aggregate {name}")


def _numeric_sum(values: list) -> Any:
    if set(map(type, values)) <= {int, float}:
        # the loop's additions in its order: sum() compensates floats (3.12+)
        return reduce(add, values)
    total = values[0]
    if not isinstance(total, (int, float, Decimal)) or isinstance(total, bool):
        raise SqlTypeError("SUM/AVG require numeric values")
    for value in values[1:]:
        if not isinstance(value, (int, float, Decimal)) or isinstance(value, bool):
            raise SqlTypeError("SUM/AVG require numeric values")
        if isinstance(total, Decimal) or isinstance(value, Decimal):
            total = Decimal(str(total)) + Decimal(str(value))
        else:
            total = total + value
    return total


def _extreme(values: list, want_smaller: bool) -> Any:
    best = values[0]
    for value in values[1:]:
        comparison = compare_values(value, best)
        if comparison is None:
            continue
        if (comparison < 0) == want_smaller and comparison != 0:
            best = value
    return best


def _distinct(rows: list[tuple]) -> list[tuple]:
    seen: set = set()
    out: list[tuple] = []
    for row in rows:
        key = tuple(_group_key(v) for v in row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _distinct_values(values: list) -> list:
    seen: set = set()
    out = []
    for value in values:
        key = _group_key(value)
        if key not in seen:
            seen.add(key)
            out.append(value)
    return out


def _group_key(value: Any) -> Any:
    if type(value) is str:
        return value
    if value is NULL:
        return ("\0null",)
    if isinstance(value, bool):
        return ("\0bool", value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, Decimal):
        return float(value)
    return value


def _sort_order(keys: list[list], order_by: tuple[ast.OrderItem, ...]) -> list[int]:
    """Row indices in ORDER BY order, from one list of keys per term.

    One stable C-level sort per term, last term first; a descending pass
    is ``reverse=True``, which keeps ties in input order.  NULLs go
    last in either direction.
    """
    order = list(range(len(keys[0])))
    for values, item in zip(reversed(keys), reversed(order_by)):
        column = _sort_column(values)
        present = [i for i in order if values[i] is not NULL]
        present.sort(key=column.__getitem__, reverse=not item.ascending)
        order = present + [i for i in order if values[i] is NULL]
    return order


def _sort_column(values: list) -> list:
    """*values* as keys ``list.sort`` orders the way ``compare_values``
    does: one comparison family per column, a num/str mix compared as
    numbers, any other mix a type error."""
    kinds = set(map(type, values))
    kinds.discard(Null)
    if kinds <= {int, float} or kinds <= {str}:
        return values
    keyed = [v if v is NULL else comparison_key(v) for v in values]
    families = sorted({k[0] for k in keyed if k is not NULL})
    if len(families) <= 1:
        return [k if k is NULL else k[1] for k in keyed]
    if families != ["num", "str"]:
        raise SqlTypeError(f"cannot compare {families[0]} with {families[1]}")
    try:
        return [k if k is NULL else float(k[1]) for k in keyed]
    except ValueError as exc:
        raise SqlTypeError(f"cannot compare number with string: {exc}") from None


def _expect_int(value: Any, clause: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
        return value
    raise SqlError(f"{clause} requires a non-negative integer")
