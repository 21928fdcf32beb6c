"""Logical plan → SQL text, per backend dialect.

The generator flattens operator stacks into as few SELECT blocks as
possible (remote query *quality* matters as much as quantity, paper 3.1)
and raises :class:`CapabilityError` when a plan needs something the
backend cannot do — the compiler reacts by hoisting that operation into
local post-processing or by externalizing state into temporary tables.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from ..datatypes import LogicalType
from ..errors import CapabilityError, SqlError
from ..expr.ast import AggExpr, Call, CaseWhen, Cast, ColumnRef, Expr, Literal
from ..tde.tql.binder import bind
from ..tde.tql.plan import (
    Aggregate,
    Distinct,
    Join,
    Limit,
    LogicalPlan,
    Order,
    Project,
    Select,
    TableScan,
    TopN,
)
from .dialects import Capabilities

_SQL_TYPE_NAMES = {
    LogicalType.BOOL: "BOOLEAN",
    LogicalType.INT: "BIGINT",
    LogicalType.FLOAT: "DOUBLE",
    LogicalType.STR: "VARCHAR",
    LogicalType.DATE: "DATE",
    LogicalType.DATETIME: "TIMESTAMP",
}

SQL_TYPES_BY_NAME = {v: k for k, v in _SQL_TYPE_NAMES.items()}


def generate_sql(plan: LogicalPlan, dialect: Capabilities, catalog=None) -> str:
    """Render a logical plan as a single SQL statement.

    ``catalog`` (anything with ``schema_of``) is required when the plan
    contains joins: the generator expands explicit column lists so the
    right side's join keys are not duplicated in the output.
    """
    gen = _Generator(dialect, catalog)
    return gen.render(gen.block(plan))


@dataclass
class _Block:
    """One SELECT block being assembled."""

    from_clause: str
    items: list[tuple[str, str]] | None = None  # None means SELECT *
    where: list[str] = field(default_factory=list)
    groupby: list[str] = field(default_factory=list)
    is_aggregate: bool = False
    order: list[str] = field(default_factory=list)
    limit: int | None = None

    @property
    def shaped(self) -> bool:
        """Whether further operators must wrap this block in a subquery."""
        return self.is_aggregate or self.order != [] or self.limit is not None

    @property
    def projected(self) -> bool:
        return self.items is not None


class _Generator:
    def __init__(self, dialect: Capabilities, catalog=None):
        self.dialect = dialect
        self.catalog = catalog
        self._alias_counter = 0

    # ------------------------------------------------------------------ #
    # Blocks
    # ------------------------------------------------------------------ #
    def _alias(self) -> str:
        self._alias_counter += 1
        return f"t{self._alias_counter}"

    def _wrap(self, block: _Block) -> _Block:
        if not self.dialect.supports_subqueries:
            raise CapabilityError("backend does not support subqueries", "subqueries")
        return _Block(from_clause=f"({self.render(block)}) AS {self._alias()}")

    def block(self, plan: LogicalPlan) -> _Block:
        if isinstance(plan, TableScan):
            schema_name, table_name = plan.table.split(".", 1) if "." in plan.table else (None, plan.table)
            quoted = (
                f"{self.dialect.quote(schema_name)}.{self.dialect.quote(table_name)}"
                if schema_name
                else self.dialect.quote(table_name)
            )
            return _Block(from_clause=quoted)
        if isinstance(plan, Select):
            block = self.block(plan.child)
            if block.shaped:
                block = self._wrap(block)
            block.where.append(self.expr(plan.predicate))
            return block
        if isinstance(plan, Project):
            block = self.block(plan.child)
            if block.shaped or block.projected:
                block = self._wrap(block)
            block.items = [(name, self.expr(e)) for name, e in plan.items]
            return block
        if isinstance(plan, Aggregate):
            block = self.block(plan.child)
            if block.shaped or block.projected:
                block = self._wrap(block)
            items = [(g, self.dialect.quote(g)) for g in plan.groupby]
            items += [(name, self.agg(a)) for name, a in plan.aggs]
            block.items = items
            block.groupby = [self.dialect.quote(g) for g in plan.groupby]
            block.is_aggregate = True
            return block
        if isinstance(plan, Distinct):
            return self.block(Aggregate(plan.child, plan.columns, ()))
        if isinstance(plan, Order):
            block = self.block(plan.child)
            if block.limit is not None or block.order:
                block = self._wrap(block)
            block.order = [
                f"{self.dialect.quote(k)} {'ASC' if asc else 'DESC'}" for k, asc in plan.keys
            ]
            return block
        if isinstance(plan, TopN):
            if not self.dialect.supports_limit:
                raise CapabilityError("backend does not support LIMIT", "limit")
            block = self.block(plan.child)
            if block.limit is not None or block.order:
                block = self._wrap(block)
            block.order = [
                f"{self.dialect.quote(k)} {'ASC' if asc else 'DESC'}" for k, asc in plan.keys
            ]
            block.limit = plan.n
            return block
        if isinstance(plan, Limit):
            if not self.dialect.supports_limit:
                raise CapabilityError("backend does not support LIMIT", "limit")
            block = self.block(plan.child)
            if block.limit is not None:
                block = self._wrap(block)
            block.limit = plan.n
            return block
        if isinstance(plan, Join):
            return self._join_block(plan)
        raise SqlError(f"cannot generate SQL for {type(plan).__name__}")

    def _join_block(self, plan: Join) -> _Block:
        if self.catalog is None:
            raise SqlError("generating SQL for joins requires a catalog")

        left_schema = bind(plan.left, self.catalog)
        right_schema = bind(plan.right, self.catalog)
        left = self.block(plan.left)
        right = self.block(plan.right)
        left_alias = self._alias()
        right_alias = self._alias()
        left_unit = self._as_unit(left, left_alias)
        right_unit = self._as_unit(right, right_alias)
        kind = "INNER JOIN" if plan.kind == "inner" else "LEFT JOIN"
        on = " AND ".join(
            f"{left_alias}.{self.dialect.quote(l)} = {right_alias}.{self.dialect.quote(r)}"
            for l, r in plan.conditions
        )
        right_keys = {r for _, r in plan.conditions}
        items = [
            (name, f"{left_alias}.{self.dialect.quote(name)}") for name in left_schema
        ] + [
            (name, f"{right_alias}.{self.dialect.quote(name)}")
            for name in right_schema
            if name not in right_keys
        ]
        return _Block(from_clause=f"{left_unit} {kind} {right_unit} ON {on}", items=items)

    def _as_unit(self, block: _Block, alias: str) -> str:
        if (
            not block.where
            and not block.shaped
            and not block.projected
            and not block.from_clause.startswith("(")
        ):
            return f"{block.from_clause} AS {alias}"
        if not self.dialect.supports_subqueries:
            raise CapabilityError("backend does not support subqueries", "subqueries")
        return f"({self.render(block)}) AS {alias}"

    def render(self, block: _Block) -> str:
        if block.items is None:
            select = "*"
        else:
            select = ", ".join(
                sql if sql == self.dialect.quote(name) else f"{sql} AS {self.dialect.quote(name)}"
                for name, sql in block.items
            )
        parts = [f"SELECT {select}", f"FROM {block.from_clause}"]
        if block.where:
            parts.append("WHERE " + " AND ".join(block.where))
        if block.groupby:
            parts.append("GROUP BY " + ", ".join(block.groupby))
        elif block.is_aggregate and block.items is not None:
            pass  # global aggregate: no GROUP BY clause
        if block.order:
            parts.append("ORDER BY " + ", ".join(block.order))
        if block.limit is not None:
            parts.append(f"LIMIT {block.limit}")
        return " ".join(parts)

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    _INFIX = {"+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">="}

    def expr(self, e: Expr) -> str:
        if isinstance(e, ColumnRef):
            return self.dialect.quote(e.name)
        if isinstance(e, Literal):
            return self.literal(e)
        if isinstance(e, Cast):
            return f"CAST({self.expr(e.arg)} AS {_SQL_TYPE_NAMES[e.to]})"
        if isinstance(e, CaseWhen):
            parts = ["CASE"]
            for cond, value in e.branches:
                parts.append(f"WHEN {self.expr(cond)} THEN {self.expr(value)}")
            parts.append(f"ELSE {self.expr(e.otherwise)} END")
            return " ".join(parts)
        if isinstance(e, Call):
            return self.call(e)
        raise SqlError(f"cannot render expression {e!r}")

    def call(self, e: Call) -> str:
        func = e.func
        if not self.dialect.supports_function(func):
            raise CapabilityError(
                f"backend {self.dialect.name} lacks function {func!r}", func
            )
        if func in self._INFIX:
            return f"({self.expr(e.args[0])} {func} {self.expr(e.args[1])})"
        if func == "and":
            return f"({self.expr(e.args[0])} AND {self.expr(e.args[1])})"
        if func == "or":
            return f"({self.expr(e.args[0])} OR {self.expr(e.args[1])})"
        if func == "not":
            return f"(NOT {self.expr(e.args[0])})"
        if func == "neg":
            return f"(- {self.expr(e.args[0])})"
        if func == "isnull":
            return f"({self.expr(e.args[0])} IS NULL)"
        if func == "ifnull":
            return f"COALESCE({self.expr(e.args[0])}, {self.expr(e.args[1])})"
        if func == "in":
            lst = e.args[1]
            if not isinstance(lst, Literal) or not isinstance(lst.value, tuple):
                raise SqlError("IN requires a literal list")
            limit = self.dialect.max_in_list
            if limit is not None and len(lst.value) > limit:
                raise CapabilityError(
                    f"IN-list of {len(lst.value)} exceeds backend limit {limit};"
                    " externalize to a temporary table",
                    "in_list",
                )
            rendered = ", ".join(self.literal(Literal(v)) for v in lst.value)
            if not lst.value:
                return "(1 = 0)"
            return f"({self.expr(e.args[0])} IN ({rendered}))"
        native = self.dialect.native_name(func).upper()
        args = ", ".join(self.expr(a) for a in e.args)
        return f"{native}({args})"

    def agg(self, a: AggExpr) -> str:
        if a.func == "count" and a.arg is None:
            return "COUNT(*)"
        inner = self.expr(a.arg)
        if a.func == "count_distinct":
            return f"COUNT(DISTINCT {inner})"
        return f"{a.func.upper()}({inner})"

    def literal(self, lit: Literal) -> str:
        v = lit.value
        if v is None:
            return "NULL"
        if isinstance(v, bool):
            return "TRUE" if v else "FALSE"
        if isinstance(v, (int, float)):
            return repr(v)
        if isinstance(v, _dt.datetime):
            return f"TIMESTAMP '{v.isoformat(sep=' ')}'"
        if isinstance(v, _dt.date):
            return f"DATE '{v.isoformat()}'"
        if isinstance(v, str):
            return "'" + v.replace("'", "''") + "'"
        raise SqlError(f"cannot render literal {v!r}")
