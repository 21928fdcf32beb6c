"""Name resolution and semantic analysis for logical plans.

The binder walks a plan bottom-up, computing each operator's output schema
and type-checking every embedded expression. It is deliberately separate
from parsing so that programmatically built plans get the same checks.
"""

from __future__ import annotations

from typing import Mapping, Protocol

from ...datatypes import LogicalType, promote
from ...errors import BindError
from ...expr.ast import infer_type
from .plan import (
    SET_COLUMN,
    Aggregate,
    Distinct,
    GroupingSets,
    Join,
    Limit,
    LogicalPlan,
    Order,
    Project,
    Select,
    TableScan,
    TopN,
    Window,
    WindowItem,
)

Schema = dict[str, LogicalType]


class Catalog(Protocol):
    """Anything that can resolve table names to schemas."""

    def schema_of(self, table: str) -> Schema:  # pragma: no cover - protocol
        ...


class DictCatalog:
    """A catalog over a plain ``{table_name: schema}`` mapping."""

    def __init__(self, schemas: Mapping[str, Schema]):
        self._schemas = dict(schemas)

    def schema_of(self, table: str) -> Schema:
        if table not in self._schemas:
            raise BindError(f"unknown table {table!r}")
        return dict(self._schemas[table])


def plan_schema(plan: LogicalPlan, catalog: Catalog) -> Schema:
    """Compute the output schema of ``plan`` (validating as it goes)."""
    return bind(plan, catalog)


def bind(plan: LogicalPlan, catalog: Catalog) -> Schema:
    """Validate ``plan`` against ``catalog`` and return its output schema.

    Raises :class:`BindError` (or a subclass) on any unresolved name,
    ill-typed expression, or malformed operator.
    """
    if isinstance(plan, TableScan):
        return catalog.schema_of(plan.table)
    if isinstance(plan, Select):
        child = bind(plan.child, catalog)
        ptype = infer_type(plan.predicate, child)
        if ptype is not LogicalType.BOOL:
            raise BindError(f"select predicate has type {ptype.name}, want BOOL")
        return child
    if isinstance(plan, Project):
        return project_schema(plan.items, bind(plan.child, catalog))
    if isinstance(plan, Join):
        left = bind(plan.left, catalog)
        right = bind(plan.right, catalog)
        if not plan.conditions:
            raise BindError("join requires at least one equi-condition")
        right_keys = {r for _, r in plan.conditions}
        for lcol, rcol in plan.conditions:
            if lcol not in left:
                raise BindError(f"join key {lcol!r} not in left input")
            if rcol not in right:
                raise BindError(f"join key {rcol!r} not in right input")
            if left[lcol] != right[rcol]:
                promote(left[lcol], right[rcol])  # raises when incomparable
        out = dict(left)
        for name, ltype in right.items():
            if name in right_keys:
                continue  # right join keys are redundant with the left's
            if name in out:
                raise BindError(f"join output column collision on {name!r}")
            out[name] = ltype
        return out
    if isinstance(plan, Aggregate):
        return _aggregate_schema(plan.groupby, plan.aggs, bind(plan.child, catalog))
    if isinstance(plan, GroupingSets):
        child = bind(plan.child, catalog)
        if not plan.sets:
            raise BindError("grouping-sets requires at least one set")
        out = {SET_COLUMN: LogicalType.INT}
        for position, s in enumerate(plan.sets):
            source = child if s.items is None else project_schema(s.items, child)
            for name, ltype in _aggregate_schema(s.groupby, s.aggs, source).items():
                if name == SET_COLUMN:
                    raise BindError(f"grouping set {position} names an output {name!r}")
                if out.setdefault(name, ltype) != ltype:
                    raise BindError(
                        f"grouping set {position} returns {name!r} as {ltype.name}, "
                        f"an earlier set as {out[name].name}"
                    )
        return out
    if isinstance(plan, (Order, TopN)):
        child = bind(plan.child, catalog)
        if isinstance(plan, TopN) and plan.n < 0:
            raise BindError("topn requires n >= 0")
        if isinstance(plan, TopN) and not plan.keys:
            raise BindError("topn requires at least one order key")
        for key, _asc in plan.keys:
            if key not in child:
                raise BindError(f"order key {key!r} not in input")
        return child
    if isinstance(plan, Limit):
        if plan.n < 0:
            raise BindError("limit requires n >= 0")
        return bind(plan.child, catalog)
    if isinstance(plan, Window):
        child = bind(plan.child, catalog)
        out = dict(child)
        for item in plan.items:
            if item.alias in out:
                raise BindError(f"window alias {item.alias!r} collides with a column")
            for col in item.partition_by:
                if col not in child:
                    raise BindError(f"window partition column {col!r} not in input")
            for col, _asc in item.order_by:
                if col not in child:
                    raise BindError(f"window order column {col!r} not in input")
            out[item.alias] = _window_type(item, child)
        return out
    if isinstance(plan, Distinct):
        child = bind(plan.child, catalog)
        for col in plan.columns:
            if col not in child:
                raise BindError(f"distinct column {col!r} not in input")
        if not plan.columns:
            raise BindError("distinct requires at least one column")
        return {c: child[c] for c in plan.columns}
    raise BindError(f"unknown plan node {type(plan).__name__}")


def project_schema(items, child: Schema) -> Schema:
    """Output schema of projection ``items`` over an input schema."""
    out: Schema = {}
    for name, expr in items:
        if name in out:
            raise BindError(f"duplicate projection name {name!r}")
        out[name] = infer_type(expr, child)
    return out


def _aggregate_schema(groupby, aggs, child: Schema) -> Schema:
    out: Schema = {}
    for key in groupby:
        if key not in child:
            raise BindError(f"group-by column {key!r} not in input")
        out[key] = child[key]
    for name, agg in aggs:
        if name in out:
            raise BindError(f"duplicate aggregate output name {name!r}")
        out[name] = agg.result_type(child)
    return out


def _window_type(item: WindowItem, child: Schema) -> LogicalType:
    if item.func in ("row_number", "rank"):
        return LogicalType.INT
    arg_type = infer_type(item.arg, child)
    if item.func in ("running_avg", "share"):
        if not arg_type.is_numeric:
            raise BindError(f"window {item.func} over {arg_type.name}")
        return LogicalType.FLOAT
    if item.func in ("running_sum", "window_sum"):
        if not arg_type.is_numeric:
            raise BindError(f"window {item.func} over {arg_type.name}")
        return arg_type
    return arg_type  # window_max / window_min preserve the type
