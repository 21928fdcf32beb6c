"""Data-source models: the view a spec is evaluated against.

"A query gets executed against a certain view on the data of a single
data source. Users can specify views as single tables ..., multi-table
joins (often star or snowflake schemas), parameterized custom SQL queries,
stored procedures or cubes." (paper 3.1)

A :class:`DataSourceModel` covers the two shapes the experiments need:
single tables and star-schema joins, plus named calculations (the shared
calculated fields Data Server publishes, paper 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..datatypes import LogicalType
from ..errors import BindError
from ..expr.ast import Expr, columns_used, infer_type
from ..tde.tql.plan import Join, LogicalPlan, TableScan


@dataclass(frozen=True)
class JoinSpec:
    """One join edge from the base (fact) table to a dimension table."""

    table: str
    conditions: tuple[tuple[str, str], ...]  # (base/fact column, dim column)
    kind: str = "inner"

    def __init__(self, table: str, conditions, kind: str = "inner"):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "conditions", tuple((l, r) for l, r in conditions))
        object.__setattr__(self, "kind", kind)


@dataclass(frozen=True)
class LodCalculation:
    """A FIXED level-of-detail calculation (paper 3.1).

    "custom calculations – potentially at different levels of detail ...
    with potential subqueries for computed columns of different levels of
    detail": the field's value for a row is ``agg`` computed over all view
    rows sharing that row's ``dimensions`` — e.g. the market's average
    delay attached to every flight of the market. Compiled as an aggregate
    subquery joined back to the view; like Tableau's FIXED expressions, it
    is evaluated over the unfiltered view.
    """

    dimensions: tuple[str, ...]
    agg: "object"  # AggExpr

    def __init__(self, dimensions, agg):
        object.__setattr__(self, "dimensions", tuple(dimensions))
        object.__setattr__(self, "agg", agg)
        if not self.dimensions:
            raise BindError("a FIXED calculation needs at least one dimension")


@dataclass(frozen=True)
class DataSourceModel:
    """A named view: base table, optional joins, named calculations."""

    name: str
    base_table: str
    joins: tuple[JoinSpec, ...] = ()
    calculations: tuple[tuple[str, Expr], ...] = ()
    lod_calculations: tuple[tuple[str, LodCalculation], ...] = ()

    def __init__(self, name: str, base_table: str, joins=(), calculations=(), lod_calculations=()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "base_table", base_table)
        object.__setattr__(self, "joins", tuple(joins))
        if isinstance(calculations, Mapping):
            calculations = tuple(calculations.items())
        object.__setattr__(self, "calculations", tuple(calculations))
        if isinstance(lod_calculations, Mapping):
            lod_calculations = tuple(lod_calculations.items())
        object.__setattr__(self, "lod_calculations", tuple(lod_calculations))

    # ------------------------------------------------------------------ #
    def calculation(self, name: str) -> Expr | None:
        for calc_name, expr in self.calculations:
            if calc_name == name:
                return expr
        return None

    def lod(self, name: str) -> LodCalculation | None:
        for lod_name, lod in self.lod_calculations:
            if lod_name == name:
                return lod
        return None

    def with_lod(self, name: str, lod: LodCalculation) -> "DataSourceModel":
        lods = tuple(c for c in self.lod_calculations if c[0] != name) + ((name, lod),)
        return DataSourceModel(self.name, self.base_table, self.joins, self.calculations, lods)

    def base_plan(self) -> LogicalPlan:
        """The view's join tree (left-deep, fact leftmost — paper 4.2.2)."""
        plan: LogicalPlan = TableScan(self.base_table)
        for join in self.joins:
            plan = Join(join.kind, join.conditions, plan, TableScan(join.table))
        return plan

    def physical_schema(self, source) -> dict[str, LogicalType]:
        """Columns of the join view (before calculations)."""
        schema = dict(source.schema_of(self.base_table))
        for join in self.joins:
            right = source.schema_of(join.table)
            right_keys = {r for _, r in join.conditions}
            for col, ltype in right.items():
                if col in right_keys:
                    continue
                if col in schema:
                    raise BindError(f"column collision {col!r} in model {self.name}")
                schema[col] = ltype
        return schema

    def schema(self, source) -> dict[str, LogicalType]:
        """Full field namespace: physical columns, calcs, LOD calcs."""
        schema = self.physical_schema(source)
        for name, expr in self.calculations:
            schema[name] = infer_type(expr, schema)
        for name, lod in self.lod_calculations:
            for dim in lod.dimensions:
                if dim not in schema:
                    raise BindError(f"LOD {name!r} fixes unknown field {dim!r}")
            schema[name] = lod.agg.result_type(schema)
        return schema

    def grain_rows(self, fields, source) -> int | None:
        """A bound on the groups of an aggregate over ``fields``: the product
        of the row counts of the joined tables they read (a left join adds
        its NULL); None when one reads the base table or is a LOD."""
        physical, _calcs, lods = self.expand_fields(set(fields), source)
        if lods or physical & set(source.schema_of(self.base_table)):
            return None
        rows = 1
        for join in self.joins:
            if physical & set(source.schema_of(join.table)):
                rows *= source.row_count(join.table) + (join.kind == "left")
        return rows

    def expand_fields(
        self, fields: set[str], source
    ) -> tuple[set[str], dict[str, Expr], dict[str, LodCalculation]]:
        """Split requested fields into physical columns, calcs, and LODs.

        Returns ``(physical_columns, calc_items, lod_items)``. Calculation
        expressions may reference physical columns only (one level); LOD
        calculations may fix calc or physical dimensions.
        """
        physical = self.physical_schema(source)
        needed_physical: set[str] = set()
        calc_items: dict[str, Expr] = {}
        lod_items: dict[str, LodCalculation] = {}
        pending = list(fields)
        while pending:
            name = pending.pop()
            if name in physical:
                needed_physical.add(name)
                continue
            expr = self.calculation(name)
            if expr is not None:
                calc_items[name] = expr
                needed_physical |= columns_used(expr)
                continue
            lod = self.lod(name)
            if lod is not None:
                lod_items[name] = lod
                pending.extend(lod.dimensions)
                pending.extend(columns_used(lod.agg.arg))
                continue
            raise BindError(f"unknown field {name!r} in model {self.name}")
        return needed_physical, calc_items, lod_items
