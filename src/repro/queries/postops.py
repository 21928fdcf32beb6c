"""Local post-processing operations (paper 3.1, 3.2).

When a backend lacks a capability (no LIMIT, missing scalar functions,
IN-lists beyond its bounds with no temp tables), the compiler hoists the
affected operations into these post-ops, executed locally over the rows
the remote query returned. The cache layer reuses the same machinery for
roll-up/filter/projection over cached results.

Execution is delegated to the TDE's physical operators over an in-memory
input, so local processing and engine processing share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .. import obs
from ..expr.ast import AggExpr, ColumnRef, Expr
from ..tde.exec.kernels import AggSpec
from ..tde.exec.physical import (
    ExecContext,
    PFilter,
    PHashAggregate,
    PProject,
    PSingleRow,
    PSort,
    PTopN,
    PhysNode,
    execute_to_table,
)
from ..tde.storage.table import Table


@dataclass(frozen=True)
class LocalFilter:
    predicate: Expr


@dataclass(frozen=True)
class LocalProject:
    items: tuple[tuple[str, Expr], ...]

    def __init__(self, items):
        object.__setattr__(self, "items", tuple((n, e) for n, e in items))


@dataclass(frozen=True)
class LocalAggregate:
    dimensions: tuple[str, ...]
    measures: tuple[tuple[str, AggExpr], ...]

    def __init__(self, dimensions, measures):
        object.__setattr__(self, "dimensions", tuple(dimensions))
        object.__setattr__(self, "measures", tuple((n, a) for n, a in measures))


@dataclass(frozen=True)
class LocalSort:
    keys: tuple[tuple[str, bool], ...]

    def __init__(self, keys):
        object.__setattr__(self, "keys", tuple((k, bool(a)) for k, a in keys))


@dataclass(frozen=True)
class LocalTopN:
    n: int
    keys: tuple[tuple[str, bool], ...]

    def __init__(self, n, keys):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "keys", tuple((k, bool(a)) for k, a in keys))


@dataclass(frozen=True)
class LocalTopNFilter:
    """Keep rows whose ``field`` is among the top-n values by ``by``."""

    field: str
    by: AggExpr
    n: int
    ascending: bool = False


@dataclass(frozen=True)
class LocalLod:
    """Attach a FIXED level-of-detail column computed over the input.

    For each row, the new ``name`` column holds ``agg`` over all rows
    sharing the row's ``dimensions`` values. Rows with a NULL dimension
    get NULL (matching the remote LEFT-join compilation, where NULL keys
    never join).
    """

    name: str
    dimensions: tuple[str, ...]
    agg: AggExpr

    def __init__(self, name, dimensions, agg):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dimensions", tuple(dimensions))
        object.__setattr__(self, "agg", agg)


PostOp = Union[
    LocalFilter,
    LocalProject,
    LocalAggregate,
    LocalSort,
    LocalTopN,
    LocalTopNFilter,
    LocalLod,
]


def shape_ops(order_by, limit) -> tuple[PostOp, ...]:
    """A spec's ORDER BY / LIMIT as operators over its unshaped answer."""
    if order_by and limit is not None:
        return (LocalTopN(limit, order_by),)
    if order_by:
        return (LocalSort(order_by),)
    if limit is not None:
        return (LocalTopN(limit, ()),)
    return ()


def apply_post_ops(table: Table, post_ops: Sequence[PostOp]) -> Table:
    """Run the post-op chain locally over ``table``."""
    ctx = ExecContext(parallel=False)
    for op in post_ops:
        obs.counter(f"postops.{type(op).__name__}").inc()
        node: PhysNode = PSingleRow(table)
        if isinstance(op, LocalFilter):
            node = PFilter(node, op.predicate)
        elif isinstance(op, LocalProject):
            node = PProject(node, list(op.items))
        elif isinstance(op, LocalAggregate):
            node = _aggregate_node(table, node, op)
        elif isinstance(op, LocalSort):
            node = PSort(node, list(op.keys))
        elif isinstance(op, LocalTopN):
            node = PTopN(node, op.n, list(op.keys))
        elif isinstance(op, LocalTopNFilter):
            table = _topn_filter(table, op)
            continue
        elif isinstance(op, LocalLod):
            table = _attach_lod(table, op)
            continue
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown post-op {op!r}")
        table = execute_to_table(node, ctx)
    return table


def _aggregate_node(table: Table, node: PhysNode, op: LocalAggregate) -> PhysNode:
    schema = table.schema()
    specs: list[AggSpec] = []
    pre_items: list[tuple[str, Expr]] = [(d, ColumnRef(d)) for d in op.dimensions]
    present = set(op.dimensions)
    needs_pre = False
    for i, (name, agg) in enumerate(op.measures):
        result = agg.result_type(schema)
        if agg.arg is None:
            specs.append(AggSpec(name, "count_star", None, result))
            continue
        if isinstance(agg.arg, ColumnRef):
            arg_name = agg.arg.name
            if arg_name not in present:
                pre_items.append((arg_name, agg.arg))
                present.add(arg_name)
        else:
            arg_name = f"__arg{i}"
            pre_items.append((arg_name, agg.arg))
            present.add(arg_name)
            needs_pre = True
        specs.append(AggSpec(name, agg.func, arg_name, result))
    if needs_pre:
        node = PProject(node, pre_items)
    return PHashAggregate(node, list(op.dimensions), specs)


def _attach_lod(table: Table, op: LocalLod) -> Table:
    from ..tde.storage.column import Column

    grouped = apply_post_ops(
        table, [LocalAggregate(op.dimensions, ((op.name, op.agg),))]
    )
    value_by_key: dict[tuple, object] = {}
    dim_columns = [grouped.column(d).python_values() for d in op.dimensions]
    values = grouped.column(op.name).python_values()
    for row in range(grouped.n_rows):
        value_by_key[tuple(col[row] for col in dim_columns)] = values[row]
    row_dims = [table.column(d).python_values() for d in op.dimensions]
    out = []
    for row in range(table.n_rows):
        key = tuple(col[row] for col in row_dims)
        out.append(None if any(k is None for k in key) else value_by_key.get(key))
    result_type = op.agg.result_type(table.schema())
    if table.n_rows == 0:
        column = Column.from_values([], result_type)
    else:
        column = Column.from_values(out, result_type, compress=False)
    return table.with_column(op.name, column)


def _topn_filter(table: Table, op: LocalTopNFilter) -> Table:
    ranked = apply_post_ops(
        table,
        [
            LocalAggregate((op.field,), (("__by", op.by),)),
            LocalTopN(op.n, (("__by", op.ascending), (op.field, True))),
        ],
    )
    keep_values = set(ranked.column(op.field).python_values())
    mask = [v in keep_values for v in table.column(op.field).python_values()]
    import numpy as np

    return table.filter(np.asarray(mask, dtype=np.bool_))
