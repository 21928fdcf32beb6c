"""Local post-processing operations (paper 3.1, 3.2).

When a backend lacks a capability (no LIMIT, missing scalar functions,
IN-lists beyond its bounds with no temp tables), the compiler hoists the
affected operations into these post-ops, executed locally over the rows
the remote query returned. The cache layer reuses the same machinery for
roll-up/filter/projection over cached results.

A chain is compiled once against its input schema
(:func:`compile_post_ops`): every aggregate, result type and projection
type is resolved there, and each compiled step calls the engine's
kernels directly, so local processing and engine processing share their
kernels without building an operator tree per op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Union

import numpy as np

from .. import obs
from ..datatypes import LogicalType
from ..expr.ast import AggExpr, Call, ColumnRef, Expr, Literal, infer_type
from ..expr.eval import evaluate_predicate
from ..tde.exec.kernels import (
    COUNTS, ROLLUP, aggregate_groups, combine_codes, factorize_table, lower_aggregates
)
from ..tde.exec.physical import aggregate_table, bind_projection
from ..tde.storage.column import Column
from ..tde.storage.table import Table
from .spec import QuerySpec


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


def derive_measures(provider, request) -> list[PostOp] | None:
    """The ops that turn rows of ``provider``'s grain and measures into
    ``request``'s (both spec-shaped): a projection, or at another grain a
    roll-up that merges each measure's parts by ``ROLLUP`` (COUNT as the
    SUM of counts, AVG from its SUM and COUNT). None when a part is
    missing or, like COUNT DISTINCT, a measure has none."""
    dimensions, measures = request.dimensions, request.measures
    by_expr = {agg: alias for alias, agg in provider.measures}
    if tuple(dimensions) == tuple(provider.dimensions):
        items = [(d, ColumnRef(d)) for d in dimensions]
        for alias, agg in measures:
            src = by_expr.get(agg)
            if src is None:
                return None
            items.append((alias, ColumnRef(src)))
        return [LocalProject(tuple(items))]
    rollup_measures: list[tuple[str, AggExpr]] = []
    final_items: list[tuple[str, Expr]] = [(d, ColumnRef(d)) for d in dimensions]
    needs_final = False
    for alias, agg in measures:
        parts = ROLLUP.get(agg.func)
        if parts is None:
            return None
        several = len(parts) > 1
        names = []
        for part in parts:
            # A measure of one part is that part.
            src = by_expr.get(AggExpr(part.partial, agg.arg) if several else agg)
            if src is None:
                return None
            name = f"__{part.partial[0]}_{alias}" if several else alias
            rollup_measures.append((name, AggExpr(part.merge, ColumnRef(src))))
            names.append(ColumnRef(name))
        final = Call("/", tuple(names)) if several else names[0]
        if agg.func in COUNTS:  # a merge over no provider rows is NULL
            final = Call("ifnull", (final, Literal(0)))
        final_items.append((alias, final))
        needs_final |= final is not names[0]
    ops: list[PostOp] = [LocalAggregate(dimensions, tuple(rollup_measures))]
    if needs_final or len(final_items) != len(dimensions) + len(rollup_measures):
        ops.append(LocalProject(tuple(final_items)))
    return ops


def rank_locally(spec, tf):
    """``spec``'s lone Top-N filter ``tf`` ranked on the client: ``(the
    spec it ranks, the ops)``. The ranked spec is ``spec``'s grain plus
    ``tf``'s field, with ``tf.by`` among its measures and ``spec``'s other
    filters; the ops rank it (no NULL key; ties by ``by``, then the field
    ascending), roll it up to ``spec``'s grain and shape it. None when a
    measure cannot roll up from the ranked grain; ``tf.by`` must
    re-aggregate exactly (one ``ROLLUP`` part)."""
    dims, measures = spec.dimensions, spec.measures
    grain = dims if tf.field in dims else (*dims, tf.field)
    alias = next((alias for alias, agg in measures if agg == tf.by), "__by")
    sent = (*measures, (alias, tf.by)) if alias == "__by" else measures
    others = tuple(f for f in spec.filters if f is not tf)
    ranked = QuerySpec(spec.datasource, grain, sent, others)
    (part,) = ROLLUP[tf.by.func]
    ops = [LocalTopNFilter(tf.field, AggExpr(part.merge, ColumnRef(alias)), tf.n, tf.ascending)]
    if grain != dims or len(sent) != len(measures):
        rollup = derive_measures(ranked, spec)
        if rollup is None:
            return None
        ops += rollup
    return ranked, [*ops, *shape_ops(spec.order_by, spec.limit)]


Schema = dict[str, LogicalType]
Step = Callable[[Table], Table]


@dataclass(frozen=True, eq=False)
class PostOpPlan:
    """A post-op chain compiled against one input schema.

    ``steps`` run ``ops`` with every type and aggregate already resolved,
    and ``counters`` name each op's counter. A plan is valid only for
    inputs of the schema it was compiled against (a plan bound to its
    input, only for that table). It iterates as its ``Local*`` ops
    because :func:`apply_post_ops` takes a plan or a raw op sequence, and
    a wrapper of that function reads either one as ops.
    """

    ops: tuple[PostOp, ...]
    steps: tuple[Step, ...]
    counters: tuple[str, ...]

    def __iter__(self):
        return iter(self.ops)


class TableMemo(dict):
    """What the plans bound to one table share: per tuple of key columns,
    ``factorize_table``'s ``(gids, n_groups, reps)`` over them and, where
    a plan reads them, the keys at each group's first row. It grows only
    while a plan is compiled and what it holds never changes, so plans
    read it unlocked; ``nbytes`` counts it."""

    nbytes = 0

    def grouping(self, table: Table, keys: tuple[str, ...]):
        got = self.get(keys)
        if got is None:
            # Each key's ids order its groups as its codes do, so combining
            # them numbers the groups as factorizing every key would.
            if len(keys) > 1:
                ids = [self.grouping(table, (key,))[:2] for key in keys]
                got = combine_codes(ids, table.n_rows)
            else:
                got = factorize_table(table, list(keys))
            self[keys] = got
            self.nbytes += got[0].nbytes + got[2].nbytes
        return got

    def firsts(self, table: Table, keys: tuple[str, ...]) -> dict[str, Column]:
        got = self.get(("firsts", keys))
        if got is None:
            reps = self.grouping(table, keys)[2]
            got = self[("firsts", keys)] = {key: table.column(key).take(reps) for key in keys}
            self.nbytes += sum(col.nbytes for col in got.values())
        return got


def compile_post_ops(
    schema: Mapping[str, LogicalType], ops: Iterable[PostOp], table=None, memo=None
) -> PostOpPlan:
    """Resolve ``ops`` once against an input of ``schema``, carrying the
    schema from each op to the next. Given the one ``table`` the plan will
    run on and its ``memo``, the plan's leading filter and roll-up are
    bound to that table (:func:`_bind`)."""
    ops = tuple(ops)
    schema = dict(schema)
    steps, rest = [], ops
    if memo is not None and table.n_rows:
        steps, schema, rest = _bind(ops, schema, table, memo)
    for op in rest:
        step, schema = _compile(op, schema)
        steps.append(step)
    return PostOpPlan(ops, tuple(steps), tuple(f"postops.{type(op).__name__}" for op in ops))


def apply_post_ops(table: Table, post_ops: PostOpPlan | Iterable[PostOp]) -> Table:
    """Run a post-op chain locally over ``table``: a :class:`PostOpPlan`
    as given, a raw op sequence compiled first against ``table``."""
    if not isinstance(post_ops, PostOpPlan):
        post_ops = compile_post_ops(table.schema(), post_ops)
    metrics = obs.get_metrics()
    if metrics.enabled:
        for name in post_ops.counters:
            metrics.counter(name).inc()
    for step in post_ops.steps:
        table = step(table)
    return table


def _compile(op: PostOp, schema: Schema) -> tuple[Step, Schema]:
    """One op's step and the schema it leaves."""
    if isinstance(op, LocalFilter):
        predicate = op.predicate
        return (lambda t: t.filter(evaluate_predicate(predicate, t))), schema
    if isinstance(op, LocalProject):
        types = {name: infer_type(expr, schema) for name, expr in op.items}
        return bind_projection(op.items, types), types
    if isinstance(op, LocalAggregate):
        dims = list(op.dimensions)
        specs, pre_items, out = lower_aggregates(dims, op.measures, schema)
        if pre_items is None:
            return (lambda t: aggregate_table(t, dims, specs)), out
        project = bind_projection(pre_items, {n: infer_type(e, schema) for n, e in pre_items})
        return (lambda t: aggregate_table(project(t), dims, specs)), out
    if isinstance(op, LocalSort):
        keys = list(op.keys)
        return (lambda t: t.sort_by(keys)), schema
    if isinstance(op, LocalTopN):
        n, keys = op.n, list(op.keys)
        return (lambda t: t.sort_by(keys).head(n)), schema
    if isinstance(op, LocalTopNFilter):
        ranking = _ranking(op, schema)
        return (lambda t: t.filter(_topn_mask(t, op.field, ranking))), schema
    if isinstance(op, LocalLod):
        grouped = compile_post_ops(schema, (LocalAggregate(op.dimensions, ((op.name, op.agg),)),))
        result_type = op.agg.result_type(schema)
        return (
            (lambda t: _attach_lod(t, op, grouped, result_type)),
            {**schema, op.name: result_type},
        )
    raise TypeError(f"unknown post-op {op!r}")


def _bind(ops: tuple[PostOp, ...], schema: Schema, table: Table, memo: TableMemo):
    """``(steps, schema, ops left)``: a leading filter, the roll-up after
    it and a Top-N filter on its rows, run over ``table`` alone.

    The filter runs once, here: its rows are fixed for this table. So is
    the roll-up's ranking: it runs once too, and the rows of the groups
    it drops leave the kept rows. The roll-up runs the aggregate kernels
    over its grain's memoized ids at those rows; groups compact in id
    order and take their keys at their first kept row, which is the
    table filtering and then factorizing builds. Arguments that are
    expressions keep the generic roll-up."""
    filtered = bool(ops) and isinstance(ops[0], LocalFilter)
    rows = np.flatnonzero(evaluate_predicate(ops[0].predicate, table)) if filtered else None
    rest = ops[1:] if filtered else ops
    agg = rest[0] if rest and isinstance(rest[0], LocalAggregate) else None
    if agg is not None:
        dims = list(agg.dimensions)
        specs, pre_items, out = lower_aggregates(dims, agg.measures, schema)
    if agg is None or pre_items is not None:
        return ([lambda t: t.take(rows)] if filtered else []), schema, rest
    rest = rest[1:]
    at = 1 if rest and isinstance(rest[0], LocalProject) else 0
    if len(rest) > at and isinstance(rest[at], LocalTopNFilter):
        rows = np.arange(table.n_rows) if rows is None else rows
        if len(rows):
            gids, n_groups, _reps = memo.grouping(table, agg.dimensions)
            rolled = apply_post_ops(_rollup(table, memo, dims, specs, rows)(table), rest[:at])
            ranked = _topn_mask(rolled, rest[at].field, _ranking(rest[at], rolled.schema()))
            keep = np.zeros(n_groups, np.bool_)
            keep[np.flatnonzero(np.bincount(gids[rows], minlength=n_groups))[ranked]] = True
            rows = rows[keep[gids[rows]]]
        rest = (*rest[:at], *rest[at + 1 :])
    if rows is not None and not len(rows):
        return [lambda t: aggregate_table(t.take(rows), dims, specs)], out, rest
    return [_rollup(table, memo, dims, specs, rows)], out, rest


def _rollup(table: Table, memo: TableMemo, dims: list[str], specs, rows) -> Step:
    """The roll-up of ``table``'s ``rows`` (all when None) to ``dims``
    over its memoized group ids: groups in id order, renumbered densely,
    with their keys at their first row."""
    gids, n_groups, _reps = memo.grouping(table, tuple(dims))
    if rows is None:
        keys = memo.firsts(table, tuple(dims))
        return lambda t: Table._of({**keys, **aggregate_groups(t, gids, n_groups, specs)}, n_groups)
    kept = gids[rows]
    first = np.empty(n_groups, dtype=np.int64)
    first[kept[::-1]] = rows[::-1]
    occupied = np.flatnonzero(np.bincount(kept, minlength=n_groups))
    keys = {d: table.column(d).take(first[occupied]) for d in dims}
    dense = np.zeros(n_groups, dtype=np.int64)
    dense[occupied] = np.arange(len(occupied))
    kept, n = dense[kept], len(occupied)
    return lambda t: Table._of({**keys, **aggregate_groups(t, kept, n, specs, rows)}, n)


def _attach_lod(table: Table, op: LocalLod, grouped: PostOpPlan, result_type: LogicalType) -> Table:
    per_key = apply_post_ops(table, grouped)
    value_by_key: dict[tuple, object] = {}
    dim_columns = [per_key.column(d).python_values() for d in op.dimensions]
    values = per_key.column(op.name).python_values()
    for row in range(per_key.n_rows):
        value_by_key[tuple(col[row] for col in dim_columns)] = values[row]
    row_dims = [table.column(d).python_values() for d in op.dimensions]
    out = []
    for row in range(table.n_rows):
        key = tuple(col[row] for col in row_dims)
        out.append(None if any(k is None for k in key) else value_by_key.get(key))
    if table.n_rows == 0:
        column = Column.from_values([], result_type)
    else:
        column = Column.from_values(out, result_type, compress=False)
    return table.with_column(op.name, column)


def _ranking(op: LocalTopNFilter, schema: Schema) -> PostOpPlan:
    """``op``'s ranking over an input of ``schema``: its top ``n`` values
    of ``field`` by ``by``, ties to the lower value."""
    return compile_post_ops(
        schema,
        (
            LocalAggregate((op.field,), (("__by", op.by),)),
            LocalTopN(op.n, (("__by", op.ascending), (op.field, True))),
        ),
    )


def _topn_mask(table: Table, field: str, ranking: PostOpPlan) -> np.ndarray:
    """The rows whose ``field`` ranks in the top n. A NULL ``field`` is
    neither ranked nor kept, as in the compiled ranking subquery."""
    column = table.column(field)
    present = np.ones(table.n_rows, np.bool_) if column.null_mask is None else ~column.null_mask
    ranked = table if column.null_mask is None else table.filter(present)
    top = apply_post_ops(ranked, ranking).column(field).storage_values()
    return present & np.isin(column.storage_values(), top)
