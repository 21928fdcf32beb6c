"""Physical operators of the TDE execution engine.

Each operator's ``execute(ctx)`` yields batches (``Table`` objects). The
contract: every stream yields at least one batch (possibly empty) so that
consumers always learn the schema; NULL semantics follow SQL; operators
never mutate input batches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from ... import obs
from ...clock import SYSTEM_CLOCK, Clock
from ...datatypes import LogicalType, to_storage
from ...errors import ExecutionError
from ...expr.ast import Call, ColumnRef, Expr, Literal, columns_used, infer_type
from ...expr.eval import evaluate, evaluate_predicate
from ...expr.functions import FUNCTIONS
from ..storage.column import Column
from ..storage.table import Table
from ..storage.vectors import PlainVector, RleVector
from ..tql.binder import _window_type
from .kernels import (
    AggSpec,
    aggregate_groups,
    build_index,
    factorize_table,
    fill_array,
    probe_index,
)


class Metrics:
    """Thread-safe execution counters (batch granularity)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.rows_scanned = 0
        self.rows_emitted = 0
        self.batches = 0
        self.runs_skipped = 0

    def add(self, **deltas: int) -> None:
        with self._lock:
            for key, delta in deltas.items():
                setattr(self, key, getattr(self, key) + delta)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "rows_scanned": self.rows_scanned,
                "rows_emitted": self.rows_emitted,
                "batches": self.batches,
                "runs_skipped": self.runs_skipped,
            }


class OpRecorder:
    """Per-operator inclusive timings and row counts (tracing only).

    Timings are *inclusive*: time spent pulling a batch from an operator
    includes its children, mirroring how profilers report Volcano trees.
    Attached to an :class:`ExecContext` only while observability is
    enabled, so the default path pays nothing.

    With ``per_node=True`` (EXPLAIN ANALYZE) the recorder additionally
    keeps one accumulator per operator *instance*, keyed by object
    identity; :meth:`node_stats` hands the map to the explain renderer,
    which translates identities into stable plan positions.
    """

    def __init__(self, clock: Clock = SYSTEM_CLOCK, *, per_node: bool = False):
        self.clock = clock
        self.per_node = per_node
        self._lock = threading.Lock()
        self._ops: dict[str, list[float]] = {}  # name -> [rows, seconds, batches]
        self._nodes: dict[int, list[float]] = {}  # id(node) -> same shape
        self._details: dict[int, dict[str, float]] = {}  # id(node) -> named extras

    def iterate(
        self, name: str, batches: Iterator[Table], node: "PhysNode | None" = None
    ) -> Iterator[Table]:
        now = self.clock.monotonic
        key = id(node) if (self.per_node and node is not None) else None
        while True:
            started = now()
            try:
                batch = next(batches)
            except StopIteration:
                self._add(name, 0, now() - started, 0, key)
                return
            self._add(name, batch.n_rows, now() - started, 1, key)
            yield batch

    def record_node(
        self, node: "PhysNode", name: str, rows: int, seconds: float, batches: int = 1
    ) -> None:
        """Record one already-measured execution (non-iterator operators)."""
        key = id(node) if self.per_node else None
        self._add(name, rows, seconds, batches, key)

    def add_detail(self, node: "PhysNode", name: str, amount: float) -> None:
        """Add to a named figure shown beside ``node``'s stats (``per_node`` only)."""
        if self.per_node:
            with self._lock:
                details = self._details.setdefault(id(node), {})
                details[name] = details.get(name, 0.0) + amount

    def _add(
        self, name: str, rows: int, seconds: float, batches: int, key: int | None = None
    ) -> None:
        with self._lock:
            acc = self._ops.setdefault(name, [0, 0.0, 0])
            acc[0] += rows
            acc[1] += seconds
            acc[2] += batches
            if key is not None:
                acc = self._nodes.setdefault(key, [0, 0.0, 0])
                acc[0] += rows
                acc[1] += seconds
                acc[2] += batches

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {
                name: {"rows": acc[0], "seconds": acc[1], "batches": acc[2]}
                for name, acc in sorted(self._ops.items())
            }

    def node_stats(self) -> dict[int, dict[str, float]]:
        """Per-instance stats keyed by ``id(node)`` (``per_node`` only)."""
        with self._lock:
            return {
                key: {"rows": acc[0], "seconds": acc[1], "batches": acc[2], **self._details.get(key, {})}
                for key, acc in self._nodes.items()
            }


@dataclass
class ExecContext:
    """Per-query execution context."""

    batch_size: int = 8192
    metrics: Metrics = field(default_factory=Metrics)
    #: Set by execute_to_table when observability is on; None otherwise.
    recorder: OpRecorder | None = None


class PhysNode:
    """Base class for physical operators."""

    def children(self) -> tuple["PhysNode", ...]:
        return ()

    def execute(self, ctx: ExecContext) -> Iterator[Table]:
        """Yield batches, routed through the context's recorder if any."""
        if ctx.recorder is None:
            return self._execute(ctx)
        return ctx.recorder.iterate(type(self).__name__, self._execute(ctx), node=self)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:  # pragma: no cover
        raise NotImplementedError

    def walk(self) -> Iterator["PhysNode"]:
        yield self
        for child in self.children():
            yield from child.walk()


def execute_to_table(node: PhysNode, ctx: ExecContext | None = None) -> Table:
    """Run a physical plan to completion and concatenate its batches."""
    ctx = ctx or ExecContext()
    if ctx.recorder is None and obs.enabled():
        # Time operators on the tracer's clock so virtual-time recordings
        # stay deterministic (real per-op seconds would leak wall time
        # into otherwise seeded span attributes).
        ctx.recorder = OpRecorder(clock=obs.get_tracer().clock)
        with obs.span("tde.execute", root=type(node).__name__) as sp:
            batches = list(node.execute(ctx))
            operators = ctx.recorder.snapshot()
            sp.set(operators=operators)
            for name, acc in operators.items():
                obs.counter(f"tde.op.{name}.rows").inc(acc["rows"])
                obs.histogram(f"tde.op.{name}.s").observe(acc["seconds"])
    else:
        batches = list(node.execute(ctx))
    if not batches:
        raise ExecutionError("operator produced no batches (broken contract)")
    return Table.concat(batches) if len(batches) > 1 else batches[0]


# ---------------------------------------------------------------------- #
# Scans
# ---------------------------------------------------------------------- #
def narrow_to_read(table: Table, columns: list[str] | None, *predicates: Expr | None) -> Table:
    """``table`` restricted to the columns a scan reads, output columns first.

    Slicing decodes every column it is handed, so scans narrow the stored
    table to ``columns`` plus whatever their predicates reference *before*
    slicing; a pruned column is never decoded. ``columns=None`` reads all.
    """
    if columns is None:
        return table
    extra = set().union(*(columns_used(p) for p in predicates)) - set(columns)
    names = [*columns, *(n for n in table.column_names if n in extra)]
    # A batch with no columns would forget how many rows it spans.
    return table.project(names or table.column_names[:1])


def _scan_ranges(
    ctx: ExecContext,
    table: Table,
    columns: list[str] | None,
    predicate: Expr | None,
    ranges: Iterable[tuple[int, int]],
) -> Iterator[Table]:
    """Read row ranges of a stored table batch by batch, filtered by
    ``predicate`` and pruned to ``columns``; yields at least one batch."""
    source = narrow_to_read(table, columns, predicate)
    # Columns read for the predicate alone are dropped before the gather.
    output = columns if columns is not None and len(source.columns) > len(columns) else None
    emitted = False
    for start, stop in ranges:
        while start < stop:
            end = min(start + ctx.batch_size, stop)
            batch = source.slice(start, end)
            ctx.metrics.add(rows_scanned=end - start, batches=1)
            keep = evaluate_predicate(predicate, batch) if predicate is not None else None
            if output is not None:
                batch = batch.project(output)
            if keep is not None:
                batch = batch.filter(keep)
            if batch.n_rows or not emitted:
                emitted = True
                ctx.metrics.add(rows_emitted=batch.n_rows)
                yield batch
            start = end
    if not emitted:
        empty = source.slice(0, 0)
        yield empty if output is None else empty.project(output)


@dataclass
class PScan(PhysNode):
    """Scan a storage table, optionally a row range of it (FractionTable).

    ``start``/``stop`` delimit the fraction this scan reads — the
    partitioning mechanism behind parallel table scans (paper 4.2.1).
    ``predicate`` is a pushed-down scan filter; ``columns`` prunes output.
    """

    table: Table
    columns: list[str] | None = None
    predicate: Expr | None = None
    start: int = 0
    stop: int | None = None

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        stop = self.table.n_rows if self.stop is None else self.stop
        return _scan_ranges(ctx, self.table, self.columns, self.predicate, [(self.start, stop)])


@dataclass
class PIndexedRleScan(PhysNode):
    """Range-skipping scan over an RLE-encoded column (paper 4.3).

    The RLE runs of ``column`` form an IndexTable (value, count, start);
    ``predicate`` (which references only ``column``) filters the runs, and
    only the surviving row ranges of the main table are read. ``residual``
    is applied to the scanned rows afterwards.
    """

    table: Table
    column: str
    predicate: Expr
    residual: Expr | None = None
    columns: list[str] | None = None

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        col = self.table.column(self.column)
        vec = col.physical
        if not isinstance(vec, RleVector):
            # Planner should not have chosen this operator; degrade safely.
            fallback_pred = self.predicate
            if self.residual is not None:
                fallback_pred = Call("and", (self.predicate, self.residual))
            yield from PScan(self.table, self.columns, fallback_pred).execute(ctx)
            return
        values, counts, starts = vec.index_table()
        decoded = col.dictionary.decode(values) if col.dictionary is not None else values
        index_tbl = Table(
            {self.column: Column(col.ltype, PlainVector(decoded), collation=col.collation)}
        )
        keep = evaluate_predicate(self.predicate, index_tbl)
        selected = np.flatnonzero(keep)
        ctx.metrics.add(runs_skipped=int(len(values) - len(selected)))
        runs = ((int(starts[i]), int(starts[i] + counts[i])) for i in selected)
        yield from _scan_ranges(ctx, self.table, self.columns, self.residual, runs)


# ---------------------------------------------------------------------- #
# Streaming operators
# ---------------------------------------------------------------------- #
@dataclass
class PFilter(PhysNode):
    child: PhysNode
    predicate: Expr

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        for batch in self.child.execute(ctx):
            yield batch.filter(evaluate_predicate(self.predicate, batch))


@dataclass
class PProject(PhysNode):
    child: PhysNode
    items: list[tuple[str, Expr]]

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        project = None
        for batch in self.child.execute(ctx):
            if project is None:
                schema = batch.schema()
                types = {name: infer_type(expr, schema) for name, expr in self.items}
                project = bind_projection(self.items, types)
            yield project(batch)


def bind_projection(items, types: dict[str, LogicalType]) -> Callable[[Table], Table]:
    """``items`` (``(name, expr)`` pairs) bound once, for tables of one
    schema: a column reference passes its column through, ``ifnull`` and
    ``/`` over columns and numeric literals call their kernels, and the
    rest is evaluated; ``types`` types the computed columns."""
    bound = [(name, _bind_expr(expr), types.get(name)) for name, expr in items]

    def project(table: Table) -> Table:
        cols: dict[str, Column] = {}
        for name, source, ltype in bound:
            if isinstance(source, str):
                cols[name] = table.column(source)
                continue
            values, mask = source(table)
            cols[name] = Column(ltype, PlainVector(np.asarray(values)), null_mask=mask)
        return Table._of(cols, table.n_rows if cols else 0)

    return project


def _bind_expr(expr: Expr):
    """A column name to pass through, or ``table -> (values, mask)``."""
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Call) and expr.func in ("ifnull", "/"):
        args = [_bind_arg(arg) for arg in expr.args]
        if None not in args:
            kernel = FUNCTIONS[expr.func].kernel
            return lambda t: kernel([arg(t) for arg in args], t.n_rows)
    return lambda t: evaluate(expr, t)


_NOT_NUMERIC = (None, LogicalType.STR)


def _bind_arg(expr: Expr):
    """A kernel argument: a column's values, or a non-NULL numeric literal's."""
    if isinstance(expr, ColumnRef):

        def column(table: Table):
            col = table.columns[expr.name]
            return col.storage_values(), col.null_mask

        return column
    if isinstance(expr, Literal) and expr.value is not None and expr.ltype not in _NOT_NUMERIC:
        value, dtype = to_storage(expr.value, expr.ltype), expr.ltype.numpy_dtype()
        return lambda t: (np.full(t.n_rows, value, dtype=dtype), None)
    return None


@dataclass
class PLimit(PhysNode):
    child: PhysNode
    n: int

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        remaining = self.n
        emitted = False
        for batch in self.child.execute(ctx):
            if remaining <= 0:
                if not emitted:
                    yield batch.slice(0, 0)
                    emitted = True
                break
            out = batch if batch.n_rows <= remaining else batch.slice(0, remaining)
            remaining -= out.n_rows
            emitted = True
            yield out
        if not emitted:
            raise ExecutionError("limit received no batches")


# ---------------------------------------------------------------------- #
# Hash join
# ---------------------------------------------------------------------- #
@dataclass
class PHashJoin(PhysNode):
    """Hash join: builds on the right input, probes with the left.

    "The TDE's execution engine processes the join by building a hash
    table for the right-side input, and probing the left-side input for
    matches." (paper 4.2.2). ``build_source`` may be a ``SharedBuild`` so
    parallel fragments share a single hash table.
    """

    kind: str
    conditions: list[tuple[str, str]]
    probe: PhysNode
    build_source: "PhysNode"

    def children(self) -> tuple[PhysNode, ...]:
        return (self.probe, self.build_source)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        from .exchange import SharedBuild  # cycle: exchange imports this module

        if isinstance(self.build_source, SharedBuild):
            build_table = self.build_source.get(ctx)
        else:
            build_table = execute_to_table(self.build_source, ctx)
        left_keys = [l for l, _ in self.conditions]
        right_keys = [r for _, r in self.conditions]
        index = build_index(build_table, right_keys)
        right_out = [c for c in build_table.column_names if c not in set(right_keys)]
        for batch in self.probe.execute(ctx):
            yield self._join_batch(batch, build_table, index, left_keys, right_out)

    def _join_batch(self, batch: Table, build_table: Table, index, left_keys, right_out) -> Table:
        """Join one probe batch. Rows come out in probe order, a probe
        row's matches in build order and a left join's unmatched row
        padded where it stands, so the output does not depend on where
        the probe side was cut into batches."""
        probe_rows, build_rows, matched = probe_index(index, batch, left_keys)
        pad_at = None
        if self.kind == "left" and not matched.all():
            # A probe row yields one output row per match, or one padded.
            width = np.maximum(np.bincount(probe_rows, minlength=batch.n_rows), 1)
            left_part = batch.take(np.repeat(np.arange(batch.n_rows, dtype=np.int64), width))
            pad_at = (np.cumsum(width) - 1)[~matched]
            pad = np.zeros(left_part.n_rows, dtype=np.bool_)
            pad[pad_at] = True
            pair_at = np.flatnonzero(~pad)
        elif index.unique and len(probe_rows) == batch.n_rows:
            # Every probe row found its one build row (a total foreign
            # key onto a dimension): gathering them is the identity.
            left_part = batch
        else:
            left_part = batch.take(probe_rows)
        cols: dict[str, Column] = dict(left_part.columns)
        for name in right_out:
            col = build_table.column(name)
            taken = col.take(build_rows) if len(build_rows) else col.slice(0, 0)
            if pad_at is None:
                cols[name] = taken
                continue
            found = taken.storage_values()
            fill = fill_array(col.ltype, len(pad_at))
            values = np.empty(left_part.n_rows, dtype=np.result_type(found.dtype, fill.dtype))
            values[pair_at] = found
            values[pad_at] = fill
            mask = np.zeros(left_part.n_rows, dtype=np.bool_)
            if taken.null_mask is not None:
                mask[pair_at] = taken.null_mask
            mask[pad_at] = True
            cols[name] = Column(col.ltype, PlainVector(values), null_mask=mask, collation=col.collation)
        return Table(cols)


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
@dataclass
class PHashAggregate(PhysNode):
    """Stop-and-go hash aggregation over factorized keys."""

    child: PhysNode
    groupby: list[str]
    specs: list[AggSpec]

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        source = execute_to_table(self.child, ctx)
        yield aggregate_table(source, self.groupby, self.specs)


def aggregate_table(source: Table, groupby: list[str], specs: list[AggSpec]) -> Table:
    """Aggregate a fully materialized input (shared with stream agg)."""
    if source.n_rows == 0 and not groupby:
        return _empty_input_aggregate(source, specs)
    gids, n_groups, reps = factorize_table(source, list(groupby))
    # Only the keys are gathered at the representatives; the measures
    # come from the aggregate kernels.
    cols = dict(source.project(groupby).take(reps).columns)
    cols.update(aggregate_groups(source, gids, n_groups, list(specs)))
    return Table(cols)


def _empty_input_aggregate(source: Table, specs: list[AggSpec]) -> Table:
    """SQL: a global aggregate over zero rows yields exactly one row."""
    cols: dict[str, Column] = {}
    for spec in specs:
        if spec.func in ("count", "count_star", "count_distinct"):
            cols[spec.name] = Column(LogicalType.INT, PlainVector(np.zeros(1, dtype=np.int64)))
        else:
            fill = fill_array(spec.result_type, 1)
            cols[spec.name] = Column(
                spec.result_type, PlainVector(fill), null_mask=np.ones(1, dtype=np.bool_)
            )
    return Table(cols)


@dataclass
class PStreamAggregate(PhysNode):
    """Streaming aggregation for inputs sorted (grouped) by the keys.

    Emits each group as soon as the next key value arrives — the streaming
    implementation the optimizer prefers when sorting properties allow
    (paper 4.2.4). Holds only the current group's rows.
    """

    child: PhysNode
    groupby: list[str]
    specs: list[AggSpec]

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        carry: Table | None = None
        first: Table | None = None
        emitted = False
        for batch in self.child.execute(ctx):
            if first is None:
                # Even an all-empty stream carries the schema the empty
                # aggregate needs (a fully filtered scan still yields one
                # empty batch — the every-stream-yields-a-batch contract).
                first = batch
            if batch.n_rows == 0:
                continue
            merged = Table.concat([carry, batch]) if carry is not None and carry.n_rows else batch
            boundary = self._last_boundary(merged)
            if boundary == 0:
                carry = merged
                continue
            complete = merged.slice(0, boundary)
            carry = merged.slice(boundary, merged.n_rows)
            out = aggregate_table(complete, self.groupby, self.specs)
            emitted = True
            yield out
        if carry is not None and carry.n_rows:
            yield aggregate_table(carry, self.groupby, self.specs)
        elif not emitted:
            if carry is None:
                carry = first if first is not None else _empty_schema_guess()
            yield aggregate_table(carry, self.groupby, self.specs)

    def _last_boundary(self, table: Table) -> int:
        """Index of the first row of the last (still open) group."""
        change = np.zeros(table.n_rows, dtype=np.bool_)
        for key in self.groupby:
            col = table.column(key)
            values = col.storage_values()
            if values.dtype == object:
                values = values.astype("U")
            change[1:] |= values[1:] != values[:-1]
            if col.null_mask is not None:
                change[1:] |= col.null_mask[1:] != col.null_mask[:-1]
        boundaries = np.flatnonzero(change)
        return int(boundaries[-1]) if len(boundaries) else 0


def _empty_schema_guess() -> Table:
    raise ExecutionError("stream aggregate received no batches")


# ---------------------------------------------------------------------- #
# Ordering
# ---------------------------------------------------------------------- #
@dataclass
class PWindow(PhysNode):
    """Window/table calculations over partitions (paper §1's "window and
    statistical functions").

    Stop-and-go: materializes its input, orders it by the first item's
    (partition, order) addressing, and appends one column per item. Each
    item may use its own partition/order addressing; values are computed
    along that ordering and scattered back to the output row positions.
    """

    child: PhysNode
    items: list  # list[WindowItem]

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        source = execute_to_table(self.child, ctx)
        first = self.items[0]
        base_keys = [(p, True) for p in first.partition_by] + list(first.order_by)
        table = source.sort_by(base_keys) if base_keys else source
        schema = table.schema()
        for item in self.items:
            values = self._compute(item, table)
            ltype = _window_type(item, schema)
            column = Column.from_values(values, ltype, compress=False)
            table = table.with_column(item.alias, column)
            schema[item.alias] = ltype
        yield table

    def _compute(self, item, table: Table) -> list:
        n = table.n_rows
        if n == 0:
            return []
        keys = [(p, True) for p in item.partition_by] + list(item.order_by)
        if keys:
            tagged = table.with_column(
                "__rowid",
                Column(
                    LogicalType.INT,
                    PlainVector(np.arange(n, dtype=np.int64)),
                ),
            )
            ordered = tagged.sort_by(keys)
            positions = ordered.column("__rowid").storage_values()
        else:
            ordered = table
            positions = np.arange(n, dtype=np.int64)
        partition_cols = [ordered.column(p).python_values() for p in item.partition_by]
        order_cols = [ordered.column(k).python_values() for k, _a in item.order_by]
        if item.arg is not None:
            arg_values, arg_mask = evaluate(item.arg, ordered)
            args = [
                None if (arg_mask is not None and arg_mask[i]) else arg_values[i]
                for i in range(n)
            ]
        else:
            args = [None] * n
        out: list = [None] * n
        start = 0
        while start < n:
            stop = start
            while stop < n and all(
                col[stop] == col[start] for col in partition_cols
            ):
                stop += 1
            self._fill_partition(item, args, order_cols, positions, out, start, stop)
            start = stop
        return out

    @staticmethod
    def _fill_partition(item, args, order_cols, positions, out, start, stop) -> None:
        span = range(start, stop)
        if item.func == "row_number":
            for offset, i in enumerate(span):
                out[positions[i]] = offset + 1
        elif item.func == "rank":
            rank = 0
            for offset, i in enumerate(span):
                if offset == 0 or any(
                    col[i] != col[i - 1] for col in order_cols
                ):
                    rank = offset + 1
                out[positions[i]] = rank
        elif item.func in ("running_sum", "running_avg"):
            total = 0.0
            count = 0
            for i in span:
                if args[i] is not None:
                    total += args[i]
                    count += 1
                if item.func == "running_sum":
                    out[positions[i]] = total if count else None
                else:
                    out[positions[i]] = (total / count) if count else None
        elif item.func in ("window_sum", "window_max", "window_min", "share"):
            present = [args[i] for i in span if args[i] is not None]
            if item.func == "window_sum":
                value = sum(present) if present else None
                for i in span:
                    out[positions[i]] = value
            elif item.func == "window_max":
                value = max(present) if present else None
                for i in span:
                    out[positions[i]] = value
            elif item.func == "window_min":
                value = min(present) if present else None
                for i in span:
                    out[positions[i]] = value
            else:  # share: percent of partition total
                total = sum(present) if present else None
                for i in span:
                    if args[i] is None or not total:
                        out[positions[i]] = None
                    else:
                        out[positions[i]] = args[i] / total
        else:  # pragma: no cover - parser validates
            raise ExecutionError(f"unknown window function {item.func}")


@dataclass
class PSort(PhysNode):
    child: PhysNode
    keys: list[tuple[str, bool]]

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        source = execute_to_table(self.child, ctx)
        yield source.sort_by(list(self.keys))


@dataclass
class PTopN(PhysNode):
    """Keep the first ``n`` rows under the ordering, with bounded memory."""

    child: PhysNode
    n: int
    keys: list[tuple[str, bool]]

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        buffer: Table | None = None
        for batch in self.child.execute(ctx):
            buffer = batch if buffer is None else Table.concat([buffer, batch])
            if buffer.n_rows > max(4 * self.n, 1024):
                buffer = buffer.sort_by(list(self.keys)).head(self.n)
        if buffer is None:
            raise ExecutionError("topn received no batches")
        yield buffer.sort_by(list(self.keys)).head(self.n)
