"""Grouping sets: several aggregations of one relation from one pass.

A dashboard's zones mostly aggregate the same relation — the same scan,
filters and dimension joins — and differ only in keys and measures.
:class:`PGroupingSets` runs that relation's fragments once and hands each
fragment's rows to the sets' partial aggregates (the paper's
``SharedTable`` idea of 4.2.2 applied to the probe side), so the scan is
paid once, not once per zone. A dimension read only as group keys is not
joined to the fragments at all: the partials group by its foreign key and
each set's merge joins it to their results (``foreign_key_space``).

Execution is *fragment-major*: fragment 0's rows, read as one batch, go
through every partial and are dropped before fragment 1 is read, so at
most one fragment of rows is alive at a time whatever the number of sets.
Only a set whose aggregates cannot be split into partial and global
phases (``count_distinct``) keeps its own columns of every fragment until
the end, as its standalone query would.

Above the rows, sets whose partials group alike share one (one coding of
the keys, one pass per distinct measure), and all partials share one
:class:`~repro.tde.exec.kernels.KeyMemo` per fragment (each key column
coded once, a known key suffix or permutation reused); EXPLAIN ANALYZE
shows that coding on its own :class:`PSharedKeys` row. A partial and a
merge are the operators a lone ``Aggregate`` gets, reading a
:class:`PSharedInput` leaf instead of a child of their own.
"""

from __future__ import annotations

import sys
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from ...datatypes import LogicalType
from ...errors import ExecutionError
from ..storage.column import Column
from ..storage.table import Table
from ..storage.vectors import PlainVector
from ..tql.plan import SET_COLUMN
from .kernels import KeyMemo, fill_array, sharing_keys
from .physical import ExecContext, PhysNode, execute_to_table

#: The tables the enclosing :class:`PGroupingSets` is handing out right
#: now: one fragment's rows, later one partial's results. Held in a
#: context variable and not on the leaf, because a cached plan is run by
#: several threads at once and operators keep no state between calls.
_SHARED: ContextVar[list[Table]] = ContextVar("tde-grouping-sets-input")


@dataclass
class PSharedInput(PhysNode):
    """Leaf of a partial's or a merge's operators: whatever
    :class:`PGroupingSets` hands out.

    ``columns`` narrows the shared rows to what the partial reads (the
    columns themselves are shared, never copied); None takes all.
    ``est_rows`` is the planner's estimate of one hand-out, for EXPLAIN
    and the simulator.
    """

    columns: list[str] | None = None
    est_rows: int = 0

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        try:
            shared = _SHARED.get()
        except LookupError:
            raise ExecutionError("shared input read outside a grouping-sets operator") from None
        for table in shared:
            yield table if self.columns is None else table.project(self.columns)


@dataclass
class PGroupingSet(PhysNode):
    """One set: ``merge`` runs once over the results of partial number
    ``grain`` of its :class:`PGroupingSets` (a bare :class:`PSharedInput`
    when they already are the answer). Driven by :class:`PGroupingSets`;
    not executable on its own."""

    groupby: list[str]
    aggs: list[str]
    grain: int
    merge: PhysNode

    def children(self) -> tuple[PhysNode, ...]:
        return (self.merge,)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        raise ExecutionError("a grouping set runs only inside its grouping-sets operator")


@dataclass
class PSharedKeys(PhysNode):
    """The key coding the partials of a :class:`PGroupingSets` share.

    Every partial's group-by goes through one
    :class:`~repro.tde.exec.kernels.KeyMemo` per fragment, so a key
    column is coded once however many partials group by it. ``coded`` is
    the number of key columns the planned partials code per fragment,
    ``reused`` how many more key references they make. Under EXPLAIN
    ANALYZE this row holds the time spent factorizing the partials' keys
    (also inside their own rows) and, as actual rows, the key columns
    coded. Not executable on its own.
    """

    coded: int
    reused: int

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        raise ExecutionError("shared keys are coded only inside their grouping-sets operator")


@dataclass
class PGroupingSets(PhysNode):
    """Run ``fragments`` once each, run every one of ``partials`` over
    each fragment's rows, and answer every set from its partial's results.

    Yields one table: the sets' answers one after the other, tagged with
    their position in :data:`~repro.tde.tql.plan.SET_COLUMN`, over the
    union of their output columns (NULL where a set has no such column).
    Each set's rows are what its standalone query returns, in its order.
    """

    fragments: list[PhysNode]
    partials: list[PhysNode]
    sets: list[PGroupingSet]
    keys: PSharedKeys

    def children(self) -> tuple[PhysNode, ...]:
        return (*self.sets, *self.partials, self.keys, *self.fragments)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        recorder = ctx.recorder
        clock = recorder.clock if recorder is not None else (lambda: 0.0)
        results: list[list[Table]] = [[] for _ in self.partials]
        # A fragment is read as one batch: its rows are used as one table
        # anyway, and the planner's split already bounds how many.
        whole = replace(ctx, batch_size=sys.maxsize)
        for fragment in self.fragments:
            # One read per fragment, shared by every partial; one coding
            # of each key column, dropped with the fragment.
            rows = [execute_to_table(fragment, whole)]
            memo = KeyMemo(clock)
            with sharing_keys(memo):
                for partial, out in zip(self.partials, results):
                    out.append(_run(partial, rows, ctx))
            if recorder is not None:
                recorder.record_node(self.keys, type(self.keys).__name__, memo.coded, memo.seconds)
            del rows, memo
        # Each partial's results are stacked once, whichever sets merge them.
        stacked = [Table.concat(tables) for tables in results]
        del results
        answers = []
        for s in self.sets:
            started = clock()
            answer = _run(s.merge, [stacked[s.grain]], ctx)
            if recorder is not None:
                recorder.record_node(s, type(s).__name__, answer.n_rows, clock() - started)
            answers.append(answer)
        yield _tagged_union(answers)


def _run(node: PhysNode, shared: list[Table], ctx: ExecContext) -> Table:
    token = _SHARED.set(shared)
    try:
        return execute_to_table(node, ctx)
    finally:
        _SHARED.reset(token)


def _tagged_union(answers: list[Table]) -> Table:
    sizes = [t.n_rows for t in answers]
    tags = np.repeat(np.arange(len(answers), dtype=np.int64), sizes)
    cols = {SET_COLUMN: Column(LogicalType.INT, PlainVector(tags))}
    for name in dict.fromkeys(n for t in answers for n in t.column_names):
        have = [t.columns.get(name) for t in answers]
        model = next(col for col in have if col is not None)
        for col in have:
            if col is not None and col.collation != model.collation:
                raise ExecutionError(f"grouping sets disagree on the collation of {name!r}")
        cols[name] = Column.concat(
            [col if col is not None else _nulls_like(model, n) for col, n in zip(have, sizes)]
        )
    return Table(cols)


def _nulls_like(model: Column, n: int) -> Column:
    """``n`` NULLs that concatenate with ``model`` without recoding it:
    a coded column is padded in its own dictionary's code space."""
    mask = np.ones(n, dtype=np.bool_)
    if model.dictionary is not None and len(model.dictionary):
        codes = np.zeros(n, dtype=np.int32)
        return Column(
            model.ltype,
            PlainVector(codes),
            dictionary=model.dictionary,
            null_mask=mask,
            collation=model.collation,
        )
    return Column(
        model.ltype, PlainVector(fill_array(model.ltype, n)), null_mask=mask, collation=model.collation
    )


def slice_set(table: Table, position: int, columns: list[str]) -> Table:
    """Set ``position``'s answer out of a :class:`PGroupingSets` result."""
    tags = table.column(SET_COLUMN).storage_values()
    return table.project(columns).take(np.flatnonzero(tags == position))
