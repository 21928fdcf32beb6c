"""Grouping sets: several aggregations of one relation from one pass.

A dashboard's zones mostly aggregate the same relation — the same scan,
filters and dimension probes — and differ only in keys and measures.
:class:`PGroupingSets` runs that relation's fragments once and hands each
fragment's rows to every set's partial aggregate (the paper's
``SharedTable`` idea of 4.2.2 applied to the probe side), so the scan and
the joins are paid once, not once per zone.

Execution is *fragment-major*: fragment 0's rows, read as one batch, go
through every set's partial and are dropped before fragment 1 is read,
so at most one fragment of joined rows is alive at a time whatever the
number of sets. (A left join pads its misses in probe order, so the rows
come out the same however the fragment is cut into batches.)
Only a set whose aggregates cannot be split into partial and global
phases (``count_distinct``) keeps its own columns of every fragment until
the end, as its standalone query would.

What the sets have in common above the rows is also paid once per
fragment: their group-bys share one
:class:`~repro.tde.exec.kernels.KeyMemo` (each key column coded once, a
known key suffix or a permutation of a known key set reused), which is
dropped with the fragment. EXPLAIN ANALYZE shows that work on its own
:class:`PSharedKeys` row.

The operators a set is made of are the ones a lone ``Aggregate`` gets
(hash or stream aggregate, fused project+aggregate, local/global split);
they read their input from a :class:`PSharedInput` leaf instead of a
child of their own.
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
#: now: one fragment's rows, later one set's partial results. Held in a
#: context variable and not on the leaf, because a cached plan is run by
#: several threads at once and operators keep no state between calls.
_SHARED: ContextVar[list[Table]] = ContextVar("tde-grouping-sets-input")


@dataclass
class PSharedInput(PhysNode):
    """Leaf of a set's operators: whatever :class:`PGroupingSets` shares.

    ``columns`` narrows the shared rows to what this set reads (the
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
    """One set: ``partial`` runs once per fragment over the shared rows,
    ``merge`` once over the partial results (None when the partial of a
    single fragment already is the answer). Driven by
    :class:`PGroupingSets`; not executable on its own."""

    groupby: list[str]
    aggs: list[str]
    partial: PhysNode
    merge: PhysNode | None = None

    def children(self) -> tuple[PhysNode, ...]:
        return (self.partial,) if self.merge is None else (self.merge, self.partial)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        raise ExecutionError("a grouping set runs only inside its grouping-sets operator")


@dataclass
class PSharedKeys(PhysNode):
    """The key coding the sets of a :class:`PGroupingSets` share.

    Every set's per-fragment group-by goes through one
    :class:`~repro.tde.exec.kernels.KeyMemo` per fragment, so a key
    column is coded once however many sets group by it. ``coded`` is the
    number of key columns the planned sets code per fragment, ``reused``
    how many more key references they make. Under EXPLAIN ANALYZE this
    row holds the time spent factorizing the sets' keys (the sets' rows
    leave it out, so they compare with each other) and, as actual rows,
    the key columns coded. Not executable on its own.
    """

    coded: int
    reused: int

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        raise ExecutionError("shared keys are coded only inside their grouping-sets operator")


@dataclass
class PGroupingSets(PhysNode):
    """Run ``fragments`` once each and answer every set from their rows.

    Yields one table: the sets' answers one after the other, tagged with
    their position in :data:`~repro.tde.tql.plan.SET_COLUMN`, over the
    union of their output columns (NULL where a set has no such column).
    Each set's rows are what its standalone query returns, in its order.
    """

    fragments: list[PhysNode]
    sets: list[PGroupingSet]
    keys: PSharedKeys

    def children(self) -> tuple[PhysNode, ...]:
        return (*self.sets, self.keys, *self.fragments)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        recorder = ctx.recorder
        clock = recorder.clock if recorder is not None else (lambda: 0.0)
        partials: list[list[Table]] = [[] for _ in self.sets]
        spent = [0.0] * len(self.sets)
        # A fragment is read as one batch: its rows are used as one table
        # anyway, and the planner's split already bounds how many.
        whole = replace(ctx, batch_size=sys.maxsize)
        for fragment in self.fragments:
            # One read per fragment, shared by every set; one coding of
            # each key column, dropped with the fragment.
            rows = [execute_to_table(fragment, whole)]
            memo = KeyMemo(clock)
            with sharing_keys(memo):
                for i, s in enumerate(self.sets):
                    started, coding = clock(), memo.seconds
                    partials[i].append(_run(s.partial, rows, ctx))
                    spent[i] += clock() - started - (memo.seconds - coding)
            if recorder is not None:
                recorder.record_node(self.keys, type(self.keys).__name__, memo.coded, memo.seconds)
            del rows, memo
        answers = []
        for i, s in enumerate(self.sets):
            started = clock()
            if s.merge is not None:
                answer = _run(s.merge, partials[i], ctx)
            else:
                answer = Table.concat(partials[i])
            partials[i] = []
            if recorder is not None:
                seconds = spent[i] + clock() - started
                recorder.record_node(s, type(s).__name__, answer.n_rows, seconds)
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
