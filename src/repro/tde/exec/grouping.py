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

Above the rows, sets whose partials group alike share one (one pass per
distinct measure), and the partials share the coding of their keys: per
fragment each key column is coded once and the keys every partial groups
by are densified once (:class:`_FragmentKeys`). A partial and a merge are
the operators a lone ``Aggregate`` gets, reading a :class:`PSharedInput`
leaf instead of a child of their own.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from ...clock import SYSTEM_CLOCK, Clock
from ...datatypes import LogicalType
from ...errors import ExecutionError
from ...expr.ast import ColumnRef
from ..storage.column import Column
from ..storage.table import Table
from ..storage.vectors import PlainVector
from ..tql.plan import SET_COLUMN
from .fused import PFusedPipeline
from .kernels import KeyCoding, _direct_bound, _slot_ranks, aggregate_slots, decode_key, fill_array, key_codes
from .physical import ExecContext, PHashAggregate, PhysNode, execute_to_table

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

    def children(self) -> tuple[PhysNode, ...]:
        return (*self.sets, *self.partials, *self.fragments)

    @property
    def shared_keys(self) -> list[str]:
        """The fragment columns every partial of the shared-key route
        (:func:`_key_sources`) groups by, in the order most end with."""
        routed = [keys for keys in map(_key_sources, self.partials) if keys is not None]
        common = set.intersection(*map(set, routed)) - {None} if routed else set()
        ends = Counter(tuple(keys[len(keys) - len(common):]) for keys in routed if common)
        return next((list(end) for end, _ in ends.most_common() if set(end) == common), [])

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        recorder = ctx.recorder
        clock = recorder.clock if recorder is not None else SYSTEM_CLOCK
        results: list[list[Table]] = [[] for _ in self.partials]
        # A fragment is read as one batch: its rows are used as one table
        # anyway, and the planner's split already bounds how many.
        whole = replace(ctx, batch_size=sys.maxsize)
        shared_keys = self.shared_keys
        for fragment in self.fragments:
            # One read per fragment, shared by every partial; one coding
            # of each key column, dropped with the fragment. Partials run
            # one at a time, so one partial's input is alive at a time.
            rows = execute_to_table(fragment, whole)
            keys = _FragmentKeys(rows, shared_keys, clock)
            for partial, out in zip(self.partials, results):
                started = clock.monotonic()
                table = keys.aggregate(partial)
                if table is None:
                    table = _run(partial, [rows], ctx)
                elif recorder is not None:
                    leaf = partial.children()[0]
                    seconds = clock.monotonic() - started
                    recorder.record_node(partial, type(partial).__name__, table.n_rows, seconds)
                    recorder.record_node(leaf, type(leaf).__name__, rows.n_rows, 0.0)
                out.append(table)
            if recorder is not None:
                recorder.add_detail(self, "keys_s", keys.seconds)
            del rows, keys
        # Each partial's results are stacked once, whichever sets merge them.
        stacked = [Table.concat(tables) for tables in results]
        del results
        answers = []
        for s in self.sets:
            started = clock.monotonic()
            answer = _run(s.merge, [stacked[s.grain]], ctx)
            if recorder is not None:
                seconds = clock.monotonic() - started
                recorder.record_node(s, type(s).__name__, answer.n_rows, seconds)
            answers.append(answer)
        yield _tagged_union(answers)


def _key_sources(partial: PhysNode) -> list[str | None] | None:
    """The fragment column each key of a partial the shared-key route takes
    reads (None: one its projection computes); None for a partial that
    takes ``aggregate_table``'s. The route takes a hash aggregate, or a
    fused one without a predicate, over the fragment's rows by some key."""
    fused = isinstance(partial, PFusedPipeline) and partial.is_aggregate and partial.predicate is None
    if not (fused or isinstance(partial, PHashAggregate)) or not partial.groupby:
        return None
    if not isinstance(partial.children()[0], PSharedInput):
        return None
    if not fused or partial.items is None:
        return list(partial.groupby)
    passed = {n: e.name for n, e in partial.items if isinstance(e, ColumnRef)}
    return [passed.get(k) for k in partial.groupby]


class _FragmentKeys:
    """One fragment's key codes, made in the call that reads its rows and
    dropped with them (a cached plan runs on several threads).

    Each key column is coded once (:func:`~repro.tde.exec.kernels.key_codes`)
    and the ``shared`` columns are densified once: each row gets the rank
    of its shared key tuple among the fragment's ``n_shared``. A partial
    whose keys end with them addresses a group as ``prefix codes ×
    n_shared + shared id``, any other by its keys' mixed radix, so slots
    ascend like its key codes: ``aggregate_slots`` sums over that domain,
    and the groups come out in ``factorize_table``'s order with their key
    values decoded from the slot. ``seconds``: time spent coding keys.
    """

    def __init__(self, rows: Table, shared: list[str], clock: Clock):
        self.rows, self.clock, self.seconds, self._coded = rows, clock, 0.0, {}
        self.bound, self.ids, self.n_shared = _direct_bound(rows.n_rows), None, 1
        self.shared = [rows.column(name) for name in shared]
        coded = [self.code(col) for col in self.shared]
        started = clock.monotonic()
        domain = math.prod(c.card for c in coded) if None not in coded else self.bound + 1
        if coded and domain <= self.bound:
            combined = coded[0].codes
            for c in coded[1:]:
                combined = combined * c.card + c.codes
            self.ids, slots = _slot_ranks(combined, domain)
            self.n_shared, self.at = len(slots), {}
            for col, c in zip(self.shared[::-1], coded[::-1]):
                slots, self.at[id(col)] = np.divmod(slots, c.card)
        self.seconds += clock.monotonic() - started

    def code(self, col: Column) -> KeyCoding | None:
        if id(col) not in self._coded:
            started = self.clock.monotonic()
            self._coded[id(col)] = (col, key_codes(col))
            self.seconds += self.clock.monotonic() - started
        return self._coded[id(col)][1]

    def aggregate(self, partial: PhysNode) -> Table | None:
        """``partial``'s results over the fragment by the shared-key route,
        or None when it takes ``aggregate_table``'s (see
        :func:`_key_sources`; also for a key that needs sorting or a
        domain past the direct bound)."""
        if _key_sources(partial) is None:
            return None
        leaf = partial.children()[0]
        table = self.rows if leaf.columns is None else self.rows.project(leaf.columns)
        if isinstance(partial, PFusedPipeline):
            table = partial.project(table)
        cols = [table.column(name) for name in partial.groupby]
        coded = [self.code(col) for col in cols]
        if None in coded:
            return None
        n = len(cols) - len(self.shared)
        shared = self.ids is not None and n >= 0 and all(a is b for a, b in zip(cols[n:], self.shared))
        own = coded[:n] if shared else coded
        domain = math.prod(c.card for c in own) * (self.n_shared if shared else 1)
        if domain > self.bound:
            return None
        slot = own[0].codes if own else self.ids
        for c in own[1:]:
            slot = slot * c.card + c.codes
        if shared and own:
            slot = slot * self.n_shared + self.ids
        occupied, measures = aggregate_slots(table, slot, domain, partial.specs)
        # Each key's code at the occupied slots, read off the slot's digits.
        rest, sid = np.divmod(occupied, self.n_shared) if shared else (occupied, None)
        at = []
        for c in own[::-1]:
            rest, code = np.divmod(rest, c.card)
            at.insert(0, code)
        if shared:
            at += [self.at[id(col)][sid] for col in self.shared]
        keys = {name: decode_key(col, c, a) for name, col, c, a in zip(partial.groupby, cols, coded, at)}
        return Table(keys | measures)


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
