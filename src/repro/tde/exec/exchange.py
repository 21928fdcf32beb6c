"""Parallel execution operators: Exchange, SharedTable, FractionTable.

Paper 4.2.1: "the TDE has an implementation of the Exchange operator that
is able to take N inputs and produce M outputs ... In Tableau 9.0, we
limited the usage of the Exchange operator to only support N inputs and
one output", plus "SharedTable is used to share access to a table across
multiple threads and handles synchronization. FractionTable enables the
TDE to read the table in parallel, since each fraction can be read by a
separate thread."

These are plan shapes. The engine runs every fragment inline on the
calling thread: under the GIL a thread per fragment measured no faster.
``repro.sim.machine`` replays the same plans on K virtual cores, which is
where the 4.2 speed-ups are reproduced. ``PExchange`` drains its inputs
one after another, so its output keeps input order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ...errors import ExecutionError
from ...expr.ast import Expr
from ..storage.table import Table
from .kernels import BuildIndex
from .physical import ExecContext, PhysNode, PScan, execute_to_table


@dataclass
class PExchange(PhysNode):
    """N-input, one-output exchange: the fragments' batches, in input order."""

    inputs: list[PhysNode]

    def children(self) -> tuple[PhysNode, ...]:
        return tuple(self.inputs)

    @property
    def degree(self) -> int:
        return len(self.inputs)

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        if not self.inputs:
            raise ExecutionError("exchange with zero inputs")
        for child in self.inputs:
            yield from child.execute(ctx)


class SharedBuild(PhysNode):
    """SharedTable: materialize a child once, share across fragments.

    Used for the build side of joins under parallel probes ("a single hash
    table is built from the shared table and then shared for every
    left-hand block to probe", paper 4.2.2) and for common subexpressions.
    The lock makes the build happen once when a cached plan is run by
    several server threads at the same time; a join's hash index on the
    table is kept with it, so a cached plan builds neither again.
    """

    def __init__(self, child: PhysNode):
        self.child = child
        self._lock = threading.Lock()
        self._table: Table | None = None
        #: Hash indexes on the built table, by key columns (a join's).
        self.indexes: dict[tuple[str, ...], BuildIndex] = {}

    def children(self) -> tuple[PhysNode, ...]:
        return (self.child,)

    def get(self, ctx: ExecContext) -> Table:
        with self._lock:
            if self._table is None:
                recorder = ctx.recorder
                if recorder is not None:
                    started = recorder.clock.monotonic()
                    self._table = execute_to_table(self.child, ctx)
                    recorder.record_node(
                        self,
                        type(self).__name__,
                        self._table.n_rows,
                        recorder.clock.monotonic() - started,
                    )
                else:
                    self._table = execute_to_table(self.child, ctx)
            return self._table

    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        yield self.get(ctx)


class FractionTable:
    """Partitioning helpers that split a stored table into scan fractions.

    The only data partitioning in Tableau 9.0 "happens in TableScan"
    (paper 4.2.2); these helpers produce the per-fraction ``PScan`` nodes.
    """

    @staticmethod
    def split_even(
        table: Table,
        n_fractions: int,
        *,
        columns: list[str] | None = None,
        predicate: Expr | None = None,
    ) -> list[PScan]:
        """Random (row-range) partitioning into roughly equal fractions."""
        n_fractions = max(1, min(n_fractions, max(table.n_rows, 1)))
        bounds = np.linspace(0, table.n_rows, n_fractions + 1).astype(np.int64)
        return [
            PScan(table, columns, predicate, int(bounds[i]), int(bounds[i + 1]))
            for i in range(n_fractions)
        ]

    @staticmethod
    def split_by_key(
        table: Table,
        key: str,
        n_fractions: int,
        *,
        columns: list[str] | None = None,
        predicate: Expr | None = None,
    ) -> list[PScan] | None:
        """Range partitioning on a sort-prefix column (paper 4.2.3).

        Splits only at key-change boundaries, guaranteeing every distinct
        key value lands in exactly one fraction (Lemma 2). Returns ``None``
        when the key has too few distinct boundary points to produce more
        than one fraction — the skew/low-cardinality caveat of 4.2.3.
        """
        col = table.column(key)
        values = col.storage_values()
        if len(values) == 0:
            return None
        if values.dtype == object:
            values = values.astype("U")
        change = np.flatnonzero(values[1:] != values[:-1]) + 1
        if col.null_mask is not None:
            change = np.union1d(change, np.flatnonzero(np.diff(col.null_mask.astype(np.int8))) + 1)
        if len(change) < 1:
            return None
        targets = np.linspace(0, table.n_rows, n_fractions + 1)[1:-1]
        cut_positions = sorted({int(change[np.abs(change - t).argmin()]) for t in targets})
        bounds = [0] + cut_positions + [table.n_rows]
        bounds = sorted(set(bounds))
        if len(bounds) < 3:
            return None
        return [
            PScan(table, columns, predicate, bounds[i], bounds[i + 1])
            for i in range(len(bounds) - 1)
        ]
