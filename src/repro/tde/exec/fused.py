"""Fused pipeline operator: filter + project + aggregate in one pass.

The TDE's operators each materialize a ``Table`` per batch; for the hot
dashboard path (scan → filter → project → aggregate) that means three
intermediate tables per batch that exist only to be torn apart again.
:class:`PFusedPipeline` collapses such a chain into one operator that

* computes the combined filter mask once (per batch or per scan
  fraction), with qualifying conjuncts evaluated in *code space* — once
  per dictionary entry or once per RLE run — instead of per row
  (paper 4.1's "queries are processed directly on the compressed data");
* gathers only surviving rows, keeping dictionary codes intact so the
  downstream group-by factorization takes the code fast path;
* projects and aggregates those rows without intermediate ``Table``
  construction between the steps.

Two modes:

* **table mode** (``table`` set): the operator absorbed a ``PScan`` and
  works on the storage table's physical vectors directly over
  ``[start, stop)`` — this is where RLE runs are filtered per-run.
* **stream mode** (``source`` set): the operator consumes batches from
  an arbitrary child (exchange, join, RLE index scan) and fuses the
  per-batch work above it.

Results are byte-identical to the unfused chain; the differential
kernel-equivalence suite pins that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ...expr.ast import ColumnRef, Expr, columns_used, conjuncts, infer_type
from ...expr.eval import evaluate, evaluate_predicate
from ..storage.column import Column
from ..storage.table import Table
from ..storage.vectors import PlainVector, RleVector
from .kernels import AggSpec, code_space_safe, predicate_codes, predicate_mask
from .physical import ExecContext, PhysNode, aggregate_table, narrow_to_read


@dataclass
class PFusedPipeline(PhysNode):
    """A collapsed Filter/Project/HashAggregate chain (plus scan).

    Exactly one of ``table`` (absorbed scan) or ``source`` (stream child)
    is set. ``predicate`` filters input rows; ``items`` then computes the
    projection (in input-column terms); ``groupby``/``specs`` aggregate
    the projected rows. Any of the three stages may be absent.
    ``fused_ops`` records what was absorbed, for EXPLAIN labels.
    Execution state (the per-dictionary verdict cache) is per-call, so a
    plan-cache-shared instance is safe across threads.
    """

    table: Table | None = None
    columns: list[str] | None = None
    start: int = 0
    stop: int | None = None
    source: PhysNode | None = None
    predicate: Expr | None = None
    items: list[tuple[str, Expr]] | None = None
    groupby: list[str] | None = None
    specs: list[AggSpec] | None = None
    fused_ops: tuple[str, ...] = ()
    code_space: bool = True

    def children(self) -> tuple[PhysNode, ...]:
        return (self.source,) if self.source is not None else ()

    @property
    def is_aggregate(self) -> bool:
        return self.specs is not None

    # ------------------------------------------------------------------ #
    def _execute(self, ctx: ExecContext) -> Iterator[Table]:
        conjs = conjuncts(self.predicate)
        cache: dict = {}  # (conjunct idx, dictionary identity) -> verdicts
        if self.table is not None:
            yield from self._execute_table(ctx, conjs, cache)
        else:
            yield from self._execute_stream(ctx, conjs, cache)

    # ------------------------------------------------------------------ #
    # Table mode: operate on the storage vectors of one scan fraction
    # ------------------------------------------------------------------ #
    def _execute_table(self, ctx: ExecContext, conjs, cache) -> Iterator[Table]:
        table = self.table
        stop = table.n_rows if self.stop is None else self.stop
        start = self.start
        span = max(stop - start, 0)
        ctx.metrics.add(rows_scanned=span, batches=1)
        mask = self._range_mask(conjs, cache, start, stop)
        if mask is None:
            idx = np.arange(start, stop, dtype=np.int64)
        else:
            idx = np.flatnonzero(mask) + start
        out = self._finish(self._take_columns(idx), ctx)
        ctx.metrics.add(rows_emitted=out.n_rows)
        yield out

    def _take_columns(self, idx: np.ndarray) -> Table:
        """Gather surviving rows for exactly the columns still needed.

        ``Column.take`` keeps the dictionary, so group-by factorization
        downstream reuses the codes (the ``factorize_table`` fast path).
        """
        if self.items is not None:
            needed: list[str] = []
            for _, expr in self.items:
                for name in sorted(columns_used(expr)):
                    if name not in needed:
                        needed.append(name)
        elif self.specs is not None:
            needed = list(self.groupby or [])
            for spec in self.specs:
                if spec.arg is not None and spec.arg not in needed:
                    needed.append(spec.arg)
        elif self.columns is not None:
            needed = list(self.columns)
        else:
            needed = self.table.column_names
        if not needed and self.table.column_names:
            # Constant-only projection: keep one input column so the
            # gathered table still knows how many rows survived.
            needed = [self.table.column_names[0]]
        return Table({name: self.table.column(name).take(idx) for name in needed})

    def _range_mask(self, conjs, cache, start: int, stop: int) -> np.ndarray | None:
        """Combined mask over ``[start, stop)``; None when unfiltered."""
        if not conjs:
            return None
        mask: np.ndarray | None = None
        fallback: list[Expr] = []
        for i, conj in enumerate(conjs):
            m = self._range_conj_mask(conj, i, cache, start, stop) if self.code_space else None
            if m is None:
                fallback.append(conj)
                continue
            mask = m if mask is None else mask & m
        if fallback:
            # Row-space conjuncts see the same decoded slice the unfused
            # PScan would have built, one slice for the whole fraction.
            batch = narrow_to_read(self.table, [], *fallback).slice(start, stop)
            for conj in fallback:
                m = evaluate_predicate(conj, batch)
                mask = m if mask is None else mask & m
        return mask

    def _range_conj_mask(self, conj, i: int, cache, start: int, stop: int) -> np.ndarray | None:
        """Code-space / run-space mask for one conjunct, or None."""
        cols = columns_used(conj)
        if len(cols) != 1 or not code_space_safe(conj):
            return None
        name = next(iter(cols))
        if not self.table.has_column(name):
            return None
        col = self.table.column(name)
        vec = col.physical
        if col.dictionary is not None:
            key = (i, id(col.dictionary))
            verdict = cache.get(key)
            if verdict is None:
                verdict = predicate_codes(col, conj, name)
                cache[key] = verdict
            if isinstance(vec, RleVector):
                mask = vec.expand_runs(verdict[vec.values], start, stop)
            else:
                mask = verdict[vec.slice(start, stop)]
        elif isinstance(vec, RleVector):
            # Plain RLE column: evaluate once per run, expand to rows.
            run_col = Column(col.ltype, PlainVector(vec.values), collation=col.collation)
            per_run = evaluate_predicate(conj, Table({name: run_col}))
            mask = vec.expand_runs(per_run, start, stop)
        else:
            return None
        if col.null_mask is not None:
            mask = mask & ~col.null_mask[start:stop]
        return mask

    # ------------------------------------------------------------------ #
    # Stream mode: fuse the per-batch work above an arbitrary child
    # ------------------------------------------------------------------ #
    def _execute_stream(self, ctx: ExecContext, conjs, cache) -> Iterator[Table]:
        parts: list[Table] = []
        emitted = False
        for batch in self.source.execute(ctx):
            if conjs:
                mask = predicate_mask(batch, conjs, cache=cache, code_space=self.code_space)
                out = batch.filter(mask)
            else:
                out = batch
            out = self.project(out)
            if self.is_aggregate:
                parts.append(out)
                continue
            if out.n_rows or not emitted:
                emitted = True
                ctx.metrics.add(rows_emitted=out.n_rows)
                yield out
        if self.is_aggregate:
            source = Table.concat(parts)
            yield aggregate_table(source, list(self.groupby or []), list(self.specs))

    def project(self, batch: Table) -> Table:
        """``batch`` under the projection ``items`` (as is without one)."""
        if self.items is None:
            return batch
        schema = batch.schema()
        return _apply_items(batch, self.items, {name: infer_type(e, schema) for name, e in self.items})

    def _finish(self, selected: Table, ctx: ExecContext) -> Table:
        """Apply projection and aggregation to the surviving rows."""
        selected = self.project(selected)
        if self.is_aggregate:
            return aggregate_table(selected, list(self.groupby or []), list(self.specs))
        return selected


def _apply_items(batch: Table, items, types) -> Table:
    """PProject semantics: ColumnRef passthrough, else evaluate."""
    cols: dict[str, Column] = {}
    for name, expr in items:
        if isinstance(expr, ColumnRef):
            cols[name] = batch.column(expr.name)
            continue
        values, mask = evaluate(expr, batch)
        cols[name] = Column(types[name], PlainVector(np.asarray(values)), null_mask=mask)
    return Table(cols)
