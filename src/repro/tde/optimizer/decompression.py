"""Leveraging RLE encoding for query execution (paper 4.3).

"For a run length encoded column, the optimizer can generate an
IndexTable, which consists of three columns: value, count and start. ...
combining with the operator pushdown allows the optimizer to push a filter
condition on the run length encoded column to the IndexTable ... we
implement the join that translates the range specifications directly into
disk accesses."

:func:`choose_rle_scan` inspects a scan's filter conjuncts and decides
whether to run the scan through :class:`PIndexedRleScan` — the physical
embodiment of the IndexTable join. The decision is guarded by estimated
selectivity because "the specific approach described above does not always
make the query execution faster": an unselective filter reads everything
anyway, and index scans reduce the available degree of parallelism.
"""

from __future__ import annotations

from ...errors import ReproError
from ...expr.ast import Expr, columns_used, conjoin
from ...expr.eval import evaluate_predicate
from ..storage.column import Column
from ..storage.table import Table
from ..storage.vectors import PlainVector, RleVector
from . import provenance
from .cost import estimate_selectivity

#: Only use the IndexTable path below this estimated selectivity.
RLE_SELECTIVITY_THRESHOLD = 0.35

#: Require some actual run structure for range skipping to pay off.
RLE_MIN_AVG_RUN_LENGTH = 4.0


def choose_rle_scan(
    table: Table, conjuncts: list[Expr]
) -> tuple[str, Expr, Expr | None] | None:
    """Pick a (column, index_predicate, residual) split, or None.

    Groups the filter conjuncts per single-column reference, finds columns
    whose physical vector is run-length encoded with long-enough runs, and
    selects the most selective candidate. Remaining conjuncts become the
    residual filter applied to the scanned ranges.
    """
    rule = "decompression.rle_index"
    explain = provenance.active()
    by_column: dict[str, list[Expr]] = {}
    for conj in conjuncts:
        used = columns_used(conj)
        if len(used) == 1:
            by_column.setdefault(next(iter(used)), []).append(conj)
    best: tuple[float, str, Expr] | None = None
    for name in sorted(by_column):
        parts = by_column[name]
        if not table.has_column(name):
            continue
        col = table.column(name)
        if not isinstance(col.physical, RleVector):
            if explain:
                provenance.note(
                    rule, False, f"column {name} is not run-length encoded", column=name
                )
            continue
        n_rows = max(len(col), 1)
        avg_run = n_rows / max(col.physical.n_runs, 1)
        if avg_run < RLE_MIN_AVG_RUN_LENGTH:
            if explain:
                provenance.note(
                    rule,
                    False,
                    f"column {name}: average run length {avg_run:.1f} below "
                    f"{RLE_MIN_AVG_RUN_LENGTH:.0f} — range skipping would not pay off",
                    column=name,
                )
            continue
        predicate = conjoin(parts)
        sel = _exact_run_selectivity(col, predicate)
        if sel is None:
            sel = estimate_selectivity(predicate)
        if sel >= RLE_SELECTIVITY_THRESHOLD:
            if explain:
                provenance.note(
                    rule,
                    False,
                    f"column {name}: selectivity {sel:.2f} >= threshold "
                    f"{RLE_SELECTIVITY_THRESHOLD:.2f} — a full scan reads less per row",
                    column=name,
                )
            continue
        if best is None or sel < best[0]:
            best = (sel, name, predicate)
    if best is None:
        return None
    sel, column, predicate = best
    if explain:
        provenance.note(
            rule,
            True,
            f"filter on {column} served through the IndexTable "
            f"(selectivity {sel:.2f} < {RLE_SELECTIVITY_THRESHOLD:.2f}, long runs)",
            column=column,
        )
    residual_parts = [c for c in conjuncts if columns_used(c) != {column}]
    return column, predicate, conjoin(residual_parts)


def _exact_run_selectivity(col, predicate) -> float | None:
    """Exact fraction of rows a single-column predicate keeps.

    The IndexTable is tiny (one row per run), so evaluating the predicate
    against it is far cheaper than a scan — this is the same "use the
    compression as an index" insight as the rewrite itself.
    """
    vec = col.physical
    try:
        values, counts, _starts = vec.index_table()
    except AttributeError:
        return None
    decoded = col.dictionary.decode(values) if col.dictionary is not None else values
    # Find the column name from the predicate (it references exactly one).
    names = columns_used(predicate)
    name = next(iter(names))
    index_tbl = Table({name: Column(col.ltype, PlainVector(decoded), collation=col.collation)})
    try:
        keep = evaluate_predicate(predicate, index_tbl)
    except ReproError:
        return None
    total = max(int(counts.sum()), 1)
    return float(counts[keep].sum()) / total
