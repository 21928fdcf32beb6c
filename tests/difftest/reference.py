"""Reference group-by and join: what the TDE's kernels must compute.

Row-at-a-time Python over ``list[dict]`` rows — dict group-by, dict join,
no numpy, nothing imported from ``repro`` — so an error in the vectorized kernels
(``repro.tde.exec.kernels``) cannot also be an error here. Every other
oracle in this suite (the all-off engine, ``query_naive``, simdb's inner
engine) runs those same kernels and would agree with a wrong group id.

This module *defines* the semantics the kernels only implement:

* ``None`` is NULL. As a group key it is a value like any other (one
  NULL group per column); as a join key it matches nothing, on either
  side.
* NaN is a value, not NULL: all NaNs of a column fall in one group, and
  a NaN join key equals nothing (IEEE), itself included.
* Keys compare as Python compares them: ``1 == 1.0 == True``.
* Groups are ordered column by column — values ascending, then NaN, then
  NULL — and a group is represented by its first row.
* A join pairs each left row, in order, with its matching right rows in
  right-row order; a left join keeps an unmatched left row once, paired
  with ``None``.
"""

from __future__ import annotations

from typing import Any, Sequence

Row = dict[str, Any]

_NAN = ("nan",)  # every NaN of a column is this one group key


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and value != value


def _group_key(row: Row, keys: Sequence[str]) -> tuple:
    return tuple(_NAN if _is_nan(row[k]) else row[k] for k in keys)


def _rank(value: Any) -> tuple:
    """Sort position of one key value: values, then NaN, then NULL."""
    if value is None:
        return (2,)
    if value is _NAN:
        return (1,)
    return (0, value)


def group_rows(rows: Sequence[Row], keys: Sequence[str]) -> list[list[int]]:
    """Partition row numbers by key. Groups come in ascending key order;
    each lists its rows in row order, so ``group[0]`` is its
    representative."""
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault(_group_key(row, keys), []).append(i)
    ordered = sorted(groups, key=lambda key: tuple(_rank(v) for v in key))
    return [groups[key] for key in ordered]


def aggregate_rows(
    rows: Sequence[Row], keys: Sequence[str], aggs: Sequence[tuple[str, str, str | None]]
) -> list[tuple]:
    """One output tuple per group: the representative's key values, then
    one value per ``(name, func, column)`` in ``aggs``.

    ``count_star`` counts rows; ``count``, ``sum``, ``min`` and ``max``
    skip NULL inputs, and the last three are NULL over no input at all.
    """
    out = []
    for members in group_rows(rows, keys):
        first = rows[members[0]]
        values = [first[k] for k in keys]
        for _name, func, column in aggs:
            if func == "count_star":
                values.append(len(members))
                continue
            inputs = [rows[i][column] for i in members if rows[i][column] is not None]
            if func == "count":
                values.append(len(inputs))
            elif not inputs:
                values.append(None)
            else:
                values.append({"sum": sum, "min": min, "max": max}[func](inputs))
        out.append(tuple(values))
    return out


def join_rows(
    left: Sequence[Row],
    right: Sequence[Row],
    conditions: Sequence[tuple[str, str]],
    kind: str = "inner",
) -> list[tuple[int, int | None]]:
    """``(left row, right row)`` pairs of an equi-join on ``conditions``
    (``(left column, right column)`` pairs); N:1 and N:M alike."""
    if kind not in ("inner", "left"):
        raise ValueError(f"unknown join kind {kind!r}")
    left_cols = [lc for lc, _ in conditions]
    right_cols = [rc for _, rc in conditions]

    def joinable(key: tuple) -> bool:
        return not any(v is None or _is_nan(v) for v in key)

    table: dict[tuple, list[int]] = {}
    for j, row in enumerate(right):
        key = tuple(row[c] for c in right_cols)
        if joinable(key):
            table.setdefault(key, []).append(j)
    pairs: list[tuple[int, int | None]] = []
    for i, row in enumerate(left):
        key = tuple(row[c] for c in left_cols)
        matches = table.get(key, []) if joinable(key) else []
        pairs.extend((i, j) for j in matches)
        if not matches and kind == "left":
            pairs.append((i, None))
    return pairs


def answer_spec(rows: Sequence[Row], spec) -> list[tuple]:
    """The rows a query spec asks for over the (already joined) view
    ``rows``: its dimensions, then its measures, ordered and cut if it
    says so. ``spec`` is read by attribute only: categorical
    (``values``/``exclude``), half-open range (``low``/``high``) and
    Top-N (``by``/``n``/``ascending``) filters, measures ``(alias, agg)``
    with ``agg.func`` over the column ``agg.arg.name`` (a bare ``count``
    counts rows); ``avg`` is sum over count and ``count_distinct`` the
    number of distinct non-NULL inputs. Top-N filters rank the rows the
    other filters keep, one after another.
    """
    kept = [row for row in rows if all(_passes(row, f) for f in spec.filters if not _is_topn(f))]
    for f in filter(_is_topn, spec.filters):
        top = _top_values(kept, f)
        kept = [row for row in kept if row[f.field] is not None and row[f.field] in top]
    groups = group_rows(kept, spec.dimensions)
    if not spec.dimensions and not groups:
        groups = [[]]  # an aggregate over no rows is still one row
    out = []
    for members in groups:
        values = [kept[members[0]][d] for d in spec.dimensions]
        values += [_measure(agg, [kept[i] for i in members]) for _alias, agg in spec.measures]
        out.append(tuple(values))
    names = [*spec.dimensions, *(alias for alias, _agg in spec.measures)]
    for key, ascending in reversed(spec.order_by):  # stable: last key first
        out.sort(key=lambda row: _rank(row[names.index(key)]), reverse=not ascending)
    return out if spec.limit is None else out[: spec.limit]


def _measure(agg, rows: Sequence[Row]) -> Any:
    if agg.arg is None:
        return len(rows)
    inputs = [row[agg.arg.name] for row in rows if row[agg.arg.name] is not None]
    if agg.func == "count":
        return len(inputs)
    if agg.func == "count_distinct":
        return len(set(inputs))
    if not inputs:
        return None
    if agg.func == "avg":
        return sum(inputs) / len(inputs)
    return {"sum": sum, "min": min, "max": max}[agg.func](inputs)


def _is_topn(f) -> bool:
    return hasattr(f, "by")


def _top_values(rows: Sequence[Row], f) -> list:
    """The ``f.n`` values of ``f.field`` that rank first by ``f.by``.

    A NULL value is not ranked, so n non-NULL values survive. A NULL
    ``by`` ranks first in either direction, as the engine's sort puts
    NULL first; equal ``by`` values go to the lower key.
    """
    present = [row for row in rows if row[f.field] is not None]
    scored = [  # ascending by key: the tie-break, kept by the stable sorts
        (present[m[0]][f.field], _measure(f.by, [present[i] for i in m]))
        for m in group_rows(present, [f.field])
    ]
    ranked = [s for s in scored if s[1] is None] + sorted(
        (s for s in scored if s[1] is not None), key=lambda s: s[1], reverse=not f.ascending
    )
    return [key for key, _by in ranked[: f.n]]


def _passes(row: Row, f) -> bool:
    value = row[f.field]
    if value is None:
        return False
    if hasattr(f, "values"):
        return (value in f.values) != f.exclude
    return (f.low is None or value >= f.low) and (f.high is None or value < f.high)
