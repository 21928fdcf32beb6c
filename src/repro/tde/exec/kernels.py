"""Vectorized kernels shared by aggregation and join operators.

The central primitive is *factorization*: mapping rows to dense group ids
over one or more key columns, NULL keys getting their own group. Both the
hash aggregate and the hash join are built on it, so collation-aware string
grouping (via dictionary codes ordered by collation) comes for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from ...datatypes import LogicalType
from ...errors import ExecutionError
from ...expr.ast import Call, CaseWhen, ColumnRef, Expr, columns_used, infer_type
from ...expr.eval import evaluate_predicate
from ..storage.column import Column
from ..storage.table import Table
from ..storage.vectors import ForVector, PlainVector, RleVector


# ---------------------------------------------------------------------- #
# Fill values
# ---------------------------------------------------------------------- #
def fill_array(ltype: LogicalType, n: int) -> np.ndarray:
    """Unobservable fill slots for NULL rows.

    Every operator that pads NULL rows (left-join misses, empty-input
    aggregates, min/max over all-NULL groups) must produce *this* fill so
    fused and unfused plans stay byte-identical. STR builds an
    object-dtype array of ``""`` by hand — ``np.full`` would intern a
    fixed-width str dtype and diverge from the object columns the rest of
    the engine carries.
    """
    if ltype is LogicalType.STR:
        arr = np.empty(n, dtype=object)
        arr[:] = ""
        return arr
    return np.full(n, ltype.fill_value(), dtype=ltype.numpy_dtype())


# ---------------------------------------------------------------------- #
# Factorization
# ---------------------------------------------------------------------- #
#: Direct addressing allots this many slots per input row, and never
#: fewer than the floor. Measured: finding the distinct codes costs
#: ~0.15 ns per slot plus ~5 ns per row, sorting them 70–140 ns per row,
#: so sixteen slots a row stays ≥ 2x ahead of the sort while the scratch
#: arrays stay within ~150 bytes per row; the floor is where a 100-row
#: input (a roll-up of cached partials) breaks even with sorting it.
_DIRECT_SLOTS_PER_ROW = 16
_DIRECT_SLOTS_FLOOR = 2**16
_INT64_MAX = int(np.iinfo(np.int64).max)


def _direct_bound(n_rows: int) -> int:
    """Largest code domain worth addressing directly for ``n_rows`` rows."""
    return max(_DIRECT_SLOTS_FLOOR, _DIRECT_SLOTS_PER_ROW * n_rows)


def _small_span(values: np.ndarray) -> tuple[int, int] | None:
    """``(min, span)`` of a non-empty bool/integer column whose values,
    less the minimum, fit the direct-addressing bound; else ``None``."""
    if values.dtype.kind in "bi" and len(values):
        lo, hi = int(values.min()), int(values.max())
        if hi - lo < _direct_bound(len(values)):
            return lo, hi - lo + 1
    return None


def _rank_by_sorting(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted distinct values, each value's position among them)``."""
    sortable = values.astype("U") if values.dtype == object else values
    uniq, codes = np.unique(sortable, return_inverse=True)
    return uniq, codes.astype(np.int64)


def _slot_ranks(combined: np.ndarray, domain: int) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, slots)`` for codes in ``[0, domain)``, a domain within the
    direct-addressing bound: the occupied codes ascending, and each row's
    rank among them. The codes are addresses: mark the occupied slots,
    rank them in slot order, gather each row's rank — no sort."""
    occupied = np.zeros(domain, dtype=np.bool_)
    occupied[combined] = True
    slots = np.flatnonzero(occupied)
    rank = np.empty(domain, dtype=np.int64)
    rank[slots] = np.arange(len(slots), dtype=np.int64)
    return rank[combined], slots


def _dense_ids(combined: np.ndarray, domain: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Dense ids for codes in ``[0, domain)``: ``(gids, n_groups, reps)``.

    The contract is ``np.unique(combined, return_index=True,
    return_inverse=True)``'s — ids ascend with the code and ``reps[g]`` is
    the first row carrying group ``g`` — met by :func:`_slot_ranks`
    whenever the domain is small next to the input, the first rows found
    by scattering row numbers to their group in *reverse* row order
    (numpy keeps the last write of a repeated index, so the first row wins).
    """
    n = len(combined)
    if domain > _direct_bound(n):
        uniq, reps, gids = np.unique(combined, return_index=True, return_inverse=True)
        return gids.astype(np.int64), len(uniq), reps.astype(np.int64)
    gids, slots = _slot_ranks(combined, domain)
    reps = np.empty(len(slots), dtype=np.int64)
    reps[gids[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    return gids, len(slots), reps


class KeyCoding(NamedTuple):
    """One key column's codes, ordered like its values, in ``[0, card)``;
    a code other than ``null`` (NULL's, or −1) is the stored value less
    ``lo`` in ``dtype`` (``dtype`` None: ranks, which do not decode)."""

    codes: np.ndarray
    card: int
    lo: int
    dtype: np.dtype | None
    null: int


def key_codes(col: Column, ranked: bool = False) -> KeyCoding | None:
    """A key column coded without sorting, or None when it cannot be (or
    its ranks among its sorted distinct values when ``ranked``).

    A frame-of-reference vector's offsets are its codes as stored, with
    the span recorded at encode time; a dictionary column's codes already
    order its values by collation; a bool or integer column spanning few
    values next to its row count is its own code, ``value − min`` (codes
    need not be dense, only bounded). Floats, wide integers and plain
    strings need sorting. NULL is the highest code.
    """
    vec, dtype = col.physical, None
    if isinstance(vec, ForVector):
        codes, card, lo, dtype = vec.offsets.astype(np.int64), vec.span, vec.base, vec.dtype
    else:
        values = vec.materialize()
        span = (0, len(col.dictionary)) if col.is_dictionary_encoded else _small_span(values)
        if span is not None:
            (lo, card), dtype = span, values.dtype
            codes = np.subtract(values, lo, dtype=np.int64)
        elif not ranked:
            return None
        else:
            uniq, codes = _rank_by_sorting(values)
            lo, card = 0, len(uniq)
    null = -1
    if col.null_mask is not None and col.null_mask.any():
        codes[col.null_mask] = null = card
        card += 1
    return KeyCoding(codes, card, lo, dtype, null)


def decode_key(col: Column, coded: KeyCoding, codes: np.ndarray) -> Column:
    """``col``'s values at groups coded ``codes``: what gathering a row of
    each group gives (a NULL's slot holds the fill, code 0 when coded)."""
    values = np.add(codes, coded.lo, dtype=np.int64).astype(coded.dtype, copy=False)
    mask = codes == coded.null if coded.null >= 0 else None
    if mask is not None and mask.any():
        values[mask] = 0 if col.is_dictionary_encoded else col.ltype.fill_value()
    else:
        mask = None
    return Column(
        col.ltype, PlainVector(values), dictionary=col.dictionary, null_mask=mask, collation=col.collation
    )


def factorize_table(table: Table, keys: list[str]) -> tuple[np.ndarray, int, np.ndarray]:
    """Assign each row a dense group id over ``keys``.

    Returns ``(gids, n_groups, representatives)`` where ``representatives``
    holds, per group, the index of its first occurrence in row order —
    used to gather the output key values. The three arrays are the
    ``np.unique`` contract over the keys' codes: ids ascend with the
    lexicographic code order.
    """
    return combine_codes([key_codes(table.column(key), True)[:2] for key in keys], table.n_rows)


def combine_codes(pairs: list[tuple[np.ndarray, int]], n_rows: int):
    """Collapse multiple per-column code arrays into dense group ids.

    Groups come out ascending in the lexicographic order of their codes,
    ``reps`` their first rows. The running code ``prefix · card + codes``
    is kept inside the direct-addressing bound by replacing the prefix
    with its dense ids (same order, domain ≤ ``n_rows``) before a
    multiplication that would leave it — which also keeps the product
    inside int64 however many keys there are.
    """
    if not pairs:
        gids = np.zeros(n_rows, dtype=np.int64)
        reps = np.zeros(1, dtype=np.int64) if n_rows else np.zeros(0, dtype=np.int64)
        return gids, (1 if n_rows else 0), reps
    bound = _direct_bound(n_rows)
    combined, domain = pairs[0][0].astype(np.int64, copy=False), int(pairs[0][1])
    for codes, card in pairs[1:]:
        if domain * card > bound:
            combined, domain, _ = _dense_ids(combined, domain)
            if domain * card > _INT64_MAX:
                codes, card, _ = _dense_ids(codes, card)
        combined = combined * card + codes
        domain *= card
    return _dense_ids(combined, domain)


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
@dataclass
class AggSpec:
    """A planned aggregate: function + pre-evaluated argument column name.

    The physical planner projects aggregate arguments into columns before
    aggregation, so kernels only see column names.
    """

    name: str
    func: str  # sum|min|max|avg|count|count_distinct|count_star
    arg: str | None
    result_type: LogicalType


class Part(NamedTuple):
    """One part of an aggregate: ``partial`` runs over rows, ``merge`` over
    partial results."""

    partial: str
    merge: str


#: The one roll-up rule, read by the engine's local/global split (paper
#: 4.2.3), the sharded cluster (§7), the cache's roll-ups (§3.2), the
#: hoisted Top-N's ranking and foreign-key space. An aggregate of one part
#: is that part merged; AVG's two finish as SUM over COUNT. COUNT DISTINCT
#: has no entry: no partial of it merges.
ROLLUP: dict[str, tuple[Part, ...]] = {
    "sum": (Part("sum", "sum"),),
    "min": (Part("min", "min"),),
    "max": (Part("max", "max"),),
    "count": (Part("count", "sum"),),
    "count_star": (Part("count_star", "sum"),),
    "avg": (Part("sum", "sum"), Part("count", "sum")),
}

#: The counts: INT, and 0 over no rows, not NULL. A merge over no partials
#: is NULL, so a roll-up that may merge none coalesces these.
COUNTS = frozenset({"count", "count_star", "count_distinct"})


def lower_aggregates(groupby, aggs, schema):
    """``(specs, pre_items, out)``: kernel specs for ``aggs`` (``(name,
    AggExpr)`` pairs) over an input of ``schema`` grouped by ``groupby``,
    the projection that first puts each argument into a column (None when
    every argument already is one) and the output schema. COUNT(*) lowers
    to ``count_star``, an argument that is an expression to ``__arg{i}``."""
    items: dict[str, Expr] = {}
    out: dict[str, LogicalType] = {}
    for g in groupby:
        items[g] = ColumnRef(g)
        out[g] = infer_type(items[g], schema)
    specs: list[AggSpec] = []
    computed = False
    for i, (name, agg) in enumerate(aggs):
        out[name] = result = agg.result_type(schema)
        if agg.arg is None:
            specs.append(AggSpec(name, "count_star", None, result))
            continue
        plain = isinstance(agg.arg, ColumnRef)
        arg = agg.arg.name if plain else f"__arg{i}"
        items.setdefault(arg, agg.arg)
        computed |= not plain
        specs.append(AggSpec(name, agg.func, arg, result))
    return specs, (list(items.items()) if computed else None), out


def aggregate_groups(
    table: Table,
    gids: np.ndarray,
    n_groups: int,
    specs: list[AggSpec],
    rows: np.ndarray | None = None,
) -> dict[str, Column]:
    """Compute aggregate output columns for factorized input rows:
    ``rows``, when given, are the rows of ``table`` that ``gids`` address,
    in order; the others are not aggregated.

    Each distinct ``(function, argument column, result type)`` is
    computed once, whatever names it goes by (an ``avg``'s partial sum
    and a ``sum`` of the same column are one pass), and every measure of
    one argument shares its per-group non-NULL count. No row is gathered
    to drop NULLs: a group's non-NULL count is its rows less a count of
    its NULL positions, and a sum or an extremum reads a NULL slot as the
    value that changes nothing (+0.0, or the extremum's starting value).
    """
    return _measures(table, gids, n_groups, specs, {"keep": None, "take": rows})


def aggregate_slots(
    table: Table,
    slots: np.ndarray,
    domain: int,
    specs: list[AggSpec],
) -> tuple[np.ndarray, dict[str, Column]]:
    """:func:`aggregate_groups` over rows addressed by slots of a sparse
    ``domain``: ``(occupied slots ascending, their aggregate columns)``.
    The ``bincount`` kernels sum over the whole domain and every result
    keeps the occupied slots, so no row is mapped to a dense group id."""
    counts = np.bincount(slots, minlength=domain)
    occupied = np.flatnonzero(counts)
    shared = {"keep": occupied, "rows": counts[occupied].astype(np.int64)}
    return occupied, _measures(table, slots, domain, specs, shared)


def _measures(table: Table, gids: np.ndarray, k: int, specs: list[AggSpec], shared: dict):
    out: dict[str, Column] = {}
    done: dict[tuple, Column] = {}
    for spec in specs:
        col = None if spec.arg is None else table.column(spec.arg)
        key = (spec.func, id(col), spec.result_type.value)
        if key not in done:
            done[key] = _aggregate_one(col, gids, k, spec, shared)
        out[spec.name] = done[key]
    return out


def _per_group(gids: np.ndarray, k: int, shared: dict, weights: np.ndarray | None = None) -> np.ndarray:
    """``np.bincount`` over the ``k`` groups, at the kept ones only."""
    sums = np.bincount(gids, weights=weights, minlength=k)
    return sums if shared["keep"] is None else sums[shared["keep"]]


def _aggregate_one(col: Column | None, gids: np.ndarray, k: int, spec: AggSpec, shared: dict) -> Column:
    """One measure; ``shared`` holds what the measures of one call share:
    the groups kept, each one's rows and, per argument column, its
    values, per-group non-NULL count and NULL positions."""
    if "rows" not in shared:
        shared["rows"] = _per_group(gids, k, shared).astype(np.int64)
    rows = shared["rows"]
    if spec.func == "count_star":
        return Column(LogicalType.INT, PlainVector(rows))
    if id(col) not in shared:
        values, null_mask, take = col.storage_values(), col.null_mask, shared.get("take")
        if take is not None:
            values, null_mask = values[take], None if null_mask is None else null_mask[take]
        nulls = None if null_mask is None else np.flatnonzero(null_mask)
        nonnull = rows if nulls is None else rows - _per_group(gids[nulls], k, shared)
        shared[id(col)] = (values, nonnull, nulls)
    values, nonnull, nulls = shared[id(col)]
    if spec.func == "count":
        return Column(LogicalType.INT, PlainVector(nonnull))
    if spec.func == "count_distinct":
        vg, vv = (gids, values) if nulls is None else (np.delete(gids, nulls), np.delete(values, nulls))
        if vv.dtype == object:
            pair_codes = _rank_by_sorting(vv)[1]
        else:
            _, pair_codes = np.unique(vv, return_inverse=True)
        combined = vg * (int(pair_codes.max()) + 1 if len(pair_codes) else 1) + pair_codes
        uniq_pairs = np.unique(combined)
        distinct_gids = uniq_pairs // (int(pair_codes.max()) + 1 if len(pair_codes) else 1)
        counts = _per_group(distinct_gids.astype(np.int64), k, shared).astype(np.int64)
        return Column(LogicalType.INT, PlainVector(counts))
    null_groups = nonnull == 0
    group_mask = null_groups if null_groups.any() else None
    if spec.func in ("sum", "avg"):
        # bincount sums each group in row order from +0.0, so a +0.0 slot
        # leaves every sum as it was without the NULL rows.
        if nulls is not None and np.any(values[nulls] != 0):
            values = values.copy()
            values[nulls] = 0
        if spec.func == "sum" and spec.result_type is LogicalType.INT:
            sums = np.zeros(k, dtype=np.int64)
            np.add.at(sums, gids, values.astype(np.int64, copy=False))
            sums = sums if shared["keep"] is None else sums[shared["keep"]]
        else:
            sums = _per_group(gids, k, shared, values.astype(np.float64, copy=False))
        if spec.func == "sum":
            return Column(spec.result_type, PlainVector(sums.astype(spec.result_type.numpy_dtype())), null_mask=group_mask)
        with np.errstate(invalid="ignore", divide="ignore"):
            avgs = np.where(nonnull > 0, sums / np.maximum(nonnull, 1), 0.0)
        return Column(LogicalType.FLOAT, PlainVector(avgs), null_mask=group_mask)
    if spec.func in ("min", "max"):
        return _minmax(gids, values, nulls, k, spec, group_mask, col, shared["keep"])
    raise ExecutionError(f"unknown aggregate {spec.func}")


def _minmax(gids, values, nulls, k, spec: AggSpec, group_mask, col: Column, keep) -> Column:
    if values.dtype == object:
        vg, vv = (gids, values) if nulls is None else (np.delete(gids, nulls), np.delete(values, nulls))
        fill: Any = None
        out = np.empty(k, dtype=object)
        out[:] = fill
        if spec.func == "min":
            for g, v in zip(vg, vv):
                cur = out[g]
                if cur is None or v < cur:
                    out[g] = v
        else:
            for g, v in zip(vg, vv):
                cur = out[g]
                if cur is None or v > cur:
                    out[g] = v
        out = out if keep is None else out[keep]
        str_fill = fill_array(spec.result_type, 1)[0]
        for i in range(len(out)):
            if out[i] is None:
                out[i] = str_fill
        return Column(spec.result_type, PlainVector(out), null_mask=group_mask, collation=col.collation)
    vv = values.astype(np.int64) if values.dtype == np.bool_ else values
    integral = vv.dtype.kind == "i"
    if spec.func == "min":
        init, into = (np.iinfo(np.int64).max if integral else np.inf), np.minimum
    else:
        init, into = (np.iinfo(np.int64).min if integral else -np.inf), np.maximum
    if nulls is not None:
        vv = vv.copy()
        vv[nulls] = init
    out = np.full(k, init, dtype=vv.dtype)
    # NaN is a value, not a NULL: a group holding one has min = max = NaN
    # (np.minimum/np.maximum propagate it), in fused and unfused plans
    # alike. numpy flags that propagation as "invalid value"; it is the
    # pinned semantics, so the warning is silenced rather than escalated.
    with np.errstate(invalid="ignore"):
        into.at(out, gids, vv)
    out = out if keep is None else out[keep]
    if group_mask is not None:
        out[group_mask] = 0
    if spec.result_type is LogicalType.BOOL:
        out = out.astype(np.bool_)
    return Column(spec.result_type, PlainVector(out.astype(spec.result_type.numpy_dtype(), copy=False)), null_mask=group_mask)


# ---------------------------------------------------------------------- #
# Fused filter masks (code-space execution, paper 4.1)
# ---------------------------------------------------------------------- #
#: Functions that can turn a NULL input row into a True predicate. Row
#: masks computed in code space unconditionally AND out NULL rows, so a
#: conjunct using one of these may disagree with row-space evaluation —
#: such conjuncts must stay in row space.
_NULL_ACCEPTING = frozenset({"isnull", "ifnull"})


def code_space_safe(expr: Expr) -> bool:
    """Whether a conjunct may be evaluated per dictionary entry / per run.

    Safe means: for a NULL input row the row-space result can only be
    False (which is exactly what the code-space path produces by masking
    NULL rows out). Anything that can observe NULL-ness and still return
    True — ``isnull``, ``ifnull``, CASE — disqualifies the conjunct.
    """
    for node in expr.walk():
        if isinstance(node, CaseWhen):
            return False
        if isinstance(node, Call) and node.func in _NULL_ACCEPTING:
            return False
    return True


def predicate_codes(col: Column, predicate: Expr, name: str) -> np.ndarray:
    """Evaluate a single-column predicate once per entry of ``col``'s
    dictionary.

    Returns a bool array of the dictionary's length whose ``i``-th slot
    says whether rows coded ``i`` satisfy the predicate. This is the
    code-space execution primitive (paper 4.1): the predicate runs over
    the (small) distinct-value domain, and callers reduce the per-row work
    to an integer gather ``verdict[codes]``. NULL rows carry an arbitrary
    code, so callers must still AND out the null mask.
    """
    entries = Column(col.ltype, PlainVector(col.dictionary.values), collation=col.collation)
    return evaluate_predicate(predicate, Table({name: entries}))


def conjunct_mask_code_space(
    batch: Table, conj: Expr, cache_key: int, cache: dict | None
) -> np.ndarray | None:
    """Code-space row mask for one conjunct, or None when inapplicable.

    Applies when the conjunct references exactly one column and that
    column is dictionary-encoded in ``batch``: the predicate runs once
    per dictionary entry (cached per (conjunct, dictionary) identity so
    repeat batches over the same extract pay nothing) and each row is a
    single integer gather ``verdict[code]``. RLE-coded columns gather per
    *run* and expand — the per-run path of paper 4.3's consumers.
    """
    cols = columns_used(conj)
    if len(cols) != 1 or not code_space_safe(conj):
        return None
    name = next(iter(cols))
    if not batch.has_column(name):
        return None
    col = batch.column(name)
    if col.dictionary is None:
        return None
    key = (cache_key, id(col.dictionary))
    verdict = cache.get(key) if cache is not None else None
    if verdict is None:
        verdict = predicate_codes(col, conj, name)
        if cache is not None:
            cache[key] = verdict
    vec = col.physical
    if isinstance(vec, RleVector):
        mask = vec.expand_runs(verdict[vec.values])
    else:
        mask = verdict[vec.materialize()]
    if col.null_mask is not None:
        mask = mask & ~col.null_mask
    return mask


def predicate_mask(
    batch: Table,
    conjs: list[Expr],
    *,
    cache: dict | None = None,
    code_space: bool = True,
) -> np.ndarray:
    """One-pass combined filter mask for a batch.

    The fused pipeline applies this single mask instead of materializing
    an intermediate table per Filter operator; conjuncts that qualify run
    in code space, the rest fall back to row-space evaluation.
    """
    mask: np.ndarray | None = None
    for i, conj in enumerate(conjs):
        m = None
        if code_space:
            m = conjunct_mask_code_space(batch, conj, i, cache)
        if m is None:
            m = evaluate_predicate(conj, batch)
        mask = m if mask is None else mask & m
    if mask is None:
        mask = np.ones(batch.n_rows, dtype=np.bool_)
    return mask


# ---------------------------------------------------------------------- #
# Join probe
# ---------------------------------------------------------------------- #
@dataclass
class KeyCodes:
    """Translation of probe values into one build key column's codes.

    ``uniques`` are the build side's sorted distinct values; a value's
    code is its position there. For bool/integer keys spanning few values
    ``table[value − lo]`` is that position (−1 where the build has no such
    value), so the probe gathers instead of searching; one extra slot at
    the end holds −1 for the probe to send out-of-range values to.
    """

    uniques: np.ndarray
    lo: int = 0
    table: np.ndarray | None = None

    @classmethod
    def of(cls, values: np.ndarray) -> tuple["KeyCodes", np.ndarray]:
        """Index a build column's non-NULL values; also returns their codes."""
        span = _small_span(values)
        if span is None:
            uniq, codes = _rank_by_sorting(values)
            return cls(uniq), codes
        lo, width = span
        rel = values.astype(np.int64, copy=False) - lo
        present = np.zeros(width, dtype=np.bool_)
        present[rel] = True
        held = np.flatnonzero(present)
        table = np.full(width + 1, -1, dtype=np.int64)
        table[held] = np.arange(len(held), dtype=np.int64)
        return cls((held + lo).astype(values.dtype), lo, table), table[rel]

    def positions(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(pos, hit)``: each value's code, and whether the build holds it
        (``pos`` is 0 where it does not)."""
        if self.table is not None and values.dtype.kind in "bi":
            values = values.astype(np.int64, copy=False)
            width = len(self.table) - 1
            inside = (values >= self.lo) & (values < self.lo + width)
            pos = self.table[np.where(inside, values - self.lo, width)]
            return np.maximum(pos, 0), pos >= 0
        uniq = self.uniques
        if len(uniq) == 0:
            return np.zeros(len(values), dtype=np.int64), np.zeros(len(values), dtype=np.bool_)
        if values.dtype == object:
            values = values.astype("U")
        pos = np.clip(np.searchsorted(uniq, values), 0, len(uniq) - 1)
        hit = uniq[pos] == values
        return np.where(hit, pos, 0), hit


@dataclass
class BuildIndex:
    """Hash-table analogue: build rows grouped by combined key code.

    A key row's combined code is the mixed-radix number of its per-column
    codes (``keys[i]``, radix ``cards[i]``). ``prefixes[i]``, when set,
    says the running code was replaced by its rank among the build's
    distinct prefixes before column ``i`` was mixed in — the step that
    keeps the code inside int64 — and the probe must take the same step.
    ``combined_codes`` are the distinct codes, ascending; slot ``g`` owns
    ``order[starts[g] : starts[g] + counts[g]]``, build rows in row order.
    ``slot_of``, when the code domain is small, maps a code straight to
    its slot (−1: no such build key).
    """

    keys: list[KeyCodes]
    cards: list[int]
    prefixes: list[KeyCodes | None]
    combined_codes: np.ndarray
    slot_of: np.ndarray | None
    starts: np.ndarray
    counts: np.ndarray
    order: np.ndarray

    @property
    def unique(self) -> bool:
        """An N:1 build: every slot owns exactly one row, ``order[g]``."""
        return len(self.order) == len(self.combined_codes)


def build_index(build: Table, keys: list[str]) -> BuildIndex:
    """Index the build side of a hash join on its key columns."""
    valid = np.ones(build.n_rows, dtype=np.bool_)
    for key in keys:
        col = build.column(key)
        if col.null_mask is not None:
            valid &= ~col.null_mask  # NULL keys never join
    row_ids = np.flatnonzero(valid)
    key_codes: list[KeyCodes] = []
    cards: list[int] = []
    prefixes: list[KeyCodes | None] = []
    combined = np.zeros(len(row_ids), dtype=np.int64)
    domain = 1
    for key in keys:
        translation, codes = KeyCodes.of(build.column(key).storage_values()[row_ids])
        card = max(len(translation.uniques), 1)
        prefix = None
        if key_codes and domain * card > _INT64_MAX:
            prefix, combined = KeyCodes.of(combined)
            domain = len(prefix.uniques)
        key_codes.append(translation)
        cards.append(card)
        prefixes.append(prefix)
        combined = combined * card + codes
        domain *= card
    slot_of = None
    if domain <= _direct_bound(len(combined)):
        _, n_slots, first = _dense_ids(combined, domain)
        uniq_codes = combined[first]
        slot_of = np.full(domain, -1, dtype=np.int64)
        slot_of[uniq_codes] = np.arange(n_slots, dtype=np.int64)
        if n_slots == len(combined):  # all keys distinct: no sort needed
            starts = np.arange(n_slots, dtype=np.int64)
            counts = np.ones(n_slots, dtype=np.int64)
            return BuildIndex(
                key_codes, cards, prefixes, uniq_codes, slot_of, starts, counts, row_ids[first]
            )
    order_local = np.argsort(combined, kind="stable")
    uniq_codes, starts, counts = _group_boundaries(combined[order_local])
    return BuildIndex(
        key_codes, cards, prefixes, uniq_codes, slot_of, starts, counts, row_ids[order_local]
    )


def _group_boundaries(sorted_codes: np.ndarray):
    if len(sorted_codes) == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z
    change = np.empty(len(sorted_codes), dtype=np.bool_)
    change[0] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    uniq = sorted_codes[starts]
    counts = np.diff(np.concatenate((starts, [len(sorted_codes)])))
    return uniq, starts.astype(np.int64), counts.astype(np.int64)


def probe_index(
    index: BuildIndex, probe: Table, keys: list[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe a batch against the build index.

    Returns ``(probe_rows, build_rows, matched_mask)``: matched row pairs
    (with multiplicity) plus a per-probe-row flag used by left joins.
    Pairs come in probe-row order, a probe row's matches in build-row
    order.
    """
    n = probe.n_rows
    ok = np.ones(n, dtype=np.bool_)
    combined = None
    for key, translation, card, prefix in zip(keys, index.keys, index.cards, index.prefixes):
        col = probe.column(key)
        if col.null_mask is not None:
            ok &= ~col.null_mask
        if prefix is not None:
            combined, hit = prefix.positions(combined)
            ok &= hit
        pos, hit = translation.positions(col.storage_values())
        ok &= hit
        combined = pos if combined is None else combined * card + pos
    if combined is None:  # no key columns: every row carries the empty key
        combined = np.zeros(n, dtype=np.int64)
    if index.slot_of is not None:
        slot = index.slot_of[combined]
        ok &= slot >= 0
    else:
        slot, hit = KeyCodes(index.combined_codes).positions(combined)
        ok &= hit
    matched_rows = np.flatnonzero(ok)
    if len(matched_rows) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, ok
    grp = slot[matched_rows]
    if index.unique:
        return matched_rows, index.order[grp], ok
    counts = index.counts[grp]
    starts = index.starts[grp]
    total = int(counts.sum())
    probe_rows = np.repeat(matched_rows, counts)
    excl = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offsets = np.arange(total, dtype=np.int64) - np.repeat(excl, counts)
    build_rows = index.order[np.repeat(starts, counts) + offsets]
    return probe_rows, build_rows, ok
