"""The group-by and join kernels against a reference that shares no code.

``factorize_table``/``aggregate_table`` and ``build_index``/``probe_index``
sit under *both* arms of every differential suite here — the all-off
oracle, ``query_naive`` and simdb's inner engine all run them — so a
wrong group id or a wrong join match is byte-identical on both sides and
those suites stay green. :mod:`tests.difftest.reference` is the arm that
cannot share the mistake: pure-Python dicts over ``list[dict]`` rows.

Hypothesis draws 1–5 key columns of every kind the kernels branch on —
dictionary-coded STR, plain STR, dictionary-coded INT, dense INT, wide and
negative INT, BOOL, FLOAT with NaN, each with NULLs — and every property
runs under the shipped bounds (small inputs address directly), under
tight ones (the sort/search fallbacks and the prefix re-densification
fire on the same small inputs), under a tiny stand-in for the int64
ceiling (the overflow guards fire) and under both. The two mutation tests at the bottom are the
reason this file exists.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualTimeClock
from repro.connectors import TdeDataSource
from repro.core.pipeline import QueryPipeline
from repro.datatypes import LogicalType
from repro.expr.ast import AggExpr, ColumnRef
from repro.queries import compile as compiler
from repro.queries.spec import TopNFilter
from repro.tde.exec import ExecContext, PHashJoin, PScan, execute_to_table
from repro.tde.exec import grouping, kernels, physical
from repro.tde.exec.grouping import PGroupingSets, PSharedInput
from repro.tde.exec.kernels import AggSpec
from repro.tde.exec.physical import PHashAggregate, aggregate_table
from repro.tde.storage import Column, Table

from tests.core.conftest import ENGINE, make_model, make_source

from . import test_differential as differential
from . import test_kernel_equivalence as kernel_suite
from .gen import assert_rows_equal, assert_tables_equal, gen_specs, rows_of
from .reference import aggregate_rows, answer_spec, group_rows, join_rows

NAN = float("nan")

#: kind -> (logical type, dictionary-compress?, value pool)
KINDS = {
    "str_dict": (LogicalType.STR, True, ["", "a", "B", "ab", "b", "zz"]),
    "str_plain": (LogicalType.STR, False, ["", "a", "B", "ab", "b", "zz"]),
    "int_dict": (LogicalType.INT, True, [-3, 0, 1, 2, 5, 40]),
    "dense_int": (LogicalType.INT, False, list(range(-2, 9))),
    "wide_int": (LogicalType.INT, False, [-(2**62), -(2**40), -7, 0, 3, 2**33, 2**62]),
    "bool": (LogicalType.BOOL, False, [False, True]),
    "float": (LogicalType.FLOAT, False, [-1.5, -0.0, 0.0, 2.0, 3.0, 1e300, NAN]),
}
#: Kinds whose values compare across columns, for the two sides of a join.
NUMERIC = ("int_dict", "dense_int", "wide_int", "bool", "float")
TEXT = ("str_dict", "str_plain")

_TIGHT = {"_DIRECT_SLOTS_FLOOR": 2, "_DIRECT_SLOTS_PER_ROW": 1}
BOUNDS = {
    "shipped": {},
    "tight": _TIGHT,
    "int64-ceiling-5": {"_INT64_MAX": 5},
    "tight, int64-ceiling-5": {**_TIGHT, "_INT64_MAX": 5},
}
bounds = pytest.mark.parametrize("bound", list(BOUNDS))


@contextmanager
def _bounds(name: str):
    if not BOUNDS[name]:
        yield
        return
    with mock.patch.multiple(kernels, **BOUNDS[name]):
        yield


def _values(kind: str, n: int):
    pool = st.sampled_from(KINDS[kind][2])
    return st.lists(st.one_of(st.none(), pool, pool, pool), min_size=n, max_size=n)


def _column(kind: str, values: list) -> Column:
    ltype, compress, _pool = KINDS[kind]
    return Column.from_values(values, ltype, compress=compress)


def _unnan(rows):
    """NaN never equals itself; give every NaN one comparable stand-in."""
    return [tuple("NaN" if v != v else v for v in row) for row in rows]


# ---------------------------------------------------------------------- #
# Group-by
# ---------------------------------------------------------------------- #
AGGS = [
    ("n", "count_star", None),
    ("c", "count", "v"),
    ("s", "sum", "v"),
    ("lo", "min", "v"),
    ("hi", "max", "v"),
]


@st.composite
def grouped_tables(draw):
    n = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from(list(KINDS)), min_size=1, max_size=5))
    keys = {f"k{i}": (kind, draw(_values(kind, n))) for i, kind in enumerate(kinds)}
    measure = draw(_values("dense_int", n))
    return keys, measure


def check_group_by(keys: dict, measure: list) -> None:
    names = list(keys)
    table = Table(
        {name: _column(kind, values) for name, (kind, values) in keys.items()}
        | {"v": _column("dense_int", measure)}
    )
    columns = [values for _kind, values in keys.values()] + [measure]
    rows = [dict(zip(names + ["v"], cells)) for cells in zip(*columns)]
    expected = group_rows(rows, names)

    gids, n_groups, reps = kernels.factorize_table(table, names)
    members: list[list[int]] = [[] for _ in range(n_groups)]
    for row, gid in enumerate(gids.tolist()):
        members[gid].append(row)
    # One comparison: the same partition, and the groups in ascending order.
    assert members == expected
    assert reps.tolist() == [group[0] for group in expected]

    specs = [AggSpec(name, func, arg, LogicalType.INT) for name, func, arg in AGGS]
    got = aggregate_table(table, names, specs).to_rows()
    assert _unnan(got) == _unnan(aggregate_rows(rows, names, AGGS))


@bounds
@given(grouped_tables())
@settings(max_examples=100, deadline=None)
def test_group_ids_match_the_reference(bound, spec):
    with _bounds(bound):
        check_group_by(*spec)


@st.composite
def key_lists_of_one_table(draw):
    keys, measure = draw(grouped_tables())
    lists = []
    for _ in range(draw(st.integers(1, 6))):
        order = draw(st.permutations(list(keys)))
        lists.append(order[draw(st.integers(0, len(order) - 1)):])
    return keys, measure, lists


@bounds
@given(key_lists_of_one_table())
@settings(max_examples=30, deadline=None)
def test_the_shared_key_route_returns_what_aggregate_table_does(bound, spec):
    """Partials of one fragment in several key orders, through one coding
    of its key columns and one densification of the keys they all share:
    each partial's table is ``aggregate_table``'s, NULL keys and
    dictionary codes included. Only a key that needs sorting (float,
    wide integer, plain string) or a domain past the direct bound sends a
    partial to ``aggregate_table``'s route."""
    keys, measure, lists = spec
    table = Table(
        {name: _column(kind, values) for name, (kind, values) in keys.items()}
        | {"v": _column("dense_int", measure)}
    )
    specs = [AggSpec(name, func, arg, LogicalType.INT) for name, func, arg in AGGS]
    partials = [PHashAggregate(PSharedInput(None), names, specs) for names in lists]
    with _bounds(bound):
        shared = PGroupingSets([], partials, []).shared_keys
        coded = grouping._FragmentKeys(table, shared, VirtualTimeClock())
        for names, partial in zip(lists, partials):
            got = coded.aggregate(partial)
            if got is None:
                direct = [kernels.key_codes(table.column(name)) for name in names]
                assert None in direct or np.prod([d.card for d in direct], dtype=object) > (
                    kernels._direct_bound(table.n_rows)
                )
                continue
            expected = aggregate_table(table, names, specs)
            kernel_suite.assert_byte_identical(got, expected, context=str(names))
            for name in names:
                assert got.column(name).dictionary is expected.column(name).dictionary


# ---------------------------------------------------------------------- #
# Joins
# ---------------------------------------------------------------------- #
@st.composite
def joined_tables(draw):
    n_left = draw(st.integers(0, 30))
    n_right = draw(st.integers(0, 20))
    left, right = {}, {}
    for i in range(draw(st.integers(1, 5))):
        family = draw(st.sampled_from([NUMERIC, TEXT]))
        lkind, rkind = draw(st.sampled_from(family)), draw(st.sampled_from(family))
        left[f"k{i}"] = (lkind, draw(_values(lkind, n_left)))
        right[f"rk{i}"] = (rkind, draw(_values(rkind, n_right)))
    return left, right, draw(st.booleans())


def _keyed_table(keys: dict, payload: str, keep: list[int]) -> tuple[Table, list[dict]]:
    columns = {name: (kind, [values[i] for i in keep]) for name, (kind, values) in keys.items()}
    table = Table(
        {name: _column(kind, values) for name, (kind, values) in columns.items()}
        | {payload: Column.from_numpy(np.arange(len(keep), dtype=np.int64), LogicalType.INT)}
    )
    rows = [
        {name: values[i] for name, (_kind, values) in columns.items()}
        for i in range(len(keep))
    ]
    return table, rows


def check_join(left: dict, right: dict, unique_build: bool) -> None:
    n_left = len(next(iter(left.values()))[1])
    n_right = len(next(iter(right.values()))[1])
    keep = list(range(n_right))
    if unique_build:  # an N:1 build: the first row of every distinct key
        all_rows = [{name: v[1][i] for name, v in right.items()} for i in keep]
        keep = [group[0] for group in group_rows(all_rows, list(right))]
        keep.sort()
    probe, probe_rows = _keyed_table(left, "lrow", list(range(n_left)))
    build, build_rows = _keyed_table(right, "rrow", keep)
    conditions = list(zip(left, right))
    expected = join_rows(probe_rows, build_rows, conditions)

    index = kernels.build_index(build, list(right))
    got_probe, got_build, matched = kernels.probe_index(index, probe, list(left))
    assert list(zip(got_probe.tolist(), got_build.tolist())) == expected
    assert matched.tolist() == [i in {p for p, _ in expected} for i in range(n_left)]

    padded = join_rows(probe_rows, build_rows, conditions, "left")
    for batch_size in (7, 1024):  # misses are padded where they stand
        out = execute_to_table(
            PHashJoin("left", conditions, PScan(probe), PScan(build)),
            ExecContext(batch_size=batch_size),
        )
        pairs = zip(out.column("lrow").python_values(), out.column("rrow").python_values())
        assert list(pairs) == padded


@bounds
@given(joined_tables())
@settings(max_examples=100, deadline=None)
def test_join_matches_match_the_reference(bound, spec):
    with _bounds(bound):
        check_join(*spec)


# ---------------------------------------------------------------------- #
# Fixed cases: each must pass as shipped and fail under its mutation
# ---------------------------------------------------------------------- #
GROUP_CASE = (
    {
        "k0": ("str_dict", ["b", "a", None, "a", "b", "zz", None, "a"]),
        "k1": ("dense_int", [1, 1, 3, 1, 2, -2, 3, None]),
        "k2": ("float", [0.0, NAN, 2.0, NAN, 0.0, -1.5, 2.0, None]),
    },
    [4, None, 1, 7, 0, 2, 2, 5],
)
JOIN_CASE = (
    {"k0": ("dense_int", [2, 0, 1, None, 2, 7]), "k1": ("str_dict", ["b", "a", "a", "a", "b", "b"])},
    {"rk0": ("int_dict", [0, 1, 2, None]), "rk1": ("str_plain", ["a", "a", "b", "b"])},
    True,
)


@bounds
def test_fixed_cases_match_the_reference(bound):
    with _bounds(bound):
        check_group_by(*GROUP_CASE)
        check_join(*JOIN_CASE)


def _differential_suite_is_green() -> None:
    """Today's kernel-equivalence arms, joins included: optimized against
    the all-off oracle, byte for byte."""
    optimized = kernel_suite._build_shared_dataset()
    oracle = kernel_suite._oracle_view(optimized)
    queries = kernel_suite.gen_queries(kernel_suite.SEED, 40)
    queries += kernel_suite.gen_join_queries(kernel_suite.SEED, kernel_suite.N_JOIN_SPECS)
    for q in queries:
        kernel_suite.assert_byte_identical(optimized.query(q), oracle.query(q), context=q)


def test_merging_two_groups_fails_the_reference_but_not_the_differential_suite():
    real = kernels.combine_codes

    def two_groups_merged(pairs, n_rows):
        gids, n_groups, reps = real(pairs, n_rows)
        if n_groups < 2:
            return gids, n_groups, reps
        return np.minimum(gids, n_groups - 2), n_groups - 1, reps[:-1]

    with mock.patch.object(kernels, "combine_codes", two_groups_merged):
        with pytest.raises(AssertionError):
            check_group_by(*GROUP_CASE)
        _differential_suite_is_green()  # both arms merged the same groups


def test_probe_off_by_one_fails_the_reference_but_not_the_differential_suite():
    real = kernels.probe_index

    def last_build_row_off_by_one(index, probe, keys):
        probe_rows, build_rows, matched = real(index, probe, keys)
        if len(index.order):
            build_rows = np.where(build_rows == index.order.max(), build_rows - 1, build_rows)
        return probe_rows, build_rows, matched

    # PHashJoin holds its own reference to the kernel; mutate both names.
    with mock.patch.object(kernels, "probe_index", last_build_row_off_by_one), mock.patch.object(
        physical, "probe_index", last_build_row_off_by_one
    ):
        with pytest.raises(AssertionError):
            check_join(*JOIN_CASE)
        _differential_suite_is_green()  # both arms joined the same wrong row


def test_a_hoist_ranking_by_the_measure_fails_the_reference_but_not_the_backends():
    """A Top-N filter ranked locally must rank by its own ``by``. Both
    backends run the compiler's post-ops, so a hoist that ranks by the
    zone's first measure instead gives the same wrong rows over the TDE
    and over SQL; only the row-at-a-time reference sees it."""
    real = compiler._Compiler._hoist_topn

    def ranks_by_the_measure(self, plan, topn):
        hoisted = real(self, plan, topn)
        if hoisted is None or not self.spec.measures:
            return hoisted
        plan, (ranking, *rest) = hoisted
        alias, agg = self.spec.measures[0]
        func = "sum" if agg.func == "count" else agg.func
        return plan, (replace(ranking, by=AggExpr(func, ColumnRef(alias))), *rest)

    specs = [
        spec
        for spec in gen_specs(differential.SEED, differential.N_SPECS)
        if any(isinstance(f, TopNFilter) for f in spec.filters)
    ]
    rows = differential.star_rows()
    options = differential._options()
    sql = QueryPipeline(make_source(), make_model(), options=options)
    tde = QueryPipeline(TdeDataSource(ENGINE), make_model(), options=options)
    caught = 0
    with mock.patch.object(compiler._Compiler, "_hoist_topn", ranks_by_the_measure):
        for spec in specs:
            answer = sql.run_spec(spec)
            assert_tables_equal(tde.run_spec(spec), answer, context=spec.canonical())
            try:
                assert_rows_equal(rows_of(answer), answer_spec(rows, spec))
            except AssertionError:
                caught += 1
    sql.close()
    tde.close()
    assert caught > 0
