"""Property tests for the fused pipeline and code-space kernels.

Seeded generation over the storage shapes the fused operator treats
specially — dictionary-encoded STR, RLE runs, null masks — plus the
hand-picked edge cases where per-entry/per-run evaluation could diverge
from per-row evaluation: empty inputs, all-null columns, single-run RLE,
dictionaries holding entries no surviving row references, and ±inf/NaN
flowing into MIN/MAX. Two invariant families:

* **agreement** — the fused plan (code space on) answers exactly like
  the unfused plan (code space off) on the same engine;
* **mask invariants** — ``predicate_mask`` with code-space evaluation
  enabled is positionally identical to pure row-space evaluation, and
  filtering by the mask yields exactly ``mask.sum()`` rows.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.datatypes import LogicalType as L
from repro.expr.ast import conjuncts
from repro.expr.sexpr import parse_sexpr
from repro.tde.engine import DataEngine
from repro.tde.exec.kernels import code_space_safe, predicate_mask
from repro.tde.optimizer.parallel import PlannerOptions
from repro.tde.storage.table import Table

REGIONS = ["east", "west", "north", "south"]
STATUSES = ["ok", "late", "cancelled"]

UNFUSED = PlannerOptions(
    max_dop=1,
    enable_pipeline_fusion=False,
    enable_code_space=False,
    plan_cache_size=0,
)


def _engine_for(table: Table, name: str = "Extract.t") -> DataEngine:
    engine = DataEngine("props", options=PlannerOptions(max_dop=1))
    engine.create_table(name, table)
    return engine


def _random_table(rng: random.Random, n: int) -> Table:
    data = {
        "day": sorted(rng.randrange(0, 25) for _ in range(n)),
        "region": [rng.choice(REGIONS) for _ in range(n)],
        "status": [
            None if rng.random() < 0.1 else rng.choice(STATUSES) for _ in range(n)
        ],
        "amount": [
            None if rng.random() < 0.05 else round(rng.gauss(10.0, 5.0), 3)
            for _ in range(n)
        ],
        "flag": [rng.random() < 0.5 for _ in range(n)],
    }
    types = {
        "day": L.INT,
        "region": L.STR,
        "status": L.STR,
        "amount": L.FLOAT,
        "flag": L.BOOL,
    }
    return Table.from_pydict(
        data, types=types, sort_keys=["day"], encodings={"day": "rle"}
    )


def _check_agreement(
    engine: DataEngine, query: str, *, expect_fused: bool | None = None
) -> bool:
    """Assert fused == unfused; returns whether the plan actually fused.

    ``expect_fused`` pins the planner's choice when the caller knows it
    (``None`` leaves it free — e.g. group-by on the sort key picks the
    streaming aggregate, which fusion deliberately never absorbs).
    """
    fused_plan = "FusedPipeline" in engine.explain(query)
    if expect_fused is not None:
        assert fused_plan == expect_fused, (
            f"expected fused={expect_fused}: {engine.explain(query)}"
        )
    fused = engine.query(query)
    unfused = engine.query(query, options=UNFUSED)
    assert fused.column_names == unfused.column_names
    assert fused.schema() == unfused.schema()
    assert fused.n_rows == unfused.n_rows, f"{query}: {fused.n_rows} != {unfused.n_rows}"
    for name in fused.column_names:
        a, b = fused.column(name), unfused.column(name)
        am = a.null_mask if a.null_mask is not None else np.zeros(fused.n_rows, bool)
        bm = b.null_mask if b.null_mask is not None else np.zeros(fused.n_rows, bool)
        assert np.array_equal(am, bm), f"{query}: null masks differ on {name!r}"
        av, bv = a.storage_values(), b.storage_values()
        if av.dtype.kind == "f":
            assert np.array_equal(av[~am], bv[~bm], equal_nan=True), (
                f"{query}: float values differ on {name!r}"
            )
        else:
            assert np.array_equal(av[~am], bv[~bm]), (
                f"{query}: values differ on {name!r}"
            )
    return fused_plan


# ---------------------------------------------------------------------- #
# Seeded fused-vs-unfused agreement
# ---------------------------------------------------------------------- #
_PREDICATES = [
    '(= region "east")',
    '(<> status "ok")',
    "(and (>= day 5) (< day 18))",
    "(< 3 day)",
    '(and (= region "west") (> amount 8.0))',
    "(isnull status)",
    "(not (isnull amount))",
    '(in region (list "east" "north"))',
    "(not flag)",
    "true",
]
_SHAPES = [
    "(aggregate (region) ((n (count)) (s (sum amount))) {sel})",
    # Group-by on the sorted key: the planner prefers the streaming
    # aggregate, which fusion never absorbs — agreement must still hold.
    "(aggregate (day) ((lo (min amount)) (hi (max amount))) {sel})",
    "(aggregate () ((n (count)) (u (count_distinct region))) {sel})",
    "(aggregate (status) ((a (avg amount))) {sel})",
    "(project ((r region) (a2 (* amount 2.0))) {sel})",
    "{sel}",
]


class TestSeededAgreement:
    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_random_tables_random_chains(self, seed):
        rng = random.Random(f"fused-props|{seed}")
        table = _random_table(rng, rng.randrange(50, 400))
        engine = _engine_for(table)
        fused_count = 0
        for _ in range(25):
            pred = rng.choice(_PREDICATES)
            shape = rng.choice(_SHAPES)
            sel = f'(select {pred} (scan "Extract.t"))'
            fused_count += _check_agreement(engine, shape.format(sel=sel))
        # The draw must actually exercise the fused operator, not just
        # compare stock plans against themselves.
        assert fused_count >= 6, f"only {fused_count}/25 draws produced a fused plan"


# ---------------------------------------------------------------------- #
# Edge cases
# ---------------------------------------------------------------------- #
class TestEdgeCases:
    def test_empty_input(self):
        table = Table.from_pydict(
            {"region": [], "amount": []}, types={"region": L.STR, "amount": L.FLOAT}
        )
        engine = _engine_for(table)
        for q in [
            '(aggregate (region) ((n (count))) (select (= region "east") (scan "Extract.t")))',
            '(aggregate () ((s (sum amount)) (lo (min amount))) (select (> amount 0.0) (scan "Extract.t")))',
            '(project ((a2 (+ amount 1.0))) (select (= region "east") (scan "Extract.t")))',
        ]:
            _check_agreement(engine, q)

    def test_predicate_filters_everything(self):
        rng = random.Random("all-filtered")
        engine = _engine_for(_random_table(rng, 120))
        q = (
            "(aggregate (region) ((n (count)) (s (sum amount)))"
            ' (select (= region "nowhere") (scan "Extract.t")))'
        )
        _check_agreement(engine, q)
        assert engine.query(q).n_rows == 0

    def test_all_null_column(self):
        table = Table.from_pydict(
            {"status": [None] * 40, "x": list(range(40))},
            types={"status": L.STR, "x": L.INT},
        )
        engine = _engine_for(table)
        for q in [
            '(aggregate () ((n (count))) (select (= status "ok") (scan "Extract.t")))',
            "(aggregate (status) ((n (count))) (select (isnull status) (scan \"Extract.t\")))",
            "(aggregate () ((n (count))) (select (not (isnull status)) (scan \"Extract.t\")))",
        ]:
            _check_agreement(engine, q)

    def test_single_run_rle(self):
        table = Table.from_pydict(
            {"day": [7] * 64, "amount": [float(i) for i in range(64)]},
            types={"day": L.INT, "amount": L.FLOAT},
            sort_keys=["day"],
            encodings={"day": "rle"},
        )
        engine = _engine_for(table)
        for pred in ["(= day 7)", "(= day 8)", "(< day 9)", "(< 6 day)"]:
            # Global aggregate (not grouped by the sort key) so the plan
            # fuses and the predicate runs per-RLE-run in table mode.
            # ``(= day 8)`` matches nothing: the planner serves it via the
            # RLE index instead, which fusion does not absorb — agreement
            # must hold either way.
            q = f'(aggregate () ((s (sum amount)) (n (count))) (select {pred} (scan "Extract.t")))'
            _check_agreement(engine, q, expect_fused=(pred != "(= day 8)"))

    def test_dictionary_with_unused_entries(self):
        """Filtering keeps the full dictionary (``Column.take``), so the
        fused code-space verdict covers entries no row references."""
        rng = random.Random("unused-entries")
        base = _random_table(rng, 200)
        keep = np.array([r != "east" for r in base.column("region").python_values()])
        subset = base.filter(keep)
        assert "east" in list(subset.column("region").dictionary.values)
        engine = _engine_for(subset)
        for pred in ['(= region "east")', '(<> region "east")', '(in region (list "east" "west"))']:
            q = f'(aggregate (region) ((n (count))) (select {pred} (scan "Extract.t")))'
            _check_agreement(engine, q)

    def test_nan_and_inf_through_minmax(self):
        values = [1.5, float("inf"), -2.0, float("-inf"), 3.25, float("nan"), 0.0, 9.5]
        table = Table.from_pydict(
            {"g": ["a", "a", "b", "b", "a", "b", "a", "b"], "v": values},
            types={"g": L.STR, "v": L.FLOAT},
        )
        engine = _engine_for(table)
        for q in [
            '(aggregate (g) ((lo (min v)) (hi (max v))) (select (<> g "zzz") (scan "Extract.t")))',
            '(aggregate () ((lo (min v)) (hi (max v)) (s (sum v))) (select (= g "a") (scan "Extract.t")))',
        ]:
            _check_agreement(engine, q)
        out = engine.query(
            '(aggregate () ((hi (max v))) (select (= g "a") (scan "Extract.t")))'
        )
        assert out.to_rows()[0][0] == float("inf")


# ---------------------------------------------------------------------- #
# Join-miss padding (regression for the object-dtype fill asymmetry)
# ---------------------------------------------------------------------- #
class TestJoinMissPadding:
    """Left-join misses pad the right side with ``fill_array`` slots under
    an all-true null mask. The STR fill used to come from ``np.full``,
    which interns a fixed-width ``<U`` dtype while every live STR column
    carries ``object`` — the two arms then disagreed on ``storage_values``
    dtype even though the logical values matched. Pin the padded columns
    byte-identical across fused/unfused plans."""

    def _engine(self) -> DataEngine:
        engine = DataEngine("joins", options=PlannerOptions(max_dop=1))
        engine.load_pydict(
            "Extract.orders",
            {
                "oid": [1, 2, 3, 4, 5, 6],
                "cid": [10, 10, 11, 99, 98, 11],  # 99/98 have no customer
                "amount": [5.0, 7.5, 1.25, 3.0, 2.0, 9.0],
            },
        )
        engine.load_pydict(
            "Extract.customers",
            {
                "id": [10, 11, 12],
                "cname": ["ada", "bob", "cyd"],
                "tier": ["gold", None, "silver"],
            },
        )
        return engine

    def test_str_padding_is_byte_identical_across_arms(self):
        engine = self._engine()
        q = (
            "(join left ((cid id))"
            ' (scan "Extract.orders") (scan "Extract.customers"))'
        )
        _check_agreement(engine, q)
        out = engine.query(q)
        miss = np.asarray(
            [c in (99, 98) for c in out.column("cid").python_values()]
        )
        for name in ("cname", "tier"):
            col = out.column(name)
            assert col.storage_values().dtype == np.dtype(object)
            assert col.null_mask is not None
            assert col.null_mask[miss].all(), f"{name}: miss rows must be NULL"
            # The unobservable fill slot is the canonical "" sentinel.
            assert all(v == "" for v in col.storage_values()[miss])

    def test_padding_under_a_fused_aggregate(self):
        """A fused chain above the join consumes the padded batch: the
        NULL padding must not leak into group keys or aggregates."""
        engine = self._engine()
        q = (
            "(aggregate (cname) ((n (count)) (s (sum amount)))"
            ' (select (> amount 1.0)'
            " (join left ((cid id))"
            ' (scan "Extract.orders") (scan "Extract.customers"))))'
        )
        _check_agreement(engine, q)
        rows = dict(
            (name, (n, s))
            for name, n, s in engine.query(q).to_rows()
        )
        assert rows["ada"] == (2, 12.5)
        assert rows["bob"] == (2, 10.25)
        assert rows[None] == (2, 5.0)  # the two join misses group together


# ---------------------------------------------------------------------- #
# Mask / selectivity invariants
# ---------------------------------------------------------------------- #
class TestMaskInvariants:
    @pytest.mark.parametrize("seed", [5, 17])
    def test_code_space_mask_equals_row_space_mask(self, seed):
        rng = random.Random(f"mask-props|{seed}")
        table = _random_table(rng, 256)
        for text in _PREDICATES:
            conjs = conjuncts(parse_sexpr(text))
            fast = predicate_mask(table, conjs, cache={}, code_space=True)
            slow = predicate_mask(table, conjs, cache={}, code_space=False)
            assert fast.dtype == np.bool_ and slow.dtype == np.bool_
            assert len(fast) == table.n_rows
            assert np.array_equal(fast, slow), f"mask divergence for {text}"
            # Selectivity invariant: the mask is exactly the row count
            # of the filtered table.
            assert table.filter(fast).n_rows == int(fast.sum())

    def test_code_space_safety_classifier(self):
        assert code_space_safe(parse_sexpr('(= region "east")'))
        assert code_space_safe(parse_sexpr("(< day 5)"))
        assert not code_space_safe(parse_sexpr("(isnull status)"))
        assert not code_space_safe(parse_sexpr('(ifnull status "x")'))
        assert not code_space_safe(
            parse_sexpr('(case (when flag "y") (else "n"))')
        )

    def test_null_rows_never_survive_code_space_conjuncts(self):
        rng = random.Random("null-rows")
        table = _random_table(rng, 300)
        status = table.column("status")
        assert status.null_mask is not None and status.null_mask.any()
        conjs = conjuncts(parse_sexpr('(<> status "ok")'))
        mask = predicate_mask(table, conjs, cache={}, code_space=True)
        assert not (mask & status.null_mask).any()
