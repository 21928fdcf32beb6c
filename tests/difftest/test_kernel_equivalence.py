"""Differential kernel equivalence: the raw-speed path changes nothing.

The PR-8 hot-path machinery — fused filter/project/aggregate pipelines,
code-space predicate evaluation on dictionary/RLE columns, and the
physical-plan cache — must be invisible in results. A seeded generator
draws 200+ TQL queries over a dataset built to stress the new kernels
(dictionary STR columns, an RLE-sorted INT column, null-bearing columns
of every type), and a second one joins that fact table N:1 to three
small dimensions (a dictionary-coded STR key, a dense INT key, keys that
miss and keys that are NULL on either side); an oracle engine with all three features off computes
the reference; the optimized engine (features on, plans cached and
reused) must return *byte-identical* tables: same column names, same
logical types, same numpy dtypes, same null masks, same values, same
row order.

Strict ``==`` on floats is deliberate: both arms run serially over the
same rows in the same order, so even float aggregation must be bitwise
reproducible — any tolerance here would hide a row-order or
selection-order divergence.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.tde.engine import DataEngine
from repro.tde.optimizer.catalog import StorageCatalog
from repro.tde.optimizer.parallel import PlannerOptions

SEED = 7901
N_SPECS = 220  # the acceptance floor is 200
N_JOIN_SPECS = 40  # drawn after, and apart from, the 220 above
N_ROWS = 6000
BATCH_SIZE = 1024  # several oracle batches per scan, one fused pass

REGIONS = ["east", "west", "north", "south", "central"]
STATUSES = ["ok", "late", "cancelled"]
PRIORITIES = ["low", "high"]


def _build_shared_dataset() -> DataEngine:
    """Deterministic dataset stressing every new kernel path.

    ``region``/``status``/``priority`` are dictionary-encoded STR (the
    code-space filter path), ``day`` is sorted + RLE (the per-run path),
    and ``status``/``amount``/``qty`` carry nulls so null-mask handling
    differs visibly if either arm drops it.
    """
    rng = random.Random(f"kernel-equivalence|{SEED}")
    n = N_ROWS
    days = sorted(rng.randrange(0, 90) for _ in range(n))
    data = {
        "day": days,
        "region": [rng.choice(REGIONS) for _ in range(n)],
        "status": [
            None if rng.random() < 0.05 else rng.choice(STATUSES) for _ in range(n)
        ],
        "priority": [rng.choice(PRIORITIES) for _ in range(n)],
        "amount": [
            None if rng.random() < 0.03 else round(rng.gauss(50.0, 25.0), 3)
            for _ in range(n)
        ],
        "qty": [None if rng.random() < 0.02 else rng.randrange(0, 100) for _ in range(n)],
        "flag": [rng.random() < 0.3 for _ in range(n)],
    }
    engine = DataEngine(
        "kdiff",
        options=PlannerOptions(max_dop=1),
        batch_size=BATCH_SIZE,
    )
    engine.load_pydict(
        "Extract.events", data, sort_keys=["day"], encodings={"day": "rle"}
    )
    # Dimensions, each keyed uniquely (N:1). "central" has no region row
    # and "cancelled" no status row (probe misses: dropped by an inner
    # join, padded by a left join); one region row has a NULL key (a
    # build row nothing may match); ``qty_key`` is a dense int range that
    # stops short of the fact's 80..99. Fact-side ``status`` and ``qty``
    # carry NULL keys. ``zone`` and ``bucket`` are dictionary-coded STR
    # carried through the join into the group-by above it.
    engine.load_pydict(
        "Extract.regions",
        {
            "region_key": ["west", "east", None, "south", "north"],
            "zone": ["coastal", "coastal", "void", "inland", "inland"],
            "weight": [2.0, 1.5, 9.0, None, 0.25],
        },
    )
    engine.load_pydict(
        "Extract.statuses", {"status_key": ["ok", "late"], "severity": [0, 2]}
    )
    engine.load_pydict(
        "Extract.buckets",
        {
            "qty_key": list(range(80)),
            "bucket": [f"b{q // 10}" for q in range(80)],
            "tier": [None if q % 7 == 0 else q % 4 for q in range(80)],
        },
    )
    return engine


def _oracle_view(optimized: DataEngine) -> DataEngine:
    """An all-off engine over the *same* storage objects.

    Sharing the database (as a shared-everything cluster node does)
    removes data construction as a variable: both arms read the same
    dictionaries, the same RLE runs, the same null masks.
    """
    oracle = DataEngine(
        "kdiff-oracle",
        options=PlannerOptions(
            max_dop=1,
            enable_pipeline_fusion=False,
            enable_code_space=False,
            plan_cache_size=0,
        ),
        batch_size=BATCH_SIZE,
    )
    oracle.database = optimized.database
    oracle.catalog = StorageCatalog(optimized.database)
    return oracle


# ---------------------------------------------------------------------- #
# Seeded TQL generator
# ---------------------------------------------------------------------- #
def _draw_conjunct(rng: random.Random) -> str:
    """One filter conjunct; mixes code-space-eligible predicates
    (single dictionary/RLE column, null-rejecting) with ones that must
    fall back to row space (null-accepting, multi-function, non-encoded
    columns) so both evaluation paths are differentially covered."""
    kind = rng.randrange(12)
    if kind == 0:
        return f'(= region "{rng.choice(REGIONS)}")'
    if kind == 1:
        return f'(<> status "{rng.choice(STATUSES)}")'
    if kind == 2:
        return f'(= priority "{rng.choice(PRIORITIES)}")'
    if kind == 3:
        lo = rng.randrange(0, 60)
        return f"(and (>= day {lo}) (< day {lo + rng.randrange(5, 35)}))"
    if kind == 4:
        # Literal-first comparison: exercises plan-cache normalization
        # and the general comparison path on the RLE day column.
        return f"(< {rng.randrange(10, 80)} day)"
    if kind == 5:
        return f"(> amount {round(rng.uniform(10.0, 80.0), 2)})"
    if kind == 6:
        values = " ".join(f'"{r}"' for r in sorted(rng.sample(REGIONS, rng.randint(1, 3))))
        return f"(in region (list {values}))"
    if kind == 7:
        # Null-accepting: code-space must refuse and fall back.
        return "(isnull status)" if rng.random() < 0.5 else "(not (isnull amount))"
    if kind == 8:
        return "flag" if rng.random() < 0.5 else "(not flag)"
    if kind == 9:
        return f"(= (% qty {rng.randrange(3, 9)}) {rng.randrange(0, 3)})"
    if kind == 10:
        return f'(= status "{rng.choice(STATUSES)}")'
    return f"(<= amount {round(rng.uniform(20.0, 90.0), 2)})"


def _draw_predicate(rng: random.Random) -> str:
    n = rng.randint(1, 3)
    conjs = [_draw_conjunct(rng) for _ in range(n)]
    pred = conjs[0]
    for conj in conjs[1:]:  # ``and`` is binary in this TQL dialect
        pred = f"(and {pred} {conj})"
    return pred


_AGG_MENU = [
    "(n (count))",
    "(s (sum amount))",
    "(lo (min amount))",
    "(hi (max amount))",
    "(a (avg amount))",
    "(q (sum qty))",
    "(u (count_distinct region))",
    "(d (count_distinct day))",
]
_GROUP_COLS = ["region", "status", "priority", "day"]
_PROJECT_MENU = [
    "(r region)",
    "(d day)",
    "(a2 (* amount 2.0))",
    "(a1 (+ amount 1.0))",
    "(q qty)",
    '(tag (case (when flag "y") (else "n")))',
]


def _draw_query(rng: random.Random) -> str:
    scan = '(scan "Extract.events")'
    pred = _draw_predicate(rng)
    selected = f"(select {pred} {scan})" if rng.random() < 0.9 else scan
    shape = rng.randrange(10)
    if shape < 5:
        # Aggregate directly over the (possibly filtered) scan — the
        # E10-style chain the fusion rewrite targets.
        groups = sorted(rng.sample(_GROUP_COLS, rng.randint(0, 2)))
        aggs = sorted(rng.sample(_AGG_MENU, rng.randint(1, 3)))
        return f"(aggregate ({' '.join(groups)}) ({' '.join(aggs)}) {selected})"
    if shape < 7:
        # Project over filter: the fused non-aggregate path.
        items = sorted(rng.sample(_PROJECT_MENU, rng.randint(1, 3)))
        return f"(project ({' '.join(items)}) {selected})"
    if shape == 7:
        # Aggregate over a computed projection: fusion must substitute
        # the project's item map into the aggregate's inputs.
        return (
            "(aggregate (r) ((s (sum a2)) (n (count)))"
            f" (project ((r region) (a2 (* amount 2.0))) {selected}))"
        )
    if shape == 8:
        # Bare filter: the whole chain is just selection.
        return selected
    # Ordered + limited: a deterministic total order above a fused chain
    # (the sort is stable and both arms see the same pre-sort order).
    groups = sorted(rng.sample(_GROUP_COLS, rng.randint(1, 2)))
    aggs = sorted(rng.sample(_AGG_MENU, rng.randint(1, 2)))
    agg = f"(aggregate ({' '.join(groups)}) ({' '.join(aggs)}) {selected})"
    order = " ".join(f"({g} {'asc' if rng.random() < 0.7 else 'desc'})" for g in groups)
    return f"(limit {rng.randint(1, 15)} (order ({order}) {agg}))"


def gen_queries(seed: int, n: int) -> list[str]:
    rng = random.Random(f"kernel-equivalence-queries|{seed}")
    return [_draw_query(rng) for _ in range(n)]


#: (fact key, dimension table, dimension key, STR attribute, numeric attribute)
_DIMENSIONS = [
    ("region", "Extract.regions", "region_key", "zone", "weight"),
    ("status", "Extract.statuses", "status_key", None, "severity"),
    ("qty", "Extract.buckets", "qty_key", "bucket", "tier"),
]


def _draw_join_query(rng: random.Random) -> str:
    """An N:1 star join under the shapes the single-table generator
    draws: aggregate by a carried dimension attribute, aggregate a
    dimension measure by a fact column, project both sides, order+limit."""
    scan = '(scan "Extract.events")'
    joined = f"(select {_draw_predicate(rng)} {scan})" if rng.random() < 0.7 else scan
    dims = rng.sample(_DIMENSIONS, 2 if rng.random() < 0.3 else 1)
    for fact_key, table, dim_key, _label, _measure in dims:
        kind = "left" if rng.random() < 0.5 else "inner"
        joined = f'(join {kind} (({fact_key} {dim_key})) {joined} (scan "{table}"))'
    labels = [label for _k, _t, _d, label, _m in dims if label is not None]
    measure = dims[0][4]
    shape = rng.randrange(4)
    if shape == 0 and labels:
        groups = sorted(labels + rng.sample(["priority", "region"], rng.randint(0, 1)))
        aggs = f"(n (count)) (s (sum amount)) (m (max {measure}))"
        return f"(aggregate ({' '.join(groups)}) ({aggs}) {joined})"
    if shape == 1:
        group = rng.choice(["priority", "region", "status", "day"])
        return f"(aggregate ({group}) ((n (count)) (w (sum {measure}))) {joined})"
    if shape == 2:
        items = ["(r region)", "(q qty)", f"(m {measure})"] + [f"({lb} {lb})" for lb in labels]
        return f"(project ({' '.join(sorted(items))}) {joined})"
    group = labels[0] if labels else "priority"
    agg = f"(aggregate ({group}) ((n (count)) (lo (min {measure}))) {joined})"
    return f"(limit {rng.randint(1, 6)} (order (({group} asc)) {agg}))"


def gen_join_queries(seed: int, n: int) -> list[str]:
    rng = random.Random(f"kernel-equivalence-joins|{seed}")
    return [_draw_join_query(rng) for _ in range(n)]


# ---------------------------------------------------------------------- #
# Byte-identity comparison
# ---------------------------------------------------------------------- #
def assert_byte_identical(actual, expected, *, context: str = "") -> None:
    """Names, logical types, numpy dtypes, null masks, values, order."""
    assert actual.column_names == expected.column_names, (
        f"{context}: columns {actual.column_names} != {expected.column_names}"
    )
    assert actual.schema() == expected.schema(), (
        f"{context}: schema {actual.schema()} != {expected.schema()}"
    )
    assert actual.n_rows == expected.n_rows, (
        f"{context}: rows {actual.n_rows} != {expected.n_rows}"
    )
    for name in actual.column_names:
        got, want = actual.column(name), expected.column(name)
        gv, wv = got.storage_values(), want.storage_values()
        assert gv.dtype == wv.dtype, (
            f"{context}: column {name!r} dtype {gv.dtype} != {wv.dtype}"
        )
        gm = got.null_mask if got.null_mask is not None else np.zeros(len(gv), bool)
        wm = want.null_mask if want.null_mask is not None else np.zeros(len(wv), bool)
        assert np.array_equal(gm, wm), f"{context}: column {name!r} null masks differ"
        valid = ~gm
        assert np.array_equal(gv[valid], wv[valid]), (
            f"{context}: column {name!r} values differ"
        )


# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def engines():
    optimized = _build_shared_dataset()
    return optimized, _oracle_view(optimized)


@pytest.fixture(scope="module")
def queries():
    out = gen_queries(SEED, N_SPECS)
    assert len(out) >= 200
    return out + gen_join_queries(SEED, N_JOIN_SPECS)


def test_generator_is_seed_deterministic():
    assert gen_queries(SEED, 40) == gen_queries(SEED, 40)
    assert gen_queries(SEED, 40) != gen_queries(SEED + 1, 40)


def test_generator_covers_the_new_kernels(queries):
    text = "\n".join(queries)
    assert "(aggregate" in text  # fusion target
    assert "(project" in text  # item substitution
    assert "isnull" in text  # code-space-unsafe fallback
    assert "(in region" in text  # dictionary set membership
    assert "day" in text  # RLE per-run path
    assert "(limit" in text  # operators above the fused chain
    for probe in (
        "(join inner ((region region_key))",  # dictionary STR key, misses dropped
        "(join left ((region region_key))",  # ... and padded; NULL build key
        "(join left ((status status_key))",  # NULL probe keys
        "(join inner ((qty qty_key))",  # dense int key, out-of-range misses
        "(aggregate (zone",  # a carried STR attribute grouped above the join
        "(sum weight)",  # a NULL-bearing dimension measure
    ):
        assert probe in text, probe


def test_optimized_matches_oracle_byte_for_byte(engines, queries):
    optimized, oracle = engines
    for i, q in enumerate(queries):
        expected = oracle.query(q)
        got = optimized.query(q)
        assert_byte_identical(got, expected, context=f"spec {i}: {q}")


def test_cached_plans_stay_byte_identical(engines, queries):
    """Every query twice through the optimized engine: the second run
    executes the *cached* physical plan and must answer identically."""
    optimized, oracle = engines
    optimized.plan_cache.invalidate("test_reset")
    before = optimized.plan_cache.stats()
    for i, q in enumerate(queries[:60]):
        first = optimized.query(q)
        second = optimized.query(q)
        assert_byte_identical(second, first, context=f"cached spec {i}: {q}")
        assert_byte_identical(second, oracle.query(q), context=f"cached-vs-oracle {i}")
    after = optimized.plan_cache.stats()
    assert after["hits"] - before["hits"] >= 60, (
        "the repeat runs were expected to hit the plan cache"
    )


def test_fusion_actually_fired_for_the_suite(engines, queries):
    """Guard against the suite silently comparing unfused vs unfused."""
    optimized, _ = engines
    fused = sum(
        1 for q in queries[:50] if "FusedPipeline" in optimized.explain(q)
    )
    assert fused >= 25, f"only {fused}/50 sampled specs produced a fused plan"
