"""E23: the raw-speed pass — fused kernels and the physical-plan cache.

PR 8 attacks the E8–E11 hot path on three coordinated layers: adjacent
Filter/Project/HashAggregate chains collapse into one per-batch
:class:`PFusedPipeline` pass, predicates on dictionary/RLE columns
evaluate in *code space* (once per dictionary entry, once per run), and
compiled physical plans are cached so repeat dashboard queries skip the
whole parse/bind/optimize phase. This experiment measures each layer and
pins the contract that makes them shippable: **the answers are
byte-identical** to the all-off engine.

* **Aggregation throughput** — interleaved arms over the same storage:
  ``fused`` (fusion + code space on) vs ``unfused`` (both off) running
  an E10-style chain (dictionary-string filter feeding a grouped
  aggregate) plus a per-run RLE variant. One loop drives both arms so
  clock drift hits them equally. Hard in-run bound: fused >= 2x on the
  aggregation batch.
* **Warm compile path** — the same query set planned repeatedly against
  a plan-cache-enabled engine and a disabled one (an E1-style warm
  dashboard reload, where the TQL text repeats modulo whitespace and
  literal side). Hard in-run bounds: every repeat plan is a cache hit
  and the warm path is measurably faster than compiling from scratch.

The committed baseline's time columns put both paths under perfgate;
the speedup columns (``speedup_x``) are ratios — machine-independent,
informational for the gate, asserted hard in-run.
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.tde.engine import DataEngine
from repro.tde.optimizer.parallel import PlannerOptions
from repro.sim.metrics import Recorder

from .conftest import record

DATASET_ROWS = 150_000
AGG_REPS = 12
PLAN_REPS = 30
MIN_AGG_SPEEDUP = 2.0

REGIONS = ["east", "west", "north", "south", "central"]
STATUSES = ["ok", "late", "cancelled"]

#: All three raw-speed layers off — the reference arm. ``plan_cache_size``
#: rides in the options fingerprint, so these plans also occupy distinct
#: cache slots and never shadow the fused plans.
UNFUSED = PlannerOptions(
    max_dop=1,
    enable_pipeline_fusion=False,
    enable_code_space=False,
    plan_cache_size=0,
)

#: The E10-style hot chain: a dictionary-string filter feeding grouped
#: aggregates, plus an RLE-ranged global aggregate (the per-run path) and
#: a projection chain (the non-aggregate fusion shape).
AGG_QUERIES = [
    "(aggregate (region) ((n (count)) (s (sum amount)))"
    ' (select (and (<> status "cancelled") (>= day 60)) (scan "Extract.sales")))',
    "(aggregate (status) ((a (avg amount)) (q (sum qty)))"
    ' (select (in region (list "east" "west")) (scan "Extract.sales")))',
    "(aggregate () ((lo (min amount)) (hi (max amount)) (n (count)))"
    " (select (and (>= day 100) (< day 240)) (scan \"Extract.sales\")))",
    "(project ((a2 (* amount 2.0)) (r region))"
    ' (select (= status "late") (scan "Extract.sales")))',
]

#: Warm-reload texts: the same dashboard queries re-issued with literal
#: variation — each distinct literal is its own cache entry, re-served on
#: every subsequent pass.
PLAN_QUERIES = [
    "(aggregate (region) ((n (count)) (s (sum amount)))"
    f" (select (>= day {d}) (scan \"Extract.sales\")))"
    for d in range(8)
]


def _build_dataset() -> dict:
    rng = random.Random(23)
    n = DATASET_ROWS
    return {
        "day": sorted(rng.randrange(0, 365) for _ in range(n)),
        "region": [rng.choice(REGIONS) for _ in range(n)],
        "status": [rng.choice(STATUSES) for _ in range(n)],
        "amount": [round(rng.gauss(50.0, 25.0), 3) for _ in range(n)],
        "qty": [rng.randrange(0, 100) for _ in range(n)],
    }


def _make_engine(name: str, *, plan_cache_size: int = 64) -> DataEngine:
    engine = DataEngine(
        name,
        options=PlannerOptions(max_dop=1, plan_cache_size=plan_cache_size),
    )
    engine.load_pydict(
        "Extract.sales", _build_dataset(), sort_keys=["day"], encodings={"day": "rle"}
    )
    return engine


def assert_byte_identical(got, want, *, context: str) -> None:
    """Same names, logical types, numpy dtypes, null masks, values, order."""
    assert got.column_names == want.column_names, context
    assert got.schema() == want.schema(), context
    assert got.n_rows == want.n_rows, context
    for name in got.column_names:
        a, b = got.column(name), want.column(name)
        av, bv = a.storage_values(), b.storage_values()
        assert av.dtype == bv.dtype, f"{context}: {name} dtype"
        am = a.null_mask if a.null_mask is not None else np.zeros(len(av), bool)
        bm = b.null_mask if b.null_mask is not None else np.zeros(len(bv), bool)
        assert np.array_equal(am, bm), f"{context}: {name} null mask"
        assert np.array_equal(av[~am], bv[~bm]), f"{context}: {name} values"


def test_e23_kernel_fusion(benchmark):
    engine = _make_engine("e23")

    # Every aggregation query must actually take the fused operator —
    # otherwise the throughput arm compares unfused against unfused.
    for q in AGG_QUERIES:
        explain = engine.explain(q)
        assert "FusedPipeline" in explain, f"plan did not fuse:\n{explain}"

    # Byte-identity before timing: the raw-speed pass changes nothing.
    for i, q in enumerate(AGG_QUERIES):
        assert_byte_identical(
            engine.query(q),
            engine.query(q, options=UNFUSED),
            context=f"agg query {i}",
        )

    # ------------------------------------------------------------------ #
    # Aggregation throughput: interleaved fused vs unfused execution
    # ------------------------------------------------------------------ #
    fused_s = 0.0
    unfused_s = 0.0
    for _ in range(AGG_REPS):
        for q in AGG_QUERIES:
            started = time.perf_counter()
            engine.query(q)
            fused_s += time.perf_counter() - started
            started = time.perf_counter()
            engine.query(q, options=UNFUSED)
            unfused_s += time.perf_counter() - started
    n_queries = AGG_REPS * len(AGG_QUERIES)
    agg_speedup = unfused_s / max(fused_s, 1e-12)
    assert agg_speedup >= MIN_AGG_SPEEDUP, (
        f"fused aggregation speedup {agg_speedup:.2f}x < {MIN_AGG_SPEEDUP}x"
    )

    # ------------------------------------------------------------------ #
    # Warm compile path: plan cache on vs off
    # ------------------------------------------------------------------ #
    warm_engine = _make_engine("e23-warm")
    cold_engine = _make_engine("e23-cold", plan_cache_size=0)
    assert not cold_engine.plan_cache.enabled
    for q in PLAN_QUERIES:  # prime: the first compile is a miss by design
        warm_engine.plan(q)
        cold_engine.plan(q)
    hits_before = warm_engine.plan_cache.stats()["hits"]
    warm_s = 0.0
    cold_s = 0.0
    for _ in range(PLAN_REPS):
        for q in PLAN_QUERIES:
            started = time.perf_counter()
            warm_engine.plan(q)
            warm_s += time.perf_counter() - started
            started = time.perf_counter()
            cold_engine.plan(q)
            cold_s += time.perf_counter() - started
    n_plans = PLAN_REPS * len(PLAN_QUERIES)
    warm_stats = warm_engine.plan_cache.stats()
    assert warm_stats["hits"] - hits_before == n_plans, (
        "every repeat plan must be served from the cache"
    )
    assert cold_engine.plan_cache.stats()["hits"] == 0
    assert warm_s < cold_s, (
        f"cached planning ({warm_s:.4f}s) must beat recompiling ({cold_s:.4f}s)"
    )
    plan_speedup = cold_s / max(warm_s, 1e-12)

    # Normalized variants of a primed query hit the same entry: the warm
    # path also covers the dashboard's whitespace/literal-side jitter.
    variant = PLAN_QUERIES[0].replace("(>= day 0)", "(<= 0 day)")
    hits = warm_engine.plan_cache.stats()["hits"]
    warm_engine.plan(variant)
    assert warm_engine.plan_cache.stats()["hits"] == hits + 1

    recorder = Recorder(
        "E23: fused kernels (exec ms/query) and plan cache (compile ms/plan)",
        columns=[
            "arm", "reps", "per_query_ms", "total_ms", "speedup_x", "cache_hits",
        ],
    )
    recorder.add(
        "agg_fused", n_queries, fused_s * 1000 / n_queries, fused_s * 1000,
        agg_speedup, 0,
    )
    recorder.add(
        "agg_unfused", n_queries, unfused_s * 1000 / n_queries, unfused_s * 1000,
        1.0, 0,
    )
    recorder.add(
        "plan_warm", n_plans, warm_s * 1000 / n_plans, warm_s * 1000,
        plan_speedup, warm_stats["hits"],
    )
    recorder.add(
        "plan_cold", n_plans, cold_s * 1000 / n_plans, cold_s * 1000,
        1.0, 0,
    )
    record(
        "e23_kernel_fusion",
        recorder,
        trace={
            "agg_speedup_x": agg_speedup,
            "plan_speedup_x": plan_speedup,
            "plan_cache": warm_stats,
            "queries": {"aggregation": AGG_QUERIES, "warm_plan": PLAN_QUERIES},
        },
    )

    # Representative timed path: one fused aggregation query, plan cached.
    benchmark(lambda: engine.query(AGG_QUERIES[0]))
