"""Differential equivalence: every optimization must be answer-preserving.

A seeded generator (gen.py) draws a few hundred random specs; a raw
pipeline with every optimization disabled computes the reference answer;
then each optimized configuration — caches on, DOP > 1, fusion/batch
graph on — must produce the same row multisets. This is the harness the
fault-injection work leans on: if the robustness machinery (retries,
degradation) ever changed an *answer* rather than just availability,
this is where it would show.
"""

from __future__ import annotations

import pytest

from repro.connectors import TdeDataSource
from repro.core.pipeline import PipelineOptions, QueryPipeline
from tests.core.conftest import ENGINE, make_model, make_source

from .gen import assert_rows_equal, assert_tables_equal, gen_specs, rows_of
from .reference import answer_spec, join_rows

SEED = 1337
N_SPECS = 220  # the acceptance floor is 200
BATCH = 8


def _options(**overrides) -> PipelineOptions:
    base = dict(
        enable_intelligent_cache=False,
        enable_literal_cache=False,
        enable_fusion=False,
        enable_batch_graph=False,
        enrich_for_reuse=False,
        concurrent=False,
    )
    base.update(overrides)
    return PipelineOptions(**base)


@pytest.fixture(scope="module")
def specs():
    out = gen_specs(SEED, N_SPECS)
    assert len(out) >= 200
    return out


@pytest.fixture(scope="module")
def oracle(specs):
    """Reference answers from the raw (no-optimization) pipeline."""
    pipeline = QueryPipeline(make_source(), make_model(), options=_options())
    try:
        return {spec.canonical(): pipeline.run_spec(spec) for spec in specs}
    finally:
        pipeline.close()


def _check_batched(specs, oracle, options: PipelineOptions, label: str) -> None:
    pipeline = QueryPipeline(make_source(), make_model(), options=options)
    try:
        for start in range(0, len(specs), BATCH):
            chunk = specs[start : start + BATCH]
            result = pipeline.run_batch(chunk)
            assert result.ok, f"{label}: unexpected errors {result.errors}"
            for spec in chunk:
                assert_tables_equal(
                    result.table_for(spec),
                    oracle[spec.canonical()],
                    context=f"{label}: {spec.canonical()}",
                )
    finally:
        pipeline.close()


def test_generator_is_seed_deterministic():
    first = [s.canonical() for s in gen_specs(SEED, 50)]
    second = [s.canonical() for s in gen_specs(SEED, 50)]
    assert first == second
    assert first != [s.canonical() for s in gen_specs(SEED + 1, 50)]


def test_generator_covers_shapes(specs):
    # The stream should exercise every major spec feature.
    assert any(s.limit is not None for s in specs)
    assert any(s.order_by for s in specs)
    assert any(not s.dimensions for s in specs)
    assert any(not s.measures for s in specs)
    assert any(len(s.filters) == 2 for s in specs)
    assert any("name" in s.dimensions or "market" in s.dimensions for s in specs)


def test_caches_preserve_answers(specs, oracle):
    """Cache-on (intelligent + literal + enrichment) == cache-off."""
    pipeline = QueryPipeline(
        make_source(),
        make_model(),
        options=_options(
            enable_intelligent_cache=True,
            enable_literal_cache=True,
            enrich_for_reuse=True,
        ),
    )
    try:
        # Two passes through the same pipeline: the first populates the
        # caches (and already derives some answers from wider entries),
        # the second is served almost entirely from cache. Both must
        # match the oracle.
        for pass_name in ("cold", "warm"):
            for spec in specs:
                assert_tables_equal(
                    pipeline.run_spec(spec),
                    oracle[spec.canonical()],
                    context=f"cache {pass_name}: {spec.canonical()}",
                )
    finally:
        pipeline.close()


def test_concurrency_preserves_answers(specs, oracle):
    """DOP=N (concurrent batches over the pool) == DOP=1."""
    _check_batched(
        specs,
        oracle,
        _options(concurrent=True, max_connections=8),
        "dop=8",
    )


def test_fusion_and_batch_graph_preserve_answers(specs, oracle):
    """Fusion + batch-graph derivation == sending every spec alone."""
    _check_batched(
        specs,
        oracle,
        _options(enable_fusion=True, enable_batch_graph=True),
        "fusion",
    )


def test_all_optimizations_together(specs, oracle):
    """The full production configuration against the oracle."""
    _check_batched(
        specs,
        oracle,
        PipelineOptions(),  # everything on, defaults
        "all-on",
    )


@pytest.fixture(scope="module")
def view_rows():
    return star_rows()


def star_rows() -> list[dict]:
    """The model's star join as plain rows, joined by the reference."""
    tables = {
        name: ENGINE.table(f"Extract.{name}").to_pydict()
        for name in ("flights", "carriers", "markets")
    }
    rows = {
        name: [dict(zip(cols, values)) for values in zip(*cols.values())]
        for name, cols in tables.items()
    }
    view = rows["flights"]
    for dimension, condition in (("carriers", ("carrier_id", "id")), ("markets", ("market_id", "mid"))):
        pairs = join_rows(view, rows[dimension], [condition])
        view = [{**view[i], **rows[dimension][j]} for i, j in pairs]
    return view


@pytest.mark.parametrize("enrich", [True, False], ids=["enriched", "as-asked"])
def test_merged_grouping_sets_preserve_answers(specs, oracle, view_rows, enrich):
    """An in-process TDE is sent the same-relation queries of a batch as
    one grouping-sets query; every answer split back out of it equals the
    all-off oracle's and the row-at-a-time reference's. Specs are batched
    by relation (their filters) so that batches do merge; un-enriched,
    the specs keep their ORDER BY / LIMIT, which the merge moves into
    local post-ops."""
    by_relation = sorted(specs, key=lambda s: sorted(f.canonical() for f in s.filters))
    pipeline = QueryPipeline(
        TdeDataSource(ENGINE), make_model(), options=PipelineOptions(enrich_for_reuse=enrich)
    )
    merged_batches = 0
    sent: list[str] = []
    real_run = pipeline.executor.run_batch

    def recording_run(compiled, **kwargs):
        sent.extend(c.text for c in compiled)
        return real_run(compiled, **kwargs)

    pipeline.executor.run_batch = recording_run
    try:
        for start in range(0, len(by_relation), BATCH):
            chunk = by_relation[start : start + BATCH]
            result = pipeline.run_batch(chunk)
            assert result.ok, f"merged: unexpected errors {result.errors}"
            merged = any("(grouping-sets" in text for text in sent)
            assert result.fused_away > 0 or not merged
            merged_batches += merged
            sent.clear()
            for spec in chunk:
                context = f"merged ({'enriched' if enrich else 'as asked'}): {spec.canonical()}"
                answer = result.table_for(spec)
                assert_tables_equal(answer, oracle[spec.canonical()], context=context)
                assert_rows_equal(rows_of(answer), answer_spec(view_rows, spec), context=context)
    finally:
        pipeline.close()
    batches = -(-len(by_relation) // BATCH)
    assert merged_batches * 3 >= batches, (
        f"only {merged_batches} of {batches} batches sent fewer queries than they answered"
    )


def test_distributed_cache_tier_preserves_answers(specs, oracle):
    """The elastic 3-node replicated cache tier (R=2) as the literal
    cache == the all-off oracle, byte-identical through table
    serialization, replica placement, and a mid-run node kill + warmed
    join.

    Three proxies share the tier: the first runs cold and populates it,
    the second starts with a cold L1 so its answers come off the wire
    from the replicated store, and the third serves *after* a cache node
    is killed and a fresh one joins — surviving replicas, re-replication
    and plain misses-gone-remote must all preserve answers.
    """
    from repro.core.cache.distributed import DistributedQueryCache
    from repro.core.cache.replicated import ReplicatedStore
    from repro.clock import VirtualTimeClock

    store = ReplicatedStore(
        ("c0", "c1", "c2"),
        replication=2,
        clock=VirtualTimeClock(),
        latency_s=0.0002,
    )

    def proxy() -> QueryPipeline:
        return QueryPipeline(
            make_source(),
            make_model(),
            options=_options(enable_literal_cache=True),
            literal_cache=DistributedQueryCache(store, "warehouse", use_l1=False),
        )

    for pass_name in ("cold", "tier-warm", "after-kill"):
        if pass_name == "after-kill":
            store.kill("c1")
            store.join("c3")
        pipeline = proxy()
        try:
            for start in range(0, len(specs), BATCH):
                chunk = specs[start : start + BATCH]
                result = pipeline.run_batch(chunk)
                assert result.ok, f"{pass_name}: unexpected errors {result.errors}"
                for spec in chunk:
                    assert_tables_equal(
                        result.table_for(spec),
                        oracle[spec.canonical()],
                        context=f"tier {pass_name}: {spec.canonical()}",
                    )
        finally:
            pipeline.close()

    # The warm and post-kill passes genuinely served from the tier (the
    # proxies had no L1), and the kill genuinely degraded some reads.
    assert store.statz()["fleet"]["hits"] > 0, "no answer was ever served from the tier"
    assert store.stats.keys_moved > 0, "the join warmed nothing"


def test_concurrent_herd_preserves_answers(specs, oracle):
    """A thread herd over one pipeline (single-flight coalescing live)
    still answers every spec byte-identically to the oracle."""
    import threading
    from concurrent.futures import ThreadPoolExecutor

    herd_specs = specs[:48]
    pipeline = QueryPipeline(
        make_source(),
        make_model(),
        options=PipelineOptions(
            enable_intelligent_cache=False,  # force the coalesce path
            enable_literal_cache=False,
        ),
    )
    n_threads = 6
    barrier = threading.Barrier(n_threads)

    def viewer(_tid: int):
        # Every thread requests the same batches in the same order, so
        # most answers arrive by joining another thread's flight.
        barrier.wait()
        out = []
        for start in range(0, len(herd_specs), BATCH):
            out.append(pipeline.run_batch(herd_specs[start : start + BATCH]))
        return out

    try:
        with ThreadPoolExecutor(max_workers=n_threads) as tp:
            per_thread = list(tp.map(viewer, range(n_threads)))
    finally:
        pipeline.close()

    coalesced = 0
    for results in per_thread:
        for start, result in zip(range(0, len(herd_specs), BATCH), results):
            assert result.ok, f"herd: unexpected errors {result.errors}"
            coalesced += result.coalesced_hits
            for spec in herd_specs[start : start + BATCH]:
                assert_tables_equal(
                    result.table_for(spec),
                    oracle[spec.canonical()],
                    context=f"herd: {spec.canonical()}",
                )
    assert coalesced > 0, "the herd never coalesced"
