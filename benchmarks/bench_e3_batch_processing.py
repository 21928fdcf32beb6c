"""E3 (Figure 3, §3.3): query batch processing with the cache-hit graph.

The paper partitions a batch into remote source queries and locally
derivable queries, then submits the remote ones concurrently. We rebuild
a batch shaped like the paper's example graph (8 queries, 3 sources) and
compare three strategies:

* serial, no analysis        — every query goes remote, one at a time;
* serial + batch graph       — only sources go remote, still sequential;
* two-phase concurrent       — sources remote in parallel, rest local.

Expected shape: remote count drops 8 → 3 with the graph; wall time drops
again with concurrency (roughly by the source count, minus overheads).
"""



from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.sim.metrics import Recorder

from .conftest import COUNT, SUM_DELAY, make_backend, record, spec


def _paper_batch():
    """Eight queries; q1, q4, q8-style sources cover the others."""
    detail = spec(dimensions=("carrier_name", "market"), measures=(("n", COUNT), ("s", SUM_DELAY)))
    by_carrier = spec(dimensions=("carrier_name",), measures=(("n", COUNT),))
    by_market = spec(dimensions=("market",), measures=(("n", COUNT), ("s", SUM_DELAY)))
    total = spec(measures=(("n", COUNT),))
    by_date = spec(
        dimensions=("date_", "hour"),
        measures=(("n", COUNT), ("s", SUM_DELAY)),
    )
    by_hour = spec(dimensions=("hour",), measures=(("s", SUM_DELAY),))
    by_day = spec(dimensions=("date_",), measures=(("n", COUNT),))
    domains = spec(dimensions=("code",))
    return [detail, by_carrier, by_market, total, by_date, by_hour, by_day, domains]


def _options(graph: bool, concurrent: bool) -> PipelineOptions:
    return PipelineOptions(
        enable_intelligent_cache=False,
        enable_literal_cache=False,
        enable_fusion=False,
        enrich_for_reuse=False,
        enable_batch_graph=graph,
        concurrent=concurrent,
    )


def _run(source, model, options):
    pipeline = QueryPipeline(source, model, options=options)
    result = pipeline.run_batch(_paper_batch())
    pipeline.close()
    return result


def test_e3_batch_processing(benchmark, dataset, model):
    _db, source = make_backend(dataset)
    rows = []
    for label, graph, concurrent in (
        ("serial, no analysis", False, False),
        ("serial + batch graph", True, False),
        ("two-phase concurrent", True, True),
    ):
        result = _run(source, model, _options(graph, concurrent))
        rows.append((label, result))

    recorder = Recorder(
        "E3: batch processing strategies (8-query batch)",
        columns=["strategy", "remote", "local", "elapsed_ms"],
    )
    for label, result in rows:
        recorder.add(label, result.remote_queries, result.batch_local, result.elapsed_s * 1000)
    record("e3_batch_processing", recorder)

    naive, graph_only, two_phase = (r for _l, r in rows)
    assert naive.remote_queries == 8
    assert graph_only.remote_queries < naive.remote_queries
    assert two_phase.remote_queries == graph_only.remote_queries
    assert two_phase.elapsed_s < graph_only.elapsed_s
    assert graph_only.elapsed_s < naive.elapsed_s
    # All strategies agree on every answer.
    for key, table in naive.tables.items():
        assert table.approx_equals(two_phase.tables[key], ordered=False, rel=1e-7, abs_tol=1e-6)

    result = benchmark.pedantic(
        lambda: _run(source, model, _options(True, True)), rounds=3, iterations=1
    )
    assert result.remote_queries < 8
