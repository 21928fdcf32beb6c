"""E6 (§3.2): the two-level query cache.

Expected shape, per the paper's Fig-1 discussion: a cold query pays the
full backend round trip; a literal hit skips the backend but still
post-processes; an intelligent subsumption hit (user deselects filter
values) costs local work only — orders of magnitude under the cold path.
An interaction *trace* then shows the hit-rate the dashboard scenario
produces.
"""


from repro import obs
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.queries import CategoricalFilter
from repro.sim.metrics import Recorder, time_call

from .conftest import AVG_DELAY, COUNT, make_backend, record, spec

ALL_MARKETS = tuple(range(12))


def _base_spec(markets=ALL_MARKETS):
    return spec(
        dimensions=("carrier_name",),
        measures=(("n", COUNT), ("a", AVG_DELAY)),
        filters=(CategoricalFilter("market_id", markets),),
    )


def test_e6_query_caching(benchmark, dataset, model):
    _db, source = make_backend(dataset)
    pipeline = QueryPipeline(source, model)

    cold_s, _ = time_call(lambda: pipeline.run_batch([_base_spec()]), repeat=1)
    # Identical query again: intelligent exact hit.
    exact_s, exact = time_call(lambda: pipeline.run_batch([_base_spec()]), repeat=3)
    # Narrower selection: subsumption hit with local filtering/roll-up.
    narrowed = _base_spec(markets=(0, 2, 5))
    subsume_s, subsumed = time_call(lambda: pipeline.run_batch([narrowed]), repeat=3)
    # Literal-cache-only configuration for the literal row.
    lit_pipeline = QueryPipeline(
        source,
        model,
        options=PipelineOptions(enable_intelligent_cache=False, enrich_for_reuse=False),
    )
    lit_pipeline.run_batch([_base_spec()])
    literal_s, literal = time_call(lambda: lit_pipeline.run_batch([_base_spec()]), repeat=3)

    recorder = Recorder(
        "E6: cache level vs response time",
        columns=["path", "remote", "elapsed_ms"],
    )
    recorder.add("cold (backend)", 1, cold_s * 1000)
    recorder.add("literal hit", 0, literal_s * 1000)
    recorder.add("intelligent exact hit", 0, exact_s * 1000)
    recorder.add("intelligent subsumption hit", 0, subsume_s * 1000)
    # Traced cold + subsumption-hit pair for the per-phase JSON summary.
    _db2, source2 = make_backend(dataset, name="warehouse-traced")
    with obs.recording() as rec:
        traced = QueryPipeline(source2, model)
        traced.run_batch([_base_spec()])
        traced.run_batch([_base_spec(markets=(0, 2, 5))])
    record("e6_query_caching", recorder, trace=rec)

    assert exact.remote_queries == 0
    assert subsumed.remote_queries == 0
    assert literal.remote_queries == 0
    assert exact_s < cold_s / 20
    assert subsume_s < cold_s / 5
    assert literal_s < cold_s / 2

    # Interaction trace: initial load + 8 filter changes.
    trace_pipeline = QueryPipeline(source, model)
    selections = [(0, 1, 2), (1, 2), (2,), (0, 1, 2, 3), (3,), (0,), (0, 3), (1,)]
    trace_pipeline.run_batch([_base_spec()])
    remote = 0
    for sel in selections:
        remote += trace_pipeline.run_batch([_base_spec(markets=sel)]).remote_queries
    trace = Recorder("E6b: interaction trace (8 filter changes)", columns=["metric", "value"])
    trace.add("interactions", len(selections))
    trace.add("remote queries", remote)
    stats = trace_pipeline.intelligent_cache.stats
    trace.add("subsumption hits", stats.subsumption_hits)
    record("e6b_interaction_trace", trace)
    assert remote == 0  # "the intelligent cache will be able to filter..."

    result = benchmark(lambda: pipeline.run_batch([_base_spec(markets=(1, 4))]))
    assert result.remote_queries == 0
