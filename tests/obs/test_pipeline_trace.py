"""End-to-end traces over the real pipeline: phase spans, thread hand-off,
phase-sum ≈ elapsed, and the new derived_hits accounting."""

from repro import obs
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.clock import VirtualTimeClock
from repro.faults import FaultPlan, FaultRule, FaultyDataSource
from repro.queries import CategoricalFilter
from tests.core.conftest import AVG_DELAY, COUNT, SUM_DELAY, make_model, make_source, spec

PHASES = [
    "pipeline.cache_probe",
    "pipeline.batch_graph",
    "pipeline.compile",
    "pipeline.fusion",
    "pipeline.remote_execution",
    "pipeline.post_processing",
    "pipeline.local_answers",
]


def fusable_batch():
    return [
        spec(dimensions=("name",), measures=(("n", COUNT), ("a", AVG_DELAY))),
        spec(dimensions=("name",), measures=(("s", SUM_DELAY),)),
        spec(measures=(("total", COUNT),)),
    ]


class TestPipelineTrace:
    def test_run_batch_has_all_phase_spans(self):
        pipe = QueryPipeline(make_source(), make_model())
        with obs.recording() as rec:
            pipe.run_batch(fusable_batch())
        root = rec.find("pipeline.run_batch")
        assert root is not None
        child_names = [c.name for c in root.children]
        assert child_names == PHASES
        assert root.attributes["specs"] == 3
        assert root.attributes["remote_queries"] == 1
        assert root.attributes["fused_away"] == 1

    def test_phase_spans_sum_close_to_elapsed(self):
        # One virtual clock stamps the spans and times the batch, and only
        # the backend moves it (an injected 0.25 s on the one fused
        # query): counted, not timed, so scheduler noise on a ~3 ms batch
        # cannot fail it.
        clock = VirtualTimeClock()
        slow = FaultPlan.scripted([FaultRule("latency", op="execute", latency_s=0.25)])
        source = FaultyDataSource(make_source(), slow, clock=clock)
        pipe = QueryPipeline(source, make_model(), clock=clock)
        with obs.recording(clock=clock) as rec:
            result = pipe.run_batch(fusable_batch())
        root = rec.find("pipeline.run_batch")
        phase_total = sum(c.duration_s for c in root.children)
        # The phases cover the batch end-to-end: their sum accounts for
        # all of BatchResult.elapsed_s, and remote execution for the wait.
        assert result.elapsed_s == 0.25
        assert phase_total == result.elapsed_s
        assert root.duration_s == phase_total
        assert rec.find("pipeline.remote_execution").duration_s == 0.25

    def test_executor_spans_nest_under_remote_execution(self):
        # The executor runs queries on pool threads; spans must still land
        # under pipeline.remote_execution via the explicit attach hand-off.
        pipe = QueryPipeline(make_source(), make_model())
        batch = [
            spec(dimensions=("name",), measures=(("n", COUNT),)),
            spec(dimensions=("market",), measures=(("s", SUM_DELAY),)),
        ]
        with obs.recording() as rec:
            pipe.run_batch(batch)
        remote = rec.find("pipeline.remote_execution")
        queries = remote.find_all("executor.query")
        assert len(queries) == 2
        # No executor span escaped to become its own root.
        assert [r.name for r in rec.spans] == ["pipeline.run_batch"]
        for q in queries:
            assert q.find("executor.remote_fetch") is not None

    def test_metrics_populated_along_the_hot_path(self):
        pipe = QueryPipeline(make_source(), make_model())
        with obs.recording() as rec:
            pipe.run_batch(fusable_batch())
            pipe.run_batch(fusable_batch())  # second pass hits the cache
        snap = rec.metrics.snapshot()
        assert snap["cache.intelligent.misses"]["value"] >= 1
        # The repeat batch is answered from cache (the enriched entry
        # subsumes each member spec).
        assert snap["cache.intelligent.subsumption_hits"]["value"] >= 1
        assert snap["executor.query_s"]["count"] >= 1
        assert snap["pool.opened"]["value"] >= 1
        assert snap["simdb.queries"]["value"] >= 1

    def test_tde_operator_recorder_attached(self):
        pipe = QueryPipeline(make_source(), make_model())
        with obs.recording() as rec:
            pipe.run_batch(fusable_batch())
        tde = rec.find("tde.execute")
        assert tde is not None
        ops = tde.attributes["operators"]
        assert ops
        for stats in ops.values():
            assert {"rows", "seconds", "batches"} <= set(stats)

    def test_tracing_does_not_change_results(self):
        batch = fusable_batch()
        plain = QueryPipeline(make_source(), make_model()).run_batch(batch)
        with obs.recording():
            traced = QueryPipeline(make_source(), make_model()).run_batch(batch)
        for s in batch:
            assert traced.table_for(s).approx_equals(plain.table_for(s), ordered=False)


class TestDerivedHits:
    def test_batch_local_answer_counts_as_derived_hit(self):
        pipe = QueryPipeline(make_source(), make_model())
        result = pipe.run_batch(fusable_batch())
        # The grand-total spec is answered locally from the cache entry the
        # fused remote result populated — a derivation, not a probe hit.
        assert result.batch_local == 1
        assert result.derived_hits >= 1
        assert result.cache_hits == 0

    def test_probe_hits_stay_separate_from_derived_hits(self):
        pipe = QueryPipeline(make_source(), make_model())
        base = spec(
            dimensions=("name",),
            measures=(("n", COUNT),),
            filters=(CategoricalFilter("market_id", (0, 1, 2, 3)),),
        )
        pipe.run_batch([base])
        narrowed = base.with_filters((CategoricalFilter("market_id", (1, 2)),))
        result = pipe.run_batch([narrowed])
        assert result.cache_hits == 1
        assert result.derived_hits == 0

    def test_exact_refetch_is_not_a_derived_hit(self):
        # Without enrichment the sent spec equals the member spec, so the
        # phase-4 cache read-back of its own fresh entry must not count.
        pipe = QueryPipeline(
            make_source(), make_model(), options=PipelineOptions(enrich_for_reuse=False)
        )
        result = pipe.run_batch([spec(dimensions=("name",), measures=(("n", COUNT),))])
        assert result.remote_queries == 1
        assert result.derived_hits == 0
