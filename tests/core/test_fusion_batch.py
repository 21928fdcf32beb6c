"""Query fusion and batch-graph tests (paper 3.3, 3.4)."""

from repro.core.batch import build_batch_graph
from repro.core.fusion import fuse_batch
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.queries import CategoricalFilter
from repro.queries.compile import compile_spec
from repro.tde.tql.plan import Aggregate
from tests.core.conftest import COUNT, MIN_DELAY, SUM_DELAY, spec


def _fuse(source, model, *specs):
    compiled = [compile_spec(s, model, source) for s in specs]
    return compiled, fuse_batch(compiled, model, source)


class TestFusion:
    """Against a SQL source the queries over one relation and grain merge
    into one plain aggregate: the paper's single πP(R)."""

    def test_same_relation_fuses(self, source, model):
        a = spec(dimensions=("name",), measures=(("n", COUNT),))
        b = spec(dimensions=("name",), measures=(("s", SUM_DELAY),))
        compiled, merged = _fuse(source, model, a, b)
        assert len(merged) == 1 and merged[0].form == "aggregate"
        assert merged[0].parts == tuple(compiled)
        assert isinstance(merged[0].plan, Aggregate) and len(merged[0].plan.aggs) == 2
        assert [split.set for split in merged[0].splits] == [None, None]

    def test_shared_measures_deduplicated(self, source, model):
        a = spec(dimensions=("name",), measures=(("n", COUNT), ("s", SUM_DELAY)))
        b = spec(dimensions=("name",), measures=(("total", SUM_DELAY),))
        _, (merged,) = _fuse(source, model, a, b)
        assert len(merged.plan.aggs) == 2  # SUM shared
        assert merged.splits[0].columns[2][1] == merged.splits[1].columns[1][1]

    def test_different_filters_do_not_fuse(self, source, model):
        a = spec(dimensions=("name",), measures=(("n", COUNT),))
        b = a.with_filters((CategoricalFilter("market_id", (1,)),))
        assert _fuse(source, model, a, b)[1] == []

    def test_different_dims_do_not_fuse(self, source, model):
        a = spec(dimensions=("name",), measures=(("n", COUNT),))
        b = spec(dimensions=("market",), measures=(("n", COUNT),))
        assert _fuse(source, model, a, b)[1] == []

    def test_disabled(self, source, model):
        a = spec(dimensions=("name",), measures=(("n", COUNT),))
        b = spec(dimensions=("name",), measures=(("s", SUM_DELAY),))
        options = PipelineOptions(enable_fusion=False, enable_batch_graph=False)
        result = QueryPipeline(source, model, options=options).run_batch([a, b])
        assert result.remote_queries == 2 and result.fused_away == 0

    def test_extraction_recovers_members(self, source, model, raw_pipeline):
        a = spec(dimensions=("name",), measures=(("n", COUNT),), order_by=(("n", False),))
        b = spec(dimensions=("name",), measures=(("s", SUM_DELAY), ("lo", MIN_DELAY)))
        options = PipelineOptions(
            enable_intelligent_cache=False,
            enable_literal_cache=False,
            enable_batch_graph=False,
            enrich_for_reuse=False,
        )
        fused = QueryPipeline(source, model, options=options).run_batch([a, b])
        assert fused.remote_queries == 1 and fused.fused_away == 1
        for member in (a, b):
            direct = raw_pipeline.run_spec(member)
            ordered = bool(member.order_by)
            assert fused.table_for(member).approx_equals(direct, ordered=ordered)

    def test_order_limit_stripped_from_fused(self, source, model):
        a = spec(dimensions=("name",), measures=(("n", COUNT),), limit=2)
        b = spec(dimensions=("name",), measures=(("s", SUM_DELAY),))
        _, (merged,) = _fuse(source, model, a, b)
        assert isinstance(merged.plan, Aggregate)  # no LIMIT on the shared query
        assert [type(op).__name__ for op in merged.splits[0].ops] == ["LocalTopN"]
        assert merged.splits[1].ops == ()


class TestBatchGraph:
    def test_paper_partition(self):
        """A detail query feeds roll-ups; roll-ups are local."""
        q_detail = spec(dimensions=("name", "market_id"), measures=(("n", COUNT),))
        q_rollup = spec(dimensions=("name",), measures=(("n", COUNT),))
        q_other = spec(dimensions=("date_",), measures=(("n", COUNT),))
        graph = build_batch_graph([q_detail, q_rollup, q_other])
        assert graph.remote == [0, 2]
        assert graph.local == [1]
        assert graph.provider_of[1] == 0

    def test_chain(self):
        q0 = spec(dimensions=("name", "market_id", "date_"), measures=(("n", COUNT),))
        q1 = spec(dimensions=("name", "market_id"), measures=(("n", COUNT),))
        q2 = spec(dimensions=("name",), measures=(("n", COUNT),))
        graph = build_batch_graph([q0, q1, q2])
        assert graph.remote == [0]
        assert set(graph.local) == {1, 2}
        # Both prefer the remote source as provider.
        assert graph.provider_of[1] == 0 and graph.provider_of[2] == 0

    def test_equivalent_specs_keep_one_source(self):
        a = spec(dimensions=("name",), measures=(("n", COUNT),))
        b = spec(dimensions=("name",), measures=(("m", COUNT),))  # same agg, alias differs
        graph = build_batch_graph([a, b])
        assert graph.remote == [0]
        assert graph.local == [1]

    def test_independent_queries_all_remote(self):
        qs = [
            spec(dimensions=("name",), measures=(("n", COUNT),)),
            spec(dimensions=("date_",), measures=(("n", COUNT),)),
            spec(dimensions=("market",), measures=(("n", COUNT),)),
        ]
        graph = build_batch_graph(qs)
        assert graph.remote == [0, 1, 2]
        assert graph.local == []

    def test_describe(self):
        q0 = spec(dimensions=("name", "market_id"), measures=(("n", COUNT),))
        q1 = spec(dimensions=("name",), measures=(("n", COUNT),))
        text = build_batch_graph([q0, q1]).describe()
        assert "1 remote" in text and "1 local" in text
