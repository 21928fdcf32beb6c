"""Public API surface checks: imports, explain output, package metadata."""

import pytest


class TestPackageSurface:
    def test_top_level_version(self):
        import repro

        assert repro.__version__

    def test_core_exports(self):
        from repro.core import (  # noqa: F401
            BatchResult,
            CacheIndex,
            ConcurrentQueryExecutor,
            DistributedQueryCache,
            EvictionPolicy,
            IntelligentCache,
            InteractionPrefetcher,
            KeyValueStore,
            LiteralCache,
            PipelineOptions,
            QueryPipeline,
            build_batch_graph,
            enrich_spec,
            fuse_batch,
            match_specs,
        )

    def test_server_exports(self):
        from repro.server import (  # noqa: F401
            DataServer,
            RefreshScheduler,
            ShardedTdeCluster,
            TdeCluster,
            TempTableState,
            VizServer,
        )

    def test_connectors_exports(self):
        from repro.connectors import (  # noqa: F401
            ConnectionPool,
            FileDataSource,
            JetLikeDataSource,
            ServerProfile,
            ShadowExtractStore,
            SimDbDataSource,
            SimulatedDatabase,
            TdeDataSource,
        )

    def test_lazy_tde_entry_point(self):
        import repro.tde

        assert repro.tde.DataEngine.__name__ == "DataEngine"
        with pytest.raises(AttributeError):
            repro.tde.NotAThing  # noqa: B018


class TestExplainLabels:
    def test_all_operator_labels_render(self, flights_engine):
        cases = {
            "IndexedRleScan": '(select (= date_ (date "2014-03-05")) (scan "Extract.flights"))',
            "HashJoin": '(aggregate (name) ((n (count))) (join inner ((carrier_id id))'
            ' (scan "Extract.flights") (scan "Extract.carriers")))',
            "TopN": '(topn 2 ((delay desc)) (scan "Extract.flights"))',
            "Limit": '(limit 2 (scan "Extract.flights"))',
            "Window": '(window ((pct share id)) (scan "Extract.carriers"))',
        }
        for label, query in cases.items():
            assert label in flights_engine.explain(query), label
        query = '(order ((delay desc)) (scan "Extract.flights"))'
        lines = flights_engine.explain(query).splitlines()
        assert lines[1].startswith("#0 Sort(delay)")
        assert lines[2].startswith("  #1 Exchange(degree=")

    def test_explain_shows_fragment_ranges(self, flights_engine):
        text = flights_engine.explain(
            '(aggregate () ((n (count))) (scan "Extract.flights"))'
        )
        assert "Scan[0:" in text and "Exchange(degree=" in text
