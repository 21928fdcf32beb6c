"""Per-request EXPLAIN surfacing: pipeline.explain_batch, VizServer.explain."""

import pytest

import repro.core.cache.intelligent as intelligent
import repro.core.pipeline as pipeline_module
from repro import obs
from repro.connectors import SimDbDataSource, TdeDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.dashboard import DashboardSession
from repro.queries import CategoricalFilter, QuerySpec
from repro.workloads import fig1_dashboard, fig2_dashboard, flights_model, generate_flights
from tests.difftest.gen import gen_specs

from .conftest import AVG_DELAY, COUNT, ENGINE, SUM_DELAY, make_model, make_source


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs.disable()


def _spec(measures, markets=(0, 1, 2)):
    return QuerySpec(
        "faa",
        dimensions=("name",),
        measures=measures,
        filters=(CategoricalFilter("market_id", markets),),
    )


class TestExplainBatch:
    def test_cold_batch_reports_fusion_and_plans(self):
        pipeline = QueryPipeline(make_source(), make_model())
        reports = pipeline.explain_batch(
            [
                _spec((("n", COUNT),)),
                _spec((("s", SUM_DELAY),)),
                _spec((("n", COUNT),), markets=(4,)),  # different relation
            ]
        )
        assert len(reports) == 3
        decisions = [r["decision"] for r in reports]
        assert decisions[2] == "sent remote"
        for decision in decisions[:2]:
            assert decision == "sent remote in one aggregate query shared by 2 queries"
        assert [r["merged"]["set"] for r in reports[:2]] == [None, None]
        # Enrichment widened what is sent (the filter field joined the
        # dimensions), so every spec — the lone "sent remote" one too —
        # is rolled up locally, exactly as the run does.
        assert [r["post_ops"] for r in reports] == [
            ["LocalAggregate", "LocalProject"],
            ["LocalAggregate"],
            ["LocalAggregate", "LocalProject"],
        ]
        for report in reports:
            assert report["language"] == "sql"
            assert report["text"]  # the generated SQL
            assert "== physical plan ==" in report["plan"]
            assert "== optimizer provenance ==" in report["plan"]

    def test_cached_spec_reports_cache_decision(self):
        pipeline = QueryPipeline(make_source(), make_model())
        spec = _spec((("n", COUNT), ("a", AVG_DELAY)))
        pipeline.run_batch([spec])
        report = pipeline.explain_batch([spec])[0]
        assert "cache" in report["decision"]
        assert report.get("plan") is None  # nothing would run remotely

    def test_analyze_includes_actuals(self):
        pipeline = QueryPipeline(make_source(), make_model())
        report = pipeline.explain_batch([_spec((("n", COUNT),))], analyze=True)[0]
        assert "actual=" in report["plan"]


class TestVizServerExplain:
    def test_per_zone_reports(self):
        from repro.connectors import SimDbDataSource
        from repro.connectors.simdb import ServerProfile
        from repro.core.cache.replicated import ReplicatedStore
        from repro.server import VizServer
        from repro.workloads import fig2_dashboard, flights_model, generate_flights

        data = generate_flights(2000, seed=23)
        db = data.load_into_simdb(ServerProfile(time_scale=0))
        server = VizServer(
            1,
            SimDbDataSource(db),
            flights_model(),
            store=ReplicatedStore(("cache0",), replication=1, latency_s=0.0),
        )
        server.register_dashboard(fig2_dashboard())
        server.load("alice", "market-carrier-airline")
        result = server.explain("alice", "market-carrier-airline")
        assert result["dashboard"] == "market-carrier-airline"
        assert result["zones"]
        for _zone, report in result["zones"].items():
            assert report["decision"]
            assert report["spec"].startswith("(query faa")
        # The dashboard was just loaded, so the specs are warm.
        assert any(
            "cache" in report["decision"] for report in result["zones"].values()
        )


class TestExplainEqualsRun:
    """EXPLAIN narrates the plan the run executes: same text sent, same
    operators applied locally — per seeded spec, on a cold pipeline with
    the default options."""

    @pytest.mark.parametrize(
        "reuse_fields", [frozenset(), frozenset({"carrier_id", "market"})]
    )
    def test_text_and_post_ops_match_the_run(self, monkeypatch, reuse_fields):
        applied: list[str] = []
        real_apply = pipeline_module.apply_post_ops

        def recording_apply(table, ops):
            applied.extend(type(op).__name__ for op in ops)
            return real_apply(table, ops)

        # A member's answer is split off the fetched result either by the
        # intelligent cache (its lookup applies the ops) or by the
        # pipeline directly; record both.
        monkeypatch.setattr(pipeline_module, "apply_post_ops", recording_apply)
        monkeypatch.setattr(intelligent, "apply_post_ops", recording_apply)

        source, model = make_source(), make_model()
        for spec in gen_specs(1337, 220):
            pipeline = QueryPipeline(source, model)
            sent: list[str] = []
            real_run = pipeline.executor.run_batch

            def recording_run(compiled, real_run=real_run, sent=sent, **kwargs):
                sent.extend(c.text for c in compiled)
                return real_run(compiled, **kwargs)

            pipeline.executor.run_batch = recording_run  # this pipeline only
            try:
                report = pipeline.explain_batch([spec], reuse_fields=reuse_fields)[0]
                assert applied == [] and sent == []  # a dry run
                assert pipeline.run_batch([spec], reuse_fields=reuse_fields).ok
            finally:
                pipeline.close()
            assert [report["text"]] == sent, spec.canonical()
            assert report["post_ops"] == applied, spec.canonical()
            applied.clear()

    @pytest.mark.parametrize("dashboard", [fig1_dashboard, fig2_dashboard])
    def test_a_first_load_batch_over_simdb_matches_the_run(self, monkeypatch, dashboard):
        """A dashboard's first-load batch, with its reuse fields: each
        sent spec's answer is derived by exactly the operators EXPLAIN
        reports for it — also Fig-2's Top-N zone, which another entry
        of the batch could rank locally too."""
        db = generate_flights(2_000, seed=3).load_into_simdb(ServerProfile(time_scale=0))
        source, model = SimDbDataSource(db), flights_model()
        batches: list[tuple[list, frozenset]] = []
        probe = QueryPipeline(source, model)
        real_run_batch = probe.run_batch

        def capture(specs, reuse_fields=frozenset()):
            batches.append((list(specs), reuse_fields))
            return real_run_batch(specs, reuse_fields=reuse_fields)

        probe.run_batch = capture
        DashboardSession(dashboard(), probe).render()
        probe.close()
        specs, reuse = batches[0]
        assert reuse, "a first load hints the fields its actions filter on"

        # Attribute each applied op chain to the key answered next; what
        # ``_fetch`` applied (splitting merged rows) belongs to no key.
        pending: list[list[str]] = []
        applied: dict[str, list[str]] = {}
        real_apply = pipeline_module.apply_post_ops

        def recording_apply(table, ops):
            pending.append([type(op).__name__ for op in ops])
            return real_apply(table, ops)

        monkeypatch.setattr(pipeline_module, "apply_post_ops", recording_apply)
        monkeypatch.setattr(intelligent, "apply_post_ops", recording_apply)
        pipeline = QueryPipeline(source, model)
        real_fetch, real_record = pipeline._fetch, pipeline._record_good

        def fetch(*args):
            outcomes = real_fetch(*args)
            pending.clear()
            return outcomes

        def record(key, table):
            applied[key] = sum(pending, [])
            pending.clear()
            real_record(key, table)

        pipeline._fetch, pipeline._record_good = fetch, record
        try:
            reports = pipeline.explain_batch(specs, reuse_fields=reuse)
            assert pending == [] and applied == {}  # a dry run
            assert pipeline.run_batch(specs, reuse_fields=reuse).ok
        finally:
            pipeline.close()
        sent = [r for r in reports if r["decision"].startswith("sent remote")]
        assert sent
        if dashboard is fig2_dashboard:  # its Top-N zone is sent
            assert any("(topn " in r["spec"] for r in sent)
        for report in sent:
            assert report["post_ops"] == applied[report["spec"]], report["spec"]

    @pytest.mark.parametrize("enrich", [True, False])
    def test_a_merged_tde_batch_matches_the_run(self, monkeypatch, enrich):
        """Against an in-process TDE the batch's same-relation queries go
        out as one grouping-sets query: EXPLAIN shows that one text for
        all of them, and per spec the operators that split its set out
        and then derive its answer — the ones the run applies."""
        applied: list[str] = []
        real_apply = pipeline_module.apply_post_ops

        def recording_apply(table, ops):
            applied.extend(type(op).__name__ for op in ops)
            return real_apply(table, ops)

        monkeypatch.setattr(pipeline_module, "apply_post_ops", recording_apply)
        monkeypatch.setattr(intelligent, "apply_post_ops", recording_apply)
        markets = (CategoricalFilter("market_id", (0, 1, 2)),)
        specs = [
            QuerySpec("faa", ("name",), (("n", COUNT),), markets),
            QuerySpec("faa", ("name",), (("s", SUM_DELAY),), markets),  # the first's grain
            QuerySpec("faa", ("market",), (("a", AVG_DELAY),), markets, (("market", False),), 2),
            QuerySpec("faa", (), (("n", COUNT),), markets),
            QuerySpec("faa", ("name",), (("n", COUNT),)),  # another relation: sent alone
        ]
        pipeline = QueryPipeline(
            TdeDataSource(ENGINE),
            make_model(),
            options=PipelineOptions(enrich_for_reuse=enrich, enable_batch_graph=False),
        )
        sent: list[str] = []
        real_run = pipeline.executor.run_batch

        def recording_run(compiled, **kwargs):
            sent.extend(c.text for c in compiled)
            return real_run(compiled, **kwargs)

        pipeline.executor.run_batch = recording_run
        try:
            reports = pipeline.explain_batch(specs)
            assert applied == [] and sent == []  # a dry run
            result = pipeline.run_batch(specs)
        finally:
            pipeline.close()
        assert result.ok and result.remote_queries == 2 and result.fused_away == 3
        merged, alone = reports[:4], reports[4]
        assert list(dict.fromkeys(r["text"] for r in reports)) == sent
        assert sent[0].startswith("(grouping-sets ") and "merged" not in alone
        assert [r["merged"]["set"] for r in merged] == [0, 0, 1, 2]
        assert "GroupingSets(3 sets" in merged[0]["plan"]
        for report in merged:
            assert "in one grouping-sets query shared by 4 queries, as set" in report["decision"]
            assert report["merged"]["form"] == "grouping-sets"
            assert len(report["merged"]["with"]) == 3
        assert merged[2]["merged"]["columns"][0] == "market"
        # Un-enriched, the third spec keeps its ORDER BY / LIMIT: the sets
        # carry neither, so the split re-applies it.
        assert merged[2]["merged"]["post_ops"] == ([] if enrich else ["LocalTopN"])
        # The run splits every part out first, then derives each spec.
        splits = [r["merged"]["post_ops"] for r in merged]
        derivations = [r["post_ops"] for r in reports]
        assert applied == sum(splits + derivations, [])
