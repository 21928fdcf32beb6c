"""Cross-layer integration tests: limited backends, failure injection,
multi-source pipelines, and empty-data edge flows."""

import threading

import pytest

from repro.connectors import SimDbDataSource, TdeDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.pipeline import QueryPipeline
from repro.dashboard import DashboardSession
from repro.errors import ReproError, SourceError
from repro.expr.ast import AggExpr, ColumnRef
from repro.queries import CategoricalFilter, QuerySpec
from repro.sql.dialects import QUIRKDB
from repro.workloads import fig2_dashboard, flights_model, generate_flights

COUNT = AggExpr("count")
DATASET = generate_flights(5000, seed=41)


def _quirk_source():
    db = DATASET.load_into_simdb(
        ServerProfile(dialect=QUIRKDB, time_scale=0), name="quirk"
    )
    return SimDbDataSource(db)


def _ansi_source():
    db = DATASET.load_into_simdb(ServerProfile(time_scale=0), name="ansi")
    return SimDbDataSource(db)


class TestQuirkBackendEndToEnd:
    """The whole dashboard stack over a backend with no LIMIT, no temp
    tables, tiny IN-lists, and missing functions — everything the
    compiler must hoist into local post-processing (paper 3.1)."""

    def test_fig2_dashboard_matches_ansi(self):
        model = flights_model()
        quirk = DashboardSession(fig2_dashboard(), QueryPipeline(_quirk_source(), model))
        ansi = DashboardSession(fig2_dashboard(), QueryPipeline(_ansi_source(), model))
        quirk.render()
        ansi.render()
        quirk.select("market", ["LAX-SFO"])
        ansi.select("market", ["LAX-SFO"])
        for zone in ("market", "carrier", "airline_name"):
            assert quirk.zone_tables[zone].approx_equals(
                ansi.zone_tables[zone], ordered=False
            ), zone

    def test_big_in_list_without_temp_tables(self):
        model = flights_model()
        pipeline = QueryPipeline(_quirk_source(), model)
        spec = QuerySpec(
            "faa",
            dimensions=("carrier_name",),
            measures=(("n", COUNT),),
            filters=(CategoricalFilter("distance", tuple(range(100, 2000))),),
        )
        reference = QueryPipeline(_ansi_source(), model).run_spec(spec)
        assert pipeline.run_spec(spec).approx_equals(reference, ordered=False)


class TestFig2TopNRankedLocally:
    """Fig. 2's carrier zone is "filtered to the top 5 carriers". Its
    aggregate over (code, market) is bounded by the two dimension tables,
    so the carrier query reads the fact table once and ships the whole
    aggregate, which the client ranks: no ranking subquery, no LIMIT. A
    market selection ranks the market zone's cached (market, code) count
    instead: no selection sends the carrier query."""

    def test_a_load_and_three_market_selections(self):
        db = DATASET.load_into_simdb(ServerProfile(time_scale=0), name="fig2")
        pipeline = QueryPipeline(SimDbDataSource(db), flights_model())
        sent = []
        run_batch = pipeline.executor.run_batch

        def recording(compiled, **kwargs):
            sent.append(list(compiled))
            return run_batch(compiled, **kwargs)

        pipeline.executor.run_batch = recording
        session = DashboardSession(fig2_dashboard(), pipeline)
        # A zone's own dimension leads its (enriched) spec's.
        zones = {"market": "market", "code": "carrier", "carrier_name": "airline_name"}
        remote = []  # per op: the zones whose query went remote
        for market in (None, "HNL-OGG", "LAX-SFO", "JFK-BOS"):
            if market is None:
                session.render()
            else:
                session.select("market", [market])
            remote.append(sorted(zones[q.spec.dimensions[0]] for batch in sent for q in batch))
            carrier = [q for batch in sent for q in batch if q.spec.dimensions[0] == "code"]
            assert len(carrier) == (1 if market is None else 0)
            for query in carrier:
                assert "LIMIT" not in query.text
                assert query.text.count('"Extract"."flights"') == 1
            sent.clear()
        # Each selection re-sent the carrier query before: [["carrier"]] * 3, 6 queries.
        assert remote == [["airline_name", "carrier", "market"]] + [[]] * 3
        assert db.stats.queries == 3
        pipeline.close()


class TestFailureInjection:
    def test_backend_error_propagates_through_concurrent_batch(self):
        model = flights_model()
        source = _ansi_source()
        pipeline = QueryPipeline(source, model)
        good = QuerySpec("faa", dimensions=("carrier_name",), measures=(("n", COUNT),))
        bad = QuerySpec("faa", dimensions=("no_such_field",))
        with pytest.raises(ReproError):
            pipeline.run_batch([good, bad])

    def test_connection_death_mid_session(self):
        source = _ansi_source()
        conn = source.connect()
        conn.close()
        with pytest.raises(SourceError):
            conn.execute('SELECT * FROM "Extract"."flights"')

    def test_pool_recovers_after_worker_error(self):
        model = flights_model()
        pipeline = QueryPipeline(_ansi_source(), model)
        bad = QuerySpec("faa", dimensions=("missing",))
        with pytest.raises(ReproError):
            pipeline.run_spec(bad)
        good = QuerySpec("faa", measures=(("n", COUNT),))
        assert pipeline.run_spec(good).to_pydict() == {"n": [5000]}

    def test_exchange_error_does_not_hang(self, flights_engine):
        """A failing fragment must terminate the whole parallel query."""
        from repro.expr.ast import Call, ColumnRef
        from repro.tde.exec import ExecContext, PExchange, PFilter, PScan, execute_to_table

        table = flights_engine.table("Extract.flights")
        bad = PFilter(PScan(table), Call(">", (ColumnRef("ghost"), ColumnRef("delay"))))
        done = []

        def run():
            try:
                execute_to_table(PExchange([PScan(table, stop=10), bad]), ExecContext())
            except Exception:
                done.append(True)

        t = threading.Thread(target=run, daemon=True)
        t.start()
        t.join(timeout=10)
        assert done == [True]

    def test_simdb_rejects_malformed_sql(self):
        source = _ansi_source()
        conn = source.connect()
        from repro.errors import SqlParseError

        with pytest.raises(SqlParseError):
            conn.execute("SELEKT * FROM x")


class TestMultiSource:
    def test_two_pipelines_do_not_cross_cache(self):
        """Entries are keyed per datasource/model name: two published
        sources with the same shape must not serve each other's rows."""
        half_a = generate_flights(1000, seed=1)
        half_b = generate_flights(2000, seed=2)
        db_a = half_a.load_into_simdb(ServerProfile(time_scale=0), name="a")
        db_b = half_b.load_into_simdb(ServerProfile(time_scale=0), name="b")
        from repro.core.cache.intelligent import IntelligentCache
        from repro.core.cache.literal import LiteralCache

        shared_int = IntelligentCache()
        shared_lit = LiteralCache()
        model_a = flights_model("src_a")
        model_b = flights_model("src_b")
        pipe_a = QueryPipeline(
            SimDbDataSource(db_a), model_a, intelligent_cache=shared_int, literal_cache=shared_lit
        )
        pipe_b = QueryPipeline(
            SimDbDataSource(db_b), model_b, intelligent_cache=shared_int, literal_cache=shared_lit
        )
        count_a = pipe_a.run_spec(QuerySpec("src_a", measures=(("n", COUNT),)))
        count_b = pipe_b.run_spec(QuerySpec("src_b", measures=(("n", COUNT),)))
        assert count_a.to_pydict() == {"n": [1000]}
        assert count_b.to_pydict() == {"n": [2000]}

    def test_tde_and_simdb_agree(self):
        model = flights_model()
        engine = DATASET.load_into_engine()
        tde_pipe = QueryPipeline(TdeDataSource(engine), model)
        sql_pipe = QueryPipeline(_ansi_source(), model)
        spec = QuerySpec(
            "faa",
            dimensions=("market",),
            measures=(("n", COUNT), ("a", AggExpr("avg", ColumnRef("dep_delay")))),
            order_by=(("n", False),),
        )
        assert tde_pipe.run_spec(spec).approx_equals(sql_pipe.run_spec(spec))


class TestEmptyDataFlows:
    def test_empty_filter_result_through_pipeline(self):
        model = flights_model()
        pipeline = QueryPipeline(_ansi_source(), model)
        spec = QuerySpec(
            "faa",
            dimensions=("carrier_name",),
            measures=(("n", COUNT),),
            filters=(CategoricalFilter("distance", (999_999,)),),
        )
        out = pipeline.run_spec(spec)
        assert out.n_rows == 0
        assert out.column_names == ["carrier_name", "n"]

    def test_global_aggregate_over_empty_selection(self):
        model = flights_model()
        pipeline = QueryPipeline(_ansi_source(), model)
        spec = QuerySpec(
            "faa",
            measures=(("n", COUNT), ("s", AggExpr("sum", ColumnRef("dep_delay")))),
            filters=(CategoricalFilter("distance", (999_999,)),),
        )
        out = pipeline.run_spec(spec)
        assert out.to_pydict() == {"n": [0], "s": [None]}

    def test_empty_result_is_cached_and_reused(self):
        model = flights_model()
        pipeline = QueryPipeline(_ansi_source(), model)
        spec = QuerySpec(
            "faa",
            dimensions=("carrier_name",),
            measures=(("n", COUNT),),
            filters=(CategoricalFilter("distance", (999_999,)),),
        )
        pipeline.run_spec(spec)
        again = pipeline.run_batch([spec])
        assert again.remote_queries == 0
