"""Dashboard model and rendering tests, incl. the Figure 2 cascade."""

import pytest

from repro.connectors import SimDbDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.dashboard import Dashboard, DashboardSession, FilterAction, Zone
from repro.errors import WorkloadError
from repro.expr.ast import AggExpr
from repro.workloads import (
    fig1_dashboard,
    fig2_dashboard,
    flights_model,
    generate_flights,
)

COUNT = AggExpr("count")


@pytest.fixture(scope="module")
def faa_db():
    return generate_flights(6000, seed=9).load_into_simdb(ServerProfile(time_scale=0))


@pytest.fixture
def faa_pipeline_factory(faa_db):
    """Pipelines over one shared database, closed when the test ends.

    Each pipeline pools connections against the database's 32-connection
    limit; leaving a module's worth of them open starves later tests
    (``ConnectionLimitError`` degrades a zone) under unlucky thread timing.
    """
    source = SimDbDataSource(faa_db)
    model = flights_model()
    pipelines = []

    def factory(**options):
        pipelines.append(QueryPipeline(source, model, options=PipelineOptions(**options)))
        return pipelines[-1]

    yield factory
    for pipeline in pipelines:
        pipeline.close()
    assert faa_db.open_connections == 0


class TestDashboardModel:
    def test_duplicate_zone_rejected(self):
        dash = Dashboard("d", "faa")
        dash.add_zone(Zone("z", dimensions=("market",)))
        with pytest.raises(WorkloadError):
            dash.add_zone(Zone("z", dimensions=("market",)))

    def test_action_validation(self):
        dash = Dashboard("d", "faa")
        dash.add_zone(Zone("a", dimensions=("market",)))
        dash.add_zone(Zone("b", dimensions=("code",)))
        with pytest.raises(WorkloadError):
            dash.add_action(FilterAction("missing", "market", ("b",)))
        with pytest.raises(WorkloadError):
            dash.add_action(FilterAction("a", "market", ("missing",)))
        with pytest.raises(WorkloadError):
            dash.add_action(FilterAction("a", "market", ("a",)))

    def test_legend_zone_has_no_query(self):
        zone = Zone("legend", kind="legend")
        assert not zone.has_query

    def test_fig1_structure(self):
        dash = fig1_dashboard()
        assert len(dash.zones) == 9
        assert len(dash.queryable_zones()) == 8  # legend is static
        assert len(dash.actions) == 3

    def test_fig2_structure(self):
        dash = fig2_dashboard()
        assert set(dash.zones) == {"market", "carrier", "airline_name"}
        assert len(dash.actions) == 2


class TestRendering:
    def test_initial_load(self, faa_pipeline_factory):
        session = DashboardSession(fig2_dashboard(), faa_pipeline_factory())
        result = session.render()
        assert result.iterations == 1
        assert set(session.zone_tables) == {"market", "carrier", "airline_name"}
        assert session.zone_tables["carrier"].n_rows <= 5  # top-5 filter

    def test_rerender_is_free(self, faa_pipeline_factory):
        session = DashboardSession(fig2_dashboard(), faa_pipeline_factory())
        session.render()
        again = session.render()
        assert again.iterations == 0
        assert again.remote_queries == 0

    def test_action_filters_targets(self, faa_pipeline_factory):
        session = DashboardSession(fig2_dashboard(), faa_pipeline_factory())
        session.render()
        all_airlines = session.zone_tables["airline_name"].n_rows
        session.select("market", ["HNL-OGG"])
        filtered = session.zone_tables["airline_name"]
        assert filtered.n_rows < all_airlines
        assert filtered.to_pydict()["carrier_name"] == ["Alaska Airlines"]

    def test_fig2_cascade_drops_stale_selection(self, faa_pipeline_factory):
        """Paper Figure 2: select LAX-SFO then AA, then HNL-OGG — AA is
        not a carrier for HNL-OGG, so its selection is eliminated and a
        second iteration refreshes the airline zone without it."""
        session = DashboardSession(fig2_dashboard(), faa_pipeline_factory())
        session.render()
        session.select("market", ["LAX-SFO"])
        session.select("carrier", ["AA"])
        assert session.selections == {"market": ("LAX-SFO",), "carrier": ("AA",)}
        result = session.select("market", ["HNL-OGG"])
        assert result.iterations == 2
        assert ("carrier", "AA") in result.dropped_selections
        assert "carrier" not in session.selections
        assert session.zone_tables["carrier"].to_pydict()["code"] == ["AS"]

    def test_selection_on_zone_without_actions(self, faa_pipeline_factory):
        session = DashboardSession(fig2_dashboard(), faa_pipeline_factory())
        session.render()
        with pytest.raises(WorkloadError):
            session.select("airline_name", ["Delta Air Lines"])

    def test_clear_selection(self, faa_pipeline_factory):
        session = DashboardSession(fig2_dashboard(), faa_pipeline_factory())
        session.render()
        session.select("market", ["LAX-SFO"])
        narrowed = session.zone_tables["airline_name"].n_rows
        session.clear_selection("market")
        assert session.zone_tables["airline_name"].n_rows >= narrowed

    def test_quick_filter_domains_sent_once(self, faa_pipeline_factory):
        """'the queries for the domains of filters ... need to be sent
        only once. Further interactions might change the selection but
        not the domains.' (paper 3.2)"""
        session = DashboardSession(fig1_dashboard(), faa_pipeline_factory())
        session.render()
        first = session.zone_tables["carrier_filter"]
        result = session.select("carrier_filter", ["AA", "DL"])
        assert session.zone_tables["carrier_filter"].equals(first)
        assert result.remote_queries == 0  # all served from cache

    def test_fig1_interactions_hit_cache(self, faa_pipeline_factory):
        session = DashboardSession(fig1_dashboard(), faa_pipeline_factory())
        load = session.render()
        assert load.remote_queries > 0
        interaction = session.select("origin_map", [0])
        assert interaction.remote_queries == 0
        assert interaction.cache_hits > 0

    def test_caching_disabled_still_correct(self, faa_pipeline_factory):
        cached = DashboardSession(fig2_dashboard(), faa_pipeline_factory())
        uncached = DashboardSession(
            fig2_dashboard(),
            faa_pipeline_factory(
                enable_intelligent_cache=False,
                enable_literal_cache=False,
                enable_fusion=False,
                enable_batch_graph=False,
                enrich_for_reuse=False,
            ),
        )
        cached.render()
        uncached.render()
        cached.select("market", ["JFK-BOS"])
        uncached.select("market", ["JFK-BOS"])
        for zone in ("market", "carrier", "airline_name"):
            assert cached.zone_tables[zone].approx_equals(
                uncached.zone_tables[zone], ordered=False
            ), zone
