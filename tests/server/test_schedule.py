"""Refresh scheduler tests (paper §2's automatic extract refreshes)."""

import pytest

from repro.clock import VirtualTimeClock
from repro.connectors import SimDbDataSource
from repro.connectors.simdb import ServerProfile
from repro.errors import ServerError
from repro.expr.ast import AggExpr
from repro.queries import QuerySpec
from repro.server import DataServer
from repro.server.schedule import RefreshScheduler
from repro.workloads import flights_model, generate_flights


@pytest.fixture()
def env():
    dataset = generate_flights(500, seed=51)
    db = dataset.load_into_simdb(ServerProfile(time_scale=0))
    server = DataServer()
    server.publish("faa", flights_model(), SimDbDataSource(db))
    clock = VirtualTimeClock()
    return server, RefreshScheduler(server, clock=clock), clock


class TestScheduling:
    def test_fires_on_interval(self, env):
        server, scheduler, clock = env
        scheduler.schedule("faa", interval_s=3600)
        assert scheduler.run_due() == []
        clock.advance(3600)
        events = scheduler.run_due()
        assert [e.name for e in events] == ["faa"]
        assert server.get("faa").refresh_count == 1

    def test_repeated_fires(self, env):
        _server, scheduler, clock = env
        scheduler.schedule("faa", interval_s=100)
        for _ in range(3):
            clock.advance(100)
            assert len(scheduler.run_due()) == 1
        assert len(scheduler.history) == 3

    def test_catchup_collapses(self, env):
        """Missing several slots yields one refresh, not a burst."""
        server, scheduler, clock = env
        scheduler.schedule("faa", interval_s=10)
        clock.advance(95)
        events = scheduler.run_due()
        assert len(events) == 1
        assert server.get("faa").refresh_count == 1
        name, next_fire = scheduler.next_due()
        assert next_fire > clock.monotonic()

    def test_first_delay_override(self, env):
        _server, scheduler, clock = env
        scheduler.schedule("faa", interval_s=1000, first_delay_s=1)
        clock.advance(2)
        assert len(scheduler.run_due()) == 1

    def test_unschedule(self, env):
        _server, scheduler, clock = env
        scheduler.schedule("faa", interval_s=10)
        scheduler.unschedule("faa")
        clock.advance(100)
        assert scheduler.run_due() == []
        assert scheduler.next_due() is None
        with pytest.raises(ServerError):
            scheduler.unschedule("faa")

    def test_validation(self, env):
        _server, scheduler, _clock = env
        with pytest.raises(ServerError):
            scheduler.schedule("faa", interval_s=0)
        with pytest.raises(ServerError):
            scheduler.schedule("ghost", interval_s=10)
        scheduler.schedule("faa", interval_s=10)
        with pytest.raises(ServerError):
            scheduler.schedule("faa", interval_s=10)

    def test_refresh_purges_caches_end_to_end(self, env):
        server, scheduler, clock = env
        session = server.connect("faa", "alice")
        spec = QuerySpec("faa", measures=(("n", AggExpr("count")),))
        session.query(spec)
        pipeline = server.get("faa").pipeline
        sent = pipeline.executor.remote_queries_sent
        session.query(spec)  # cached
        assert pipeline.executor.remote_queries_sent == sent
        scheduler.schedule("faa", interval_s=60)
        clock.advance(60)
        scheduler.run_due()
        session.query(spec)  # purged on refresh → refetch
        assert pipeline.executor.remote_queries_sent == sent + 1
