"""Data Server tests: publishing, user filters, temp sets, refresh."""

import pytest

from repro.clock import VirtualTimeClock
from repro.connectors import SimDbDataSource
from repro.connectors.simdb import ServerProfile
from repro.errors import ServerError
from repro.expr.ast import AggExpr
from repro.queries import CategoricalFilter, QuerySpec
from repro.server import DataServer
from repro.server.tempstate import TempTableState
from repro.tde.storage import Table
from repro.workloads import flights_model, generate_flights

COUNT = AggExpr("count")


@pytest.fixture(scope="module")
def server_env():
    dataset = generate_flights(4000, seed=17)
    db = dataset.load_into_simdb(ServerProfile(time_scale=0))
    server = DataServer()
    server.publish("faa", flights_model(), SimDbDataSource(db))
    return server


def _spec(**kwargs) -> QuerySpec:
    return QuerySpec("faa", **kwargs)


class TestPublishing:
    def test_publish_and_list(self, server_env):
        assert server_env.published_names() == ["faa"]

    def test_duplicate_publish_rejected(self, server_env):
        with pytest.raises(ServerError):
            server_env.publish("faa", flights_model(), None)

    def test_unknown_source(self, server_env):
        with pytest.raises(ServerError):
            server_env.connect("nope", "alice")

    def test_metadata(self, server_env):
        session = server_env.connect("faa", "alice")
        meta = session.metadata()
        assert meta["datasource"] == "faa"
        assert "carrier_name" in meta["schema"]
        assert "weekday" in meta["calculations"]  # shared calc, defined once
        assert meta["supports_temp_tables"] is True

    def test_shared_cache_across_sessions(self, server_env):
        s1 = server_env.connect("faa", "alice")
        s2 = server_env.connect("faa", "bob")
        spec = _spec(dimensions=("carrier_name",), measures=(("n", COUNT),))
        published = server_env.get("faa")
        before = published.pipeline.executor.remote_queries_sent
        s1.query(spec)
        s2.query(spec)
        assert published.pipeline.executor.remote_queries_sent == before + 1


class TestUserFilters:
    def test_row_level_security(self, server_env):
        server_env.set_user_filter("faa", "west_sales", CategoricalFilter("market", ("LAX-SFO",)))
        spec = _spec(dimensions=("market",))
        unrestricted = server_env.connect("faa", "admin").query(spec)
        restricted = server_env.connect("faa", "west_sales").query(spec)
        assert restricted.to_pydict()["market"] == ["LAX-SFO"]
        assert unrestricted.n_rows > 1

    def test_users_do_not_leak(self, server_env):
        server_env.set_user_filter("faa", "narrow", CategoricalFilter("market_id", (0,)))
        spec = _spec(measures=(("n", COUNT),))
        total = server_env.connect("faa", "admin").query(spec).to_pydict()["n"][0]
        narrow = server_env.connect("faa", "narrow").query(spec).to_pydict()["n"][0]
        assert narrow < total


class TestTempSets:
    def test_set_used_in_query(self, server_env):
        session = server_env.connect("faa", "carol")
        session.create_set("myset", "market_id", [0, 1, 2])
        spec = _spec(dimensions=("market_id",), measures=(("n", COUNT),))
        out = session.query(spec, use_sets={"market_id": "myset"})
        assert set(out.to_pydict()["market_id"]) <= {0, 1, 2}

    def test_traffic_saving(self, server_env):
        """Re-using a set beats re-shipping a giant filter every query."""
        values = list(range(0, 12)) * 40  # deliberately noisy client list
        inline_session = server_env.connect("faa", "dave")
        set_session = server_env.connect("faa", "erin")
        set_session.create_set("big", "market_id", values)
        spec_inline = _spec(
            dimensions=("market_id",),
            measures=(("n", COUNT),),
            filters=(CategoricalFilter("market_id", tuple(values)),),
        )
        spec_bare = _spec(dimensions=("market_id",), measures=(("n", COUNT),))
        for _ in range(5):
            inline_session.query(spec_inline)
            set_session.query(spec_bare, use_sets={"market_id": "big"})
        assert set_session.bytes_from_client < inline_session.bytes_from_client / 2

    def test_wrong_field(self, server_env):
        session = server_env.connect("faa", "frank")
        session.create_set("s1", "market_id", [1])
        with pytest.raises(ServerError):
            session.query(
                _spec(dimensions=("market_id",)), use_sets={"carrier_id": "s1"}
            )

    def test_unknown_handle(self, server_env):
        session = server_env.connect("faa", "gina")
        with pytest.raises(ServerError):
            session.query(_spec(dimensions=("market_id",)), use_sets={"market_id": "zz"})

    def test_sets_released_on_close(self, server_env):
        published = server_env.get("faa")
        session = server_env.connect("faa", "henry")
        session.create_set("tmp", "market_id", [5])
        before = len(published.temp_state)
        session.close()
        assert len(published.temp_state) == before - 1
        with pytest.raises(ServerError):
            session.query(_spec(dimensions=("market_id",)))


class TestTempTableState:
    def test_identical_contents_shared(self):
        state = TempTableState()
        t = Table.from_pydict({"x": [1, 2]})
        a = state.register("a", t)
        b = state.register("b", Table.from_pydict({"x": [1, 2]}))
        assert a == b  # one shared definition
        assert state.shared_hits == 1
        assert len(state) == 1
        state.release(a)
        assert len(state) == 1  # still referenced by b's handle
        state.release(a)
        assert len(state) == 0

    def test_different_contents_distinct(self):
        state = TempTableState()
        a = state.register("a", Table.from_pydict({"x": [1]}))
        b = state.register("a", Table.from_pydict({"x": [2]}))
        assert a != b
        assert len(state) == 2

    def test_expiry(self):
        state = TempTableState(idle_ttl_s=0.0)
        state.register("a", Table.from_pydict({"x": [1]}))
        assert state.expire_idle() == 1
        assert len(state) == 0
        # On the owner's virtual clock a definition is reclaimed only once
        # virtual time passes the TTL since its last use.
        clock = VirtualTimeClock()
        state = TempTableState(idle_ttl_s=60.0, clock=clock)
        name = state.register("a", Table.from_pydict({"x": [1]}))
        clock.advance(45.0)
        state.get(name)  # a use restarts the idle window
        clock.advance(60.0)
        assert state.expire_idle() == 0
        clock.advance(0.5)
        assert state.expire_idle() == 1
        assert len(state) == 0

    def test_get_missing(self):
        with pytest.raises(ServerError):
            TempTableState().get("nope")


class TestRefresh:
    def test_refresh_invalidates_and_counts(self):
        dataset = generate_flights(500, seed=3)
        db = dataset.load_into_simdb(ServerProfile(time_scale=0))
        server = DataServer()
        server.publish("faa", flights_model(), SimDbDataSource(db))
        session = server.connect("faa", "alice")
        spec = _spec(measures=(("n", COUNT),))
        session.query(spec)
        pipeline = server.get("faa").pipeline
        sent_before = pipeline.executor.remote_queries_sent
        assert server.refresh_extract("faa") == 1
        session.query(spec)  # cache was purged → must re-fetch
        assert pipeline.executor.remote_queries_sent == sent_before + 1

    def test_shared_extract_refresh_scaling(self):
        """One published extract, N workbooks: one refresh total (E14)."""
        dataset = generate_flights(500, seed=3)
        db = dataset.load_into_simdb(ServerProfile(time_scale=0))
        server = DataServer()
        server.publish("faa", flights_model(), SimDbDataSource(db))
        sessions = [server.connect("faa", f"user{i}") for i in range(10)]
        for s in sessions:
            s.query(_spec(measures=(("n", COUNT),)))
        server.refresh_extract("faa")
        assert server.get("faa").refresh_count == 1
