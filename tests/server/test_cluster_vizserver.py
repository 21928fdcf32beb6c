"""TDE cluster and VizServer (distributed cache) tests."""

import pytest

from repro.connectors import SimDbDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.cache.distributed import KeyValueStore
from repro.errors import ServerError
from repro.server import TdeCluster, VizServer
from repro.workloads import fig2_dashboard, flights_model, generate_flights

DATASET = generate_flights(2000, seed=23)


def _loader(engine):
    DATASET.load_into_engine(engine)


QUERY = '(aggregate (carrier_id) ((n (count))) (scan "Extract.flights"))'


class TestTdeCluster:
    def test_shared_everything_has_one_storage_copy(self):
        cluster = TdeCluster(3, _loader, mode="shared-everything")
        assert cluster.storage_copies == 1

    def test_shared_nothing_replicates(self):
        cluster = TdeCluster(3, _loader, mode="shared-nothing")
        assert cluster.storage_copies == 3

    @pytest.mark.parametrize("mode", ["shared-everything", "shared-nothing"])
    def test_all_nodes_answer_identically(self, mode):
        cluster = TdeCluster(3, _loader, mode=mode)
        results = [cluster.query(QUERY) for _ in range(3)]
        node_ids = {node_id for node_id, _t in results}
        assert node_ids == {0, 1, 2}  # round robin visited every node
        first = results[0][1]
        assert all(t.equals_unordered(first) for _n, t in results)

    def test_round_robin_balances(self):
        cluster = TdeCluster(2, _loader)
        for _ in range(6):
            cluster.query(QUERY)
        assert cluster.served_per_node() == [3, 3]

    def test_least_loaded_balancer(self):
        cluster = TdeCluster(2, _loader, balancer="least-loaded")
        for _ in range(4):
            cluster.query(QUERY)
        assert sum(cluster.served_per_node()) == 4

    def test_validation(self):
        with pytest.raises(ServerError):
            TdeCluster(0, _loader)
        with pytest.raises(ServerError):
            TdeCluster(1, _loader, mode="bogus")
        with pytest.raises(ServerError):
            TdeCluster(1, _loader, balancer="bogus")


class TestVizServer:
    def _server(self, n_nodes=3, use_l1=True):
        db = DATASET.load_into_simdb(ServerProfile(time_scale=0))
        store = KeyValueStore(latency_s=0.0)
        server = VizServer(
            n_nodes, SimDbDataSource(db), flights_model(), store=store, use_l1=use_l1
        )
        server.register_dashboard(fig2_dashboard())
        server._db = db
        return server

    def test_requests_round_robin(self):
        server = self._server()
        nodes = {server.load(f"user{i}", "market-carrier-airline")[0] for i in range(3)}
        assert nodes == {"node0", "node1", "node2"}

    def test_distributed_cache_keeps_nodes_warm(self):
        """Same dashboard, different serving nodes: the second node pulls
        the first node's results from the shared store instead of the
        backend (paper 3.2: "keeping data warm regardless of which node
        handles particular requests")."""
        server = self._server(n_nodes=2)
        _node_a, first = server.load("alice", "market-carrier-airline")
        backend_after_first = server._db.stats.queries
        _node_b, second = server.load("bob", "market-carrier-airline")
        assert server._db.stats.queries == backend_after_first  # no new backend work
        summary = server.cache_summary()
        assert summary["l2_hits"] >= 1

    def test_unknown_dashboard(self):
        server = self._server(1)
        with pytest.raises(ServerError):
            server.load("alice", "nope")

    def test_interaction_through_server(self):
        server = self._server(2)
        server.load("alice", "market-carrier-airline")
        _node, result = server.select("alice", "market-carrier-airline", "market", ["LAX-SFO"])
        assert result.iterations >= 1
        session = server._sessions[("alice", "market-carrier-airline")]
        assert session.selections == {"market": ("LAX-SFO",)}

    def test_sessions_are_bounded_least_recently_used_first(self, monkeypatch):
        from repro.server import vizserver

        monkeypatch.setattr(vizserver, "MAX_SESSIONS", 3)
        server = self._server(1)
        dashboard = "market-carrier-airline"
        server.load("alice", dashboard)
        server.select("alice", dashboard, "market", ["LAX-SFO"])
        for user in ("bob", "carol"):
            server.load(user, dashboard)
        server.load("alice", dashboard)  # alice is the most recent again
        server.load("dave", dashboard)  # a fourth user: bob is forgotten
        assert [user for user, _ in server._sessions] == ["carol", "alice", "dave"]
        assert server._sessions[("alice", dashboard)].selections == {"market": ("LAX-SFO",)}
        _node, again = server.load("bob", dashboard)  # starts over, and renders whole
        assert not again.degraded and len(again.zone_tables) == 3
        assert len(server._sessions) == 3

    def test_l1_vs_l2(self):
        server = self._server(1)
        server.load("a", "market-carrier-airline")
        server.load("b", "market-carrier-airline")
        summary = server.cache_summary()
        # Same node twice: second load served by node-local caches.
        assert summary["remote_queries"] <= 4
