"""The operator endpoints: statz() across VizServer, TdeCluster, DataServer.

Structure tests for the one snapshot an operator polls: the skeleton is
always present (so callers probe unconditionally), the windowed sections
appear exactly when telemetry is on, and every slow-log entry the servers
admit carries conserved per-request ledgers plus its EXPLAIN capture.
"""

import math

import pytest

from repro.connectors import SimDbDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.cache.replicated import ReplicatedStore
from repro.expr.ast import AggExpr
from repro.clock import VirtualTimeClock
from repro.obs.window import TelemetryOptions
from repro.queries import QuerySpec
from repro.server import DataServer, TdeCluster, VizServer
from repro.workloads import fig2_dashboard, flights_model, generate_flights

DATASET = generate_flights(2000, seed=23)
DASHBOARD = "market-carrier-airline"
QUERY = '(aggregate (carrier_id) ((n (count))) (scan "Extract.flights"))'
COUNT = AggExpr("count")


def _loader(engine):
    DATASET.load_into_engine(engine)


def assert_ledgers_conserved(entry: dict) -> None:
    """Every per-zone ledger in a slow-log entry sums exactly to its wall."""
    assert entry["ledgers"], entry["key"]
    for zone, ledger in entry["ledgers"].items():
        total = sum(ledger["phases"].values())
        assert math.isclose(total, ledger["wall_s"], rel_tol=0, abs_tol=1e-6), (
            entry["key"],
            zone,
        )


# ---------------------------------------------------------------------- #
class TestVizServerStatz:
    def _server(self, n_nodes=2, telemetry=TelemetryOptions(slowlog_capacity=4)):
        db = DATASET.load_into_simdb(ServerProfile(time_scale=0))
        server = VizServer(
            n_nodes,
            SimDbDataSource(db),
            flights_model(),
            store=ReplicatedStore(("cache0",), replication=1, latency_s=0.0),
            telemetry=telemetry,
        )
        server.register_dashboard(fig2_dashboard())
        return server

    def test_skeleton_is_always_available(self):
        server = self._server(telemetry=None)
        server.load("alice", DASHBOARD)
        statz = server.statz()
        assert statz["telemetry_enabled"] is False
        assert statz["nodes"]["node0"]["requests_handled"] == 1
        assert "coalesce" in statz
        # None of the windowed sections leak in with telemetry off.
        for key in ("window", "dimensions", "slo", "slowlog", "requests"):
            assert key not in statz

    def test_statz_reflects_served_requests(self):
        server = self._server()
        for user in ("alice", "bob", "carol"):
            server.load(user, DASHBOARD)
        server.select("alice", DASHBOARD, "market", ["LAX-SFO"])
        statz = server.statz()
        assert statz["telemetry_enabled"] is True
        handled = sum(n["requests_handled"] for n in statz["nodes"].values())
        assert handled == 4
        assert statz["requests"] == {"total": 4, "degraded": 0, "failed": 0}
        assert statz["window"]["count"] == 4
        assert statz["slo"]["state"] == "ok"
        assert statz["slo"]["good_total"] + statz["slo"]["bad_total"] == 4

    def test_dimensions_break_down_by_request_attributes(self):
        server = self._server()
        server.load("alice", DASHBOARD)
        server.load("bob", DASHBOARD)
        dims = server.statz()["dimensions"]
        assert set(dims) == {"dashboard", "session", "node", "backend"}
        assert dims["dashboard"]["keys"][DASHBOARD]["count"] == 2
        assert set(dims["session"]["keys"]) == {"alice", "bob"}
        # Round-robin: the two loads land on distinct nodes.
        assert set(dims["node"]["keys"]) == {"node0", "node1"}

    def test_slowlog_entries_carry_conserved_ledgers_and_explain(self):
        server = self._server()
        server.load("alice", DASHBOARD)
        server.select("alice", DASHBOARD, "market", ["LAX-SFO"])
        slowlog = server.statz()["slowlog"]
        assert slowlog["capacity"] == 4
        assert slowlog["admitted"] >= 1
        keys = [e["key"] for e in slowlog["entries"]]
        assert f"alice/{DASHBOARD}/load" in keys
        for entry in slowlog["entries"]:
            assert entry["outcome"] == "ok"
            assert entry["context"]["node"] in {"node0", "node1"}
            assert_ledgers_conserved(entry)
            explain = entry["explain"]
            assert explain is not None
            assert set(explain) == {"zone", "spec", "decision", "query", "plan"}
            assert explain["zone"] in entry["ledgers"]

    def test_slowlog_threshold_keeps_fast_requests_out(self):
        server = self._server(
            telemetry=TelemetryOptions(slowlog_capacity=4, slow_threshold_s=60.0)
        )
        server.load("alice", DASHBOARD)
        slowlog = server.statz()["slowlog"]
        assert slowlog["admitted"] == 0 and slowlog["entries"] == []


# ---------------------------------------------------------------------- #
class TestTdeClusterStatz:
    def test_health_counts_load_and_failures(self):
        cluster = TdeCluster(2, _loader)
        for _ in range(4):
            cluster.query(QUERY)
        with pytest.raises(Exception):
            cluster.query("(bogus")
        health = cluster.health()
        assert health["queries_served"] == 5
        assert health["failures"] == 1
        assert set(health["nodes"]) == {"node0", "node1"}
        assert all(n["in_flight"] == 0 for n in health["nodes"].values())

    def test_statz_without_telemetry_is_health_only(self):
        cluster = TdeCluster(1, _loader)
        cluster.query(QUERY)
        statz = cluster.statz()
        assert statz["telemetry_enabled"] is False
        assert "fleet" not in statz
        assert "window" not in statz["nodes"]["node0"]

    def test_fleet_rollup_merges_node_windows(self):
        clock = VirtualTimeClock()
        cluster = TdeCluster(2, _loader, telemetry=True, clock=clock)
        for _ in range(6):
            cluster.query(QUERY)
        statz = cluster.statz()
        assert statz["telemetry_enabled"] is True
        nodes = statz["dimensions"]["node"]["keys"]
        per_node = [nodes[f"node{i}"]["count"] for i in range(2)]
        assert per_node == [3, 3]  # round-robin split
        # The fleet window and SLO see every query the nodes served, in
        # the same place as on VizServer and DataServer.
        assert statz["window"]["count"] == 6
        assert statz["slo"]["state"] == "ok"
        assert statz["slo"]["good_total"] == 6

    def test_result_cache_hits_count_as_requests(self):
        tier = ReplicatedStore(("cache0",), replication=1, latency_s=0.0)
        cluster = TdeCluster(2, _loader, telemetry=True, result_store=tier)
        for _ in range(3):
            cluster.query(QUERY)
        statz = cluster.statz()
        assert statz["result_cache"]["hits"] == 2
        # A hit is a served request: the SLO and the window must see it.
        assert statz["requests"]["total"] == 3
        assert statz["window"]["count"] == 3
        nodes = statz["dimensions"]["node"]["keys"]
        assert nodes["result_cache"]["count"] == 2


# ---------------------------------------------------------------------- #
class TestDataServerStatz:
    def _server(self, telemetry=True):
        db = DATASET.load_into_simdb(ServerProfile(time_scale=0))
        server = DataServer(telemetry=telemetry)
        server.publish("faa", flights_model(), SimDbDataSource(db))
        return server

    def test_skeleton_lists_published_sources(self):
        server = self._server(telemetry=None)
        server.refresh_extract("faa")
        statz = server.statz()
        assert statz["telemetry_enabled"] is False
        assert statz["published"]["faa"]["refresh_count"] == 1
        # A simdb backend exposes its engine, so plan-cache counters ride
        # along; the refresh above must have invalidated cached plans.
        assert statz["published"]["faa"]["plan_cache"]["invalidations"] >= 1
        assert "window" not in statz

    def test_proxied_queries_feed_the_telemetry_plane(self):
        server = self._server()
        session = server.connect("faa", "alice")
        spec = QuerySpec("faa", dimensions=("carrier_name",), measures=(("n", COUNT),))
        session.query(spec)
        session.query(spec)  # warm: a cache hit still counts as a request
        statz = server.statz()
        assert statz["telemetry_enabled"] is True
        assert statz["requests"]["total"] == 2
        assert statz["window"]["count"] == 2
        assert statz["dimensions"]["source"]["keys"]["faa"]["count"] == 2
        assert statz["dimensions"]["session"]["keys"]["alice"]["count"] == 2

    def test_slowlog_entry_keys_and_ledgers(self):
        server = self._server()
        session = server.connect("faa", "bob")
        spec = QuerySpec("faa", dimensions=("market",), measures=(("n", COUNT),))
        session.query(spec)
        entries = server.statz()["slowlog"]["entries"]
        assert [e["key"] for e in entries] == ["bob/faa/query"]
        (entry,) = entries
        assert entry["outcome"] == "ok"
        assert entry["context"]["spec"] == spec.canonical()
        assert_ledgers_conserved(entry)
        assert entry["explain"]["decision"] is not None


# ---------------------------------------------------------------------- #
TELEMETRY_SECTIONS = ("requests", "window", "dimensions", "slo", "slowlog", "traces")


def _vizserver(telemetry):
    db = DATASET.load_into_simdb(ServerProfile(time_scale=0))
    server = VizServer(1, SimDbDataSource(db), flights_model(), telemetry=telemetry)
    server.register_dashboard(fig2_dashboard())
    return server, lambda: server.load("alice", DASHBOARD)


def _dataserver(telemetry):
    db = DATASET.load_into_simdb(ServerProfile(time_scale=0))
    server = DataServer(telemetry=telemetry)
    server.publish("faa", flights_model(), SimDbDataSource(db))
    session = server.connect("faa", "alice")
    spec = QuerySpec("faa", dimensions=("carrier_name",), measures=(("n", COUNT),))
    return server, lambda: session.query(spec)


def _cluster(telemetry):
    cluster = TdeCluster(2, _loader, telemetry=telemetry)
    return cluster, lambda: cluster.query(QUERY)


@pytest.mark.parametrize(
    "make", [_vizserver, _dataserver, _cluster], ids=["vizserver", "dataserver", "cluster"]
)
def test_every_server_reports_the_same_telemetry_sections(make):
    server, request = make(TelemetryOptions(slow_threshold_s=0.0))
    request()
    statz = server.statz()
    assert statz["telemetry_enabled"] is True
    assert set(TELEMETRY_SECTIONS) <= set(statz)
    assert statz["requests"]["total"] == 1
    assert statz["slowlog"]["admitted"] == 1
    assert len(statz["slowlog"]["entries"]) == 1

    server, request = make(None)
    request()
    statz = server.statz()
    assert statz["telemetry_enabled"] is False
    assert not set(TELEMETRY_SECTIONS) & set(statz)
