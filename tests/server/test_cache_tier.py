"""The elastic cache tier wired through the serving stack.

Integration contracts for `ReplicatedStore` behind the three servers:

* **VizServer** — zones stay byte-identical while cache nodes die and
  join under a live session; `statz()`/`health()` expose per-node and
  fleet tier counters; EXPLAIN says when a zone's key sits on a replica
  (and that a read would repair lagging copies).
* **DataServer** — published pipelines share the tier (namespaced per
  source), an extract refresh fans invalidation out to every cache
  node, and `statz()` carries the tier snapshot.
* **TdeCluster** — a cluster-wide result cache over the tier
  short-circuits the balancer on normalized-TQL hits and is keyed on
  the catalog version, so DDL orphans stale entries.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.connectors import SimDbDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.cache.distributed import deserialize_table
from repro.core.cache.replicated import ReplicatedStore
from repro.core.pipeline import PipelineOptions
from repro.expr.ast import AggExpr
from repro.clock import VirtualTimeClock
from repro.queries import QuerySpec
from repro.server import DataServer, TdeCluster, VizServer
from repro.tde.storage import Database, pack_database
from repro.tde.storage.table import Table
from repro.workloads import fig2_dashboard, flights_model, generate_flights

DATASET = generate_flights(2000, seed=23)
DASHBOARD = "market-carrier-airline"
QUERY = '(aggregate (carrier_id) ((n (count))) (scan "Extract.flights"))'
COUNT = AggExpr("count")


def _tier(node_ids=("c0", "c1", "c2"), **kwargs) -> ReplicatedStore:
    kwargs.setdefault("replication", 2)
    kwargs.setdefault("clock", VirtualTimeClock())
    kwargs.setdefault("latency_s", 0.0002)
    return ReplicatedStore(node_ids, **kwargs)


def _truncated(payload: bytes) -> bytes:
    return payload[: len(payload) // 2]


def _random_bytes(payload: bytes) -> bytes:
    rng = np.random.default_rng(len(payload))
    return rng.integers(0, 256, len(payload), dtype=np.uint8).tobytes()


def _pre_change_zip(payload: bytes) -> bytes:
    """The same table as ``serialize_table`` wrote it before the wire
    format: a one-table database in the single-file (ZIP) format."""
    db = Database("cache")
    db.add_table("Extract.result", deserialize_table(payload))
    buf = io.BytesIO()
    pack_database(db, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------- #
class TestVizServerOnTier:
    def _server(self, store, **options):
        db = DATASET.load_into_simdb(ServerProfile(time_scale=0))
        server = VizServer(
            2,
            SimDbDataSource(db),
            flights_model(),
            store=store,
            options=PipelineOptions(**options) if options else None,
        )
        server.register_dashboard(fig2_dashboard())
        return server

    def test_statz_and_health_surface_the_tier(self):
        store = _tier()
        server = self._server(store)
        server.load("alice", DASHBOARD)
        statz = server.statz()
        tier = statz["cache_tier"]
        assert tier["fleet"]["live_nodes"] == 3
        assert set(tier["nodes"]) == {"c0", "c1", "c2"}
        assert tier["fleet"]["puts"] > 0  # zones landed in the tier
        health = server.health()
        assert health["cache_tier"]["degraded_cache_nodes"] == []
        store.fail("c1")
        health = server.health()
        assert health["cache_tier"]["live_nodes"] == 2
        assert health["cache_tier"]["degraded_cache_nodes"] == ["c1"]

    def test_a_server_without_a_store_mounts_a_one_node_tier(self):
        db = DATASET.load_into_simdb(ServerProfile(time_scale=0))
        server = VizServer(2, SimDbDataSource(db), flights_model())
        server.register_dashboard(fig2_dashboard())
        server.load("alice", DASHBOARD)
        server.load("bob", DASHBOARD)  # the other node reads the tier
        fleet = server.statz()["cache_tier"]["fleet"]
        assert fleet["live_nodes"] == 1 and fleet["puts"] > 0
        assert server.health()["cache_tier"]["degraded_cache_nodes"] == []
        assert server.cache_summary()["l2_hits"] == fleet["hits"] > 0

    def test_zones_identical_through_kill_and_join(self):
        """A session keeps rendering byte-identical zones while the tier
        loses a node and warms a fresh one — intelligent cache off, so
        answers really route through the tier or the backend."""
        store = _tier()
        server = self._server(store, enable_intelligent_cache=False)
        reference = server.load("alice", DASHBOARD)[1].zone_tables
        store.kill("c1")
        after_kill = server.load("bob", DASHBOARD)[1].zone_tables
        store.join("c9")
        after_join = server.load("carol", DASHBOARD)[1].zone_tables
        assert reference.keys() == after_kill.keys() == after_join.keys()
        for zone, table in reference.items():
            assert table.equals_unordered(after_kill[zone]), zone
            assert table.equals_unordered(after_join[zone]), zone
        assert store.stats.keys_moved > 0  # the join genuinely warmed

    @pytest.mark.parametrize("damage", [_truncated, _random_bytes, _pre_change_zip])
    def test_damaged_entry_costs_one_query_not_the_dashboard(self, damage):
        """A tier entry that does not decode is a miss: the zone is
        recomputed, the render is whole, and the entry is replaced."""
        store = _tier()
        server = self._server(store)
        oracle = server.load("alice", DASHBOARD)[1]  # node 0 fills the tier
        sent = server.cache_summary()["remote_queries"]
        keys = sorted({k for n in store.live_nodes() for k in store.node(n).store.keys()})
        assert len(keys) == sent > 1
        key = keys[0]
        good = store.get(key)
        store.put(key, damage(good))
        result = server.load("bob", DASHBOARD)[1]  # node 1 reads the tier
        assert not result.degraded and not result.zone_errors
        assert result.zone_tables.keys() == oracle.zone_tables.keys()
        for zone, table in oracle.zone_tables.items():
            assert result.zone_tables[zone].equals(table), zone
        summary = server.cache_summary()
        assert summary["corrupt"] == 1
        assert summary["l2_hits"] == len(keys) - 1
        assert summary["remote_queries"] == sent + 1
        assert store.get(key) == good  # recomputed and written back

    def test_explain_notes_replica_placement(self):
        store = _tier()
        server = self._server(store, enable_intelligent_cache=False)
        server.load("alice", DASHBOARD)  # populate the tier
        report = server.explain("alice", DASHBOARD)
        notes = [
            zone["cache_tier"]
            for zone in report["zones"].values()
            if "cache_tier" in zone
        ]
        assert notes, "no zone carried a cache-tier placement note"
        assert all("cache-tier key held by" in note for note in notes)
        # Fail each cache node in turn: the zones whose primary that node
        # is must now explain themselves as replica-fallback serves.
        fallback_notes = []
        for node_id in store.live_nodes():
            store.fail(node_id)
            report = server.explain("alice", DASHBOARD)
            fallback_notes += [
                zone["cache_tier"]
                for zone in report["zones"].values()
                if "cache_tier" in zone and "served from replica" in zone["cache_tier"]
            ]
            store.recover(node_id)
        assert fallback_notes, "no explain ever reported a replica fallback"
        assert any("would back-fill" in note for note in fallback_notes)


# ---------------------------------------------------------------------- #
class TestDataServerOnTier:
    def _server(self, store):
        db = DATASET.load_into_simdb(ServerProfile(time_scale=0))
        server = DataServer(store=store)
        server.publish("faa", flights_model(), SimDbDataSource(db))
        return server

    def test_published_pipelines_share_the_tier(self):
        store = _tier()
        server = self._server(store)
        session = server.connect("faa", "alice")
        spec = QuerySpec("faa", measures=(("n", COUNT),))
        session.query(spec)
        # The literal result landed in the tier, namespaced by source.
        assert any(key.startswith("faa|") for key in _all_keys(store))
        assert server.statz()["cache_tier"]["fleet"]["live_nodes"] == 3

    def test_refresh_fans_invalidation_across_the_tier(self):
        store = _tier()
        server = self._server(store)
        session = server.connect("faa", "alice")
        spec = QuerySpec("faa", measures=(("n", COUNT),))
        session.query(spec)
        assert any(key.startswith("faa|") for key in _all_keys(store))
        fanouts_before = store.stats.invalidation_fanouts
        assert server.refresh_extract("faa") == 1
        # Every node of the tier dropped this source's namespace.
        assert not any(key.startswith("faa|") for key in _all_keys(store))
        assert store.stats.invalidation_fanouts == fanouts_before + 1
        # And the next query re-fetches then re-populates the tier.
        session.query(spec)
        assert any(key.startswith("faa|") for key in _all_keys(store))


def _all_keys(store: ReplicatedStore) -> set[str]:
    keys: set[str] = set()
    for node_id in store.live_nodes():
        keys.update(store.node(node_id).store.keys())
    return keys


# ---------------------------------------------------------------------- #
class TestClusterResultCache:
    def _loader(self, engine):
        DATASET.load_into_engine(engine)

    def test_normalized_hit_short_circuits_the_balancer(self):
        cluster = TdeCluster(2, self._loader, result_store=_tier())
        node_id, first = cluster.query(QUERY)
        assert node_id >= 0
        # Same query, different whitespace: normalizes to the same key.
        hit_id, second = cluster.query(QUERY.replace(") (", ")   ("))
        assert hit_id == -1
        assert second.equals_unordered(first)
        statz = cluster.statz()
        assert statz["result_cache"]["hits"] == 1
        assert statz["result_cache"]["misses"] == 1
        assert statz["cache_tier"]["fleet"]["live_nodes"] == 3
        # The dispatched work happened exactly once.
        assert sum(cluster.served_per_node()) == 1

    def test_ddl_orphans_cached_results(self):
        cluster = TdeCluster(
            2, self._loader, mode="shared-everything", result_store=_tier()
        )
        _node, first = cluster.query(QUERY)
        assert cluster.query(QUERY)[0] == -1  # warm
        # DDL bumps the catalog version: the old entry can't match.
        extra = Table.from_pydict({"x": np.array([1, 2, 3])})
        cluster.nodes[0].engine.create_table("Extract.extra", extra)
        node_id, again = cluster.query(QUERY)
        assert node_id >= 0, "stale result served after DDL"
        assert again.equals_unordered(first)

    def test_kill_between_queries_keeps_serving(self):
        tier = _tier()
        cluster = TdeCluster(2, self._loader, result_store=tier)
        _node, first = cluster.query(QUERY)
        tier.kill("c0")
        node_id, second = cluster.query(QUERY)
        # Served from a surviving replica, or recomputed — never wrong.
        assert second.equals_unordered(first)
        assert node_id in (-1, 0, 1)
