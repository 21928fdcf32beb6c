"""TDE cluster deployment (paper 4.1.4).

"When the TDE is used in the server environment, it is deployed either as
a shared-nothing architecture or shared-everything architecture. Each node
in the cluster is a separate TDE program. In the shared-everything
architecture, storage is shared across all the nodes. A load balancer
dispatches queries to different nodes in the TDE cluster."
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from .. import obs
from ..core.cache.distributed import DistributedQueryCache
from ..errors import ServerError
from ..obs.metrics import Histogram
from ..obs.window import SLOMonitor, SLOObjective, WindowedHistogram
from ..tde.engine import DataEngine
from ..tde.optimizer.catalog import StorageCatalog
from ..tde.optimizer.parallel import PlannerOptions
from ..tde.plancache import normalize_tql
from ..tde.storage.table import Table


class _Node:
    def __init__(self, node_id: int, engine: DataEngine, window: WindowedHistogram | None):
        self.node_id = node_id
        self.engine = engine
        self.in_flight = 0
        self.queries_served = 0
        self.failures = 0
        #: Trailing-window query latency, when cluster telemetry is on.
        self.window = window


class TdeCluster:
    """A cluster of TDE nodes behind a load balancer."""

    MODES = ("shared-nothing", "shared-everything")
    BALANCERS = ("round-robin", "least-loaded")

    def __init__(
        self,
        n_nodes: int,
        loader: Callable[[DataEngine], None],
        *,
        mode: str = "shared-everything",
        balancer: str = "round-robin",
        options: PlannerOptions | None = None,
        telemetry: bool = False,
        slo: SLOObjective | None = None,
        result_store=None,
        clock=None,
    ):
        """``loader`` populates one engine with tables and constraints.

        Shared-everything builds one storage database and points every
        node's engine at it; shared-nothing calls the loader once per
        node, giving each node its own replica. With ``telemetry=True``
        each node keeps a trailing-window latency histogram and the
        cluster evaluates a fleet-level SLO; :meth:`statz` merges the
        per-node windows into a fleet view.

        ``result_store`` (a KeyValueStore or elastic ReplicatedStore)
        adds a cluster-wide result cache in front of the balancer: string
        queries are keyed on normalized TQL **plus the catalog version**,
        the plan cache's invalidation discipline — a refresh or DDL bumps
        the version, so stale results can never be served after one.
        """
        if mode not in self.MODES:
            raise ServerError(f"unknown cluster mode {mode!r}")
        if balancer not in self.BALANCERS:
            raise ServerError(f"unknown balancer {balancer!r}")
        if n_nodes < 1:
            raise ServerError("cluster needs at least one node")
        self.mode = mode
        self.balancer = balancer
        self._lock = threading.Lock()
        self._rr = 0
        self._now = clock.monotonic if clock is not None else time.monotonic
        self.telemetry = telemetry
        self.slo = SLOMonitor(slo, clock=clock) if telemetry else None

        def _window(i: int) -> WindowedHistogram | None:
            if not telemetry:
                return None
            return WindowedHistogram(f"node{i}.query_s", clock=clock)

        self.result_cache: DistributedQueryCache | None = (
            DistributedQueryCache(result_store, "tde-cluster")
            if result_store is not None
            else None
        )
        self.result_cache_hits = 0
        self.result_cache_misses = 0
        self.nodes: list[_Node] = []
        if mode == "shared-everything":
            primary = DataEngine("tde-cluster", options=options)
            loader(primary)
            for i in range(n_nodes):
                engine = DataEngine(f"node{i}", options=options)
                engine.database = primary.database  # shared storage
                engine.catalog = primary.catalog
                self.nodes.append(_Node(i, engine, _window(i)))
        else:
            for i in range(n_nodes):
                engine = DataEngine(f"node{i}", options=options)
                loader(engine)
                self.nodes.append(_Node(i, engine, _window(i)))

    # ------------------------------------------------------------------ #
    def _pick(self) -> _Node:
        with self._lock:
            if self.balancer == "round-robin":
                node = self.nodes[self._rr % len(self.nodes)]
                self._rr += 1
            else:
                # Ties on in_flight break toward the node that has served
                # least, so an idle cluster still spreads instead of
                # hammering whichever node ``min`` sees first.
                node = min(
                    self.nodes, key=lambda n: (n.in_flight, n.queries_served)
                )
            node.in_flight += 1
            return node

    def _result_key(self, tql: str) -> str:
        """Result-cache key: normalized TQL + catalog version.

        Node 0's catalog stamps the version — in shared-everything mode
        the catalog *is* shared, and in shared-nothing mode every node
        was populated by the same loader, so versions advance together.
        A refresh or DDL bumps the pair and orphans every older entry.
        """
        ddl_version, decl_version = self.nodes[0].engine.catalog.version
        return f"tql|{ddl_version}.{decl_version}|{normalize_tql(tql)}"

    def query(
        self, tql: str, *, trace_parent: dict | None = None
    ) -> tuple[int, Table]:
        """Dispatch one query; returns (node_id, result).

        ``trace_parent`` (wire format, from
        :meth:`repro.obs.TraceContext.to_wire`) joins the dispatched
        node's span tree to the caller's trace — the load-balancer hop
        stitches instead of starting a fresh trace.

        With a result cache configured, a hit short-circuits the balancer
        entirely and reports ``node_id = -1``.
        """
        cache_key = None
        if self.result_cache is not None and isinstance(tql, str):
            cache_key = self._result_key(tql)
            cached = self.result_cache.get(cache_key)
            if cached is not None:
                with self._lock:
                    self.result_cache_hits += 1
                if obs.events_enabled():
                    obs.event(
                        "cache.literal",
                        "hit",
                        "cluster result cache served the normalized query "
                        "without dispatching a node",
                        tier="tde-cluster",
                    )
                return -1, cached
            with self._lock:
                self.result_cache_misses += 1
        node = self._pick()
        started = self._now() if self.telemetry else 0.0
        failed = False
        remote_ctx = obs.TraceContext.from_wire(trace_parent) if trace_parent else None
        trace_id = None
        try:
            with obs.activate(remote_ctx):
                with obs.span(
                    "cluster.query", node=node.node_id, balancer=self.balancer
                ) as sp:
                    trace_id = getattr(sp, "trace_id", "") or None
                    result = node.engine.query(tql)
        except Exception:
            failed = True
            raise
        finally:
            with self._lock:
                node.in_flight -= 1
                node.queries_served += 1
                if failed:
                    node.failures += 1
            if self.telemetry:
                elapsed = self._now() - started
                node.window.observe(elapsed, trace_id=trace_id)
                self.slo.record(elapsed)
        if cache_key is not None:
            self.result_cache.put(cache_key, result)
        return node.node_id, result

    def in_flight_snapshot(self) -> list[int]:
        """Momentary per-node in-flight counts (consistent snapshot)."""
        with self._lock:
            return [n.in_flight for n in self.nodes]

    def served_per_node(self) -> list[int]:
        return [n.queries_served for n in self.nodes]

    @property
    def storage_copies(self) -> int:
        """Distinct storage databases held by the cluster."""
        return len({id(n.engine.database) for n in self.nodes})

    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """Cluster liveness view: load, balance and failure counts."""
        with self._lock:
            nodes = {
                f"node{n.node_id}": {
                    "in_flight": n.in_flight,
                    "queries_served": n.queries_served,
                    "failures": n.failures,
                }
                for n in self.nodes
            }
        return {
            "mode": self.mode,
            "balancer": self.balancer,
            "storage_copies": self.storage_copies,
            "queries_served": sum(s["queries_served"] for s in nodes.values()),
            "failures": sum(s["failures"] for s in nodes.values()),
            "nodes": nodes,
        }

    def statz(self) -> dict:
        """Per-node windowed latency merged into a fleet rollup.

        The fleet view folds every node's live window cells into one
        histogram via ``Histogram.merge`` — the same percentile math a
        single node uses, so node and fleet numbers are comparable.
        Each node also reports its plan-cache counters (every node
        compiles independently even under shared storage), summed into a
        fleet ``plan_cache`` rollup.
        """
        snap = self.health()
        snap["telemetry_enabled"] = self.telemetry
        plan_fleet = {"hits": 0, "misses": 0, "evictions": 0, "invalidations": 0}
        for node in self.nodes:
            stats = node.engine.plan_cache.stats()
            snap["nodes"][f"node{node.node_id}"]["plan_cache"] = stats
            for key in plan_fleet:
                plan_fleet[key] += stats[key]
        snap["plan_cache"] = plan_fleet
        if self.result_cache is not None:
            with self._lock:
                snap["result_cache"] = {
                    "hits": self.result_cache_hits,
                    "misses": self.result_cache_misses,
                    "l1_hits": self.result_cache.l1_hits,
                    "l2_hits": self.result_cache.l2_hits,
                    "corrupt": self.result_cache.corrupt,
                }
            tier_statz = getattr(self.result_cache.store, "statz", None)
            if tier_statz is not None:
                snap["cache_tier"] = tier_statz()
        if not self.telemetry:
            return snap
        fleet = Histogram("fleet.query_s")
        for node in self.nodes:
            node_hist = node.window.merged()
            snap["nodes"][f"node{node.node_id}"]["window"] = node_hist.snapshot()
            fleet.merge(node_hist)
        snap["fleet"] = {"window": fleet.snapshot(), "slo": self.slo.snapshot()}
        return snap
