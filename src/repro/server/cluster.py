"""TDE cluster deployment (paper 4.1.4).

"When the TDE is used in the server environment, it is deployed either as
a shared-nothing architecture or shared-everything architecture. Each node
in the cluster is a separate TDE program. In the shared-everything
architecture, storage is shared across all the nodes. A load balancer
dispatches queries to different nodes in the TDE cluster."
"""

from __future__ import annotations

import threading
from typing import Callable

from .. import obs
from ..clock import SYSTEM_CLOCK, Clock
from ..core.cache.distributed import DistributedQueryCache
from ..errors import ServerError
from ..obs.window import Telemetry, TelemetryOptions, compose_statz, make_telemetry
from ..tde.engine import DataEngine
from ..tde.plancache import normalize_tql
from ..tde.storage.table import Table


class _Node:
    def __init__(self, node_id: int, engine: DataEngine):
        self.node_id = node_id
        self.engine = engine
        self.in_flight = 0
        self.queries_served = 0
        self.failures = 0


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
        telemetry: TelemetryOptions | bool | None = None,
        result_store=None,
        clock: Clock = SYSTEM_CLOCK,
    ):
        """``loader`` populates one engine with tables and constraints.

        Shared-everything builds one storage database and points every
        node's engine at it; shared-nothing calls the loader once per
        node, giving each node its own replica. With ``telemetry`` on,
        every query is recorded in the cluster's telemetry plane under
        the dimension ``node``: the fleet window and SLO cover every
        query, and ``statz()["dimensions"]["node"]`` splits it per node.

        ``result_store`` (a ReplicatedStore) adds a cluster-wide result
        cache in front of the balancer: string queries are keyed on
        normalized TQL **plus the catalog version**, the plan cache's
        invalidation discipline — a refresh or DDL bumps the version, so
        stale results can never be served after one.
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
        self.clock = clock
        self.telemetry: Telemetry | None = make_telemetry(telemetry, clock=clock)
        self.result_cache: DistributedQueryCache | None = (
            DistributedQueryCache(result_store, "tde-cluster", clock=clock)
            if result_store is not None
            else None
        )
        self.result_cache_hits = 0
        self.result_cache_misses = 0
        self.nodes: list[_Node] = []
        if mode == "shared-everything":
            primary = DataEngine("tde-cluster")
            loader(primary)
            for i in range(n_nodes):
                engine = DataEngine(f"node{i}")
                engine.database = primary.database  # shared storage
                engine.catalog = primary.catalog
                self.nodes.append(_Node(i, engine))
        else:
            for i in range(n_nodes):
                engine = DataEngine(f"node{i}")
                loader(engine)
                self.nodes.append(_Node(i, engine))

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
        cursor = obs.get_events().cursor() if self.telemetry is not None else 0
        started = self.clock.monotonic() if self.telemetry is not None else 0.0
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
                self._record(None, "result_cache", started, cursor, failed=False)
                return -1, cached
            with self._lock:
                self.result_cache_misses += 1
        node = self._pick()
        failed = False
        remote_ctx = obs.TraceContext.from_wire(trace_parent) if trace_parent else None
        sp = None
        try:
            with obs.activate(remote_ctx):
                with obs.span(
                    "cluster.query", node=node.node_id, balancer=self.balancer
                ) as sp:
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
            self._record(sp, f"node{node.node_id}", started, cursor, failed=failed)
        if cache_key is not None:
            self.result_cache.put(cache_key, "tde-cluster", result)
        return node.node_id, result

    def _record(self, sp, node: str, started: float, cursor: int, *, failed: bool) -> None:
        """Feed one served query (a result-cache hit too) into telemetry."""
        if self.telemetry is None:
            return
        self.telemetry.record(
            sp,
            started=started,
            elapsed=self.clock.monotonic() - started,
            cursor=cursor,
            key=f"tde-cluster/{node}/query",
            dimensions={"node": node},
            context=lambda: {"node": node, "balancer": self.balancer},
            failed=failed,
        )

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
        """:meth:`health`, plan-cache counters per node (each compiles
        independently even under shared storage) and summed, the result
        cache, and the telemetry sections when the plane is on.
        """
        snap = self.health()
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
            snap["cache_tier"] = self.result_cache.store.statz()
        return compose_statz(snap, self.telemetry)
