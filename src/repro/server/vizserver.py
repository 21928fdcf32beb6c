"""VizServer: multi-node request handling over the distributed cache.

Paper 3.2, server side: "Tableau Server does not persist the caches but
it utilizes a distributed layer ... This allows sharing data across nodes
in the cluster and keeping data warm regardless of which node handles
particular requests. For efficiency, recent entries are also stored in
memory on the nodes processing particular queries."

Each :class:`ServerNode` runs its own pipeline whose literal cache is a
:class:`~repro.core.cache.distributed.DistributedQueryCache` over the
shared :class:`~repro.core.cache.replicated.ReplicatedStore`, with a
node-local L1.
Requests are routed round-robin, so without the distributed layer every
node would re-fetch the same dashboards from the backend.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict

from .. import obs
from ..clock import SYSTEM_CLOCK, Clock
from ..core.cache.distributed import DistributedQueryCache
from ..core.cache.eviction import EvictionPolicy
from ..core.cache.replicated import ReplicatedStore
from ..core.coalesce import SingleFlightRegistry
from ..core.pipeline import PipelineOptions, QueryPipeline
from ..dashboard.model import Dashboard
from ..dashboard.render import DashboardSession, RenderResult
from ..errors import ServerError
from ..obs.window import Telemetry, TelemetryOptions, compose_statz, make_telemetry
from ..queries.model import DataSourceModel


class ServerNode:
    """One VizServer worker process."""

    def __init__(
        self,
        node_id: str,
        source,
        model: DataSourceModel,
        store: ReplicatedStore,
        *,
        options: PipelineOptions | None = None,
        use_l1: bool = True,
        coalescer: SingleFlightRegistry | None = None,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.node_id = node_id
        self.distributed = DistributedQueryCache(
            store,
            getattr(source, "name", "source"),
            l1_policy=EvictionPolicy(max_entries=64),
            use_l1=use_l1,
            clock=clock,
        )
        self.pipeline = QueryPipeline(
            source,
            model,
            options=options,
            literal_cache=self.distributed,
            coalescer=coalescer,
            clock=clock,
        )
        self.requests_handled = 0


#: Sessions a server remembers. A session pins the zone tables it last
#: rendered (an extract refresh empties the caches, not the sessions), so
#: a registry that only grows is a leak the size of every dashboard ever
#: shown. Past the bound the least recently used session is forgotten and
#: its user starts over with a load, as after any session expiry.
MAX_SESSIONS = 256


class VizServer:
    """A cluster of nodes serving dashboard sessions."""

    def __init__(
        self,
        n_nodes: int,
        source,
        model: DataSourceModel,
        *,
        store: ReplicatedStore | None = None,
        options: PipelineOptions | None = None,
        use_l1: bool = True,
        telemetry: TelemetryOptions | bool | None = None,
        clock: Clock = SYSTEM_CLOCK,
    ):
        if n_nodes < 1:
            raise ServerError("VizServer needs at least one node")
        # Without a configured tier the server mounts a 1-node R=1 ring.
        # `store or ...` would discard an *empty* tier (falsy at len 0).
        self.store = (
            store
            if store is not None
            else ReplicatedStore(("cache0",), replication=1, clock=clock)
        )
        self.clock = clock
        # The telemetry plane (windowed latency, SLO burn, slow-query
        # log) needs per-request ledgers, so enabling it forces
        # enable_ledger into every node's pipeline options.
        self.telemetry: Telemetry | None = make_telemetry(telemetry, clock=clock)
        if self.telemetry is not None:
            options = dataclasses.replace(
                options or PipelineOptions(), enable_ledger=True
            )
        # One single-flight registry for the whole cluster: a herd of
        # identical initial loads coalesces across nodes, not just within
        # the node that happened to serve the first request.
        self.coalescer = SingleFlightRegistry(
            getattr(source, "name", "source"), clock=clock
        )
        self.nodes = [
            ServerNode(
                f"node{i}",
                source,
                model,
                self.store,
                options=options,
                use_l1=use_l1,
                coalescer=self.coalescer,
                clock=clock,
            )
            for i in range(n_nodes)
        ]
        self._sessions: OrderedDict[tuple[str, str], DashboardSession] = OrderedDict()
        self._dashboards: dict[str, Dashboard] = {}
        self._lock = threading.Lock()
        self._rr = 0

    # ------------------------------------------------------------------ #
    def register_dashboard(self, dashboard: Dashboard) -> None:
        with self._lock:
            self._dashboards[dashboard.name] = dashboard

    def _route(self) -> ServerNode:
        with self._lock:
            node = self.nodes[self._rr % len(self.nodes)]
            self._rr += 1
            node.requests_handled += 1
            return node

    def _session(self, user: str, dashboard_name: str) -> DashboardSession:
        key = (user, dashboard_name)
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                if dashboard_name not in self._dashboards:
                    raise ServerError(f"unknown dashboard {dashboard_name!r}")
                session = DashboardSession(
                    self._dashboards[dashboard_name], self.nodes[0].pipeline
                )
                self._sessions[key] = session
                if len(self._sessions) > MAX_SESSIONS:
                    self._sessions.popitem(last=False)
            self._sessions.move_to_end(key)
        return session

    # ------------------------------------------------------------------ #
    def load(
        self, user: str, dashboard_name: str, *, trace_parent=None
    ) -> tuple[str, RenderResult]:
        return self._serve(
            "load", user, dashboard_name, lambda s: s.render(),
            trace_parent=trace_parent,
        )

    def select(
        self, user: str, dashboard_name: str, zone: str, values, *, trace_parent=None
    ) -> tuple[str, RenderResult]:
        return self._serve(
            "select", user, dashboard_name, lambda s: s.select(zone, values),
            trace_parent=trace_parent,
        )

    def _serve(
        self, op, user, dashboard_name, action, *, trace_parent=None
    ) -> tuple[str, RenderResult]:
        node = self._route()
        session = self._session(user, dashboard_name)
        # The event cursor marks where this request starts in the
        # decision-event ring; the slow-query log drains from here so a
        # captured entry carries exactly this request's decisions.
        cursor = obs.get_events().cursor() if self.telemetry is not None else 0
        started = self.clock.monotonic()
        # ``trace_parent`` is the wire form of the caller's TraceContext
        # (a front-end tier, a test's synthetic hop). Activating it makes
        # this request's span a new root adopting the caller's trace_id,
        # exactly as if the request had crossed a process boundary.
        remote_ctx = obs.TraceContext.from_wire(trace_parent) if trace_parent else None
        with obs.activate(remote_ctx):
            with obs.span(
                "vizserver.request", op=op, node=node.node_id, dashboard=dashboard_name
            ) as sp:
                # Any node may serve any request; the session state is
                # shared, the pipeline (and its caches) is the serving
                # node's. The swap happens under the session lock so a
                # concurrent request for the same session never sees a
                # mid-render pipeline change.
                with session.lock:
                    session.pipeline = node.pipeline
                    result = action(session)
                self._note_degradation(sp, result)
        elapsed = self.clock.monotonic() - started
        obs.histogram("vizserver.request_s").observe(elapsed)
        if self.telemetry is not None:
            self._observe_request(
                op, user, dashboard_name, node, session, result,
                started, elapsed, cursor, sp,
            )
        return node.node_id, result

    @staticmethod
    def _note_degradation(sp, result: RenderResult) -> None:
        if result.degraded:
            obs.counter("vizserver.degraded_requests").inc()
            sp.set(
                stale_zones=sorted(result.stale_zones),
                zone_errors=sorted(result.zone_errors),
            )

    # ------------------------------------------------------------------ #
    def _observe_request(
        self, op, user, dashboard_name, node, session, result,
        started, elapsed, cursor, sp,
    ) -> None:
        """Feed one served request into the telemetry plane."""
        self.telemetry.record(
            sp,
            started=started,
            elapsed=elapsed,
            cursor=cursor,
            key=f"{user}/{dashboard_name}/{op}",
            dimensions={
                "dashboard": dashboard_name,
                "session": user,
                "node": node.node_id,
                "backend": node.pipeline.source.name,
            },
            ledgers=result.zone_ledgers,
            context=lambda: {
                "node": node.node_id,
                "iterations": result.iterations,
                "remote_queries": result.remote_queries,
                "cache_hits": result.cache_hits,
                "stale_zones": sorted(result.stale_zones),
                "zone_errors": dict(result.zone_errors),
            },
            degraded=result.degraded,
            failed=bool(result.zone_errors),
            explain=lambda: self._explain_worst_zone(node, session, result),
        )

    def _explain_worst_zone(self, node, session, result) -> dict | None:
        """Auto-capture an EXPLAIN of the slowest zone's query, as-if cold."""
        if not result.zone_ledgers:
            return None
        worst_zone = max(
            result.zone_ledgers, key=lambda z: result.zone_ledgers[z].active_s
        )
        with session.lock:
            zone = session.dashboard.zones.get(worst_zone)
            if zone is None or not zone.has_query:
                return None
            spec = session.effective_spec(zone)
        return {"zone": worst_zone, **node.pipeline.explain_cold(spec)}

    # ------------------------------------------------------------------ #
    def explain(
        self, user: str, dashboard_name: str, *, analyze: bool = False
    ) -> dict:
        """Per-request plans for a dashboard in its current session state.

        Routes like a real request, computes every queryable zone's
        effective spec (selections applied), and returns the serving
        pipeline's :meth:`~repro.core.pipeline.QueryPipeline.explain_batch`
        report keyed by zone name — which zones would be cache hits, which
        would be derived batch-locally, which go remote (and merged with
        what), plus the backend engine's EXPLAIN of each remote plan.
        """
        node = self._route()
        session = self._session(user, dashboard_name)
        with session.lock:
            zones = session.dashboard.queryable_zones()
            zone_specs = [(zone.name, session.effective_spec(zone)) for zone in zones]
            # Mirror the renderer's reuse hint so the explained queries
            # (and their literal-cache keys) are the ones a render sends.
            reuse = frozenset(
                action.field
                for zone in zones
                for action in session.dashboard.actions_onto(zone.name)
            )
        reports = node.pipeline.explain_batch(
            [spec for _name, spec in zone_specs],
            analyze=analyze,
            reuse_fields=reuse,
        )
        by_canonical = {report["spec"]: report for report in reports}
        return {
            "node": node.node_id,
            "dashboard": dashboard_name,
            "zones": {
                name: by_canonical[spec.canonical()] for name, spec in zone_specs
            },
        }

    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """Per-node robustness snapshot: breaker state, pool wear, stale serves.

        The cluster-operator view of graceful degradation: a node whose
        breaker is open (or whose pool keeps discarding members) is
        serving stale results / per-zone errors rather than failing, and
        this is where that shows up.
        """
        nodes = {}
        for node in self.nodes:
            pool = node.pipeline.pool
            breaker = getattr(pool, "breaker", None)
            stale_store = node.pipeline.stale_store
            nodes[node.node_id] = {
                "requests_handled": node.requests_handled,
                "breaker": breaker.snapshot() if breaker is not None else None,
                "pool": {
                    "size": pool.size(),
                    "discarded": pool.stats.discarded,
                    "connect_failures": pool.stats.connect_failures,
                },
                "stale_entries": len(stale_store) if stale_store is not None else 0,
                "stale_serves": (
                    stale_store.stale_serves if stale_store is not None else 0
                ),
            }
        degraded = [
            node_id
            for node_id, snap in nodes.items()
            if snap["breaker"] is not None and snap["breaker"]["state"] != "closed"
        ]
        health = {
            "nodes": nodes,
            "degraded_nodes": degraded,
            "coalesce": self.coalescer.snapshot(),
        }
        tier = self.store.statz()
        health["cache_tier"] = {
            "live_nodes": tier["fleet"]["live_nodes"],
            "degraded_cache_nodes": sorted(
                node_id for node_id, snap in tier["nodes"].items() if not snap["alive"]
            ),
            "under_quorum_writes": tier["fleet"]["under_quorum_writes"],
        }
        return health

    # ------------------------------------------------------------------ #
    def statz(self) -> dict:
        """Node request counts, coalescing and the cache tier, plus the
        telemetry sections when the plane is on (see :func:`compose_statz`).
        """
        return compose_statz(
            {
                "nodes": {
                    node.node_id: {"requests_handled": node.requests_handled}
                    for node in self.nodes
                },
                "coalesce": self.coalescer.snapshot(),
                "cache_tier": self.store.statz(),
            },
            self.telemetry,
        )

    # ------------------------------------------------------------------ #
    def cache_summary(self) -> dict:
        fleet = self.store.statz()["fleet"]
        return {
            "store_entries": fleet["distinct_keys"],
            "store_gets": fleet["gets"],
            "store_hits": fleet["hits"],
            "l1_hits": sum(n.distributed.l1_hits for n in self.nodes),
            "l2_hits": sum(n.distributed.l2_hits for n in self.nodes),
            "misses": sum(n.distributed.misses for n in self.nodes),
            "corrupt": sum(n.distributed.corrupt for n in self.nodes),
            "remote_queries": sum(
                n.pipeline.executor.remote_queries_sent for n in self.nodes
            ),
            "coalesce_leads": self.coalescer.stats.leads,
            "coalesce_joins": self.coalescer.stats.joins,
        }
