"""The four workloads: set-up, one round's seeded op script, the single
public call per op, and the public counters the layer table reads.

A *round* is a fixed, seeded list of ops. The harness replays rounds
until its time is up, so how many rounds fit changes the sample count
but never the per-op counts (hits, backend queries): those repeat
exactly for a seed. ``--seed`` seeds both the data and the script; the
program under test receives only the generated inputs.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from repro.connectors import ServerProfile, SimDbDataSource, TdeDataSource
from repro.core.cache.replicated import ReplicatedStore
from repro.core.pipeline import QueryPipeline
from repro.dashboard import DashboardSession, RenderResult
from repro.server.vizserver import VizServer
from repro.workloads import (
    CARRIERS,
    MARKETS,
    STATES,
    TrafficGenerator,
    fig1_dashboard,
    fig2_dashboard,
    flights_model,
    generate_flights,
)

from .metrics import CHURN, SIMDB, TDE_COLD, WARM

#: The modeled cache tier every server workload mounts.
TIER_LATENCY_S, TIER_PER_MB_S = 0.0002, 0.001

#: The marks a user can click on Fig-1's two maps: ids of the states some
#: market departs from / arrives in. Selecting an absent mark is dropped
#: by the render's selection validation and would be a non-interaction.
ORIGIN_MARKS = sorted({STATES.index(origin) for _m, origin, _dest in MARKETS})
DEST_MARKS = sorted({STATES.index(dest) for _m, _origin, dest in MARKETS})


@dataclass(frozen=True)
class Op:
    """One step of a round. ``refresh`` steps run inside the clock (an
    extract refresh delays the users behind it) but are not ops."""

    kind: str  # "load" | "select" | "refresh"
    user: str = ""
    dashboard: str = ""
    zone: str = ""
    values: tuple = ()


@dataclass(frozen=True)
class Sizes:
    rows: int
    #: Ops (loads), visits or cycles in one round.
    round: int
    #: The same unit, run and discarded at the end of every set-up.
    warmup: int


class Workload:
    """Base: data set-up and the accounting the four workloads share."""

    name = ""
    sizes = Sizes(0, 0, 0)
    smoke_sizes = Sizes(0, 0, 0)

    def __init__(self, seed: int, *, smoke: bool = False):
        self.seed = seed
        self.size = self.smoke_sizes if smoke else self.sizes
        self.model = flights_model()
        self.dashboards = {d.name: d for d in self._dashboards()}
        self.generate_s = 0.0
        self.load_s = 0.0
        #: The pipelines answering ops right now, and the counts of those
        #: already closed.
        self._serving: list[QueryPipeline] = []
        self._retired: Counter = Counter()
        self._round = 0

    def _dashboards(self):
        return [fig1_dashboard()]

    # -- set-up --------------------------------------------------------- #
    def setup(self) -> None:
        """Generate, load, construct and warm up; everything a first user
        would otherwise wait for."""
        self.close()
        self._retired.clear()
        # Set-up is repeated: free the previous data before generating
        # again, or the run would hold two datasets at its peak.
        for built in ("dataset", "engine", "source", "db", "store"):
            vars(self).pop(built, None)
        started = perf_counter()
        self.dataset = generate_flights(self.size.rows, seed=self.seed)
        loaded = perf_counter()
        self._load()
        self.generate_s = loaded - started
        self.load_s = perf_counter() - loaded
        self._build()
        script = self.script()
        for op in script[: self._warmup_ops(script)]:
            self.run(op)
            self.settle(op)

    def _load(self) -> None:
        self.engine = self.dataset.load_into_engine()
        self.source = TdeDataSource(self.engine)

    def _build(self) -> None:
        pass

    def _warmup_ops(self, script: list[Op]) -> int:
        return self.size.warmup

    # -- the measured surface ------------------------------------------- #
    def script(self) -> list[Op]:
        """One round's ops; by default that many Fig-1 loads."""
        return [Op("load", "viewer", "flights-on-time")] * self.size.round

    def begin_round(self) -> None:
        """Reset whatever a round must not inherit; outside the clock."""
        self._round += 1

    def run(self, op: Op) -> RenderResult | None:
        """The single public call of one step; the harness times it."""
        raise NotImplementedError

    def settle(self, op: Op) -> None:
        """Clean up after a step; outside the clock."""

    def oracle_source(self):
        """Where the all-off oracle pipeline reads the same data."""
        return self.source

    # -- public counters ------------------------------------------------ #
    def counters(self) -> Counter:
        """Cumulative public counters since set-up: what lives as long as
        the data, plus the pipelines in service, plus those retired."""
        plans = self.engine.plan_cache.stats()
        out = Counter({"plans.hits": plans["hits"], "plans.misses": plans["misses"]})
        out.update(self._retired)
        out.update(self._serving_counters())
        return out

    def _serving_counters(self) -> Counter:
        out: Counter = Counter()
        for pipeline in self._serving:
            out.update(_pipeline_counters(pipeline))
        return out

    def close(self) -> None:
        """Retire the pipelines in service, keeping their counts."""
        self._retired.update(self._serving_counters())
        for pipeline in self._serving:
            pipeline.close()
        self._serving = []


def _pipeline_counters(pipeline: QueryPipeline) -> dict:
    cache = pipeline.intelligent_cache.stats.snapshot()
    pool = pipeline.pool.stats
    return {
        "ic.exact_hits": cache["exact_hits"],
        "ic.subsumption_hits": cache["subsumption_hits"],
        "ic.misses": cache["misses"],
        "pool.opened": pool.opened,
        "pool.reused": pool.reused,
    }


class TdeColdLoad(Workload):
    """Every op is a first-ever load: fresh pipeline, empty caches, the
    engine's plan cache warm. The only workload where the TDE computes."""

    name = TDE_COLD
    sizes = Sizes(rows=100_000, round=1, warmup=1)
    smoke_sizes = Sizes(rows=5_000, round=3, warmup=1)

    def run(self, op: Op) -> RenderResult:
        pipeline = QueryPipeline(self.source, self.model)
        self._serving = [pipeline]
        return DashboardSession(self.dashboards[op.dashboard], pipeline).render()

    def settle(self, op: Op) -> None:
        self.close()


class WarmLoad(Workload):
    """One pipeline warmed by a first render; each op is a second user's
    load, answered from the intelligent cache with no backend query."""

    name = WARM
    sizes = Sizes(rows=20_000, round=200, warmup=50)
    smoke_sizes = Sizes(rows=2_000, round=40, warmup=5)

    def _build(self) -> None:
        self._serving = [QueryPipeline(self.source, self.model)]

    def run(self, op: Op) -> RenderResult:
        return DashboardSession(self.dashboards[op.dashboard], self._serving[0]).render()


class _ServerWorkload(Workload):
    """Ops go through a 2-node VizServer over the 3-node R=2 tier."""

    server: VizServer | None = None

    def _build(self) -> None:
        self.close()
        self.store = ReplicatedStore(
            ("cache0", "cache1", "cache2"),
            replication=2,
            latency_s=TIER_LATENCY_S,
            per_mb_s=TIER_PER_MB_S,
        )
        self.server = VizServer(2, self.source, self.model, store=self.store)
        self._serving = [node.pipeline for node in self.server.nodes]
        for dashboard in self.dashboards.values():
            self.server.register_dashboard(dashboard)

    def run(self, op: Op) -> RenderResult | None:
        if op.kind == "refresh":
            for node in self.server.nodes:
                node.pipeline.invalidate()
            return None
        # A DashboardSession re-queries only zones whose spec changed, so
        # a repeat load by a known user is a ~0.1 ms no-op: every visit is
        # a user the server has not seen.
        user = f"{op.user}@{self._round}"
        if op.kind == "load":
            return self.server.load(user, op.dashboard)[1]
        return self.server.select(user, op.dashboard, op.zone, op.values)[1]

    def _serving_counters(self) -> Counter:
        out = super()._serving_counters()
        if self.server is not None:
            summary = self.server.cache_summary()
            fleet = self.store.statz()["fleet"]
            out.update({
                "dist.l1_hits": summary["l1_hits"],
                "dist.l2_hits": summary["l2_hits"],
                "dist.misses": summary["misses"],
                "tier.gets": fleet["gets"],
                "tier.hits": fleet["hits"],
            })
        return out

    def close(self) -> None:
        super().close()
        self.server = None


class SimDbSession(_ServerWorkload):
    """Seeded visits (a load, then a geometric number of selections) over
    both dashboards against the simulated SQL backend. Each round replays
    the session on a cold server, so cold-start remote ops and warm local
    ops keep the same mix whatever the run length."""

    name = SIMDB
    sizes = Sizes(rows=20_000, round=60, warmup=4)
    smoke_sizes = Sizes(rows=2_000, round=12, warmup=2)
    #: Ten times the default per-work-unit time: a remote op is two orders
    #: of magnitude slower than a local one, as on a real warehouse.
    profile = ServerProfile(work_unit_time_s=2e-7)
    #: The session's *shape* — who visits which dashboard, how many
    #: interactions follow, how many marks each selects — is fixed;
    #: ``--seed`` decides the data and *which* marks are picked. A cold
    #: round has only ~20 remote ops, so letting the seed redraw the shape
    #: moves ops_per_s by +-25% between seeds: the spread would measure the
    #: generator, not the program.
    shape_seed = 25

    def _dashboards(self):
        return [fig1_dashboard(), fig2_dashboard()]

    def _load(self) -> None:
        self.db = self.dataset.load_into_simdb(self.profile)
        self.engine = self.db.engine
        self.source = SimDbDataSource(self.db)

    def script(self) -> list[Op]:
        fig1, fig2 = self.dashboards.values()
        rng = random.Random(self.seed)

        def shuffled(marks) -> list:
            marks = list(marks)
            rng.shuffle(marks)
            return marks

        traffic = TrafficGenerator(
            [fig1, fig2],
            n_users=8,
            seed=self.shape_seed,
            interaction_rate=0.7,
            selection_domains={
                fig1.name: {
                    "origin_map": shuffled(ORIGIN_MARKS),
                    "dest_map": shuffled(DEST_MARKS),
                },
                fig2.name: {
                    "market": shuffled(m[0] for m in MARKETS),
                    "carrier": shuffled(c[0] for c in CARRIERS[:5]),
                },
            },
        )
        ops: list[Op] = []
        visit = -1
        for event in traffic.events(self.size.round):
            visit += event.kind == "load"
            ops.append(Op(event.kind, f"{event.user}#{visit}", event.dashboard,
                          event.zone or "", event.values))
        return ops

    def _warmup_ops(self, script: list[Op]) -> int:
        loads = [i for i, op in enumerate(script) if op.kind == "load"]
        return loads[self.size.warmup] if len(loads) > self.size.warmup else len(script)

    def begin_round(self) -> None:
        super().begin_round()
        self._build()

    def oracle_source(self):
        # The same tables through the TQL connector: no modeled sleeps.
        return TdeDataSource(self.engine)

    def counters(self) -> Counter:
        out = super().counters()
        stats = self.db.stats
        out.update({
            "simdb.busy_seconds": stats.busy_seconds,
            "simdb.queries": stats.queries,
            "simdb.rows_transferred": stats.rows_transferred,
        })
        return out


class RefreshChurn(_ServerWorkload):
    """Extract refresh, then a first load (remote), a second user's load
    on the other node (tier GET), a selection and its clearing. The caches
    are written, invalidated and recompiled far more than they are read."""

    name = CHURN
    sizes = Sizes(rows=5_000, round=10, warmup=3)
    smoke_sizes = Sizes(rows=1_000, round=8, warmup=1)

    def script(self) -> list[Op]:
        rng = random.Random(self.seed)
        dashboard = "flights-on-time"
        ops: list[Op] = []
        for cycle in range(self.size.round):
            state = rng.choice(ORIGIN_MARKS)
            first, second = f"first#{cycle}", f"second#{cycle}"
            ops += [
                Op("refresh"),
                Op("load", first, dashboard),
                Op("load", second, dashboard),
                Op("select", second, dashboard, "origin_map", (state,)),
                Op("select", second, dashboard, "origin_map", ()),
            ]
        return ops

    def _warmup_ops(self, script: list[Op]) -> int:
        return 5 * self.size.warmup


WORKLOAD_CLASSES = {cls.name: cls for cls in (TdeColdLoad, WarmLoad, SimDbSession, RefreshChurn)}
