"""Iterative dashboard rendering (paper 3.3).

"Due to dependencies between zones, rendering of a dashboard might require
several iterations to complete." Each iteration collects the zones whose
effective filters changed, forms their query batch, runs it through the
pipeline, then *validates selections*: a selected mark that vanished from
its source zone's new result is dropped, which may trigger another
iteration — exactly the HNL-OGG example of Figure 2, where selecting a
new market eliminates the stale AA carrier selection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from .. import obs
from ..core.pipeline import BatchResult, QueryPipeline
from ..errors import WorkloadError
from ..obs.ledger import RequestLedger
from ..queries.spec import CategoricalFilter, QuerySpec
from ..tde.storage.table import Table
from .model import Dashboard, Zone

MAX_ITERATIONS = 10


@dataclass
class RenderResult:
    """Outcome of rendering one dashboard state.

    Degradation surfaces here per zone: ``stale_zones`` are zones served
    from the last-known-good store (flagged stale, not failed), and
    ``zone_errors`` maps zones that could not be answered at all to an
    error description — the rest of the dashboard still renders.
    """

    zone_tables: dict[str, Table]
    iterations: int
    batches: list[BatchResult]
    dropped_selections: list[tuple[str, Any]] = field(default_factory=list)
    stale_zones: set[str] = field(default_factory=set)
    zone_errors: dict[str, str] = field(default_factory=dict)
    #: zone -> per-request latency attribution for the batch that served
    #: it during this render (populated when the pipeline has ledgers
    #: enabled; closed out over the render window by :meth:`render`).
    zone_ledgers: dict[str, "RequestLedger"] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(self.stale_zones or self.zone_errors)

    @property
    def remote_queries(self) -> int:
        return sum(b.remote_queries for b in self.batches)

    @property
    def total_queries(self) -> int:
        return sum(len(b.tables) for b in self.batches)

    @property
    def cache_hits(self) -> int:
        return sum(b.cache_hits for b in self.batches)

    @property
    def elapsed_s(self) -> float:
        return sum(b.elapsed_s for b in self.batches)


class DashboardSession:
    """One user's stateful session with a dashboard.

    Sessions are safe to drive from multiple threads: every interaction
    and render runs under the session's reentrant ``lock``, so session
    state (selections, rendered zone tables) is only ever mutated by one
    request at a time. Distinct sessions render fully in parallel — the
    herd-traffic case is thousands of *different* users loading the same
    dashboard, and those requests coalesce at the pipeline layer instead
    of serializing here.
    """

    def __init__(self, dashboard: Dashboard, pipeline: QueryPipeline):
        self.dashboard = dashboard
        self.pipeline = pipeline
        self.selections: dict[str, tuple[Any, ...]] = {}
        self.zone_tables: dict[str, Table] = {}
        self._rendered_specs: dict[str, str] = {}
        #: zone -> (the selections acting on it, its spec under them)
        self._zone_specs: dict[str, tuple[list, QuerySpec]] = {}
        #: Reentrant so a server can atomically swap ``pipeline`` and
        #: render without deadlocking against the render's own locking.
        self.lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Interactions
    # ------------------------------------------------------------------ #
    def select(self, zone_name: str, values) -> RenderResult:
        """Select marks in a zone (drives its outgoing filter actions)."""
        if zone_name not in self.dashboard.zones:
            raise WorkloadError(f"no zone {zone_name!r}")
        if not self.dashboard.actions_from(zone_name):
            raise WorkloadError(f"zone {zone_name!r} has no outgoing actions")
        with self.lock:
            self.selections[zone_name] = tuple(values)
            return self.render()

    def clear_selection(self, zone_name: str) -> RenderResult:
        with self.lock:
            self.selections.pop(zone_name, None)
            return self.render()

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def effective_spec(self, zone: Zone) -> QuerySpec:
        """The zone's query under the current selection state, rebuilt
        only when the selections acting on the zone change."""
        state = [
            (action.field, self.selections.get(action.source))
            for action in self.dashboard.actions_onto(zone.name)
        ]
        kept = self._zone_specs.get(zone.name)
        if kept is None or kept[0] != state:
            extra = tuple([CategoricalFilter(name, chosen) for name, chosen in state if chosen])
            spec = zone.spec(self.dashboard.datasource, extra)
            kept = self._zone_specs[zone.name] = (state, spec)
        return kept[1]

    def render(self) -> RenderResult:
        with self.lock, obs.span(
            "dashboard.render", dashboard=self.dashboard.name
        ) as render_span:
            now = self.pipeline.clock.monotonic
            t_start = now()
            result = self._render()
            if result.zone_ledgers:
                # Widen each zone's ledger to the whole render: time
                # before its batch is queue, time after (other
                # iterations, selection validation) is render work.
                t_end = now()
                for ledger in result.zone_ledgers.values():
                    ledger.close_out(t_start, t_end)
            render_span.set(
                iterations=result.iterations,
                remote_queries=result.remote_queries,
                cache_hits=result.cache_hits,
            )
            if result.degraded:
                render_span.set(
                    stale_zones=len(result.stale_zones),
                    zone_errors=len(result.zone_errors),
                )
        return result

    def _render(self) -> RenderResult:
        batches: list[BatchResult] = []
        dropped: list[tuple[str, Any]] = []
        stale_zones: set[str] = set()
        zone_errors: dict[str, str] = {}
        zone_ledgers: dict[str, RequestLedger] = {}
        for iteration in range(1, MAX_ITERATIONS + 1):
            batch_specs: list[tuple[str, QuerySpec]] = []
            for zone in self.dashboard.queryable_zones():
                if zone.name in stale_zones or zone.name in zone_errors:
                    # Already degraded during this render: don't hammer a
                    # sick source again within the same request. The spec
                    # stays un-recorded, so the next interaction retries.
                    continue
                spec = self.effective_spec(zone)
                if self._rendered_specs.get(zone.name) != spec.canonical():
                    batch_specs.append((zone.name, spec))
            if not batch_specs:
                return RenderResult(
                    dict(self.zone_tables),
                    iteration - 1,
                    batches,
                    dropped,
                    stale_zones,
                    zone_errors,
                    zone_ledgers,
                )
            # Hint the pipeline about fields future interactions will
            # filter on, so cached results include them as dimensions
            # ("as long as the filtering columns are included", 3.2).
            reuse = frozenset([
                field_name
                for zone_name, _s in batch_specs
                for field_name, _chosen in self._zone_specs[zone_name][0]
            ])
            with obs.span(
                "dashboard.iteration",
                index=iteration,
                zones=[n for n, _s in batch_specs],
            ) as iter_span:
                result = self.pipeline.run_batch(
                    [s for _n, s in batch_specs], reuse_fields=reuse
                )
                batches.append(result)
                zone_rows: dict[str, int] = {}
                metrics = obs.get_metrics()
                for zone_name, spec in batch_specs:
                    key = spec.canonical()
                    ledger = result.ledgers.get(key)
                    if ledger is not None:
                        # A later iteration's ledger supersedes an earlier
                        # one — the zone's final answer is what it paid for.
                        zone_ledgers[zone_name] = ledger
                    if key in result.errors:
                        # Keep whatever the zone showed before; surface
                        # the error instead of failing the dashboard.
                        zone_errors[zone_name] = result.errors[key]
                        obs.counter("dashboard.zone_errors").inc()
                        continue
                    table = result.tables[key]
                    self.zone_tables[zone_name] = table
                    if key in result.stale_keys:
                        # A degraded (last-known-good) serve: show it but
                        # leave the spec un-recorded so the next render
                        # retries the source.
                        stale_zones.add(zone_name)
                        obs.counter("dashboard.stale_zones").inc()
                    else:
                        self._rendered_specs[zone_name] = key
                    zone_rows[zone_name] = table.n_rows
                    if metrics.enabled:
                        metrics.counter(f"dashboard.zone.{zone_name}.renders").inc()
                iter_span.set(zone_rows=zone_rows)
                if stale_zones or zone_errors:
                    iter_span.set(
                        stale_zones=sorted(stale_zones),
                        zone_errors=sorted(zone_errors),
                    )
                obs.histogram("dashboard.iteration_s").observe(result.elapsed_s)
            dropped.extend(self._validate_selections())
        raise WorkloadError("dashboard did not stabilize (action cycle?)")

    def _validate_selections(self) -> list[tuple[str, Any]]:
        """Drop selections whose marks vanished from their source zone.

        Side effect of cascading filters (paper Fig. 2): "One side-effect
        of these updated results is that the previous user-selection (AA)
        in the Carrier zone is eliminated, as AA is not a carrier for the
        HNL-OGG market."
        """
        dropped: list[tuple[str, Any]] = []
        for zone_name, selected in list(self.selections.items()):
            table = self.zone_tables.get(zone_name)
            if table is None:
                continue
            for action in self.dashboard.actions_from(zone_name):
                if action.field not in table.column_names:
                    continue
                domain = set(table.column(action.field).python_values())
                surviving = tuple(v for v in selected if v in domain)
                if surviving != selected:
                    for gone in set(selected) - set(surviving):
                        dropped.append((zone_name, gone))
                    if surviving:
                        self.selections[zone_name] = surviving
                    else:
                        del self.selections[zone_name]
                    break
        return dropped
