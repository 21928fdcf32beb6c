"""Speculative prefetching of likely next interactions (paper §7).

"both data exploration and dashboard generation could become more
responsive if requested data has been accurately predicted and prefetched.
Materialization of secondary structures and prediction approaches such as
DICE [46], are good examples in this field."

The predictor is deliberately simple (DICE-like locality over the
interaction space): after a user selects marks in a zone, the most likely
next interactions are selections of the *other* prominent values in that
same zone. The prefetcher compiles the target zones' hypothetical specs
for those candidate selections and warms the pipeline's intelligent cache
— in a background thread, so the interactive path never waits on it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from .. import obs
from ..queries.spec import CategoricalFilter, QuerySpec


@dataclass
class PrefetchStats:
    interactions_observed: int = 0
    predictions: int = 0
    specs_prefetched: int = 0
    batches: int = 0


class InteractionPrefetcher:
    """Warms caches with the predicted next interactions of a session (a
    ``repro.dashboard`` ``DashboardSession``, which sits above this
    package and so is not imported here)."""

    def __init__(
        self,
        *,
        max_candidates: int = 3,
        background: bool = True,
    ):
        self.max_candidates = max_candidates
        self.background = background
        self.stats = PrefetchStats()
        self._threads: list[threading.Thread] = []
        # Guards stats and the thread list: background warms finish
        # concurrently, and unsynchronized `+=` loses updates.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def observe(self, session: Any, zone_name: str, selected) -> int:
        """Called after a selection; returns the number of predicted specs.

        Prefetching goes through the same pipeline (and therefore the same
        intelligent cache) that will serve the real interaction, so an
        accurate prediction turns the next click into a pure cache hit.
        """
        specs = self.predict(session, zone_name, tuple(selected))
        with self._lock:
            self.stats.interactions_observed += 1
            self.stats.predictions += len(specs)
        if not specs:
            obs.event(
                "prefetch",
                "skipped",
                f"no candidate next interactions predicted for zone {zone_name!r}",
                zone=zone_name,
            )
            return 0
        obs.event(
            "prefetch",
            "predicted",
            f"selection in zone {zone_name!r}: warming {len(specs)} hypothetical "
            f"spec(s) for the likeliest next clicks"
            + (" (background)" if self.background else ""),
            zone=zone_name,
            specs=len(specs),
        )
        # Capture the triggering request's trace identity before the
        # hand-off: the warm runs as its *own* root (the trigger request
        # usually finishes first) with a causal link back, rather than
        # attaching to a span that may already be closed.
        trigger = obs.current_trace_context() if obs.enabled() else None
        if self.background:
            thread = threading.Thread(
                target=self._warm, args=(session, specs, trigger), daemon=True
            )
            with self._lock:
                self._threads.append(thread)
            thread.start()
        else:
            self._warm(session, specs, trigger)
        return len(specs)

    def wait(self, timeout: float | None = None) -> None:
        """Block until outstanding background prefetches complete."""
        with self._lock:
            pending = list(self._threads)
        for thread in pending:
            thread.join(timeout)
        with self._lock:
            self._threads = [t for t in self._threads if t.is_alive()]

    # ------------------------------------------------------------------ #
    def predict(
        self, session: Any, zone_name: str, selected: tuple[Any, ...]
    ) -> list[QuerySpec]:
        """Hypothetical target-zone specs for the likeliest next clicks."""
        dashboard = session.dashboard
        zone = dashboard.zones.get(zone_name)
        actions = dashboard.actions_from(zone_name)
        table = session.zone_tables.get(zone_name)
        if zone is None or not actions or table is None:
            return []
        field_name = actions[0].field
        if field_name not in table.column_names:
            return []
        domain = [
            v
            for v in table.column(field_name).python_values()
            if v is not None and v not in selected
        ]
        candidates = domain[: self.max_candidates]  # zones render ranked
        specs: list[QuerySpec] = []
        for value in candidates:
            hypothetical = dict(session.selections)
            hypothetical[zone_name] = (value,)
            for action in actions:
                for target_name in action.targets:
                    target = dashboard.zones[target_name]
                    if not target.has_query:
                        continue
                    extra = []
                    for onto in dashboard.actions_onto(target_name):
                        chosen = hypothetical.get(onto.source)
                        if chosen:
                            extra.append(CategoricalFilter(onto.field, chosen))
                    specs.append(target.spec(dashboard.datasource, tuple(extra)))
        # Dedupe while keeping prediction order.
        seen: set[str] = set()
        unique: list[QuerySpec] = []
        for s in specs:
            if s.canonical() not in seen:
                seen.add(s.canonical())
                unique.append(s)
        return unique

    def _warm(
        self,
        session: Any,
        specs: list[QuerySpec],
        trigger=None,
    ) -> None:
        reuse = frozenset(
            action.field for action in session.dashboard.actions
        )
        # A fresh root in the worker thread (no contextvar leaks in from
        # here), linked to the interaction that predicted these specs.
        with obs.span("prefetch.warm", specs=len(specs)) as warm_span:
            if trigger is not None and trigger.trace_id != warm_span.trace_id:
                # Synchronous warms run inside the trigger's own trace;
                # the cross-trace edge only exists for background warms.
                warm_span.add_link("prefetch.triggered_by", trigger)
            result = session.pipeline.run_batch(specs, reuse_fields=reuse)
        with self._lock:
            self.stats.specs_prefetched += len(result.tables)
            self.stats.batches += 1
