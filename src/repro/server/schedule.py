"""Extract refresh scheduling (paper §2).

"If visualizations are published with accompanying TDE extracts, a
schedule can be created to automatically refresh the extracts, ensuring
the data is always current."

The scheduler runs on an injected clock (virtual in tests, wall time in
production use), fires due refreshes through :class:`DataServer`, and
records history. Refreshing purges the published source's caches, which
is the paper's 3.2 purge-on-refresh rule working end to end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from ..clock import SYSTEM_CLOCK, Clock
from ..errors import ServerError
from .dataserver import DataServer


@dataclass(order=True)
class _ScheduledRefresh:
    next_fire: float
    name: str = field(compare=False)
    interval_s: float = field(compare=False)
    refresher: Callable | None = field(compare=False, default=None)
    enabled: bool = field(compare=False, default=True)


@dataclass(frozen=True)
class RefreshEvent:
    """One completed refresh."""

    name: str
    fired_at: float
    refresh_count: int


class RefreshScheduler:
    """Interval-based refresh schedules over a DataServer."""

    def __init__(self, server: DataServer, *, clock: Clock = SYSTEM_CLOCK):
        self.server = server
        self.clock = clock
        self._heap: list[_ScheduledRefresh] = []
        self._by_name: dict[str, _ScheduledRefresh] = {}
        self.history: list[RefreshEvent] = []

    # ------------------------------------------------------------------ #
    def schedule(
        self,
        name: str,
        *,
        interval_s: float,
        refresher: Callable | None = None,
        first_delay_s: float | None = None,
    ) -> None:
        """Schedule ``name`` (a published data source) every ``interval_s``."""
        if interval_s <= 0:
            raise ServerError("refresh interval must be positive")
        self.server.get(name)  # validates the source exists
        if name in self._by_name:
            raise ServerError(f"{name!r} already has a schedule")
        delay = interval_s if first_delay_s is None else first_delay_s
        entry = _ScheduledRefresh(self.clock.monotonic() + delay, name, interval_s, refresher)
        self._by_name[name] = entry
        heapq.heappush(self._heap, entry)

    def unschedule(self, name: str) -> None:
        entry = self._by_name.pop(name, None)
        if entry is None:
            raise ServerError(f"no schedule for {name!r}")
        entry.enabled = False  # lazily discarded from the heap

    def next_due(self) -> tuple[str, float] | None:
        """(name, fire_time) of the next enabled schedule, if any."""
        while self._heap and not self._heap[0].enabled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].name, self._heap[0].next_fire

    # ------------------------------------------------------------------ #
    def run_due(self) -> list[RefreshEvent]:
        """Fire every schedule whose time has come; returns the events."""
        now = self.clock.monotonic()
        fired: list[RefreshEvent] = []
        while self._heap and (not self._heap[0].enabled or self._heap[0].next_fire <= now):
            entry = heapq.heappop(self._heap)
            if not entry.enabled:
                continue
            count = self.server.refresh_extract(entry.name, entry.refresher)
            event = RefreshEvent(entry.name, now, count)
            fired.append(event)
            self.history.append(event)
            # Fixed cadence: catch-up fires collapse into the next slot.
            entry.next_fire += entry.interval_s
            while entry.next_fire <= now:
                entry.next_fire += entry.interval_s
            heapq.heappush(self._heap, entry)
        return fired
