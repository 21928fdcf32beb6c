"""Last-known-good results for graceful degradation.

When a data source is down (retries exhausted, breaker open), the
pipeline can keep a dashboard alive by re-serving the most recent answer
it ever produced for the same spec — flagged stale, the way Hillview
degrades to partial/stale views when workers fail — instead of failing
the whole request.

This is deliberately separate from the intelligent cache: entries here
survive cache invalidation (a refresh purges the caches, but "the last
result before the refresh" is exactly what a degraded serve wants), are
bounded by entry count only (they are references to tables the caches
already hold in the common case), and are never used while the source is
healthy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..clock import SYSTEM_CLOCK, Clock
from ..tde.storage.table import Table


class StaleResultStore:
    """A bounded LRU of the last good answer per spec canonical key.

    Entry ages are read off an injectable clock so replayed failure
    schedules (virtual time) report identical ages on every run.
    """

    def __init__(self, max_entries: int = 256, *, clock: Clock = SYSTEM_CLOCK):
        self.max_entries = max_entries
        self.clock = clock
        self._entries: OrderedDict[str, tuple[Table, float]] = OrderedDict()
        self._lock = threading.Lock()
        self.stale_serves = 0

    def put(self, key: str, table: Table) -> None:
        with self._lock:
            self._entries[key] = (table, self.clock.monotonic())
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def get(self, key: str) -> tuple[Table, float] | None:
        """The last good (table, age_seconds) for ``key``, if any."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self.stale_serves += 1
            table, stored_at = entry
            return table, self.clock.monotonic() - stored_at

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
