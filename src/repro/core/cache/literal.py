"""The literal query cache (paper 3.2).

"The literal query cache contains low-level queries that are not directly
related to visualization generation; it is keyed on the query text. It is
used to match internal queries that end up having the same textual
representation but where a match could not be proven upfront without
performing complete query compilation."

Keys come from :attr:`CompiledQuery.literal_key`, which folds in the
contents of any referenced temporary tables so that textually identical
queries over different temp state never collide.
"""

from __future__ import annotations

import threading

from ... import obs
from ...clock import SYSTEM_CLOCK, Clock
from ...tde.storage.table import Table
from .eviction import CacheEntry, EvictionPolicy


class LiteralCacheStats:
    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0


class LiteralCache:
    """Text-keyed result cache."""

    def __init__(
        self, policy: EvictionPolicy | None = None, *, clock: Clock = SYSTEM_CLOCK
    ):
        self.policy = policy or EvictionPolicy()
        self.clock = clock
        self.stats = LiteralCacheStats()
        self._entries: dict[str, CacheEntry] = {}
        self._lock = threading.RLock()

    def get(self, key: str) -> Table | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                obs.counter("cache.literal.misses").inc()
                obs.event(
                    "cache.literal",
                    "miss",
                    "no cached result for this query text",
                    key=key[:40],
                )
                return None
            entry.touch(self.clock.monotonic())
            self.stats.hits += 1
            obs.counter("cache.literal.hits").inc()
            obs.event(
                "cache.literal",
                "hit",
                "query text matched a cached result",
                key=key[:40],
                rows=entry.value.n_rows,
            )
            return entry.value

    def put(self, key: str, datasource: str, result: Table, *, cost_s: float = 0.0) -> None:
        with self._lock:
            now = self.clock.monotonic()
            self._entries[key] = CacheEntry(
                key, datasource, result, result.nbytes, now, cost_s
            )
            self.stats.puts += 1
            self.stats.evictions += len(self.policy.purge(self._entries, now))

    def invalidate(self, datasource: str | None = None) -> int:
        with self._lock:
            if datasource is None:
                n = len(self._entries)
                self._entries.clear()
                return n
            doomed = [k for k, e in self._entries.items() if e.datasource == datasource]
            for k in doomed:
                del self._entries[k]
            return len(doomed)

    def describe(self, key: str) -> None:
        """Replica placement of ``key`` for EXPLAIN: an in-process cache
        has none (the distributed client answers from its tier)."""
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
