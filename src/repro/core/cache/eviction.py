"""Cache entries and the eviction policy shared by both cache levels.

"Cache entries in both the literal and intelligent cache are purged based
upon a combination of entry age, usage, and the expense of re-evaluating
the query. Entries are also purged when a connection to a data source is
closed or refreshed." (paper 3.2)

Ages are read off the owning cache's clock: the cache stamps ``created_at``
and ``last_used`` and passes ``now`` to :meth:`EvictionPolicy.purge`, so a
cache on a virtual clock ages its entries in virtual seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ... import obs


@dataclass
class CacheEntry:
    """One cached result with retention metadata."""

    key: str
    datasource: str
    value: Any  # a Table (or payload bytes for the distributed layer)
    size_bytes: int
    created_at: float  # the owning cache's clock reading at insert
    cost_s: float = 0.0  # expense of re-evaluating the query
    uses: int = 0
    #: what derivations from ``value`` share (the intelligent cache's
    #: ``TableMemo``): it lives and dies with the entry
    memo: Any = None
    last_used: float = field(init=False)

    def __post_init__(self) -> None:
        self.last_used = self.created_at

    def touch(self, now: float) -> None:
        self.last_used = now
        self.uses += 1

    def retention_score(self, now: float) -> float:
        """Higher = keep longer. Combines age, usage, and re-eval cost."""
        age = max(now - self.last_used, 0.0)
        return (self.cost_s + 1e-3) * (1.0 + self.uses) / (1.0 + age)


@dataclass
class EvictionPolicy:
    """Capacity limits and the purge procedure."""

    max_entries: int = 512
    max_bytes: int = 256 * 1024 * 1024
    max_age_s: float = float("inf")

    def purge(self, entries: dict[str, CacheEntry], now: float) -> list[str]:
        """Remove entries until within capacity at time ``now`` (the
        cache's clock); return evicted keys.

        Every victim is reported as a ``cache.eviction`` decision event
        carrying the three retention inputs the paper names — entry age,
        usage, and re-evaluation expense — plus the combined score, so a
        recording shows *why* that entry lost.
        """
        expired = [e for e in entries.values() if now - e.created_at > self.max_age_s]
        evicted: list[str] = []
        for entry in expired:
            del entries[entry.key]
            evicted.append(entry.key)
            if obs.events_enabled():
                obs.event(
                    "cache.eviction",
                    "evicted",
                    f"expired: created {now - entry.created_at:.1f}s ago, "
                    f"max age is {self.max_age_s:.1f}s",
                    key=entry.key,
                    age_s=now - entry.last_used,
                    uses=entry.uses,
                    cost_s=entry.cost_s,
                    score=entry.retention_score(now),
                )
        total = sum(e.size_bytes for e in entries.values())
        if len(entries) <= self.max_entries and total <= self.max_bytes:
            return evicted
        ranked = sorted(entries.values(), key=lambda e: e.retention_score(now))
        for entry in ranked:
            if len(entries) <= self.max_entries and total <= self.max_bytes:
                break
            del entries[entry.key]
            total -= entry.size_bytes
            evicted.append(entry.key)
            if obs.events_enabled():
                over = (
                    "entry count over limit"
                    if len(entries) >= self.max_entries
                    else "size over limit"
                )
                obs.event(
                    "cache.eviction",
                    "evicted",
                    f"lowest retention score {entry.retention_score(now):.4g} "
                    f"under capacity pressure ({over}): age "
                    f"{now - entry.last_used:.1f}s, {entry.uses} uses, "
                    f"re-evaluation cost {entry.cost_s:.3f}s",
                    key=entry.key,
                    age_s=now - entry.last_used,
                    uses=entry.uses,
                    cost_s=entry.cost_s,
                    score=entry.retention_score(now),
                )
        return evicted
