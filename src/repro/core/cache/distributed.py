"""Distributed cache layer for the server environment (paper 3.2).

"Tableau Server does not persist the caches but it utilizes a distributed
layer based on REDIS or Cassandra depending on the configuration. This
allows sharing data across nodes in the cluster and keeping data warm
regardless of which node handles particular requests. For efficiency,
recent entries are also stored in memory on the nodes processing
particular queries."

:class:`KeyValueStore` is the in-process Redis stand-in: a thread-safe
byte store whose GET/PUT calls sleep for a modeled network round trip, so
the L1-vs-L2 latency trade-off is physically measurable.
:class:`DistributedQueryCache` gives each node a small in-memory L1 over
the shared store; a table crosses it in the flat result wire format of
:mod:`repro.tde.storage.wire` (dictionary codes and the entries they
use, raw buffers, a version byte), never the single-file database format.
"""

from __future__ import annotations

import threading

from ...errors import CacheError, StorageError
from ...faults.clock import SYSTEM_CLOCK, Clock
from ...tde.storage.table import Table
from ...tde.storage.wire import decode_table, encode_table
from .eviction import CacheEntry, EvictionPolicy


class KeyValueStore:
    """Redis-like shared store with modeled round-trip latency.

    Round trips sleep on an injectable :class:`~repro.faults.clock.Clock`
    so the distributed-cache tests and E7 can run the same modeled
    latencies in virtual time (microseconds of wall clock, identical
    timings every run).
    """

    def __init__(
        self,
        *,
        latency_s: float = 0.0008,
        per_mb_s: float = 0.004,
        clock: Clock | None = None,
    ):
        self.latency_s = latency_s
        self.per_mb_s = per_mb_s
        self.clock = clock or SYSTEM_CLOCK
        self._data: dict[str, bytes] = {}
        self._lock = threading.Lock()
        self.gets = 0
        self.puts = 0
        self.hit_count = 0
        self.miss_count = 0
        self.deletes = 0

    def _round_trip(self, payload_bytes: int) -> None:
        delay = self.latency_s + (payload_bytes / 1e6) * self.per_mb_s
        if delay > 0:
            self.clock.sleep(delay)

    def get(self, key: str) -> bytes | None:
        with self._lock:
            payload = self._data.get(key)
            self.gets += 1
            if payload is not None:
                self.hit_count += 1
            else:
                self.miss_count += 1
        self._round_trip(len(payload) if payload else 0)
        return payload

    def peek(self, key: str) -> bytes | None:
        """Raw read for introspection: no round trip, no counters skewed."""
        with self._lock:
            return self._data.get(key)

    def put(self, key: str, payload: bytes) -> None:
        self._round_trip(len(payload))
        with self._lock:
            self._data[key] = payload
            self.puts += 1

    def delete(self, key: str) -> None:
        with self._lock:
            if self._data.pop(key, None) is not None:
                self.deletes += 1

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop every key under ``prefix``; returns how many were removed."""
        with self._lock:
            doomed = [k for k in self._data if k.startswith(prefix)]
            for key in doomed:
                del self._data[key]
            self.deletes += len(doomed)
        return len(doomed)

    def describe(self, key: str) -> None:
        """Replica placement of ``key`` for EXPLAIN: a single store has none."""
        return None

    def flush(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._data)

    def total_bytes(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._data.values())

    def stats(self) -> dict:
        """One snapshot-consistent view of every counter.

        All counts are read under the same lock acquisition, so
        ``hits + misses == gets`` holds in the snapshot even while other
        threads are mid-GET — reading the public attributes one by one
        cannot promise that.
        """
        with self._lock:
            return {
                "gets": self.gets,
                "puts": self.puts,
                "hits": self.hit_count,
                "misses": self.miss_count,
                "deletes": self.deletes,
                "entries": len(self._data),
                "bytes": sum(len(v) for v in self._data.values()),
            }


def serialize_table(table: Table) -> bytes:
    """Encode a result in the tier's wire format (no pickle)."""
    return encode_table(table)


def deserialize_table(payload: bytes) -> Table:
    """Decode a tier payload; :class:`CacheError` unless it is a
    well-formed payload of the current wire version."""
    try:
        return decode_table(payload)
    except StorageError as exc:
        raise CacheError(f"unreadable cache payload: {exc}") from exc


class DistributedQueryCache:
    """A node-local L1 over a shared L2 store.

    ``store`` is anything with the :class:`KeyValueStore` API (bytes
    in and out, ``invalidate_prefix``, ``describe``) — the single store
    E7 models or the replicated
    :class:`~repro.core.cache.replicated.ReplicatedStore` tier.
    """

    def __init__(
        self,
        store: KeyValueStore,
        node_id: str,
        *,
        l1_policy: EvictionPolicy | None = None,
        use_l1: bool = True,
    ):
        self.store = store
        self.node_id = node_id
        self.use_l1 = use_l1
        self.l1_policy = l1_policy or EvictionPolicy(max_entries=128)
        self._l1: dict[str, CacheEntry] = {}
        self._lock = threading.Lock()
        self.l1_hits = 0
        self.l2_hits = 0
        self.misses = 0
        self.corrupt = 0

    def get(self, key: str) -> Table | None:
        if self.use_l1:
            with self._lock:
                entry = self._l1.get(key)
                if entry is not None:
                    entry.touch()
                    self.l1_hits += 1
                    return entry.value
        payload = self.store.get(key)
        if payload is None:
            self.misses += 1
            return None
        try:
            table = deserialize_table(payload)
        except CacheError:
            # A damaged (or pre-upgrade) entry is a miss, not a failed
            # render: drop it so the recomputed answer replaces it.
            self.store.delete(key)
            self.corrupt += 1
            self.misses += 1
            return None
        self.l2_hits += 1
        if self.use_l1:
            self._remember(key, table)
        return table

    def put(self, key: str, table: Table) -> None:
        self.store.put(key, serialize_table(table))
        if self.use_l1:
            self._remember(key, table)

    def _remember(self, key: str, table: Table) -> None:
        with self._lock:
            self._l1[key] = CacheEntry(key, "", table, table.nbytes)
            self.l1_policy.purge(self._l1)

    def invalidate_prefix(self, prefix: str) -> int:
        """Drop every entry under ``prefix`` from the L1 *and* the shared
        store (fanning out across a replicated tier when backed by one)."""
        with self._lock:
            doomed = [k for k in self._l1 if k.startswith(prefix)]
            for key in doomed:
                del self._l1[key]
        return self.store.invalidate_prefix(prefix)

    def describe(self, key: str) -> dict | None:
        """Replica placement of ``key``, when the store has any (EXPLAIN)."""
        return self.store.describe(key)


class DistributedLiteralCache:
    """Adapter exposing a :class:`DistributedQueryCache` as the pipeline's
    literal cache.

    Store keys are namespaced ``{datasource}|{literal key}`` so an extract
    refresh (or DDL) of one source can fan its invalidation out across the
    tier without touching other sources' entries — the same
    source-scoped discipline the plan cache uses.
    """

    def __init__(self, cache: DistributedQueryCache, datasource: str):
        self.cache = cache
        self.datasource = datasource

    def _key(self, key: str) -> str:
        return f"{self.datasource}|{key}"

    def get(self, key: str) -> Table | None:
        return self.cache.get(self._key(key))

    def put(
        self, key: str, datasource: str, result: Table, *, cost_s: float = 0.0
    ) -> None:
        self.cache.put(self._key(key), result)

    def invalidate(self, datasource: str | None = None) -> int:
        # The adapter is bound to one namespace at construction; callers
        # pass whatever name *they* know the source by (the pipeline
        # passes the backend name, the server the publish name), so the
        # argument is ignored — an invalidation always purges exactly
        # this adapter's namespace, on every node of the tier.
        del datasource
        return self.cache.invalidate_prefix(f"{self.datasource}|")

    def describe(self, key: str) -> dict | None:
        return self.cache.describe(self._key(key))
