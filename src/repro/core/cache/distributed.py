"""Distributed cache layer for the server environment (paper 3.2).

"Tableau Server does not persist the caches but it utilizes a distributed
layer based on REDIS or Cassandra depending on the configuration. This
allows sharing data across nodes in the cluster and keeping data warm
regardless of which node handles particular requests. For efficiency,
recent entries are also stored in memory on the nodes processing
particular queries."

The distributed layer is one shape: a
:class:`~repro.core.cache.replicated.ReplicatedStore` (a 1-node R=1 ring
when nothing larger is configured) whose cache nodes each keep a
:class:`KeyValueStore`, the in-process Redis stand-in: a thread-safe byte
map whose GET/PUT calls sleep for a modeled network round trip, so the
L1-vs-L2 latency trade-off is physically measurable.
:class:`DistributedQueryCache` is the only client of that tier: the
pipeline's literal cache on a server, with a small node-local L1 in front.
A table crosses the tier in the flat result wire format of
:mod:`repro.tde.storage.wire` (dictionary codes and the entries they use,
raw buffers, a version byte), never the single-file database format.
"""

from __future__ import annotations

import threading

from ...clock import SYSTEM_CLOCK, Clock
from ...errors import CacheError, StorageError
from ...tde.storage.table import Table
from ...tde.storage.wire import decode_table, encode_table
from .eviction import CacheEntry, EvictionPolicy


class KeyValueStore:
    """One cache node's byte map, with modeled round-trip latency.

    Round trips sleep on an injectable :class:`~repro.clock.Clock`
    so the tier can run the same modeled latencies in virtual time
    (microseconds of wall clock, identical timings every run).
    """

    def __init__(
        self,
        *,
        latency_s: float = 0.0008,
        per_mb_s: float = 0.004,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.latency_s = latency_s
        self.per_mb_s = per_mb_s
        self.clock = clock
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
    """The pipeline's literal cache over the shared tier, with a
    node-local L1.

    ``store`` is the :class:`~repro.core.cache.replicated.ReplicatedStore`
    every server mounts. Store keys are namespaced ``{namespace}|{key}``
    so an extract refresh (or DDL) of one source fans its invalidation
    out across the tier without touching other sources' entries — the
    same source-scoped discipline the plan cache uses. The L1 holds only
    this client's namespace.
    """

    def __init__(
        self,
        store,
        namespace: str,
        *,
        l1_policy: EvictionPolicy | None = None,
        use_l1: bool = True,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.store = store
        self.namespace = namespace
        self._prefix = f"{namespace}|"
        self.use_l1 = use_l1
        self.l1_policy = l1_policy or EvictionPolicy(max_entries=128)
        self.clock = clock
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
                    entry.touch(self.clock.monotonic())
                    self.l1_hits += 1
                    return entry.value
        payload = self.store.get(self._prefix + key)
        if payload is None:
            self.misses += 1
            return None
        try:
            table = deserialize_table(payload)
        except CacheError:
            # A damaged (or pre-upgrade) entry is a miss, not a failed
            # render: drop it so the recomputed answer replaces it.
            self.store.delete(self._prefix + key)
            self.corrupt += 1
            self.misses += 1
            return None
        self.l2_hits += 1
        if self.use_l1:
            self._remember(key, table)
        return table

    def put(
        self, key: str, datasource: str, result: Table, *, cost_s: float = 0.0
    ) -> None:
        self.store.put(self._prefix + key, serialize_table(result))
        if self.use_l1:
            self._remember(key, result)

    def _remember(self, key: str, table: Table) -> None:
        with self._lock:
            now = self.clock.monotonic()
            self._l1[key] = CacheEntry(key, self.namespace, table, table.nbytes, now)
            self.l1_policy.purge(self._l1, now)

    def invalidate(self, datasource: str | None = None) -> int:
        """Drop this namespace from the L1 and from every node of the tier.

        Callers pass whatever name *they* know the source by (the pipeline
        passes the backend name, the server the publish name), so the
        argument is ignored: the client is bound to one namespace.
        """
        del datasource
        with self._lock:
            self._l1.clear()
        return self.store.invalidate_prefix(self._prefix)

    def describe(self, key: str) -> dict | None:
        """Replica placement of ``key`` in the tier (EXPLAIN)."""
        return self.store.describe(self._prefix + key)
