"""The distributed cache tier: replication over a hash ring.

The paper's Redis/Cassandra layer (§3.2). Every server mounts one
:class:`ReplicatedStore` and reaches it through one client,
:class:`~repro.core.cache.distributed.DistributedQueryCache`; a server
given no store mounts a 1-node R=1 ring, which does what a single shared
store would. A :class:`ReplicatedStore` is a set of named cache nodes
(each one a modeled-latency
:class:`~repro.core.cache.distributed.KeyValueStore` byte map) placed on
a :class:`~repro.core.cache.ring.HashRing`:

* **R-way replication.** Every PUT is versioned and written to the first
  ``replication`` live nodes of the key's preference list; a write acked
  by fewer than the quorum is flagged ``replica.under_quorum`` (the
  caller may treat it as unacknowledged).
* **Quorum-ish GET with read-repair.** The fast path probes the
  preference list in order and serves the first hit; a hit found on a
  later replica back-fills the earlier ones (``replica.read_repair``).
  ``mode="quorum"`` probes every live replica, serves the newest version
  and converges the rest — the sweep the chaos suite quiesces with.
* **Live topology changes.** :meth:`join` warms a new node by migrating
  exactly the keys the ring now assigns it; :meth:`leave` drains a
  node's keys to their new owners before withdrawing it; :meth:`kill`
  models a crash (data lost, survivors keep serving their replicas).
  Warm-up copies are deduplicated through a private
  :class:`~repro.core.coalesce.SingleFlightRegistry`, so a herd of
  readers racing a migration never copies (or refetches) the same key
  twice — the same no-herd guarantee the serving path already has.
* **TTL + invalidation fan-out.** Entries may carry a TTL (lazily
  expired on read against the injectable clock) and
  :meth:`invalidate_prefix` fans a namespace purge out to every live
  node — the extract-refresh/DDL path, mirroring the plan cache's
  invalidation discipline.

All round trips run on the nodes' modeled-latency clocks and every fault
decision comes from an (optional) seed-keyed
:class:`~repro.faults.plan.FaultPlan` consulted per node call, so chaos
schedules replay byte-identically on a virtual clock. Every decision
lands in the ``obs.events`` ring under ``ring.*`` / ``replica.*`` /
``reshard.*``.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass

from ... import obs
from ...faults.clock import SYSTEM_CLOCK, Clock
from ..coalesce import SingleFlightRegistry
from .distributed import KeyValueStore
from .ring import HashRing

_ENVELOPE = struct.Struct(">Qd")  # version, expires_at (0.0 = never)


def _pack(version: int, expires_at: float, payload: bytes) -> bytes:
    return _ENVELOPE.pack(version, expires_at) + payload


def _unpack(blob: bytes) -> tuple[int, float, bytes]:
    version, expires_at = _ENVELOPE.unpack_from(blob)
    return version, expires_at, blob[_ENVELOPE.size :]


class _KeyFlight:
    """A key-level stand-in for a QuerySpec so warm-up copies can reuse
    the single-flight registry (always joined with ``subsume=False``)."""

    __slots__ = ("key",)

    def __init__(self, key: str):
        self.key = key

    def canonical(self) -> str:
        return self.key


@dataclass
class CacheNode:
    """One cache-tier process: a keyed byte store plus liveness."""

    node_id: str
    store: KeyValueStore
    alive: bool = True
    repairs_received: int = 0
    migrated_in: int = 0

    def statz(self) -> dict:
        snap = self.store.stats()
        snap.update(
            alive=self.alive,
            repairs_received=self.repairs_received,
            migrated_in=self.migrated_in,
        )
        return snap


@dataclass
class TierStats:
    """Store-lifetime accounting (all mutated under the tier lock)."""

    reads: int = 0
    writes: int = 0
    deletes: int = 0
    fallback_reads: int = 0
    read_repairs: int = 0
    under_quorum_writes: int = 0
    expired_drops: int = 0
    reshards: int = 0
    keys_moved: int = 0
    bytes_moved: int = 0
    keys_dropped: int = 0
    invalidation_fanouts: int = 0
    node_faults: int = 0

    def to_dict(self) -> dict:
        return dict(vars(self))


class ReplicatedStore:
    """An elastic, R-way replicated cache tier over a consistent-hash ring.

    Its counters are read through :meth:`statz`: per node, and summed
    into the ``fleet`` rollup.
    """

    def __init__(
        self,
        node_ids=("cache0", "cache1", "cache2"),
        *,
        replication: int = 2,
        latency_s: float = 0.0008,
        per_mb_s: float = 0.004,
        clock: Clock | None = None,
        ttl_s: float | None = None,
        faults=None,
    ):
        node_ids = tuple(node_ids)
        if not node_ids:
            raise ValueError("the cache tier needs at least one node")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.replication = replication
        self.write_quorum = replication // 2 + 1
        self.latency_s = latency_s
        self.per_mb_s = per_mb_s
        self.clock = clock or SYSTEM_CLOCK
        self.ttl_s = ttl_s
        #: Optional seed-keyed FaultPlan consulted once per node call
        #: (op ``kv.get`` / ``kv.put``, source = the node id).
        self.faults = faults
        self._ring = HashRing(node_ids)
        self._nodes: dict[str, CacheNode] = {
            node_id: self._make_node(node_id) for node_id in node_ids
        }
        self._lock = threading.RLock()
        self._version = 0
        self.stats = TierStats()
        #: Warm-up copies coalesce here: concurrent migration and
        #: read-repair of the same key share one copy instead of racing.
        self._warm = SingleFlightRegistry("cache-tier-warm", clock=clock)
        self._warm_timeout_s = 30.0

    def _make_node(self, node_id: str) -> CacheNode:
        return CacheNode(
            node_id,
            KeyValueStore(
                latency_s=self.latency_s, per_mb_s=self.per_mb_s, clock=self.clock
            ),
        )

    # ------------------------------------------------------------------ #
    # Node-level I/O (fault-injectable)
    # ------------------------------------------------------------------ #
    def _faulted(self, op: str, node: CacheNode) -> bool:
        """Consult the fault plan; True = this call fails (node unreachable)."""
        if self.faults is None:
            return False
        decision = self.faults.decide(op, node.node_id)
        if decision.clean:
            return False
        if decision.kind == "latency":
            self.clock.sleep(decision.latency_s)
            return False
        with self._lock:
            self.stats.node_faults += 1
        if obs.events_enabled():
            obs.event(
                "fault.injected",
                decision.kind,
                f"injected {decision.kind} on {op} against cache node "
                f"{node.node_id}; treating the node as unreachable for this call",
                op=op,
                node=node.node_id,
            )
        return True

    def _probe(self, node: CacheNode, key: str) -> tuple[int, float, bytes] | None:
        """One replica GET: None on miss, injected fault, or expiry."""
        if not node.alive or self._faulted("kv.get", node):
            return None
        blob = node.store.get(key)
        if blob is None:
            return None
        version, expires_at, payload = _unpack(blob)
        if expires_at and self.clock.monotonic() >= expires_at:
            node.store.delete(key)
            with self._lock:
                self.stats.expired_drops += 1
            if obs.events_enabled():
                obs.event(
                    "replica.expired",
                    "dropped",
                    "entry outlived its TTL; dropped on read",
                    key=key[:40],
                    node=node.node_id,
                )
            return None
        return version, expires_at, payload

    def _write(self, node: CacheNode, key: str, blob: bytes) -> bool:
        if not node.alive or self._faulted("kv.put", node):
            return False
        node.store.put(key, blob)
        return True

    # ------------------------------------------------------------------ #
    # GET / PUT / DELETE
    # ------------------------------------------------------------------ #
    def get(self, key: str, *, mode: str = "one") -> bytes | None:
        """Read ``key`` from its preference list.

        ``mode="one"`` (the serving fast path) probes replicas in order
        and serves the first hit, back-filling any earlier replica that
        missed. ``mode="quorum"`` probes every live replica, serves the
        newest version and repairs the rest — slower, used by the
        convergence sweep and by callers that need
        read-your-latest-write across a replica failure.
        """
        with self._lock:
            self.stats.reads += 1
            owners = self._owner_nodes(key)
        if mode == "quorum":
            return self._quorum_get(key, owners)
        missed: list[CacheNode] = []
        for idx, node in enumerate(owners):
            found = self._probe(node, key)
            if found is None:
                missed.append(node)
                continue
            version, expires_at, payload = found
            if idx > 0:
                with self._lock:
                    self.stats.fallback_reads += 1
                if obs.events_enabled():
                    obs.event(
                        "replica.fallback",
                        "served",
                        f"primary replica missed; served from replica "
                        f"{idx + 1} of {len(owners)} ({node.node_id})",
                        key=key[:40],
                        node=node.node_id,
                        replica_index=idx,
                    )
            if missed:
                self._repair(key, _pack(version, expires_at, payload), missed)
            return payload
        return None

    def _quorum_get(self, key: str, owners) -> bytes | None:
        hits: list[tuple[int, float, bytes, CacheNode]] = []
        missed: list[CacheNode] = []
        for node in owners:
            found = self._probe(node, key)
            if found is None:
                missed.append(node)
            else:
                hits.append((*found, node))
        if not hits:
            return None
        version, expires_at, payload, _node = max(hits, key=lambda h: h[0])
        stale = [node for v, _e, _p, node in hits if v < version]
        behind = missed + stale
        if behind:
            self._repair(key, _pack(version, expires_at, payload), behind)
        return payload

    def _repair(self, key: str, blob: bytes, targets) -> int:
        """Back-fill ``targets`` with the newest version of ``key``.

        Coalesced per key: concurrent repairs (or a repair racing a
        migration copy) share one flight, so replica convergence never
        multiplies the work under a read herd.
        """
        flight, ticket = self._warm.lead_or_join(
            _KeyFlight(f"warm|{key}"), subsume=False
        )
        if ticket is not None:
            ticket.wait(self._warm_timeout_s, clock=self.clock)
            return 0
        repaired = 0
        try:
            for node in targets:
                if self._write(node, key, blob):
                    repaired += 1
                    with self._lock:
                        node.repairs_received += 1
                        self.stats.read_repairs += 1
                    if obs.events_enabled():
                        obs.event(
                            "replica.read_repair",
                            "repaired",
                            "replica was missing or behind; back-filled the "
                            "newest version",
                            key=key[:40],
                            node=node.node_id,
                        )
        finally:
            self._warm.publish(flight, repaired)
        return repaired

    def put(self, key: str, payload: bytes, *, ttl_s: float | None = None) -> int:
        """Replicate ``key`` to its preference list; returns replicas acked.

        An ack count below ``write_quorum`` is reported (event + counter)
        — the entry is still best-effort readable, but a caller that
        needs kill-tolerance should treat the write as unacknowledged.
        """
        ttl = self.ttl_s if ttl_s is None else ttl_s
        expires_at = self.clock.monotonic() + ttl if ttl else 0.0
        with self._lock:
            self._version += 1
            version = self._version
            self.stats.writes += 1
            owners = self._owner_nodes(key)
        blob = _pack(version, expires_at, payload)
        acked = 0
        for node in owners:
            if self._write(node, key, blob):
                acked += 1
        if acked < self.write_quorum:
            with self._lock:
                self.stats.under_quorum_writes += 1
            if obs.events_enabled():
                obs.event(
                    "replica.under_quorum",
                    "degraded",
                    f"write acked by {acked} of {len(owners)} replicas "
                    f"(quorum {self.write_quorum}); entry is not kill-tolerant",
                    key=key[:40],
                    acked=acked,
                    quorum=self.write_quorum,
                )
        return acked

    def delete(self, key: str) -> None:
        """Drop ``key`` everywhere it could be served from."""
        with self._lock:
            self.stats.deletes += 1
            nodes = [n for n in self._nodes.values() if n.alive]
        for node in nodes:
            node.store.delete(key)

    # ------------------------------------------------------------------ #
    # Topology: join / leave / kill / fail / recover
    # ------------------------------------------------------------------ #
    def join(self, node_id: str, *, warm: bool = True) -> dict:
        """Add a node and (by default) migrate its key ranges onto it.

        Copies land before any surplus replica is dropped, so an entry
        acked at quorum never transits through fewer live copies than it
        had — topology changes preserve kill-tolerance.
        """
        with self._lock:
            if node_id in self._nodes:
                raise ValueError(f"node {node_id!r} already in the tier")
            node = self._make_node(node_id)
            self._nodes[node_id] = node
            self._ring.add_node(node_id)
        obs.event(
            "ring.join",
            "added",
            f"node {node_id} joined the ring"
            + ("; migrating its key ranges" if warm else " cold (no warm-up)"),
            node=node_id,
            nodes=len(self._ring),
        )
        report = {"node": node_id, "keys_moved": 0, "bytes_moved": 0, "keys_dropped": 0}
        if warm:
            report.update(self._migrate_onto(node))
        return report

    def _migrate_onto(self, node: CacheNode) -> dict:
        """Warm a joined node with exactly the keys the ring assigns it."""
        to_copy: list[str] = []
        to_drop: list[tuple[CacheNode, str]] = []
        with self._lock:
            holders = {
                other.node_id: set(other.store.keys())
                for other in self._nodes.values()
                if other is not node and other.alive
            }
        for key in sorted(set().union(*holders.values()) if holders else ()):
            owners = self.owners(key)
            if node.node_id in owners:
                to_copy.append(key)
            for holder_id, held in holders.items():
                if key in held and holder_id not in owners:
                    to_drop.append((self._nodes[holder_id], key))
        obs.event(
            "reshard.plan",
            "planned",
            f"join of {node.node_id}: {len(to_copy)} key(s) to migrate, "
            f"{len(to_drop)} surplus replica(s) to drop",
            node=node.node_id,
            copies=len(to_copy),
            drops=len(to_drop),
        )
        moved = bytes_moved = 0
        for key in to_copy:
            blob = self._newest_blob(key, exclude=node.node_id)
            if blob is None:
                continue
            if self._copy_key(key, blob, node):
                moved += 1
                bytes_moved += len(blob)
        # Copies first, drops second: replica count never dips mid-reshard.
        for holder, key in to_drop:
            holder.store.delete(key)
        with self._lock:
            self.stats.reshards += 1
            self.stats.keys_moved += moved
            self.stats.bytes_moved += bytes_moved
            self.stats.keys_dropped += len(to_drop)
        obs.event(
            "reshard.done",
            "migrated",
            f"join of {node.node_id} complete: {moved} key(s) "
            f"({bytes_moved} payload bytes) migrated, {len(to_drop)} dropped",
            node=node.node_id,
            keys_moved=moved,
            bytes_moved=bytes_moved,
            keys_dropped=len(to_drop),
        )
        return {"keys_moved": moved, "bytes_moved": bytes_moved, "keys_dropped": len(to_drop)}

    def _newest_blob(self, key: str, *, exclude: str | None = None) -> bytes | None:
        """The newest live replica of ``key`` (paying one read round trip)."""
        with self._lock:
            candidates = [
                n
                for n in self._nodes.values()
                if n.alive and n.node_id != exclude
            ]
        best: tuple[int, bytes] | None = None
        best_node: CacheNode | None = None
        for node in candidates:
            blob = node.store.peek(key)
            if blob is None:
                continue
            version = _unpack(blob)[0]
            if best is None or version > best[0]:
                best = (version, blob)
                best_node = node
        if best is None or best_node is None:
            return None
        return best_node.store.get(key) or best[1]

    def _copy_key(self, key: str, blob: bytes, target: CacheNode) -> bool:
        """One coalesced migration copy (shares flights with read-repair)."""
        flight, ticket = self._warm.lead_or_join(
            _KeyFlight(f"warm|{key}"), subsume=False
        )
        if ticket is not None:
            ticket.wait(self._warm_timeout_s, clock=self.clock)
            return False
        try:
            if not self._write(target, key, blob):
                return False
            with self._lock:
                target.migrated_in += 1
            if obs.events_enabled():
                obs.event(
                    "reshard.copy",
                    "copied",
                    "key range moved to its new owner",
                    key=key[:40],
                    node=target.node_id,
                )
            return True
        finally:
            self._warm.publish(flight, True)

    def leave(self, node_id: str) -> dict:
        """Gracefully drain a node: push its newest data to the new owners,
        then withdraw it from the ring."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                raise ValueError(f"no node {node_id!r} in the tier")
            if len(self._ring) <= 1:
                raise ValueError("cannot drain the last node of the tier")
            held = sorted(node.store.keys())
            self._ring.remove_node(node_id)
        obs.event(
            "ring.leave",
            "draining",
            f"node {node_id} leaving the ring; draining {len(held)} key(s) "
            "to their new owners",
            node=node_id,
            keys=len(held),
        )
        moved = bytes_moved = 0
        for key in held:
            blob = node.store.get(key)
            if blob is None:
                continue
            version, _expires, _payload = _unpack(blob)
            for owner in self._owner_nodes(key):
                existing = None if not owner.alive else owner.store.peek(key)
                if existing is not None and _unpack(existing)[0] >= version:
                    continue
                if self._write(owner, key, blob):
                    moved += 1
                    bytes_moved += len(blob)
        with self._lock:
            node.alive = False
            node.store.flush()
            del self._nodes[node_id]
            self.stats.reshards += 1
            self.stats.keys_moved += moved
            self.stats.bytes_moved += bytes_moved
        obs.event(
            "reshard.done",
            "drained",
            f"leave of {node_id} complete: {moved} replica(s) "
            f"({bytes_moved} payload bytes) pushed to new owners",
            node=node_id,
            keys_moved=moved,
            bytes_moved=bytes_moved,
        )
        return {"node": node_id, "keys_moved": moved, "bytes_moved": bytes_moved}

    def kill(self, node_id: str) -> None:
        """A crash: the node vanishes with its data; survivors keep serving
        their replicas (read-repair / :meth:`repair_sweep` restore R-way)."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None:
                raise ValueError(f"no node {node_id!r} in the tier")
            if len(self._ring) <= 1:
                raise ValueError("cannot kill the last node of the tier")
            self._ring.remove_node(node_id)
            node.alive = False
            node.store.flush()
            del self._nodes[node_id]
        obs.event(
            "ring.kill",
            "crashed",
            f"node {node_id} crashed and left the ring with its data; "
            "surviving replicas keep serving, re-replication is lazy",
            node=node_id,
            nodes=len(self._ring),
        )

    def fail(self, node_id: str) -> None:
        """Mark a node unreachable (outage, not crash): it keeps its data
        and its ring points, but every call to it fails until recovery."""
        with self._lock:
            self._nodes[node_id].alive = False
        obs.event(
            "ring.fail",
            "unreachable",
            f"node {node_id} is unreachable; reads fall back to replicas, "
            "writes may land under quorum",
            node=node_id,
        )

    def recover(self, node_id: str) -> None:
        """The failed node is back — possibly with stale versions, which
        read-repair (or a sweep) converges."""
        with self._lock:
            self._nodes[node_id].alive = True
        obs.event(
            "ring.recover",
            "reachable",
            f"node {node_id} is reachable again; stale replicas converge "
            "via read-repair",
            node=node_id,
        )

    def repair_sweep(self) -> dict:
        """Quorum-read every key: converges all live replicas to the newest
        version and restores R-way replication after a kill/recovery."""
        with self._lock:
            keys = sorted(
                set().union(
                    *(set(n.store.keys()) for n in self._nodes.values() if n.alive)
                )
                if self._nodes
                else ()
            )
            repairs_before = self.stats.read_repairs
        for key in keys:
            self.get(key, mode="quorum")
        with self._lock:
            repaired = self.stats.read_repairs - repairs_before
        obs.event(
            "reshard.done",
            "swept",
            f"repair sweep over {len(keys)} key(s): {repaired} replica(s) "
            "back-filled",
            keys=len(keys),
            repaired=repaired,
        )
        return {"keys": len(keys), "repaired": repaired}

    # ------------------------------------------------------------------ #
    # Invalidation fan-out (extract refresh / DDL)
    # ------------------------------------------------------------------ #
    def invalidate_prefix(self, prefix: str) -> int:
        """Fan a namespace purge out to every live node; returns distinct
        keys removed. The cache-tier arm of the refresh/DDL invalidation
        path the plan cache already walks."""
        doomed: set[str] = set()
        with self._lock:
            nodes = [n for n in self._nodes.values() if n.alive]
            self.stats.invalidation_fanouts += 1
        for node in nodes:
            for key in node.store.keys():
                if key.startswith(prefix):
                    doomed.add(key)
                    node.store.delete(key)
        obs.event(
            "replica.invalidate",
            "fanned_out",
            f"invalidation of prefix {prefix!r} fanned out to "
            f"{len(nodes)} node(s); {len(doomed)} key(s) dropped",
            prefix=prefix[:40],
            nodes=len(nodes),
            keys=len(doomed),
        )
        return len(doomed)

    # ------------------------------------------------------------------ #
    # Placement / introspection
    # ------------------------------------------------------------------ #
    def owners(self, key: str) -> tuple[str, ...]:
        with self._lock:
            return self._ring.owners(key, self.replication)

    def _owner_nodes(self, key: str) -> list[CacheNode]:
        return [
            self._nodes[node_id]
            for node_id in self._ring.owners(key, self.replication)
            if node_id in self._nodes
        ]

    def describe(self, key: str) -> dict | None:
        """EXPLAIN's view of one key: who owns it, who holds it, whether a
        request right now would fall back to a replica or trigger repair.
        Reads raw state (no round trips, no counters skewed)."""
        with self._lock:
            owners = self._ring.owners(key, self.replication)
            holders: list[tuple[str, int]] = []
            for node_id in owners:
                node = self._nodes.get(node_id)
                if node is None or not node.alive:
                    continue
                blob = node.store.peek(key)
                if blob is not None:
                    holders.append((node_id, _unpack(blob)[0]))
        if not holders:
            return None
        newest = max(v for _n, v in holders)
        holder_ids = [n for n, _v in holders]
        served_by = holder_ids[0]
        fallback = bool(owners) and served_by != owners[0]
        needs_repair = len(holders) < len(owners) or any(
            v < newest for _n, v in holders
        )
        note = f"cache-tier key held by {', '.join(holder_ids)}"
        if fallback:
            note += (
                f"; primary {owners[0]} would miss — served from replica "
                f"{served_by}"
            )
        if needs_repair:
            note += "; a read would back-fill the lagging replica(s)"
        return {
            "owners": list(owners),
            "holders": holder_ids,
            "served_by": served_by,
            "fallback": fallback,
            "needs_repair": needs_repair,
            "note": note,
        }

    def __len__(self) -> int:
        with self._lock:
            keys: set[str] = set()
            for node in self._nodes.values():
                if node.alive:
                    keys.update(node.store.keys())
            return len(keys)

    def live_nodes(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(n.node_id for n in self._nodes.values() if n.alive))

    def node(self, node_id: str) -> CacheNode:
        with self._lock:
            return self._nodes[node_id]

    def statz(self) -> dict:
        """Per-node counters plus the fleet rollup — the operator view."""
        with self._lock:
            nodes = {
                node_id: node.statz() for node_id, node in sorted(self._nodes.items())
            }
            snap = {
                "name": "cache-tier",
                "replication": self.replication,
                "write_quorum": self.write_quorum,
                "ring": self._ring.snapshot(),
                "nodes": nodes,
                "fleet": {
                    "live_nodes": sum(1 for n in self._nodes.values() if n.alive),
                    "distinct_keys": 0,  # filled below, outside the sum loop
                    "gets": sum(s["gets"] for s in nodes.values()),
                    "hits": sum(s["hits"] for s in nodes.values()),
                    "misses": sum(s["misses"] for s in nodes.values()),
                    "puts": sum(s["puts"] for s in nodes.values()),
                    "bytes": sum(s["bytes"] for s in nodes.values()),
                    **self.stats.to_dict(),
                },
            }
        snap["fleet"]["distinct_keys"] = len(self)
        return snap
