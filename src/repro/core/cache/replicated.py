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
* **GET with inline read-repair.** The fast path probes the preference
  list in order and serves the first hit; a hit found on a later replica
  back-fills the earlier ones (``replica.read_repair``).
  ``mode="quorum"`` probes every live replica, serves the newest version
  and back-fills the rest.
* **One convergence rule for topology changes** (:meth:`_converge`).
  A warm :meth:`join` converges the keys it now owns, :meth:`repair_sweep`
  every key; :meth:`leave` takes the node off the ring and converges its
  keys while it is still readable. :meth:`kill` models a crash (data
  lost, survivors keep serving). Every replica copy, read-repair included, runs through
  one per-key flight of a private
  :class:`~repro.core.coalesce.SingleFlightRegistry`, so a herd racing a
  migration never copies the same key twice.
* **TTL + invalidation fan-out.** Entries may carry a TTL (lazily
  expired on read against the injectable clock) and
  :meth:`invalidate_prefix` fans a namespace purge out to every live
  node — the extract-refresh/DDL path, mirroring the plan cache's
  invalidation discipline. A node that is down when a purge fans out
  applies it in :meth:`recover`, before it serves again.

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
from ...clock import SYSTEM_CLOCK, Clock
from ..coalesce import SingleFlightRegistry
from .distributed import KeyValueStore
from .ring import HashRing

_ENVELOPE = struct.Struct(">Qd")  # version, expires_at (0.0 = never)


def _pack(version: int, expires_at: float, payload: bytes) -> bytes:
    return _ENVELOPE.pack(version, expires_at) + payload


def _unpack(blob: bytes) -> tuple[int, float, bytes]:
    version, expires_at = _ENVELOPE.unpack_from(blob)
    return version, expires_at, blob[_ENVELOPE.size :]


def _purge(store: KeyValueStore, prefix: str) -> list[str]:
    """Delete every key under ``prefix`` from one node's store."""
    doomed = [key for key in store.keys() if key.startswith(prefix)]
    for key in doomed:
        store.delete(key)
    return doomed


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
        clock: Clock = SYSTEM_CLOCK,
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
        self.clock = clock
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
        #: Prefixes purged while a node was down, applied when it recovers.
        self._missed: dict[str, set[str]] = {}

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

    def _read(self, key: str, nodes) -> dict[str, tuple[int, float, bytes]]:
        """Probe ``nodes``: the envelope each returned, by node id (newest = max)."""
        return {node.node_id: found for node in nodes if (found := self._probe(node, key))}

    def _copy(self, key: str, blob: bytes, targets, *, migrate: bool = False) -> int:
        """Write ``blob`` to ``targets`` under the key's one warm flight, the
        path of every replica copy; returns the copies that landed (0 when
        another flight held the key). ``migrate`` copies count as moved
        keys, the rest as read-repairs."""
        if not targets:
            return 0
        flight, ticket = self._warm.lead_or_join(_KeyFlight(f"warm|{key}"), subsume=False)
        if ticket is not None:
            ticket.wait(self._warm_timeout_s, clock=self.clock)
            return 0
        landed = 0
        try:
            for node in targets:
                if not self._write(node, key, blob):
                    continue
                landed += 1
                with self._lock:
                    if migrate:
                        node.migrated_in += 1
                    else:
                        node.repairs_received += 1
                        self.stats.read_repairs += 1
                if migrate:
                    obs.event(
                        "reshard.copy",
                        "copied",
                        "key range moved to its new owner",
                        key=key[:40],
                        node=node.node_id,
                    )
                else:
                    obs.event(
                        "replica.read_repair",
                        "repaired",
                        "replica was missing or behind; back-filled the newest version",
                        key=key[:40],
                        node=node.node_id,
                    )
        finally:
            self._warm.publish(flight, landed)
        return landed

    # ------------------------------------------------------------------ #
    # GET / PUT / DELETE
    # ------------------------------------------------------------------ #
    def get(self, key: str, *, mode: str = "one") -> bytes | None:
        """Read ``key`` from its preference list.

        ``mode="one"`` (the serving fast path) probes replicas in order
        and serves the first hit, back-filling any earlier replica that
        missed. ``mode="quorum"`` probes every live replica, serves the
        newest version and repairs the rest — slower, for callers that
        need read-your-latest-write across a replica failure.
        """
        with self._lock:
            self.stats.reads += 1
            owners = self._owner_nodes(key)
        if mode == "quorum":
            read = self._read(key, owners)
            if not read:
                return None
            best = max(read.values())
            self._copy(key, _pack(*best), [n for n in owners if read.get(n.node_id) != best])
            return best[2]
        for idx, node in enumerate(owners):
            found = self._probe(node, key)
            if found is None:
                continue
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
                self._copy(key, _pack(*found), owners[:idx])
            return found[2]
        return None

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
    # Topology: join / leave / kill / fail / recover / repair_sweep
    # ------------------------------------------------------------------ #
    def join(self, node_id: str, *, warm: bool = True) -> dict:
        """Add a node and (by default) converge the keys whose preference
        list now includes it, which warms it with exactly the keys it owns."""
        with self._lock:
            if node_id in self._nodes:
                raise ValueError(f"node {node_id!r} already in the tier")
            self._nodes[node_id] = self._make_node(node_id)
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
            keys = [k for k in self._held_keys() if node_id in self.owners(k)]
            report.update(self._converge(keys, f"join of {node_id}", node=node_id))
        return report

    def leave(self, node_id: str) -> dict:
        """Gracefully drain a node: take it off the ring, converge its keys
        onto their new owners while it is still readable, then withdraw it.
        An unreachable node has nothing to drain; its leave is a kill."""
        with self._lock:
            node = self._unring(node_id)
            held = node.store.keys() if node.alive else ()
        obs.event(
            "ring.leave",
            "draining",
            f"node {node_id} leaving the ring; draining {len(held)} key(s) "
            "to their new owners",
            node=node_id,
            keys=len(held),
        )
        moved = self._converge(held, f"leave of {node_id}", node=node_id)
        self._withdraw(node)
        moved.pop("keys_dropped")
        return {"node": node_id, **moved}

    def kill(self, node_id: str) -> None:
        """A crash: the node vanishes with its data; survivors keep serving
        their replicas (read-repair / :meth:`repair_sweep` restore R-way)."""
        with self._lock:
            self._withdraw(self._unring(node_id))
        obs.event(
            "ring.kill",
            "crashed",
            f"node {node_id} crashed and left the ring with its data; "
            "surviving replicas keep serving, re-replication is lazy",
            node=node_id,
            nodes=len(self._ring),
        )

    def _unring(self, node_id: str) -> CacheNode:
        """Take a node off the ring (it stays in the tier until withdrawn)."""
        node = self._nodes.get(node_id)
        if node is None:
            raise ValueError(f"no node {node_id!r} in the tier")
        if len(self._ring) <= 1:
            raise ValueError("cannot remove the last node of the tier")
        self._ring.remove_node(node_id)
        return node

    def _withdraw(self, node: CacheNode) -> None:
        with self._lock:
            node.alive = False
            node.store.flush()
            del self._nodes[node.node_id]
            self._missed.pop(node.node_id, None)

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
        """The failed node is back. It first applies every invalidation it
        missed while down; stale versions it still holds converge via
        read-repair (or a sweep)."""
        with self._lock:
            node = self._nodes[node_id]
            for prefix in self._missed.pop(node_id, ()):
                _purge(node.store, prefix)
            node.alive = True
        obs.event(
            "ring.recover",
            "reachable",
            f"node {node_id} is reachable again; stale replicas converge "
            "via read-repair",
            node=node_id,
        )

    def repair_sweep(self) -> dict:
        """Converge every key: back-fill lagging and missing owners with
        the newest version and drop surplus copies on non-owners, which
        restores R-way placement after a kill, a recovery or a cold join."""
        keys = self._held_keys()
        report = self._converge(keys, "repair sweep")
        return {"keys": len(keys), "repaired": report["keys_moved"]}

    def _converge(self, keys, why: str, *, node: str | None = None) -> dict:
        """Move each key to where the ring says it lives.

        Per key: probe every live holder, copy the newest version to every
        ring owner that lacks it or holds an older one, then drop the copy
        from every live non-owner. Copies land before drops, and a key no
        owner holds after the copies keeps its surplus copies, so an entry
        never transits through fewer live copies than it had. A key with a
        holder that could not be read is left as it is (that copy may be
        the newest). A ``node``'s join or leave counts its copies as moved.
        """
        keys = sorted(keys)
        migrate = node is not None
        obs.event(
            "reshard.plan",
            "planned",
            f"{why}: converging {len(keys)} key(s) onto their ring owners",
            node=node,
            keys=len(keys),
        )
        copies = nbytes = drops = 0
        for key in keys:
            with self._lock:
                owners = self._owner_nodes(key)
                holders = [n for n in self._nodes.values() if n.alive and n.store.peek(key)]
            read = self._read(key, holders)
            if not read or any(n.node_id not in read and n.store.peek(key) for n in holders):
                continue
            best = max(read.values())
            blob = _pack(*best)
            lacking = [n for n in owners if read.get(n.node_id) != best]
            landed = self._copy(key, blob, lacking, migrate=migrate)
            copies += landed
            nbytes += landed * len(blob)
            owner_ids = {n.node_id for n in owners}
            if landed or len(lacking) < len(owners):
                for holder in holders:
                    if holder.node_id in read and holder.node_id not in owner_ids:
                        holder.store.delete(key)
                        drops += 1
        with self._lock:
            if migrate:
                self.stats.reshards += 1
                self.stats.keys_moved += copies
                self.stats.bytes_moved += nbytes
            self.stats.keys_dropped += drops
        report = {"keys_moved": copies, "bytes_moved": nbytes, "keys_dropped": drops}
        obs.event(
            "reshard.done",
            "converged",
            f"{why} complete: {copies} cop(ies) landed on owners, {drops} surplus dropped",
            node=node,
            keys=len(keys),
            **report,
        )
        return report

    # ------------------------------------------------------------------ #
    # Invalidation fan-out (extract refresh / DDL)
    # ------------------------------------------------------------------ #
    def invalidate_prefix(self, prefix: str) -> int:
        """Fan a namespace purge out to every live node; returns distinct
        keys removed. The cache-tier arm of the refresh/DDL invalidation
        path the plan cache already walks. A down node records the prefix
        and applies it in :meth:`recover`."""
        doomed: set[str] = set()
        with self._lock:
            nodes = [n for n in self._nodes.values() if n.alive]
            for node in self._nodes.values():
                if not node.alive:
                    self._missed.setdefault(node.node_id, set()).add(prefix)
            self.stats.invalidation_fanouts += 1
        for node in nodes:
            doomed.update(_purge(node.store, prefix))
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

    def _held_keys(self) -> set[str]:
        """Every key some live node holds (a raw listing, no round trips)."""
        with self._lock:
            return set().union(*(n.store.keys() for n in self._nodes.values() if n.alive))

    def __len__(self) -> int:
        return len(self._held_keys())

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
