"""Stateful test of the replicated cache tier.

A hypothesis state machine drives one :class:`ReplicatedStore` through
writes, reads, namespace purges and topology churn (fail, recover, warm
and cold joins, leaves, kills, repair sweeps) on virtual time with zero
modeled latency, and checks three invariants:

* **no stale serve** — a GET never returns a payload written before the
  latest invalidation of its namespace, and no live node holds one,
  whatever the tier's topology did in between (a node that was down for
  the purge included);
* **convergence** — after every fault-free repair sweep, every live owner
  of every key holds identical bytes and no live non-owner holds the key;
* **no rollback** — no step replaces a node's copy of a key with an older
  version, even when a join, leave or sweep runs while one node's GETs
  fail.

At most one node is down at a time, the outage R=2 tolerates.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.cache.replicated import ReplicatedStore, _unpack
from repro.clock import VirtualTimeClock
from repro.faults.plan import FaultPlan, FaultRule

from .test_reshard_chaos import _assert_converged

NAMESPACES = ("faa|", "retail|")
KEYS = tuple(f"{ns}q{i}" for ns in NAMESPACES for i in range(4))
MAX_NODES = 6


def _namespace(key: str) -> str:
    return key.split("|", 1)[0] + "|"


class TierMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = ReplicatedStore(
            ("n0", "n1", "n2"),
            replication=2,
            clock=VirtualTimeClock(),
            latency_s=0.0,
            per_mb_s=0.0,
        )
        self.nodes = ["n0", "n1", "n2"]
        self.down: str | None = None
        self.joined = 0
        self.seq = 0
        #: The last write sequence number each namespace's purge covered.
        self.purged_at = dict.fromkeys(NAMESPACES, 0)
        #: (node, key) -> the version that node held after the last step.
        self.versions: dict[tuple[str, str], int] = {}

    @rule(key=st.sampled_from(KEYS))
    def put(self, key):
        self.seq += 1
        self.store.put(key, f"{key}#{self.seq}".encode())

    def _assert_fresh(self, key: str, payload: bytes, where: str) -> None:
        written = int(payload.decode().rsplit("#", 1)[1])
        purged = self.purged_at[_namespace(key)]
        assert written > purged, (
            f"{key}: {where} write #{written}, purged through #{purged}"
        )

    @rule(key=st.sampled_from(KEYS), quorum=st.booleans())
    def get(self, key, quorum):
        got = self.store.get(key, mode="quorum" if quorum else "one")
        if got is not None:
            self._assert_fresh(key, got, "served")

    @invariant()
    def live_copies_are_fresh_and_never_rolled_back(self):
        versions: dict[tuple[str, str], int] = {}
        for node_id in self.store.live_nodes():
            for key in self.store.node(node_id).store.keys():
                version, _expires, payload = _unpack(self.store.node(node_id).store.peek(key))
                self._assert_fresh(key, payload, f"{node_id} holds")
                previous = self.versions.get((node_id, key), 0)
                assert version >= previous, f"{node_id} rolled {key} back to v{version}"
                versions[node_id, key] = version
        self.versions = versions

    def _flaky(self, data) -> bool:
        """Maybe make one node's GETs fail until the next step; True if so."""
        node_id = data.draw(st.none() | st.sampled_from(self.nodes))
        rules = [FaultRule("error", op="kv.get", source=node_id)] if node_id else []
        self.store.faults = FaultPlan.scripted(rules) if rules else None
        return bool(rules)

    @rule(namespace=st.sampled_from(NAMESPACES))
    def invalidate_prefix(self, namespace):
        self.store.invalidate_prefix(namespace)
        self.purged_at[namespace] = self.seq

    @precondition(lambda self: self.down is None)
    @rule(data=st.data())
    def fail(self, data):
        self.down = data.draw(st.sampled_from(self.nodes))
        self.store.fail(self.down)

    @precondition(lambda self: self.down is not None)
    @rule()
    def recover(self):
        self.store.recover(self.down)
        self.down = None

    @precondition(lambda self: len(self.nodes) < MAX_NODES)
    @rule(warm=st.booleans(), data=st.data())
    def join(self, warm, data):
        self.joined += 1
        node_id = f"j{self.joined}"
        self._flaky(data)
        self.store.join(node_id, warm=warm)
        self.store.faults = None
        self.nodes.append(node_id)

    def _remove(self, data) -> str:
        node_id = data.draw(st.sampled_from(self.nodes))
        self.nodes.remove(node_id)
        if node_id == self.down:
            self.down = None
        return node_id

    @precondition(lambda self: len(self.nodes) > 2)
    @rule(data=st.data())
    def leave(self, data):
        self._flaky(data)
        self.store.leave(self._remove(data))
        self.store.faults = None

    @precondition(lambda self: len(self.nodes) > 2)
    @rule(data=st.data())
    def kill(self, data):
        self.store.kill(self._remove(data))

    @rule(data=st.data())
    def repair_sweep(self, data):
        flaky = self._flaky(data)
        self.store.repair_sweep()
        self.store.faults = None
        if not flaky:
            _assert_converged(self.store)


TierMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestTierState = TierMachine.TestCase
