"""Chaos suite for the elastic cache tier: topology churn under faults.

The safety contracts the replicated tier must keep while nodes die,
join, drain, and come back mid-trace (all on virtual time, all seeded):

* **no lost acknowledged writes at R>=2** — an entry whose PUT was acked
  by the write quorum survives any single node kill between repair
  sweeps, byte-for-byte;
* **read-repair convergence** — after the trace quiesces (one quorum
  sweep), every live owner of every key holds a byte-identical envelope;
* **reshard safety** — a join warms exactly the keys the ring assigns
  the new node and surplus replicas are dropped, copies-before-drops, so
  replica count never dips mid-reshard;
* **replayability** — the same seed and script replay a byte-identical
  fault schedule *and* decision-event log, twice.

Warm-up/repair copies go through the single-flight registry, so a herd
racing a migration never duplicates a copy — asserted directly here by
holding a warm flight open while a reader tries to repair through it.
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro import obs
from repro.core.cache.replicated import ReplicatedStore, _KeyFlight, _unpack
from repro.clock import VirtualTimeClock
from repro.faults.plan import FaultPlan, FaultRule

SEED = 2024


def _tier(
    node_ids=("n0", "n1", "n2", "n3"),
    *,
    replication: int = 2,
    clock: VirtualTimeClock | None = None,
    faults: FaultPlan | None = None,
    ttl_s: float | None = None,
) -> ReplicatedStore:
    return ReplicatedStore(
        node_ids,
        replication=replication,
        clock=clock or VirtualTimeClock(),
        faults=faults,
        ttl_s=ttl_s,
        latency_s=0.0005,
        per_mb_s=0.002,
    )


def _payload(key: str, version: int) -> bytes:
    return f"{key}@{version}".encode() * 3


def _assert_converged(store: ReplicatedStore) -> int:
    """After quiesce every live owner holds identical bytes; no non-owner
    holds the key. Returns how many keys were checked."""
    live = store.live_nodes()
    keys: set[str] = set()
    for node_id in live:
        keys.update(store.node(node_id).store.keys())
    for key in sorted(keys):
        owners = [n for n in store.owners(key) if n in live]
        blobs = {store.node(n).store.peek(key) for n in owners}
        assert len(blobs) == 1 and None not in blobs, (
            f"{key}: owners {owners} disagree after quiesce"
        )
        for node_id in live:
            if node_id not in owners:
                assert store.node(node_id).store.peek(key) is None, (
                    f"{key}: non-owner {node_id} still holds a replica"
                )
    return len(keys)


class TestNoLostAckedWrites:
    def test_acked_writes_survive_kills_between_sweeps(self):
        """Seeded trace: write, kill, sweep, join, kill again — every
        quorum-acked entry stays readable with its latest payload."""
        clock = VirtualTimeClock()
        store = _tier(clock=clock, replication=2)
        rng = random.Random(SEED)
        acked: dict[str, bytes] = {}

        def write_burst(n: int) -> None:
            for _ in range(n):
                key = f"zone-{rng.randrange(40)}"
                blob = _payload(key, rng.randrange(1_000_000))
                if store.put(key, blob) >= store.write_quorum:
                    acked[key] = blob

        def assert_all_readable() -> None:
            for key, expected in sorted(acked.items()):
                got = store.get(key, mode="quorum")
                assert got == expected, f"{key}: acked write lost"

        write_burst(80)
        store.kill("n1")  # data gone with the node
        assert_all_readable()
        store.repair_sweep()  # restore R-way before the next failure
        write_burst(40)
        store.join("n4")  # warmed join mid-trace
        assert_all_readable()
        store.kill("n3")
        assert_all_readable()
        store.repair_sweep()
        assert _assert_converged(store) > 0
        assert store.stats.under_quorum_writes == 0  # every put found its quorum
        assert clock.monotonic() > 0.0  # round trips ran on virtual time

    def test_under_quorum_writes_are_reported_not_silent(self):
        store = _tier(("a", "b"), replication=2)
        store.fail("b")
        key = "k"
        # With one of two replicas unreachable the put acks below quorum.
        assert store.put(key, b"v1") == 1
        assert store.stats.under_quorum_writes == 1
        # Best-effort readable...
        assert store.get(key) == b"v1"
        # ...but a kill of the only holder loses it — exactly the
        # guarantee the under-quorum flag withdraws.
        holder = next(n for n in ("a", "b") if store.node(n).store.peek(key))
        assert holder == "a"


class TestReadRepairConvergence:
    def test_recovered_node_converges_to_newest_version(self):
        store = _tier(("a", "b", "c"), replication=2)
        keys = [f"k{i}" for i in range(30)]
        for key in keys:
            store.put(key, _payload(key, 1))
        store.fail("b")  # outage: keeps data, misses the next writes
        for key in keys:
            store.put(key, _payload(key, 2))
        assert store.stats.under_quorum_writes > 0
        store.recover("b")
        store.repair_sweep()
        _assert_converged(store)
        for key in keys:  # newest version won everywhere
            assert store.get(key, mode="quorum") == _payload(key, 2)
        assert store.stats.read_repairs > 0

    def test_fallback_read_repairs_the_primary_inline(self):
        store = _tier(("a", "b", "c"), replication=2)
        store.put("k", b"v")
        primary = store.owners("k")[0]
        store.node(primary).store.delete("k")
        assert store.get("k") == b"v"  # served from the surviving replica
        assert store.stats.fallback_reads == 1
        assert store.node(primary).store.peek("k") is not None  # repaired
        assert store.stats.read_repairs == 1

    def test_a_recovered_node_drops_what_was_invalidated_while_it_was_down(self):
        store = _tier(("a", "b", "c"), replication=2)
        key = "src|SELECT 1"
        store.put(key, b"before-refresh")
        primary = store.owners(key)[0]
        store.fail(primary)  # misses the extract refresh's purge
        store.invalidate_prefix("src|")
        assert store.get(key) is None
        store.recover(primary)
        assert store.get(key) is None  # the purge was applied on recovery
        assert store.describe(key) is None
        assert store.node(primary).store.peek(key) is None
        assert store.repair_sweep()["repaired"] == 0  # nothing to back-fill

    def test_ttl_expiry_is_a_miss_everywhere(self):
        clock = VirtualTimeClock()
        store = _tier(clock=clock, ttl_s=10.0)
        store.put("k", b"v")
        assert store.get("k") == b"v"
        clock.advance(11.0)
        assert store.get("k") is None
        assert store.stats.expired_drops > 0
        assert store.get("k", mode="quorum") is None


class TestReshardSafety:
    def test_join_warms_exactly_the_assigned_keys(self):
        store = _tier(("n0", "n1", "n2"), replication=2)
        keys = [f"zone-{i}" for i in range(60)]
        for key in keys:
            store.put(key, _payload(key, 1))
        report = store.join("n9")
        assert report["keys_moved"] > 0
        new_node = store.node("n9")
        held = set(new_node.store.keys())
        owned = {k for k in keys if "n9" in store.owners(k)}
        assert held == owned, "join copied keys the ring does not assign n9"
        # Surplus replicas were dropped: placement is exactly R-way again.
        _assert_converged(store)
        assert new_node.migrated_in == report["keys_moved"]

    def test_cold_join_skips_migration(self):
        store = _tier(("n0", "n1"), replication=2)
        store.put("k", b"v")
        report = store.join("n2", warm=False)
        assert report["keys_moved"] == 0
        assert len(store.node("n2").store) == 0

    def test_leave_drains_before_withdrawing(self):
        store = _tier(("n0", "n1", "n2"), replication=2)
        keys = [f"zone-{i}" for i in range(40)]
        for key in keys:
            store.put(key, _payload(key, 1))
        drained = store.leave("n1")
        assert "n1" not in store.live_nodes()
        for key in keys:  # nothing lost by a *graceful* departure
            assert store.get(key, mode="quorum") == _payload(key, 1)
        store.repair_sweep()
        _assert_converged(store)
        assert drained["keys_moved"] >= 0

    def test_an_unreachable_node_that_leaves_republishes_nothing(self):
        store = _tier(("a", "b", "c"), replication=2)
        keys = [f"src|q{i}" for i in range(4)]
        for key in keys:
            store.put(key, b"before-refresh")
        primary = store.owners(keys[0])[0]
        store.fail(primary)
        store.invalidate_prefix("src|")
        report = store.leave(primary)
        assert report["keys_moved"] == 0
        for key in keys:
            assert store.get(key, mode="quorum") is None
        assert len(store) == 0

    def test_a_sweep_after_a_cold_join_drops_surplus_replicas(self):
        store = _tier(("n0", "n1", "n2"), replication=2)
        keys = [f"zone-{i}" for i in range(60)]
        for key in keys:
            store.put(key, _payload(key, 1))
        store.join("n9", warm=False)
        store.repair_sweep()
        assert _assert_converged(store) == len(keys)
        held = sum(len(store.node(n).store) for n in store.live_nodes())
        assert held == len(keys) * store.replication
        for key in keys:
            assert store.get(key) == _payload(key, 1)

    @pytest.mark.parametrize("change", ["join", "leave"])
    def test_a_holder_whose_get_fails_keeps_the_newest_version(self, change):
        clock = VirtualTimeClock()
        store = _tier(("a", "b", "c"), replication=2, clock=clock)
        grown = _tier(("a", "b", "c", "d"))
        key = next(k for k in (f"zone-{i}" for i in range(200)) if "d" in grown.owners(k))
        stale, newest = store.owners(key)
        store.put(key, _payload(key, 1))
        store.fail(stale)
        store.put(key, _payload(key, 2))  # only `newest` holds version 2
        store.recover(stale)
        store.faults = FaultPlan.scripted(
            [FaultRule("error", op="kv.get", source=newest)], clock=clock
        )
        if change == "join":
            store.join("d")
        else:
            store.leave(stale)
        store.faults = None
        # The unread version 2 was neither overwritten with version 1 nor dropped.
        held = [store.node(n).store.peek(key) for n in store.live_nodes()]
        assert any(blob and _unpack(blob)[2] == _payload(key, 2) for blob in held)
        store.repair_sweep()
        assert store.get(key, mode="quorum") == _payload(key, 2)
        _assert_converged(store)

    def test_last_node_cannot_leave_or_die(self):
        store = _tier(("only",), replication=1)
        for method in (store.leave, store.kill):
            try:
                method("only")
            except ValueError:
                continue
            raise AssertionError("removing the last node must be refused")

    def test_warm_copies_coalesce_through_single_flight(self):
        """A reader needing repair while a warm flight for the same key is
        open joins it instead of double-writing."""
        store = _tier(("a", "b", "c"), replication=2)
        store.put("k", b"v")
        primary = store.owners("k")[0]
        store.node(primary).store.delete("k")
        flight, ticket = store._warm.lead_or_join(_KeyFlight("warm|k"), subsume=False)
        assert ticket is None  # we lead; the reader below must join
        served: list[bytes | None] = []
        reader = threading.Thread(target=lambda: served.append(store.get("k")))
        reader.start()
        try:
            # Let the reader reach the flight join; it owes us a wait.
            reader.join(timeout=0.5)
            assert reader.is_alive(), "reader did not coalesce into the flight"
        finally:
            store._warm.publish(flight, None)
        reader.join(timeout=5.0)
        assert not reader.is_alive()
        assert served == [b"v"]  # fallback still served the right bytes
        # The coalesced reader skipped its own repair write.
        assert store.stats.read_repairs == 0
        assert store.node(primary).store.peek("k") is None
        # With the flight gone the next read does repair the primary.
        assert store.get("k") == b"v"
        assert store.stats.read_repairs == 1


class TestScriptedChaosReplay:
    def _run_once(self) -> tuple[str, str, dict]:
        """One full scripted scenario; returns (fault schedule, event log,
        final fleet stats) in canonical JSON."""
        clock = VirtualTimeClock()
        plan = FaultPlan(
            seed=SEED,
            rate=0.08,
            rates={"kv.get": 0.08, "kv.put": 0.08},
            rules=(
                # A scripted outage window: n2 drops every call between
                # t=0.05 and t=0.2 on the virtual clock.
                FaultRule(kind="error", source="n2", t_from=0.05, t_until=0.2),
            ),
            clock=clock,
        )
        store = _tier(clock=clock, faults=plan, replication=2)
        rng = random.Random(SEED)
        with obs.recording(clock=clock) as rec:
            for step in range(220):
                key = f"zone-{int(rng.paretovariate(1.2)) % 48}"
                if rng.random() < 0.4:
                    store.put(key, _payload(key, step))
                else:
                    store.get(key)
                if step == 80:
                    store.kill("n1")
                if step == 140:
                    store.join("n4")
                if step == 190:
                    store.fail("n0")
                if step == 205:
                    store.recover("n0")
            store.repair_sweep()
            _assert_converged(store)
        events = json.dumps(
            [ev.to_dict() for ev in rec.events()], sort_keys=True
        )
        return json.dumps(plan.export(), sort_keys=True), events, store.statz()

    def test_two_runs_replay_byte_identical(self):
        schedule_a, events_a, statz_a = self._run_once()
        schedule_b, events_b, statz_b = self._run_once()
        assert schedule_a == schedule_b
        assert events_a == events_b
        assert json.dumps(statz_a, sort_keys=True) == json.dumps(
            statz_b, sort_keys=True
        )
        assert json.loads(schedule_a), "the scripted plan injected no faults"
        kinds = {ev["kind"] for ev in json.loads(events_a)}
        # The full decision surface of the tier showed up in the log.
        assert {"ring.kill", "ring.join", "ring.fail", "ring.recover"} <= kinds
        assert "reshard.plan" in kinds and "reshard.done" in kinds
        assert any(k.startswith("replica.") for k in kinds)
        assert "fault.injected" in kinds

    def test_invalidation_fans_out_to_every_live_node(self):
        store = _tier(("a", "b", "c"), replication=3)
        for i in range(10):
            store.put(f"faa|q{i}", b"x")
            store.put(f"retail|q{i}", b"y")
        dropped = store.invalidate_prefix("faa|")
        assert dropped == 10
        for node_id in store.live_nodes():
            node_keys = store.node(node_id).store.keys()
            assert not any(k.startswith("faa|") for k in node_keys)
        assert len(store) == 10  # the other namespace is untouched
        assert store.stats.invalidation_fanouts == 1
