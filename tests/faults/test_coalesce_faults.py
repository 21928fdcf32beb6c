"""Coalescing under failure: leaders die, followers recover on their own.

The contract (DESIGN S35): a leader shares only *fresh* results. A
leader that fails — or degrades to a stale serve — propagates a
``SourceError`` to its followers, and each follower then retries
independently: fresh if its own source is healthy, stale from its *own*
stale store if not, a per-spec error if it has no history. No follower
ever inherits a stale flag (or a stale table) it didn't earn.

A scripted registry also proves a seeded coalesced run replays with a
byte-identical decision-event log.
"""

from __future__ import annotations

import json
import threading
import time

from repro import obs
from repro.core.coalesce import SingleFlightRegistry
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.errors import SourceUnavailableError
from repro.clock import SYSTEM_CLOCK, VirtualTimeClock
from repro.faults import FaultPlan, FaultRule, FaultyDataSource
from tests.core.conftest import AVG_DELAY, COUNT, SUM_DELAY, make_model, make_source, spec

WIDE = spec(
    dimensions=("name", "market_id"),
    measures=(("n", COUNT), ("s", SUM_DELAY)),
)
NARROW = spec(dimensions=("name",), measures=(("n", COUNT),))
OTHER = spec(dimensions=("market",), measures=(("a", AVG_DELAY),))


class _Gated:
    """Source wrapper whose remote executes block on ``gate`` (and can be
    scripted to fail) — but only while ``gating`` is on, so tests can warm
    stale stores through the same source first."""

    def __init__(self, inner, *, fail_with: Exception | None = None):
        self._inner = inner
        self.gate = threading.Event()
        self.started = threading.Event()
        self.gating = False
        self.fail_with = fail_with

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def connect(self):
        conn = self._inner.connect()
        inner_driver = conn.driver
        outer = self

        class _Driver:
            def execute(self, text):
                if outer.gating:
                    outer.started.set()
                    assert outer.gate.wait(10.0), "test gate never opened"
                    if outer.fail_with is not None:
                        raise outer.fail_with
                return inner_driver.execute(text)

            def __getattr__(self, name):
                return getattr(inner_driver, name)

        conn.driver = _Driver()
        return conn


def _pipe(source, registry, *, clock=SYSTEM_CLOCK, **overrides):
    options = dict(
        enable_intelligent_cache=False,
        enable_literal_cache=False,
        enrich_for_reuse=False,
        concurrent=False,
        coalesce_wait_timeout_s=10.0,
    )
    options.update(overrides)
    return QueryPipeline(
        source,
        make_model(),
        options=PipelineOptions(**options),
        coalescer=registry,
        clock=clock,
    )


def _wait_until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached before timeout")
        time.sleep(0.001)


def _in_thread(fn):
    out: dict = {}
    thread = threading.Thread(target=lambda: out.update(r=fn()))
    thread.start()
    return thread, out


class TestLeaderFailurePropagation:
    def test_followers_retry_fresh_on_their_own_source(self):
        registry = SingleFlightRegistry("warehouse")
        leader_source = _Gated(
            make_source(), fail_with=SourceUnavailableError("leader backend down")
        )
        leader_source.gating = True
        leader_pipe = _pipe(leader_source, registry, serve_stale=False)
        follower_pipe = _pipe(make_source(), registry)

        leader_thread, leader_out = _in_thread(
            lambda: leader_pipe.run_batch([NARROW])
        )
        assert leader_source.started.wait(10.0)
        follower_thread, follower_out = _in_thread(
            lambda: follower_pipe.run_batch([NARROW])
        )
        _wait_until(lambda: registry.stats.exact_joins == 1)
        leader_source.gate.set()
        leader_thread.join(10.0)
        follower_thread.join(10.0)

        # The leader's batch reports the failure...
        leader = leader_out["r"]
        assert not leader.ok
        assert NARROW.canonical() in leader.errors
        assert registry.stats.failed == 1
        # ...and the follower recovered with its own execution, fresh.
        follower = follower_out["r"]
        assert follower.ok, follower.errors
        assert follower.remote_queries == 1
        assert follower.coalesced_hits == 0
        assert not follower.stale_keys
        oracle = _pipe(make_source(), SingleFlightRegistry("oracle")).run_spec(
            NARROW
        )
        assert follower.table_for(NARROW).equals_unordered(oracle)

    def test_degraded_leader_never_shares_its_stale_table(self):
        """A stale-serving leader fails the flight; followers go fresh."""
        clock = VirtualTimeClock()
        plan = FaultPlan.scripted(
            [FaultRule("error", op="execute", t_from=100.0)], clock=clock
        )
        registry = SingleFlightRegistry("warehouse", clock=clock)
        leader_source = _Gated(FaultyDataSource(make_source(), plan, clock=clock))
        leader_pipe = _pipe(leader_source, registry, clock=clock, serve_stale=True)
        follower_pipe = _pipe(make_source(), registry, clock=clock)

        # Healthy warm-up earns the leader a stale fallback.
        warm = leader_pipe.run_batch([NARROW])
        assert warm.ok and not warm.stale_keys

        clock.advance(150.0)  # outage begins
        leader_source.gating = True
        leader_thread, leader_out = _in_thread(
            lambda: leader_pipe.run_batch([NARROW])
        )
        assert leader_source.started.wait(10.0)
        follower_thread, follower_out = _in_thread(
            lambda: follower_pipe.run_batch([NARROW])
        )
        _wait_until(lambda: registry.stats.exact_joins == 1)
        leader_source.gate.set()
        leader_thread.join(10.0)
        follower_thread.join(10.0)

        # Leader degraded: answered, but flagged stale.
        leader = leader_out["r"]
        assert leader.ok and leader.is_stale(NARROW)
        # The flight was failed, not published with the stale table.
        assert registry.stats.published == 0 or registry.stats.failed == 1
        assert registry.stats.failed == 1
        # The follower's answer is its own fresh execution, unflagged.
        follower = follower_out["r"]
        assert follower.ok
        assert not follower.stale_keys, "follower inherited a stale flag"
        assert follower.remote_queries == 1
        assert follower.coalesced_hits == 0

    def test_followers_degrade_through_their_own_stale_store(self):
        """With every source down, history decides each follower's fate."""
        clock = VirtualTimeClock()
        registry = SingleFlightRegistry("warehouse", clock=clock)
        leader_source = _Gated(
            make_source(), fail_with=SourceUnavailableError("leader backend down")
        )
        leader_pipe = _pipe(leader_source, registry, clock=clock, serve_stale=False)

        outage = FaultPlan.scripted(
            [FaultRule("error", op="execute", t_from=100.0)], clock=clock
        )
        warmed_pipe = _pipe(
            FaultyDataSource(make_source(), outage, clock=clock),
            registry,
            clock=clock,
            serve_stale=True,
        )
        cold_pipe = _pipe(
            FaultyDataSource(make_source(), outage, clock=clock),
            registry,
            clock=clock,
            serve_stale=True,
        )

        warm = warmed_pipe.run_batch([NARROW])  # healthy history at t=0
        assert warm.ok and not warm.stale_keys

        clock.advance(150.0)
        leader_source.gating = True
        leader_thread, _ = _in_thread(lambda: leader_pipe.run_batch([NARROW]))
        assert leader_source.started.wait(10.0)
        warmed_thread, warmed_out = _in_thread(
            lambda: warmed_pipe.run_batch([NARROW])
        )
        cold_thread, cold_out = _in_thread(lambda: cold_pipe.run_batch([NARROW]))
        _wait_until(lambda: registry.stats.exact_joins == 2)
        leader_source.gate.set()
        for t in (leader_thread, warmed_thread, cold_thread):
            t.join(10.0)

        # The follower with history degrades to its own last-good table...
        warmed_result = warmed_out["r"]
        assert warmed_result.ok
        assert warmed_result.is_stale(NARROW)
        assert warmed_result.table_for(NARROW).equals_unordered(
            warm.table_for(NARROW)
        )
        # ...the one without history reports a per-spec error. Neither
        # silently received the (never-published) leader result.
        cold_result = cold_out["r"]
        assert not cold_result.ok
        assert NARROW.canonical() in cold_result.errors
        assert registry.stats.failed == 1

    def test_wait_timeout_falls_back_to_direct_execution(self):
        """A wedged leader can't hold followers past their timeout."""
        registry = SingleFlightRegistry("warehouse")
        leader_source = _Gated(make_source())
        leader_source.gating = True
        leader_pipe = _pipe(leader_source, registry)
        follower_pipe = _pipe(
            make_source(), registry, coalesce_wait_timeout_s=0.05
        )

        leader_thread, leader_out = _in_thread(
            lambda: leader_pipe.run_batch([NARROW])
        )
        assert leader_source.started.wait(10.0)
        follower_thread, follower_out = _in_thread(
            lambda: follower_pipe.run_batch([NARROW])
        )
        follower_thread.join(10.0)  # finishes while the leader is wedged

        follower = follower_out["r"]
        assert follower.ok
        assert follower.remote_queries == 1
        assert follower.coalesced_hits == 0
        assert follower.coalesce_wait_s >= 0.0

        leader_source.gate.set()  # release the wedged leader
        leader_thread.join(10.0)
        assert leader_out["r"].ok
        assert leader_out["r"].remote_queries == 1


class _ScriptedRegistry(SingleFlightRegistry):
    """Resolves a scripted flight the instant a follower joins it, so a
    full lead→join→publish/fail→wait cycle runs on one thread."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.script: list = []

    def lead_or_join(self, spec, **kwargs):
        flight, ticket = super().lead_or_join(spec, **kwargs)
        if ticket is not None and self.script:
            action, target, payload = self.script.pop(0)
            if action == "publish":
                self.publish(target, payload)
            else:
                self.fail(target, payload)
        return flight, ticket


class TestDeterministicReplay:
    def _run_once(self) -> tuple[str, dict]:
        clock = VirtualTimeClock()
        registry = _ScriptedRegistry("warehouse", clock=clock)
        follower = _pipe(make_source(), registry, clock=clock)
        oracle_pipe = _pipe(make_source(), SingleFlightRegistry("oracle"))
        wide_table = oracle_pipe.run_spec(WIDE)
        try:
            with obs.recording(clock=clock) as rec:
                # Round 1: an in-flight WIDE leader publishes the moment
                # the (subsumed) NARROW follower joins.
                flight, _ = registry.lead_or_join(WIDE)
                registry.script = [("publish", flight, wide_table)]
                shared = follower.run_batch([NARROW])
                # Round 2: the leader dies; the follower retries solo.
                flight2, _ = registry.lead_or_join(OTHER)
                registry.script = [
                    ("fail", flight2, SourceUnavailableError("scripted death"))
                ]
                retried = follower.run_batch([OTHER])
            assert shared.ok and shared.coalesced_hits == 1
            assert retried.ok and retried.remote_queries == 1
        finally:
            follower.close()
            oracle_pipe.close()
        events = [ev.to_dict() for ev in rec.events()]
        return json.dumps(events, sort_keys=True), {
            "coalesced": shared.coalesced_hits,
            "retried_remote": retried.remote_queries,
        }

    def test_seeded_coalesced_run_replays_byte_identical(self):
        events_a, outcome_a = self._run_once()
        events_b, outcome_b = self._run_once()
        assert events_a == events_b
        assert outcome_a == outcome_b
        kinds = {ev["kind"] for ev in json.loads(events_a)}
        # The log covers the whole coalesce lifecycle, both rounds.
        assert "coalesce.lead" in kinds
        assert "coalesce.join" in kinds
        assert "coalesce.publish" in kinds
        assert "coalesce.leader_failed" in kinds
        assert "coalesce.follower_retry" in kinds
