"""Chaos suite: the pipeline under seeded fault injection.

The contracts under test:

* ``run_batch`` never raises to the caller, at 10% and at 50% injected
  fault rates — every spec is either answered (possibly stale) or
  reported in ``BatchResult.errors``;
* stale serves are flagged (``stale_keys`` / ``is_stale``) and equal the
  last good answer byte-for-byte;
* the circuit breaker trips during an outage and closes again after the
  recovery window on the virtual clock;
* the same seed replays a byte-identical fault schedule *and* decision
  event log;
* dashboards degrade per zone, never whole-dashboard.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.connectors import SimDbDataSource, TdeDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.dashboard import DashboardSession
from repro.errors import SourceUnavailableError
from repro.clock import VirtualTimeClock
from repro.faults import CLOSED, FaultPlan, FaultRule, FaultyDataSource, RetryPolicy
from repro.tde.engine import DataEngine
from repro.workloads import fig1_dashboard, fig2_dashboard, flights_model, generate_flights
from tests.core.conftest import make_model, make_source
from tests.difftest.gen import assert_tables_equal, gen_specs

SPEC_SEED = 99


def _chaos_pipeline(plan, clock, *, timeout_s=0.2, **option_overrides):
    options = dict(
        enable_intelligent_cache=False,
        enable_literal_cache=False,
        enable_fusion=True,
        enable_batch_graph=True,
        enrich_for_reuse=False,
        concurrent=False,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.05, seed=plan.seed),
        enable_breaker=True,
        breaker_threshold=5,
        breaker_recovery_s=5.0,
        serve_stale=True,
    )
    options.update(option_overrides)
    source = FaultyDataSource(make_source(), plan, clock=clock, timeout_s=timeout_s)
    return QueryPipeline(
        source, make_model(), options=PipelineOptions(**options), clock=clock
    )


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start : start + size]


class TestNeverRaises:
    @pytest.mark.parametrize("rate", [0.1, 0.5])
    def test_batches_complete_under_injected_faults(self, rate):
        clock = VirtualTimeClock()
        plan = FaultPlan(seed=17, rate=rate, clock=clock)
        pipeline = _chaos_pipeline(plan, clock)
        specs = gen_specs(SPEC_SEED, 60)
        answered, failed = 0, 0
        try:
            for chunk in _chunks(specs, 6):
                result = pipeline.run_batch(chunk)  # must not raise
                for spec in chunk:
                    key = spec.canonical()
                    assert (key in result.tables) != (key in result.errors), (
                        f"{key} must be answered XOR failed"
                    )
                    answered += key in result.tables
                    failed += key in result.errors
                assert result.stale_keys <= set(result.tables)
        finally:
            pipeline.close()
        # The plan really was injecting (both rates produce faults), and
        # the pipeline still answered most of the workload.
        assert plan.export(), "no faults were injected"
        assert answered > 0
        if rate >= 0.5:
            assert failed > 0  # at 50% some specs exhaust their retries

    @pytest.mark.parametrize("rate", [0.1, 0.5])
    def test_concurrent_batches_complete_under_injected_faults(self, rate):
        clock = VirtualTimeClock()
        plan = FaultPlan(seed=23, rate=rate, clock=clock)
        pipeline = _chaos_pipeline(plan, clock, concurrent=True, max_connections=4)
        try:
            for chunk in _chunks(gen_specs(SPEC_SEED + 1, 36), 6):
                result = pipeline.run_batch(chunk)
                for spec in chunk:
                    key = spec.canonical()
                    assert (key in result.tables) != (key in result.errors)
        finally:
            pipeline.close()


class TestRetryRecovery:
    def test_single_disconnect_is_retried_transparently(self):
        clock = VirtualTimeClock()
        plan = FaultPlan.scripted(
            [FaultRule("disconnect", op="execute", first=0, last=0)], clock=clock
        )
        pipeline = _chaos_pipeline(plan, clock)
        healthy = QueryPipeline(
            make_source(), make_model(), options=PipelineOptions()
        )
        spec = gen_specs(SPEC_SEED, 1)[0]
        try:
            result = pipeline.run_batch([spec])
            assert result.ok
            assert not result.stale_keys  # recovered fresh, not degraded
            assert_tables_equal(
                result.table_for(spec), healthy.run_spec(spec), context="retry"
            )
            # The dead member was discarded, not re-idled.
            assert pipeline.pool.stats.discarded == 1
            # The backoff wait happened on the virtual clock.
            assert clock.monotonic() > 0.0
        finally:
            pipeline.close()
            healthy.close()


class TestStaleServes:
    def test_outage_serves_stale_flagged_then_recovers(self):
        clock = VirtualTimeClock()
        # Total outage of the warehouse between t=100 and t=200.
        plan = FaultPlan.scripted(
            [FaultRule("error", t_from=100.0, t_until=200.0)], clock=clock
        )
        pipeline = _chaos_pipeline(plan, clock, enable_breaker=False)
        specs = gen_specs(SPEC_SEED, 8)
        try:
            # Healthy warm-up populates the stale store.
            warm = pipeline.run_batch(specs)
            assert warm.ok and not warm.stale_keys

            clock.advance(150.0)  # into the outage
            degraded = pipeline.run_batch(specs)
            assert degraded.ok, degraded.errors
            for spec in specs:
                assert degraded.is_stale(spec), spec.canonical()
                assert_tables_equal(
                    degraded.table_for(spec),
                    warm.table_for(spec),
                    context="stale serve",
                )
            assert degraded.stale_hits == len(
                {s.canonical() for s in specs}
            )
            assert degraded.remote_queries == 0

            # A spec never answered before has no fallback: per-spec error.
            fresh_spec = gen_specs(SPEC_SEED + 7, 1)[0]
            mixed = pipeline.run_batch([fresh_spec])
            assert not mixed.ok
            assert fresh_spec.canonical() in mixed.errors
            from repro.errors import SourceUnavailableError

            with pytest.raises(SourceUnavailableError):
                mixed.table_for(fresh_spec)

            clock.advance(100.0)  # t=250: outage over
            recovered = pipeline.run_batch(specs)
            assert recovered.ok and not recovered.stale_keys
        finally:
            pipeline.close()

    def test_stale_disabled_reports_errors(self):
        clock = VirtualTimeClock()
        plan = FaultPlan.scripted([FaultRule("error", t_from=10.0)], clock=clock)
        pipeline = _chaos_pipeline(
            plan, clock, serve_stale=False, enable_breaker=False
        )
        specs = gen_specs(SPEC_SEED, 4)
        try:
            assert pipeline.run_batch(specs).ok
            clock.advance(20.0)
            broken = pipeline.run_batch(specs)
            assert not broken.ok
            assert not broken.stale_keys
            assert len(broken.errors) == len({s.canonical() for s in specs})
        finally:
            pipeline.close()


class TestBreaker:
    def test_breaker_trips_during_outage_and_closes_after_recovery(self):
        clock = VirtualTimeClock()
        # Fail the first 3 connects: exactly enough to trip a threshold-3
        # breaker (further calls are rejected before reaching the source).
        plan = FaultPlan.scripted(
            [FaultRule("error", op="connect", first=0, last=2)], clock=clock
        )
        pipeline = _chaos_pipeline(
            plan,
            clock,
            retry=None,  # 1 attempt per spec: failures feed the breaker fast
            breaker_threshold=3,
            breaker_recovery_s=5.0,
            serve_stale=False,
        )
        breaker = pipeline.pool.breaker
        specs = gen_specs(SPEC_SEED, 6)
        try:
            result = pipeline.run_batch(specs)
            assert not result.ok
            assert breaker.state == "open"
            assert breaker.trips == 1
            # While open, calls are rejected without touching the source.
            connects_before = plan.calls("connect")
            rejected = pipeline.run_batch(specs[:2])
            assert not rejected.ok
            assert plan.calls("connect") == connects_before
            assert any("CircuitOpenError" in e for e in rejected.errors.values())

            clock.advance(5.1)  # past the recovery window: half-open
            probe = pipeline.run_batch([specs[0]])
            assert probe.ok  # the scripted outage covered only 3 connects
            assert breaker.state == CLOSED

            healthy = pipeline.run_batch(specs)
            assert healthy.ok
        finally:
            pipeline.close()


class TestDeterministicReplay:
    def _run_once(self, seed: int) -> tuple[str, str]:
        clock = VirtualTimeClock()
        plan = FaultPlan(seed=seed, rate=0.35, clock=clock)
        pipeline = _chaos_pipeline(plan, clock)
        specs = gen_specs(SPEC_SEED, 40)
        with obs.recording(clock=clock) as rec:
            try:
                for chunk in _chunks(specs, 5):
                    pipeline.run_batch(chunk)
            finally:
                pipeline.close()
        events = json.dumps(
            [ev.to_dict() for ev in rec.events()], sort_keys=True
        )
        return json.dumps(plan.export(), sort_keys=True), events

    def test_same_seed_replays_byte_identical_schedule_and_events(self):
        schedule_a, events_a = self._run_once(4242)
        schedule_b, events_b = self._run_once(4242)
        assert schedule_a == schedule_b
        assert events_a == events_b
        assert json.loads(schedule_a), "the run injected no faults"
        # The event log actually covers the robustness machinery.
        kinds = {ev["kind"] for ev in json.loads(events_a)}
        assert any(k.startswith("fault.") for k in kinds)
        assert any(k.startswith("retry.") for k in kinds)
        assert any(k.startswith("degrade.") for k in kinds)

    def test_different_seed_differs(self):
        schedule_a, _ = self._run_once(1)
        schedule_b, _ = self._run_once(2)
        assert schedule_a != schedule_b


class TestDashboardDegradation:
    def test_zones_degrade_independently(self):
        dataset = generate_flights(4000, seed=9)
        db = dataset.load_into_simdb(ServerProfile(time_scale=0))
        clock = VirtualTimeClock()
        plan = FaultPlan.scripted(
            [FaultRule("error", t_from=100.0, t_until=200.0)], clock=clock
        )
        source = FaultyDataSource(SimDbDataSource(db), plan, clock=clock)
        pipeline = QueryPipeline(
            source,
            flights_model(),
            options=PipelineOptions(
                enable_intelligent_cache=False,
                enable_literal_cache=False,
                concurrent=False,
            ),
            clock=clock,
        )
        session = DashboardSession(fig2_dashboard(), pipeline)
        try:
            first = session.render()
            assert not first.degraded

            clock.advance(150.0)  # outage
            # A new selection changes the zones' specs: no stale history
            # for them, so they degrade to per-zone errors — but the call
            # itself succeeds and the other zone keeps its last table.
            degraded = session.select("market", ["HNL-OGG"])
            assert degraded.zone_errors, "expected per-zone errors"
            assert set(session.zone_tables) == {
                "market",
                "carrier",
                "airline_name",
            }, "failed zones must keep their previous tables"

            clock.advance(100.0)  # recovery
            healthy = session.render()
            assert not healthy.degraded
            # The failed zones re-queried and now show the filtered data.
            assert healthy.iterations >= 1
        finally:
            pipeline.close()

    def test_unchanged_zones_rerender_stale_from_store(self):
        dataset = generate_flights(4000, seed=9)
        db = dataset.load_into_simdb(ServerProfile(time_scale=0))
        clock = VirtualTimeClock()
        plan = FaultPlan.scripted(
            [FaultRule("error", t_from=100.0, t_until=200.0)], clock=clock
        )
        source = FaultyDataSource(SimDbDataSource(db), plan, clock=clock)
        pipeline = QueryPipeline(
            source,
            flights_model(),
            options=PipelineOptions(
                enable_intelligent_cache=False,
                enable_literal_cache=False,
                concurrent=False,
            ),
            clock=clock,
        )
        session = DashboardSession(fig2_dashboard(), pipeline)
        try:
            session.render()
            clock.advance(150.0)
            # Force a full re-render of the same specs during the outage:
            # every zone is served from the stale store and flagged.
            session._rendered_specs.clear()
            degraded = session.render()
            assert degraded.stale_zones == {"market", "carrier", "airline_name"}
            assert not degraded.zone_errors
        finally:
            pipeline.close()

    def test_a_merged_query_that_fails_costs_what_its_parts_would_have(self, monkeypatch):
        """Fig-1's seven queries reach an in-process TDE as one
        grouping-sets query. When that one fails because of one zone's
        calculated column, its parts are re-sent singly: six zones are
        fresh, and only the seventh degrades — to an error on a cold
        pipeline, to a flagged stale serve on one that has answered it
        before."""
        engine = generate_flights(4000, seed=9).load_into_engine()

        def cold_pipeline():
            return QueryPipeline(
                TdeDataSource(engine),
                flights_model(),
                options=PipelineOptions(
                    enable_intelligent_cache=False,
                    enable_literal_cache=False,
                    retry=RetryPolicy(max_attempts=2, base_delay_s=0.01, seed=1),
                ),
                clock=VirtualTimeClock(),
            )

        reference = cold_pipeline()
        try:
            healthy = DashboardSession(fig1_dashboard(), reference).render()
        finally:
            reference.close()
        assert not healthy.degraded and healthy.remote_queries == 1
        pipeline = cold_pipeline()

        attempts: list[str] = []
        query = DataEngine.query

        def weekday_is_down(self, text, **kwargs):
            attempts.append(text)
            if "(weekday date_)" in text:
                raise SourceUnavailableError("weekday() is unavailable")
            return query(self, text, **kwargs)

        monkeypatch.setattr(DataEngine, "query", weekday_is_down)
        session = DashboardSession(fig1_dashboard(), pipeline)
        try:
            cold = session.render()
            assert set(cold.zone_errors) == {"cancellations_by_weekday"}
            assert not cold.stale_zones
            fresh = set(healthy.zone_tables) - {"cancellations_by_weekday"}
            assert set(cold.zone_tables) == fresh
            for zone in fresh:
                # Sent alone, a query may split its scan elsewhere than the
                # merged one did: the same sums, added in another order.
                assert cold.zone_tables[zone].approx_equals(healthy.zone_tables[zone]), zone
            # The merged query and the one part that cannot work each
            # used up the retry policy; the other six went out once.
            merged = [t for t in attempts if t.startswith("(grouping-sets ")]
            assert len(merged) == 2 and len(attempts) == 2 + 6 + 2
            (batch,) = cold.batches
            assert batch.remote_queries == 6 and batch.fused_away == 0

            monkeypatch.setattr(DataEngine, "query", query)
            recovered = session.render()  # retries only the zone that failed
            assert not recovered.degraded and recovered.remote_queries == 1
            monkeypatch.setattr(DataEngine, "query", weekday_is_down)
            session._rendered_specs.clear()
            stale = session.render()
            assert stale.stale_zones == {"cancellations_by_weekday"} and not stale.zone_errors
            assert stale.zone_tables["cancellations_by_weekday"].equals(
                healthy.zone_tables["cancellations_by_weekday"]
            )
        finally:
            pipeline.close()
