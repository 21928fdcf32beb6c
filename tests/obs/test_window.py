"""Windowed telemetry: ring rotation, key caps, burn-rate SLO, the hub.

Everything runs on a hand-cranked or virtual clock — the point of the
layer is that breach→recovery timelines are deterministic in tests.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.clock import VirtualTimeClock
from repro.obs.window import (
    SLOMonitor,
    SLOObjective,
    Telemetry,
    TelemetryOptions,
    WindowedHistogram,
    WindowSet,
)


class TestWindowedHistogram:
    def test_rejects_degenerate_windows(self):
        with pytest.raises(ValueError):
            WindowedHistogram("w", window_s=0.0)
        with pytest.raises(ValueError):
            WindowedHistogram("w", window_s=10.0, buckets=0)

    def test_merged_sees_only_the_trailing_window(self):
        clock = VirtualTimeClock()
        window = WindowedHistogram("w", window_s=60.0, buckets=6, clock=clock)
        window.observe(1.0)
        clock.advance(30.0)
        window.observe(2.0)
        assert window.merged().snapshot()["count"] == 2
        clock.advance(35.0)  # t=65: the t=0 cell has aged out; t=30 is still live
        assert window.merged().snapshot()["count"] == 1
        clock.advance(135.0)
        assert window.merged().snapshot()["count"] == 0

    def test_stale_cell_is_recycled_on_write(self):
        clock = VirtualTimeClock()
        window = WindowedHistogram("w", window_s=10.0, buckets=2, clock=clock)
        window.observe(1.0)
        clock.advance(10.0)  # same slot (epoch 2 -> slot 0), new epoch
        window.observe(2.0)
        merged = window.merged()
        assert merged.snapshot()["count"] == 1
        assert window.observed == 2  # the total never forgets

    def test_horizon_narrows_the_read(self):
        clock = VirtualTimeClock()
        window = WindowedHistogram("w", window_s=60.0, buckets=6, clock=clock)
        window.observe(1.0)
        clock.advance(55.0)
        window.observe(2.0)
        assert window.merged().snapshot()["count"] == 2
        assert window.merged(horizon_s=10.0).snapshot()["count"] == 1

    def test_snapshot_carries_window_metadata(self):
        window = WindowedHistogram("w", window_s=30.0, clock=VirtualTimeClock())
        window.observe(0.5)
        snap = window.snapshot()
        assert snap["window_s"] == 30.0
        assert snap["observed_total"] == 1
        assert snap["count"] == 1


class TestWindowSet:
    def test_keys_get_independent_windows(self):
        ws = WindowSet("dash", clock=VirtualTimeClock())
        ws.observe("a", 1.0)
        ws.observe("b", 2.0)
        ws.observe("b", 3.0)
        snap = ws.snapshot()
        assert set(snap["keys"]) == {"a", "b"}
        assert snap["keys"]["b"]["count"] == 2

    def test_key_cap_counts_overflow_instead_of_growing(self):
        ws = WindowSet("session", max_keys=2, clock=VirtualTimeClock())
        for key in ("a", "b", "c", "d"):
            ws.observe(key, 1.0)
        assert ws.keys() == ["a", "b"]
        assert ws.overflowed == 2
        assert ws.snapshot()["overflowed"] == 2


class TestSLOMonitor:
    def _monitor(self, clock):
        return SLOMonitor(
            SLOObjective(
                threshold_s=0.25,
                objective=0.95,
                fast_window_s=30.0,
                slow_window_s=300.0,
                burn_threshold=2.0,
            ),
            clock=clock,
        )

    def test_fast_window_must_fit_in_slow(self):
        with pytest.raises(ValueError):
            SLOMonitor(SLOObjective(fast_window_s=600.0, slow_window_s=300.0))

    def test_fast_window_must_span_a_ring_cell(self):
        # A 300 s slow window has 10 s cells; a 5 s fast window would read
        # none of them, so its burn stays 0 and the SLO could never breach.
        with pytest.raises(ValueError, match="ring cell"):
            SLOMonitor(SLOObjective(threshold_s=0.1, fast_window_s=5.0, slow_window_s=300.0))
        clock = VirtualTimeClock()
        monitor = SLOMonitor(
            SLOObjective(threshold_s=0.1, fast_window_s=10.0, slow_window_s=300.0),
            clock=clock,
        )
        for _ in range(200):
            monitor.record(1.0)
            clock.advance(1.0)
        assert monitor.state == "breach"

    def test_deterministic_breach_and_recovery(self):
        clock = VirtualTimeClock()
        monitor = self._monitor(clock)
        for _ in range(120):  # healthy second-by-second traffic
            assert monitor.record(0.05) == "ok"
            clock.advance(1.0)
        breach_t = None
        for _ in range(40):  # the outage: every request blows the budget
            state = monitor.record(1.0)
            if state == "breach" and breach_t is None:
                breach_t = clock.monotonic()
            clock.advance(1.0)
        assert monitor.state == "breach"
        assert breach_t is not None and 120.0 <= breach_t < 160.0
        recover_t = None
        for _ in range(120):  # healthy again; the fast window drains
            state = monitor.record(0.05)
            if state == "ok" and recover_t is None:
                recover_t = clock.monotonic()
            clock.advance(1.0)
        assert monitor.state == "ok"
        assert monitor.breaches == 1
        assert recover_t is not None and recover_t > 160.0
        # Replaying the same timeline reproduces the same transitions.
        clock2 = VirtualTimeClock()
        monitor2 = self._monitor(clock2)
        transitions = []
        for latency, n in ((0.05, 120), (1.0, 40), (0.05, 120)):
            for _ in range(n):
                before = monitor2.state
                after = monitor2.record(latency)
                if after != before:
                    transitions.append((after, clock2.monotonic()))
                clock2.advance(1.0)
        assert transitions == [("breach", breach_t), ("ok", recover_t)]

    def test_single_bad_burst_without_slow_burn_does_not_page(self):
        """The slow window vetoes paging on a blip: 5 bad requests out of
        hundreds burn the fast window but not the slow one."""
        clock = VirtualTimeClock()
        monitor = self._monitor(clock)
        for _ in range(290):
            monitor.record(0.05)
            clock.advance(1.0)
        for _ in range(5):
            monitor.record(1.0)
            clock.advance(1.0)
        assert monitor.state == "ok"
        assert monitor.breaches == 0

    def test_transitions_emit_decision_events(self):
        clock = VirtualTimeClock()
        with obs.recording(clock=clock) as rec:
            monitor = self._monitor(clock)
            for latency, n in ((0.05, 120), (1.0, 40), (0.05, 120)):
                for _ in range(n):
                    monitor.record(latency)
                    clock.advance(1.0)
            kinds = rec.event_log.kinds()
        assert kinds.get("slo.breach") == 1
        assert kinds.get("slo.recovered") == 1
        breach = rec.events("slo.breach")[0]
        assert breach.attributes["fast_burn"] >= 2.0
        assert breach.attributes["slow_burn"] >= 1.0

    def test_snapshot_shape(self):
        monitor = self._monitor(VirtualTimeClock())
        monitor.record(0.05)
        snap = monitor.snapshot()
        assert snap["state"] == "ok"
        assert snap["good_total"] == 1 and snap["bad_total"] == 0
        assert snap["fast_burn"] == 0.0


class TestTelemetryHub:
    def test_observe_feeds_every_surface(self):
        clock = VirtualTimeClock()
        telemetry = Telemetry(
            TelemetryOptions(slo=SLOObjective(threshold_s=0.25)), clock=clock
        )
        assert telemetry.observe(0.1, dimensions={"dashboard": "flights"})
        assert telemetry.observe(0.4, degraded=True)
        statz = telemetry.statz()
        assert statz["requests"] == {"total": 2, "degraded": 1, "failed": 0}
        assert statz["window"]["count"] == 2
        assert statz["dimensions"]["dashboard"]["keys"]["flights"]["count"] == 1
        assert statz["slo"]["bad_total"] == 1
        assert statz["slowlog"]["considered"] == 2

    def test_slow_threshold_filters_candidates(self):
        telemetry = Telemetry(
            TelemetryOptions(slow_threshold_s=0.5), clock=VirtualTimeClock()
        )
        assert not telemetry.observe(0.1)
        assert telemetry.observe(0.9)
