"""FaultPlan determinism: same seed ⇒ same schedule, any interleaving."""

from __future__ import annotations

import json
import threading

from repro.clock import VirtualTimeClock
from repro.faults import CLEAN, FaultPlan, FaultRule

OPS = ("connect", "execute", "create_temp_table")
SOURCES = ("warehouse", "files")


def _drive_serial(plan: FaultPlan, per_stream: int = 40) -> list[tuple]:
    out = []
    for op in OPS:
        for source in SOURCES:
            for _ in range(per_stream):
                d = plan.decide(op, source)
                out.append((op, source, d.kind, round(d.latency_s, 9)))
    return out


class TestSampling:
    def test_same_seed_same_decisions(self):
        a = _drive_serial(FaultPlan(seed=42, rate=0.5))
        b = _drive_serial(FaultPlan(seed=42, rate=0.5))
        assert a == b

    def test_different_seed_different_schedule(self):
        a = FaultPlan(seed=1, rate=0.5)
        b = FaultPlan(seed=2, rate=0.5)
        _drive_serial(a)
        _drive_serial(b)
        assert a.export() != b.export()
        assert a.digest() != b.digest()

    def test_export_and_digest_are_byte_stable(self):
        a = FaultPlan(seed=7, rate=0.3)
        b = FaultPlan(seed=7, rate=0.3)
        _drive_serial(a)
        _drive_serial(b)
        assert json.dumps(a.export()) == json.dumps(b.export())
        assert a.digest() == b.digest()

    def test_rate_zero_is_inert(self):
        plan = FaultPlan(seed=3, rate=0.0)
        assert all(d[2] == "none" for d in _drive_serial(plan))
        assert plan.export() == []

    def test_rate_one_always_faults(self):
        plan = FaultPlan(seed=3, rate=1.0)
        decisions = _drive_serial(plan, per_stream=10)
        assert all(d[2] != "none" for d in decisions)
        assert len(plan.export()) == len(decisions)

    def test_weights_select_kind(self):
        plan = FaultPlan(seed=5, rate=1.0, weights={"latency": 1.0})
        kinds = {d[2] for d in _drive_serial(plan, per_stream=5)}
        assert kinds == {"latency"}

    def test_per_op_rates(self):
        plan = FaultPlan(seed=5, rate=0.0, rates={"execute": 1.0})
        for op, _source, kind, _l in _drive_serial(plan, per_stream=5):
            assert (kind != "none") == (op == "execute")

    def test_latency_drawn_from_range(self):
        plan = FaultPlan(
            seed=5, rate=1.0, weights={"latency": 1.0}, latency_s=(0.5, 0.6)
        )
        for _op, _source, _k, latency in _drive_serial(plan, per_stream=5):
            assert 0.5 <= latency <= 0.6


class TestInterleavingIndependence:
    def test_thread_interleaving_does_not_change_schedule(self):
        """Decisions are keyed on per-(op, source) call index, so the same
        workload produces the same realized schedule no matter how the
        calling threads interleave."""
        serial = FaultPlan(seed=11, rate=0.4)
        _drive_serial(serial, per_stream=60)

        threaded = FaultPlan(seed=11, rate=0.4)
        threads = [
            threading.Thread(
                target=lambda op=op, source=source: [
                    threaded.decide(op, source) for _ in range(60)
                ],
            )
            for op in OPS
            for source in SOURCES
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert threaded.export() == serial.export()
        assert threaded.digest() == serial.digest()

    def test_reset_replays_identically(self):
        plan = FaultPlan(seed=13, rate=0.5)
        _drive_serial(plan)
        first = plan.export()
        plan.reset()
        assert plan.export() == []
        _drive_serial(plan)
        assert plan.export() == first


class TestScriptedRules:
    def test_rules_take_precedence_over_sampling(self):
        plan = FaultPlan(
            seed=1,
            rate=0.0,
            rules=[FaultRule("error", op="execute", first=1, last=2)],
        )
        kinds = [plan.decide("execute", "w").kind for _ in range(5)]
        assert kinds == ["none", "error", "error", "none", "none"]
        assert plan.decide("connect", "w").clean

    def test_rule_source_match(self):
        plan = FaultPlan.scripted([FaultRule("disconnect", source="w1")])
        assert plan.decide("execute", "w1").kind == "disconnect"
        assert plan.decide("execute", "w2").clean

    def test_time_window_rule_on_virtual_clock(self):
        clock = VirtualTimeClock()
        plan = FaultPlan.scripted(
            [FaultRule("error", t_from=10.0, t_until=20.0)], clock=clock
        )
        assert plan.decide("execute", "w").clean
        clock.advance(15.0)
        assert plan.decide("execute", "w").kind == "error"
        clock.advance(10.0)  # t = 25, window closed
        assert plan.decide("execute", "w").clean

    def test_calls_counter(self):
        plan = FaultPlan(seed=0)
        for _ in range(3):
            plan.decide("execute", "a")
        plan.decide("connect", "a")
        assert plan.calls() == 4
        assert plan.calls("execute") == 3

    def test_clean_decision_constant(self):
        assert CLEAN.clean
        assert CLEAN.to_error("execute", "w") is None
