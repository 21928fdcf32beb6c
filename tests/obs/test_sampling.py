"""Tail-based sampling: keep rules, deterministic 1-in-N, bounded memory."""

import json

from repro.clock import VirtualTimeClock
from repro.obs import SamplingPolicy, Span, TraceBuffer, TraceContext
from repro.obs.trace import Tracer


def _root(wall_s: float, n: int = 1, **attributes) -> Span:
    """A closed single-span trace with deterministic identity."""
    span = Span("vizserver.request", 0.0)
    span.end_s = wall_s
    span.trace_id = f"{n:016x}"
    span.span_id = f"{n:012x}"
    span.attributes.update(attributes)
    return span


class TestKeepRules:
    def test_slow_traces_are_always_kept(self):
        buf = TraceBuffer(SamplingPolicy(slow_threshold_s=0.25, sample_every_n=0))
        assert buf.offer(_root(0.30)) == "slow"
        assert buf.offer(_root(0.25)) == "slow"  # threshold is inclusive
        assert buf.offer(_root(0.10)) is None
        assert buf.snapshot()["reasons"] == {"slow": 2}

    def test_errors_and_stale_serves_are_kept(self):
        buf = TraceBuffer(SamplingPolicy(slow_threshold_s=10.0, sample_every_n=0))
        assert buf.offer(_root(0.01, 1, error="ValueError('x')")) == "error"
        assert buf.offer(_root(0.01, 2, stale=True)) == "stale"
        assert buf.offer(_root(0.01, 3, stale_zones=["z"])) == "stale"

    def test_error_anywhere_in_the_tree_is_found(self):
        root = _root(0.01)
        child = Span("executor.query", 0.0)
        child.end_s = 0.01
        child.attributes["error"] = "SourceUnavailableError"
        root.children.append(child)
        buf = TraceBuffer(SamplingPolicy(slow_threshold_s=10.0, sample_every_n=0))
        assert buf.offer(root) == "error"

    def test_breaker_links_are_kept(self):
        root = _root(0.01)
        root.add_link("breaker.opened_by", TraceContext("0a", "01"))
        buf = TraceBuffer(SamplingPolicy(slow_threshold_s=10.0, sample_every_n=0))
        assert buf.offer(root) == "breaker"

    def test_force_overrides_the_tree_inspection(self):
        buf = TraceBuffer(SamplingPolicy(slow_threshold_s=10.0, sample_every_n=0))
        assert buf.offer(_root(0.01), force="stale") == "stale"
        assert buf.snapshot()["reasons"] == {"stale": 1}


class TestDeterministicSample:
    def test_one_in_n_by_offer_order(self):
        buf = TraceBuffer(SamplingPolicy(slow_threshold_s=10.0, sample_every_n=10))
        reasons = [buf.offer(_root(0.01, n)) for n in range(1, 26)]
        kept_offers = [i + 1 for i, r in enumerate(reasons) if r == "sampled"]
        assert kept_offers == [1, 11, 21]
        assert buf.dropped == 25 - 3

    def test_every_one_keeps_everything(self):
        buf = TraceBuffer(SamplingPolicy(slow_threshold_s=10.0, sample_every_n=1))
        assert all(
            buf.offer(_root(0.01, n)) == "sampled" for n in range(1, 6)
        )
        assert buf.dropped == 0

    def test_zero_disables_sampling(self):
        buf = TraceBuffer(SamplingPolicy(slow_threshold_s=10.0, sample_every_n=0))
        assert buf.offer(_root(0.01)) is None
        assert buf.dropped == 1

    def test_null_spans_are_ignored_before_counting(self):
        buf = TraceBuffer(SamplingPolicy(sample_every_n=1))
        assert buf.offer(Span("untraced", 0.0)) is None  # no trace_id
        assert buf.offered == 0
        assert buf.dropped == 0


class TestBoundsAndExport:
    def test_populations_are_bounded_oldest_evict_first(self):
        buf = TraceBuffer(
            SamplingPolicy(
                slow_threshold_s=0.1, sample_every_n=1, max_kept=2, max_sampled=2
            )
        )
        for n in range(1, 5):
            buf.offer(_root(0.5, n))  # all slow
        for n in range(5, 9):
            buf.offer(_root(0.01, n))  # all sampled
        ids = [r.trace_id for r in buf.traces()]
        assert ids == [f"{n:016x}" for n in (3, 4, 7, 8)]

    def test_find_by_trace_id(self):
        buf = TraceBuffer(SamplingPolicy(slow_threshold_s=0.1))
        root = _root(0.5, 7)
        buf.offer(root)
        assert buf.find(root.trace_id) is root
        assert buf.find("missing") is None

    def test_snapshot_shape(self):
        buf = TraceBuffer(SamplingPolicy(slow_threshold_s=0.1, sample_every_n=2))
        buf.offer(_root(0.5, 1))  # kept: slow
        buf.offer(_root(0.01, 2))  # offer 2: 2 % 2 != 1 -> dropped
        buf.offer(_root(0.01, 3))  # offer 3: 3 % 2 == 1 -> sampled
        snap = buf.snapshot()
        assert snap["offered"] == 3
        assert snap["dropped"] == 1
        assert snap["kept"] == 1
        assert snap["sampled"] == 1
        assert snap["kept_trace_ids"][0]["reason"] == "slow"
        assert snap["kept_trace_ids"][0]["wall_s"] == 0.5

    def test_export_jsonl_round_trips(self):
        clock = VirtualTimeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("vizserver.request", user="u1"):
            clock.advance(0.4)
            with tracer.span("pipeline.run_batch"):
                clock.advance(0.2)
        buf = TraceBuffer(SamplingPolicy(slow_threshold_s=0.1))
        buf.offer(tracer.roots[0])
        lines = buf.export_jsonl().splitlines()
        assert len(lines) == 1
        rebuilt = Span.from_dict(json.loads(lines[0]))
        assert rebuilt.to_dict() == tracer.roots[0].to_dict()

    def test_reset_clears_everything(self):
        buf = TraceBuffer(SamplingPolicy(slow_threshold_s=0.1))
        buf.offer(_root(0.5))
        buf.reset()
        assert buf.traces() == []
        assert buf.offered == 0
        assert buf.snapshot()["reasons"] == {}
