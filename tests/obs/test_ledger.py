"""Per-request latency ledgers: the conservation invariant, end to end.

The contract under test: every spec a ledger-enabled pipeline serves —
fresh, cache hit, derived, fused, coalesced follower, degraded stale,
error — carries a finished :class:`RequestLedger` whose named phases sum
*exactly* to its measured wall time (``queue`` absorbs the residual), and
the disabled path allocates nothing from the telemetry modules at all.
"""

from __future__ import annotations

import threading
import time
import tracemalloc

import pytest

from repro.connectors import TdeDataSource
from repro.core.coalesce import SingleFlightRegistry
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.clock import SYSTEM_CLOCK, VirtualTimeClock
from repro.faults import FaultPlan, FaultRule, FaultyDataSource
from repro.obs.ledger import PHASES, LedgerBook, RequestLedger
from tests.core.conftest import COUNT, ENGINE, SUM_DELAY, make_model, make_source, spec
from tests.core.test_coalesce import GatedSource
from tests.difftest.gen import gen_specs

#: Every outcome a pipeline-owned ledger may legally finish with.
OUTCOMES = {
    "cache_hit", "fresh", "derived", "fused", "batch_local",
    "coalesced", "stale", "error",
}


def assert_conserved(ledger: RequestLedger) -> None:
    """The invariant: finished, phases sum to wall, no negative work."""
    assert ledger.finished, ledger
    phases = ledger.phases
    assert set(phases) == set(PHASES)
    assert sum(phases.values()) == pytest.approx(ledger.wall_s, abs=1e-9), ledger
    for phase, charged in phases.items():
        if phase != "queue":  # queue is the residual; tiny float error ok
            assert charged >= 0.0, ledger
    assert phases["queue"] >= -1e-9, ledger


def _pipeline(source=None, *, coalescer=None, clock=SYSTEM_CLOCK, **overrides):
    options = dict(enable_ledger=True)
    options.update(overrides)
    return QueryPipeline(
        source or make_source(),
        make_model(),
        options=PipelineOptions(**options),
        coalescer=coalescer,
        clock=clock,
    )


# ---------------------------------------------------------------------- #
# RequestLedger / LedgerBook units
# ---------------------------------------------------------------------- #
class TestRequestLedger:
    def test_unknown_phase_rejected(self):
        ledger = RequestLedger("k", 0.0)
        with pytest.raises(ValueError, match="unknown ledger phase"):
            ledger.charge("gpu", 1.0)

    def test_nonpositive_charges_ignored(self):
        ledger = RequestLedger("k", 0.0)
        ledger.charge("execute", 0.0)
        ledger.charge("execute", -1.0)
        ledger.finish(1.0, "fresh")
        assert ledger.phases["execute"] == 0.0
        assert ledger.phases["queue"] == pytest.approx(1.0)

    def test_residual_lands_in_queue(self):
        ledger = RequestLedger("k", 10.0)
        ledger.charge("compile", 0.25)
        ledger.charge("execute", 0.5)
        ledger.finish(11.0, "fresh")
        assert ledger.wall_s == pytest.approx(1.0)
        assert ledger.phases["queue"] == pytest.approx(0.25)
        assert_conserved(ledger)

    def test_finish_is_idempotent(self):
        ledger = RequestLedger("k", 0.0)
        ledger.finish(1.0, "fresh")
        ledger.finish(99.0, "error")
        assert ledger.outcome == "fresh"
        assert ledger.wall_s == pytest.approx(1.0)

    def test_close_out_widens_both_margins(self):
        ledger = RequestLedger("k", 5.0)
        ledger.charge("execute", 1.0)
        ledger.finish(6.0, "fresh")
        ledger.close_out(4.0, 8.0)
        assert ledger.phases["queue"] == pytest.approx(1.0)  # 4.0 -> 5.0
        assert ledger.phases["render"] == pytest.approx(2.0)  # 6.0 -> 8.0
        assert ledger.wall_s == pytest.approx(4.0)
        assert_conserved(ledger)

    def test_close_out_again_with_wider_window_only_adds_margins(self):
        ledger = RequestLedger("k", 5.0)
        ledger.finish(6.0, "cache_hit")
        ledger.close_out(4.5, 6.5)  # the render window
        ledger.close_out(4.0, 7.0)  # the server-request window
        assert ledger.wall_s == pytest.approx(3.0)
        assert ledger.phases["queue"] == pytest.approx(2.0)
        assert ledger.phases["render"] == pytest.approx(1.0)
        assert_conserved(ledger)

    def test_active_s_excludes_queue_and_render(self):
        ledger = RequestLedger("k", 0.0)
        ledger.charge("execute", 2.0)
        ledger.charge("post_ops", 1.0)
        ledger.finish(5.0, "fresh")
        ledger.close_out(0.0, 6.0)
        assert ledger.active_s == pytest.approx(3.0)

    def test_to_dict_shape(self):
        ledger = RequestLedger("k", 0.0)
        ledger.finish(1.0, "fresh")
        d = ledger.to_dict()
        assert d["key"] == "k" and d["outcome"] == "fresh"
        assert list(d["phases"]) == list(PHASES)


class TestLedgerBook:
    def test_open_is_idempotent_per_key(self):
        book = LedgerBook(VirtualTimeClock())
        assert book.open("a") is book.open("a")

    def test_close_finishes_stragglers(self):
        clock = VirtualTimeClock()
        book = LedgerBook(clock)
        book.open("a")
        clock.advance(2.0)
        book.finish("a", "fresh")
        book.charge("b", "execute", 0.5)
        clock.advance(1.0)
        ledgers = book.close(default_outcome="batch_local")
        assert ledgers["a"].outcome == "fresh"
        assert ledgers["b"].outcome == "batch_local"
        for ledger in ledgers.values():
            assert_conserved(ledger)


# ---------------------------------------------------------------------- #
# Pipeline integration: conservation on every serving path
# ---------------------------------------------------------------------- #
class TestPipelineConservation:
    @pytest.mark.parametrize("seed", [3, 17, 42])
    def test_generated_batches_conserve_cold_and_warm(self, seed):
        """Property-style: difftest-generated specs, cold then warm."""
        pipeline = _pipeline()
        specs = gen_specs(seed, 8)
        cold = pipeline.run_batch(specs)
        assert cold.ok
        for s in specs:
            ledger = cold.ledger_for(s)
            assert ledger is not None and ledger.key == s.canonical()
            assert ledger.outcome in OUTCOMES
            assert_conserved(ledger)
        warm = pipeline.run_batch(specs)
        for s in specs:
            ledger = warm.ledger_for(s)
            assert ledger.outcome == "cache_hit"
            assert ledger.phases["cache_probe"] > 0.0
            assert_conserved(ledger)

    def test_elapsed_bounds_every_ledger(self):
        pipeline = _pipeline()
        specs = gen_specs(5, 6)
        result = pipeline.run_batch(specs)
        for ledger in result.ledgers.values():
            assert ledger.wall_s <= result.elapsed_s + 1e-6

    def test_coalesced_follower_charges_the_wait(self):
        source = GatedSource(make_source())
        registry = SingleFlightRegistry("warehouse")
        options = dict(
            enable_intelligent_cache=False,
            enable_literal_cache=False,
            enrich_for_reuse=False,
            coalesce_wait_timeout_s=10.0,
        )
        narrow = spec(dimensions=("name",), measures=(("n", COUNT),))
        leader_pipe = _pipeline(source, coalescer=registry, **options)
        follower_pipe = _pipeline(source, coalescer=registry, **options)

        leader_out, follower_out = {}, {}
        leader = threading.Thread(
            target=lambda: leader_out.update(r=leader_pipe.run_batch([narrow]))
        )
        leader.start()
        assert source.started.wait(10.0)
        follower = threading.Thread(
            target=lambda: follower_out.update(r=follower_pipe.run_batch([narrow]))
        )
        follower.start()
        deadline = time.monotonic() + 10.0
        while registry.stats.exact_joins < 1:
            assert time.monotonic() < deadline, "follower never joined"
            time.sleep(0.001)
        source.gate.set()
        leader.join(10.0)
        follower.join(10.0)

        lead_ledger = leader_out["r"].ledger_for(narrow)
        assert lead_ledger.outcome == "fresh"
        assert lead_ledger.phases["execute"] > 0.0
        assert_conserved(lead_ledger)
        follow_ledger = follower_out["r"].ledger_for(narrow)
        assert follow_ledger.outcome == "coalesced"
        assert follow_ledger.phases["coalesce_wait"] > 0.0
        assert_conserved(follow_ledger)

    def test_degraded_stale_serve_conserves(self):
        clock = VirtualTimeClock()
        plan = FaultPlan.scripted(
            [FaultRule("error", t_from=100.0)], clock=clock
        )
        source = FaultyDataSource(make_source(), plan, clock=clock)
        pipeline = _pipeline(
            source,
            clock=clock,
            enable_intelligent_cache=False,
            enable_literal_cache=False,
            serve_stale=True,
        )
        specs = gen_specs(11, 4)
        warm = pipeline.run_batch(specs)
        assert warm.ok and not warm.stale_keys
        clock.advance(150.0)  # into the outage
        degraded = pipeline.run_batch(specs)
        assert degraded.ok
        for s in specs:
            assert degraded.is_stale(s)
            ledger = degraded.ledger_for(s)
            assert ledger.outcome == "stale"
            assert_conserved(ledger)

    def test_unanswerable_spec_finishes_as_error(self):
        plan = FaultPlan.scripted([FaultRule("error")])
        source = FaultyDataSource(make_source(), plan)
        pipeline = _pipeline(
            source,
            enable_intelligent_cache=False,
            enable_literal_cache=False,
            serve_stale=True,  # cold store: nothing to fall back to
        )
        s = spec(dimensions=("name",), measures=(("n", COUNT),))
        result = pipeline.run_batch([s])
        assert not result.ok and s.canonical() in result.errors
        ledger = result.ledger_for(s)
        assert ledger.outcome == "error"
        assert ledger.phases["degrade"] >= 0.0
        assert_conserved(ledger)

    @pytest.mark.parametrize("backend", ["tde", "simdb"])
    def test_a_spec_answered_from_a_merged_query_finishes_fused(self, backend):
        """In either form of merge: the TDE's one grouping-sets query for
        all three, simdb's one plain aggregate for the two of one grain."""
        source = TdeDataSource(ENGINE) if backend == "tde" else make_source()
        pipeline = _pipeline(source, enable_batch_graph=False)
        batch = [
            spec(dimensions=("name",), measures=(("n", COUNT),)),
            spec(dimensions=("name",), measures=(("s", SUM_DELAY),)),
            spec(dimensions=("market",), measures=(("n", COUNT),)),
        ]
        result = pipeline.run_batch(batch)
        assert result.ok
        merged = 3 if backend == "tde" else 2
        assert result.fused_away == merged - 1
        outcomes = [result.ledger_for(s).outcome for s in batch]
        assert outcomes == ["fused"] * merged + ["fresh"] * (3 - merged)
        for s in batch:
            assert_conserved(result.ledger_for(s))

    def test_disabled_pipeline_produces_no_ledgers(self):
        pipeline = _pipeline(enable_ledger=False)
        result = pipeline.run_batch(gen_specs(1, 3))
        assert result.ok
        assert result.ledgers == {}


# ---------------------------------------------------------------------- #
# The disabled hot path is allocation-free in the telemetry modules
# ---------------------------------------------------------------------- #
class TestDisabledPathIsFree:
    def test_run_batch_allocates_nothing_from_telemetry_modules(self):
        pipeline = _pipeline(enable_ledger=False)
        specs = gen_specs(2, 4)
        pipeline.run_batch(specs)  # warm caches and lazy imports first
        filters = [
            tracemalloc.Filter(True, "*/obs/ledger.py"),
            tracemalloc.Filter(True, "*/obs/window.py"),
            tracemalloc.Filter(True, "*/obs/slowlog.py"),
        ]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(filters)
            pipeline.run_batch(specs)
            after = tracemalloc.take_snapshot().filter_traces(filters)
        finally:
            tracemalloc.stop()
        stats = after.compare_to(before, "lineno")
        grew = [s for s in stats if s.size_diff > 0 or s.count_diff > 0]
        assert not grew, f"telemetry modules allocated on the disabled path: {grew}"
