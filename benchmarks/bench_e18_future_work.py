"""E18 (ablation; §7 future work): prefetching.

"dashboard generation could become more responsive if requested data has
been accurately predicted and prefetched" (DICE [46]) — measured as the
latency of the user's *next* interaction with and without the prefetcher
warming the cache in the background.
"""

from repro.core.pipeline import QueryPipeline
from repro.core.prefetch import InteractionPrefetcher
from repro.dashboard import DashboardSession
from repro.sim.metrics import Recorder, time_call
from repro.workloads import fig2_dashboard

from .conftest import make_backend, record


def _fresh_session(dataset, model, name: str):
    _db, source = make_backend(dataset, name=name)
    session = DashboardSession(fig2_dashboard(), QueryPipeline(source, model))
    session.render()
    return session


def test_e18a_prefetching(benchmark, dataset, model):
    # Without prefetching: the next click goes to the backend.
    plain = _fresh_session(dataset, model, "noprefetch")
    plain.select("market", ["LAX-SFO"])
    t_cold, cold = time_call(lambda: plain.select("market", ["JFK-BOS"]), repeat=1)

    # With prefetching: the predictor warms the top candidate markets.
    warm = _fresh_session(dataset, model, "prefetch")
    prefetcher = InteractionPrefetcher(background=True, max_candidates=4)
    warm.select("market", ["LAX-SFO"])
    prefetcher.observe(warm, "market", ("LAX-SFO",))
    prefetcher.wait(timeout=30)
    t_warm, warmed = time_call(lambda: warm.select("market", ["JFK-BOS"]), repeat=1)

    recorder = Recorder(
        "E18a: next-interaction latency with/without prefetching",
        columns=["configuration", "remote", "elapsed_ms"],
    )
    recorder.add("no prefetch", cold.remote_queries, t_cold * 1000)
    recorder.add("DICE-style prefetch", warmed.remote_queries, t_warm * 1000)
    record("e18a_prefetching", recorder)

    assert cold.remote_queries > 0
    assert warmed.remote_queries == 0
    assert t_warm < t_cold / 5
    # Both paths show the user the same data.
    for zone in ("carrier", "airline_name"):
        assert plain.zone_tables[zone].approx_equals(
            warm.zone_tables[zone], ordered=False
        )

    def prefetched_click():
        session = _fresh_session(dataset, model, "prefetch-bench")
        pf = InteractionPrefetcher(background=False, max_candidates=4)
        session.select("market", ["LAX-SFO"])
        pf.observe(session, "market", ("LAX-SFO",))
        return session.select("market", ["JFK-BOS"])

    result = benchmark.pedantic(prefetched_click, rounds=2, iterations=1)
    assert result.remote_queries == 0

