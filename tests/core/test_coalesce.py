"""Single-flight coalescing: registry semantics and the pipeline herd path.

The registry's contract: one leader per canonical key, followers share
the leader's *fresh* result (exact joins directly, subsumption joins via
a local post-op derivation), failures propagate so followers recover on
their own, and every wait is bounded by a timeout.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.coalesce import CoalesceTimeoutError, SingleFlightRegistry
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.errors import SourceUnavailableError
from repro.queries.postops import apply_post_ops
from repro.queries.spec import CategoricalFilter
from tests.core.conftest import AVG_DELAY, COUNT, SUM_DELAY, make_model, make_source, spec

WIDE = spec(
    dimensions=("name", "market_id"),
    measures=(("n", COUNT), ("s", SUM_DELAY)),
)
NARROW = spec(dimensions=("name",), measures=(("n", COUNT),))
OTHER = spec(dimensions=("market",), measures=(("a", AVG_DELAY),))


class TestRegistry:
    def test_first_caller_leads(self):
        reg = SingleFlightRegistry("test")
        flight, ticket = reg.lead_or_join(WIDE)
        assert flight is not None and ticket is None
        assert reg.in_flight() == 1
        reg.publish(flight, "table")
        assert reg.in_flight() == 0

    def test_exact_join_shares_published_result(self):
        reg = SingleFlightRegistry("test")
        flight, _ = reg.lead_or_join(WIDE)
        _none, ticket = reg.lead_or_join(WIDE)
        assert _none is None and ticket is not None
        assert not ticket.subsumed and ticket.post_ops == ()
        followers = reg.publish(flight, "answer")
        assert followers == 1
        outcome = ticket.wait(1.0)
        assert outcome.ok and outcome.table == "answer"

    def test_subsumption_join_carries_post_ops(self):
        reg = SingleFlightRegistry("test")
        flight, _ = reg.lead_or_join(WIDE)
        _none, ticket = reg.lead_or_join(NARROW)
        assert ticket is not None and ticket.subsumed
        assert ticket.post_ops  # roll-up from the wider grain
        assert ticket.leader_key == WIDE.canonical()
        reg.publish(flight, "wide-table")
        assert ticket.wait(1.0).table == "wide-table"

    def test_subsumption_can_be_disabled(self):
        reg = SingleFlightRegistry("test")
        reg.lead_or_join(WIDE)
        flight, ticket = reg.lead_or_join(NARROW, subsume=False)
        assert flight is not None and ticket is None

    def test_unrelated_spec_leads_its_own_flight(self):
        reg = SingleFlightRegistry("test")
        reg.lead_or_join(WIDE)
        flight, ticket = reg.lead_or_join(OTHER)
        assert flight is not None and ticket is None
        assert reg.in_flight() == 2

    def test_failure_propagates_error_not_result(self):
        reg = SingleFlightRegistry("test")
        flight, _ = reg.lead_or_join(WIDE)
        _none, ticket = reg.lead_or_join(WIDE)
        reg.fail(flight, SourceUnavailableError("backend died"))
        outcome = ticket.wait(1.0)
        assert not outcome.ok
        assert isinstance(outcome.error, SourceUnavailableError)
        # The key is free again: the next caller leads a fresh flight.
        flight2, ticket2 = reg.lead_or_join(WIDE)
        assert flight2 is not None and ticket2 is None
        reg.publish(flight2, "recovered")

    def test_wait_timeout(self):
        reg = SingleFlightRegistry("test")
        reg.lead_or_join(WIDE)
        _none, ticket = reg.lead_or_join(WIDE)
        outcome = ticket.wait(0.01)
        assert not outcome.ok
        assert isinstance(outcome.error, CoalesceTimeoutError)

    def test_exclude_prevents_subsumption_join(self):
        """A batch must not wait on its own flights for derivable specs."""
        reg = SingleFlightRegistry("test")
        reg.lead_or_join(WIDE)
        flight, ticket = reg.lead_or_join(
            NARROW, exclude=frozenset({WIDE.canonical()})
        )
        assert flight is not None and ticket is None  # led, not joined

    def test_exact_join_ignores_exclude(self):
        """Duplicate keys always join: re-leading would orphan the flight."""
        reg = SingleFlightRegistry("test")
        flight, _ = reg.lead_or_join(WIDE)
        _none, ticket = reg.lead_or_join(
            WIDE, exclude=frozenset({WIDE.canonical()})
        )
        assert ticket is not None
        reg.publish(flight, "t")
        assert ticket.wait(1.0).table == "t"

    def test_peek_is_side_effect_free(self):
        reg = SingleFlightRegistry("test")
        assert reg.peek(WIDE) is None
        flight, _ = reg.lead_or_join(WIDE)
        ticket = reg.peek(NARROW)
        assert ticket is not None and ticket.subsumed
        assert flight.followers == 0  # peek never joins
        reg.publish(flight, "t")

    def test_late_joiner_races_completion_safely(self):
        """A ticket taken just before publish still resolves correctly."""
        reg = SingleFlightRegistry("test")
        flight, _ = reg.lead_or_join(WIDE)
        _none, ticket = reg.lead_or_join(WIDE)
        reg.publish(flight, "t")
        # The flight is out of the registry but the ticket still works.
        assert ticket.wait(0.0).table == "t"

    def test_snapshot_counts(self):
        reg = SingleFlightRegistry("kv")
        flight, _ = reg.lead_or_join(WIDE)
        reg.lead_or_join(WIDE)
        reg.lead_or_join(NARROW)
        snap = reg.snapshot()
        assert snap["name"] == "kv"
        assert snap["leads"] == 1
        assert snap["exact_joins"] == 1
        assert snap["subsumed_joins"] == 1
        assert snap["in_flight"] == {WIDE.canonical(): 2}
        reg.publish(flight, "t")
        assert reg.snapshot()["published"] == 1


# ---------------------------------------------------------------------- #
# Deterministic cross-thread scenarios via a gated source
# ---------------------------------------------------------------------- #
class GatedSource:
    """Wraps a source so remote executes block until ``gate`` is set.

    ``started`` fires when the first execute begins, letting the test
    thread register followers while the leader is provably in flight.
    """

    def __init__(self, inner, *, fail_with: Exception | None = None):
        self._inner = inner
        self.gate = threading.Event()
        self.started = threading.Event()
        self.fail_with = fail_with

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def connect(self):
        conn = self._inner.connect()
        inner_driver = conn.driver
        outer = self

        class _GatedDriver:
            def execute(self, text):
                outer.started.set()
                assert outer.gate.wait(10.0), "test gate never opened"
                if outer.fail_with is not None:
                    raise outer.fail_with
                return inner_driver.execute(text)

            def __getattr__(self, name):
                return getattr(inner_driver, name)

        conn.driver = _GatedDriver()
        return conn


def _pipeline(source=None, *, coalescer=None, **overrides):
    options = dict(
        enable_intelligent_cache=False,
        enable_literal_cache=False,
        enrich_for_reuse=False,
        coalesce_wait_timeout_s=10.0,
    )
    options.update(overrides)
    return QueryPipeline(
        source or make_source(),
        make_model(),
        options=PipelineOptions(**options),
        coalescer=coalescer,
    )


class TestPipelineCoalescing:
    def test_herd_of_identical_batches_executes_once(self):
        # The gate holds the leader's query until the other seven have
        # joined it; ungated, simdb can answer before the next thread
        # registers, and every thread leads.
        source = GatedSource(make_source())
        pipeline = _pipeline(source)
        herd = 8
        with ThreadPoolExecutor(max_workers=herd) as tp:
            futures = [tp.submit(pipeline.run_batch, [NARROW]) for _ in range(herd)]
            _wait_until(lambda: pipeline.coalescer.stats.joins == herd - 1)
            source.gate.set()
            results = [future.result() for future in futures]

        assert sum(r.remote_queries for r in results) == 1
        assert sum(r.coalesced_hits for r in results) == herd - 1
        reference = results[0].tables[NARROW.canonical()]
        for result in results:
            assert result.ok
            assert result.tables[NARROW.canonical()].equals_unordered(reference)

    def test_follower_waits_on_provably_inflight_leader(self):
        source = GatedSource(make_source())
        registry = SingleFlightRegistry("warehouse")
        leader_pipe = _pipeline(source, coalescer=registry)
        follower_pipe = _pipeline(source, coalescer=registry)

        leader_result = {}
        leader_thread = threading.Thread(
            target=lambda: leader_result.update(r=leader_pipe.run_batch([NARROW]))
        )
        leader_thread.start()
        assert source.started.wait(10.0)

        follower_done = {}
        follower_thread = threading.Thread(
            target=lambda: follower_done.update(r=follower_pipe.run_batch([NARROW]))
        )
        follower_thread.start()
        # The follower has joined (not led) once the registry shows it.
        _wait_until(lambda: registry.stats.exact_joins == 1)
        source.gate.set()
        leader_thread.join(10.0)
        follower_thread.join(10.0)

        assert leader_result["r"].remote_queries == 1
        follower = follower_done["r"]
        assert follower.remote_queries == 0
        assert follower.coalesced_hits == 1
        assert follower.coalesce_wait_s >= 0.0
        assert follower.tables[NARROW.canonical()].equals_unordered(
            leader_result["r"].tables[NARROW.canonical()]
        )

    def test_subsumed_follower_derives_locally(self):
        source = GatedSource(make_source())
        registry = SingleFlightRegistry("warehouse")
        leader_pipe = _pipeline(source, coalescer=registry)
        follower_pipe = _pipeline(source, coalescer=registry)

        leader_out = {}
        leader = threading.Thread(
            target=lambda: leader_out.update(r=leader_pipe.run_batch([WIDE]))
        )
        leader.start()
        assert source.started.wait(10.0)

        follower_out = {}
        follower = threading.Thread(
            target=lambda: follower_out.update(r=follower_pipe.run_batch([NARROW]))
        )
        follower.start()
        _wait_until(lambda: registry.stats.subsumed_joins == 1)
        source.gate.set()
        leader.join(10.0)
        follower.join(10.0)

        result = follower_out["r"]
        assert result.remote_queries == 0
        assert result.coalesced_hits == 1
        # The local derivation equals a direct evaluation of the spec.
        oracle = _pipeline().run_spec(NARROW)
        assert result.tables[NARROW.canonical()].equals_unordered(oracle)

    def test_follower_populates_its_own_intelligent_cache(self):
        """A coalesced answer warms the follower node's semantic cache."""
        source = GatedSource(make_source())
        registry = SingleFlightRegistry("warehouse")
        leader_pipe = _pipeline(
            source, coalescer=registry, enable_intelligent_cache=True
        )
        follower_pipe = _pipeline(
            source, coalescer=registry, enable_intelligent_cache=True
        )

        leader = threading.Thread(target=lambda: leader_pipe.run_batch([WIDE]))
        leader.start()
        assert source.started.wait(10.0)
        follower_out = {}
        follower = threading.Thread(
            target=lambda: follower_out.update(r=follower_pipe.run_batch([NARROW]))
        )
        follower.start()
        _wait_until(lambda: registry.stats.joins == 1)
        source.gate.set()
        leader.join(10.0)
        follower.join(10.0)
        assert follower_out["r"].coalesced_hits == 1

        # Next narrow request on the follower node: pure cache hit.
        repeat = follower_pipe.run_batch([NARROW])
        assert repeat.cache_hits == 1
        assert repeat.remote_queries == 0

    def test_disabled_coalescing_never_joins(self):
        pipeline = _pipeline(enable_coalescing=False)
        herd = 4
        barrier = threading.Barrier(herd)

        def request(_i):
            barrier.wait()
            return pipeline.run_batch([NARROW])

        with ThreadPoolExecutor(max_workers=herd) as tp:
            results = list(tp.map(request, range(herd)))
        assert sum(r.coalesced_hits for r in results) == 0
        assert pipeline.coalescer.stats.leads == 0

    def test_explain_reports_inflight_coalesce(self):
        source = GatedSource(make_source())
        registry = SingleFlightRegistry("warehouse")
        pipeline = _pipeline(source, coalescer=registry)
        leader = threading.Thread(target=lambda: pipeline.run_batch([WIDE]))
        leader.start()
        assert source.started.wait(10.0)
        try:
            explain_pipe = _pipeline(make_source(), coalescer=registry)
            exact = explain_pipe.explain_batch([WIDE])[0]
            assert "in-flight leader" in exact.get("coalesce", "")
            derived = explain_pipe.explain_batch([NARROW])[0]
            assert "subsumed" in derived.get("coalesce", "")
        finally:
            source.gate.set()
            leader.join(10.0)

    def test_subsumption_post_ops_match_cache_derivation(self):
        """The coalesce derivation is literally the cache's proof."""
        narrowed = spec(
            dimensions=("name",),
            measures=(("n", COUNT),),
            filters=(CategoricalFilter("market_id", (0, 1)),),
        )
        registry = SingleFlightRegistry("warehouse")
        flight, _ = registry.lead_or_join(WIDE)
        _none, ticket = registry.lead_or_join(narrowed)
        assert ticket is not None and ticket.subsumed
        wide_table = _pipeline().run_spec(WIDE)
        registry.publish(flight, wide_table)
        derived = apply_post_ops(ticket.wait(1.0).table, ticket.post_ops)
        oracle = _pipeline().run_spec(narrowed)
        assert derived.equals_unordered(oracle)


def _wait_until(predicate, timeout_s: float = 10.0) -> None:
    import time

    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached before timeout")
        time.sleep(0.001)


class TestHerdOverVizServer:
    def test_k_viewers_one_backend_execution(self):
        from repro.connectors import SimDbDataSource
        from repro.connectors.simdb import ServerProfile
        from repro.core.cache.distributed import KeyValueStore
        from repro.workloads import fig2_dashboard, flights_model, generate_flights
        from repro.server import VizServer

        dataset = generate_flights(2000, seed=23)
        db = dataset.load_into_simdb(ServerProfile(work_unit_time_s=2e-6))
        server = VizServer(
            3,
            SimDbDataSource(db),
            flights_model(),
            store=KeyValueStore(latency_s=0.0),
        )
        server.register_dashboard(fig2_dashboard())

        herd = 8
        barrier = threading.Barrier(herd)

        def view(i):
            barrier.wait()
            return server.load(f"viewer{i}", "market-carrier-airline")

        with ThreadPoolExecutor(max_workers=herd) as tp:
            results = list(tp.map(view, range(herd)))

        # Every viewer rendered every zone, identically.
        reference = results[0][1].zone_tables
        for _node, render in results:
            assert not render.degraded
            assert render.zone_tables.keys() == reference.keys()
            for zone, table in render.zone_tables.items():
                assert table.equals_unordered(reference[zone])
        # The herd coalesced: the cluster observed joins, and the backend
        # saw far fewer queries than viewers x zones.
        summary = server.cache_summary()
        assert summary["coalesce_joins"] > 0
        assert db.stats.queries < herd * len(reference)
