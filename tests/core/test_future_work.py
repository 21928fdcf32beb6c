"""Tests for the paper's future-work features (§3.2 and §7):

* the cache index ("maintain an index over the cache");
* choose_best ("the entry that requires the least post-processing");
* the interaction prefetcher (DICE-style prediction);
* an order over fragments, where §4.2.2 leaves order preservation to
  future work.
"""

import pytest

from repro.core.cache.index import CacheIndex
from repro.core.cache.intelligent import IntelligentCache, match_specs
from repro.core.pipeline import QueryPipeline
from repro.core.prefetch import InteractionPrefetcher
from repro.dashboard import DashboardSession
from repro.queries import CategoricalFilter, QuerySpec, TopNFilter
from tests.core.conftest import COUNT, SUM_DELAY, spec


# ---------------------------------------------------------------------- #
# Cache index
# ---------------------------------------------------------------------- #
class TestCacheIndex:
    def _populate(self, index: CacheIndex, specs):
        for s in specs:
            index.add(s.canonical(), s)

    def test_candidates_superset_of_matches(self, raw_pipeline):
        """Soundness: the index may over-approximate but never prune a
        real match (it encodes only *necessary* conditions)."""
        providers = [
            spec(dimensions=("name", "market_id"), measures=(("n", COUNT),)),
            spec(dimensions=("name",), measures=(("n", COUNT),)),
            spec(dimensions=("date_",), measures=(("n", COUNT),)),
            spec(
                dimensions=("name", "market_id"),
                measures=(("n", COUNT),),
                filters=(CategoricalFilter("market_id", (0, 1, 2)),),
            ),
            spec(dimensions=("name",), measures=(("n", COUNT),), limit=3),
            spec(
                dimensions=("name",),
                measures=(("n", COUNT),),
                filters=(TopNFilter("name", COUNT, 2),),
            ),
        ]
        index = CacheIndex()
        self._populate(index, providers)
        requests = [
            spec(dimensions=("name",), measures=(("n", COUNT),)),
            spec(
                dimensions=("name",),
                measures=(("n", COUNT),),
                filters=(CategoricalFilter("market_id", (1,)),),
            ),
            spec(dimensions=("market_id",), measures=(("n", COUNT),)),
            spec(measures=(("n", COUNT),)),
        ]
        for request in requests:
            survivors = set(index.candidates(request))
            for provider in providers:
                if provider.canonical() == request.canonical():
                    continue
                if match_specs(provider, request) is not None:
                    assert provider.canonical() in survivors, (
                        f"index pruned a real match: {provider.canonical()}"
                    )

    def test_prunes_impossible_dimensions(self):
        index = CacheIndex()
        self._populate(index, [spec(dimensions=("date_",), measures=(("n", COUNT),))])
        request = spec(dimensions=("name",), measures=(("n", COUNT),))
        assert index.candidates(request) == []

    def test_prunes_truncated_and_foreign_datasource(self):
        index = CacheIndex()
        index.add("a", spec(dimensions=("name",), measures=(("n", COUNT),), limit=1))
        index.add("b", QuerySpec("other", ("name",), (("n", COUNT),)))
        request = spec(dimensions=("name",), measures=(("n", COUNT),))
        assert index.candidates(request) == []

    def test_remove_and_clear(self):
        index = CacheIndex()
        s = spec(dimensions=("name",), measures=(("n", COUNT),))
        index.add(s.canonical(), s)
        assert len(index) == 1
        index.remove(s.canonical())
        assert len(index) == 0
        assert index.candidates(s) == []
        index.add(s.canonical(), s)
        index.clear("faa")
        assert len(index) == 0

    def test_indexed_cache_agrees_with_linear_scan(self, raw_pipeline):
        providers = [
            spec(dimensions=("name", "market_id"), measures=(("n", COUNT), ("s", SUM_DELAY))),
            spec(dimensions=("date_",), measures=(("n", COUNT),)),
        ]
        requests = [
            spec(dimensions=("name",), measures=(("n", COUNT),)),
            spec(dimensions=("market_id",), measures=(("s", SUM_DELAY),)),
            spec(dimensions=("hour",), measures=(("n", COUNT),)),
        ]
        plain = IntelligentCache()
        indexed = IntelligentCache(use_index=True)
        for p in providers:
            table = raw_pipeline.run_spec(p)
            plain.put(p, table)
            indexed.put(p, table)
        for request in requests:
            a = plain.lookup(request)
            b = indexed.lookup(request)
            if a is None:
                assert b is None
            else:
                assert b is not None and a.approx_equals(b, ordered=False)

    def test_index_reduces_examined_entries(self, raw_pipeline):
        indexed = IntelligentCache(use_index=True)
        table = raw_pipeline.run_spec(spec(dimensions=("name",), measures=(("n", COUNT),)))
        for i in range(20):
            indexed.put(
                spec(dimensions=("date_",), measures=((f"n{i}", COUNT),)), table
            )
        indexed.put(spec(dimensions=("name", "market_id"), measures=(("n", COUNT),)), table)
        indexed.lookup(spec(dimensions=("name",), measures=(("n", COUNT),)))
        # Only the one dimensionally-compatible entry was examined.
        assert indexed.index.candidates_examined <= 2


class TestChooseBest:
    def test_picks_cheapest_provider(self, raw_pipeline):
        wide = spec(dimensions=("date_", "name"), measures=(("n", COUNT),))
        narrow = spec(dimensions=("name", "market_id"), measures=(("n", COUNT),))
        request = spec(dimensions=("name",), measures=(("n", COUNT),))
        wide_table = raw_pipeline.run_spec(wide)
        narrow_table = raw_pipeline.run_spec(narrow)
        assert wide_table.n_rows > narrow_table.n_rows
        cache = IntelligentCache(choose_best=True)
        cache.put(wide, wide_table)
        cache.put(narrow, narrow_table)
        served = cache.lookup(request)
        direct = raw_pipeline.run_spec(request)
        assert served.approx_equals(direct, ordered=False)
        # The narrow provider must have been the one consulted.
        entries = {s.canonical(): e for (s, _t), e in zip(cache.entries(), cache._entries.values())}
        assert cache._entries[narrow.canonical()].uses == 1
        assert cache._entries[wide.canonical()].uses == 0

    def test_exact_match_still_wins(self, raw_pipeline):
        s = spec(dimensions=("name",), measures=(("n", COUNT),))
        cache = IntelligentCache(choose_best=True)
        cache.put(s, raw_pipeline.run_spec(s))
        assert cache.lookup(s) is not None
        assert cache.stats.exact_hits == 1


# ---------------------------------------------------------------------- #
# Prefetcher
# ---------------------------------------------------------------------- #
class TestPrefetcher:
    def _session(self, source, model):
        from repro.workloads import fig2_dashboard

        session = DashboardSession(fig2_dashboard(), QueryPipeline(source, model))
        session.render()
        return session

    @pytest.fixture()
    def fig2_session(self):
        from repro.connectors import SimDbDataSource
        from repro.connectors.simdb import ServerProfile
        from repro.workloads import flights_model, generate_flights

        dataset = generate_flights(4000, seed=31)
        db = dataset.load_into_simdb(ServerProfile(time_scale=0))
        return self._session(SimDbDataSource(db), flights_model()), db

    def test_predictions_are_plausible_next_specs(self, fig2_session):
        session, _db = fig2_session
        prefetcher = InteractionPrefetcher(background=False, max_candidates=2)
        session.select("market", ["LAX-SFO"])
        predicted = prefetcher.predict(session, "market", ("LAX-SFO",))
        assert predicted
        for s in predicted:
            assert any(
                isinstance(f, CategoricalFilter) and f.field == "market" for f in s.filters
            )
            # Predictions never repeat the current selection.
            for f in s.filters:
                if isinstance(f, CategoricalFilter) and f.field == "market":
                    assert f.values != ("LAX-SFO",)

    def test_prefetch_turns_next_click_into_cache_hit(self, fig2_session):
        session, db = fig2_session
        prefetcher = InteractionPrefetcher(background=False, max_candidates=11)
        session.select("market", ["LAX-SFO"])
        prefetcher.observe(session, "market", ("LAX-SFO",))
        queries_before = db.stats.queries
        # The user clicks one of the predicted markets next.
        result = session.select("market", ["JFK-BOS"])
        assert result.remote_queries == 0
        assert db.stats.queries == queries_before
        assert prefetcher.stats.specs_prefetched > 0

    def test_background_mode(self, fig2_session):
        session, _db = fig2_session
        prefetcher = InteractionPrefetcher(background=True, max_candidates=1)
        session.select("market", ["LAX-SFO"])
        prefetcher.observe(session, "market", ("LAX-SFO",))
        prefetcher.wait(timeout=10)
        assert prefetcher.stats.batches == 1

    def test_no_predictions_without_actions(self, fig2_session):
        session, _db = fig2_session
        prefetcher = InteractionPrefetcher(background=False)
        assert prefetcher.predict(session, "airline_name", ("Delta Air Lines",)) == []


# ---------------------------------------------------------------------- #
# Order over fragments
# ---------------------------------------------------------------------- #
class TestOrderPreservingMerge:
    """An ``order`` over fragments plans one Sort above the Exchange.

    The k-way merge of per-fragment sorts that 4.2.2 leaves as future work
    measured 60-75x slower run inline than this shape. The Exchange
    drains its fragments in input order and the sort is stable, so ties
    come out in storage order, as in the naive plan.
    """

    def test_plan_shape_and_equivalence(self):
        from repro.tde import DataEngine
        from repro.tde.exec import PExchange, PSort
        from repro.tde.optimizer.parallel import PlannerOptions

        engine = DataEngine("order", options=PlannerOptions(min_work_per_fraction=50))
        n = 400
        engine.load_pydict(
            "Extract.t",
            {
                "seq": list(range(n)),
                # Three values, so most rows tie, and every 7th row NULL.
                "grade": [None if i % 7 == 0 else i % 3 for i in range(n)],
            },
        )
        # The filter empties the first of the four fragments.
        query = f'(order ((grade desc)) (select (>= seq {n // 4}) (scan "Extract.t")))'
        plan = engine.plan(query)
        assert isinstance(plan, PSort)
        assert isinstance(plan.child, PExchange) and plan.child.degree == 4
        out = engine.query(query)
        assert out.n_rows == n - n // 4
        assert out.equals(engine.query_naive(query))
