"""Decision events from caches, eviction, fusion, prefetch, and the pool.

The event contract matters more than the prose: each emitter must name
its decision (kind + outcome) and carry the inputs the paper says drive
it — most precisely for eviction, where the victim's age, usage, and
re-evaluation cost (and their combined retention score) must appear on
the event, and the chosen victim must follow the documented ordering
(expired entries first, then lowest retention score).
"""

import json

import pytest

from repro import obs
from repro.clock import VirtualTimeClock
from repro.connectors import ConnectionPool
from repro.core.cache.eviction import CacheEntry, EvictionPolicy
from repro.core.cache.intelligent import IntelligentCache, explain_mismatch
from repro.core.cache.literal import LiteralCache
from repro.core.fusion import fuse_batch
from repro.connectors import TdeDataSource
from repro.core.pipeline import QueryPipeline
from repro.expr.ast import ColumnRef
from repro.queries import CategoricalFilter, DataSourceModel, QuerySpec
from repro.queries.compile import compile_spec
from repro.sql.dialects import QUIRKDB
from repro.tde.storage import Table

from .conftest import AVG_DELAY, COUNT, ENGINE, make_model, make_source, spec


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs.disable()


def _table(rows: int = 4) -> Table:
    return Table.from_pydict({"x": list(range(rows))})


#: The cache clock every entry is stamped on; nothing advances it.
CLOCK = VirtualTimeClock(10_000.0)


def _entry(key: str, *, uses: int, cost_s: float, idle_s: float) -> CacheEntry:
    now = CLOCK.monotonic()
    entry = CacheEntry(key, "db", _table(), 64, now, cost_s)
    entry.uses = uses
    entry.last_used = now - idle_s
    return entry


class TestEvictionEvents:
    def test_event_carries_victim_scores(self):
        policy = EvictionPolicy(max_entries=2)
        entries = {
            e.key: e
            for e in [
                _entry("keep-hot", uses=50, cost_s=2.0, idle_s=0.1),
                _entry("keep-costly", uses=5, cost_s=5.0, idle_s=1.0),
                _entry("victim", uses=0, cost_s=0.01, idle_s=60.0),
            ]
        }
        with obs.recording() as rec:
            evicted = policy.purge(entries, CLOCK.monotonic())
        assert evicted == ["victim"]
        events = rec.events("cache.eviction")
        assert len(events) == 1
        ev = events[0]
        assert ev.outcome == "evicted"
        assert ev.attributes["key"] == "victim"
        # The three documented retention inputs, plus the combined score.
        assert ev.attributes["age_s"] == pytest.approx(60.0, abs=1.0)
        assert ev.attributes["uses"] == 0
        assert ev.attributes["cost_s"] == 0.01
        assert ev.attributes["score"] == pytest.approx(
            entries_score := (0.01 + 1e-3) * 1 / (1 + ev.attributes["age_s"]),
            rel=1e-6,
        ), entries_score
        assert "retention score" in ev.reason
        assert "capacity pressure" in ev.reason

    def test_victim_matches_policy_ordering(self):
        # Lowest retention_score loses first, regardless of insert order.
        policy = EvictionPolicy(max_entries=3)
        entries = {
            e.key: e
            for e in [
                _entry("a", uses=1, cost_s=0.5, idle_s=5.0),
                _entry("b", uses=9, cost_s=0.5, idle_s=5.0),
                _entry("c", uses=1, cost_s=0.5, idle_s=50.0),
                _entry("d", uses=1, cost_s=4.0, idle_s=5.0),
            ]
        }
        now = CLOCK.monotonic()
        expected_victim = min(entries.values(), key=lambda e: e.retention_score(now))
        with obs.recording() as rec:
            evicted = policy.purge(entries, CLOCK.monotonic())
        assert evicted == [expected_victim.key]
        assert rec.events("cache.eviction")[0].attributes["key"] == expected_victim.key

    def test_expired_entries_evict_first_with_reason(self):
        policy = EvictionPolicy(max_age_s=10.0)
        stale = _entry("stale", uses=100, cost_s=9.0, idle_s=0.0)
        stale.created_at = CLOCK.monotonic() - 60.0
        entries = {"stale": stale, "fresh": _entry("fresh", uses=0, cost_s=0.0, idle_s=0.0)}
        with obs.recording() as rec:
            evicted = policy.purge(entries, CLOCK.monotonic())
        # Expired beats score: "stale" has a far better score than "fresh".
        assert evicted == ["stale"]
        ev = rec.events("cache.eviction")[0]
        assert "expired" in ev.reason
        assert "max age" in ev.reason

    def test_no_events_when_disabled(self):
        policy = EvictionPolicy(max_entries=1)
        entries = {
            e.key: e
            for e in [
                _entry("x", uses=0, cost_s=0.0, idle_s=1.0),
                _entry("y", uses=0, cost_s=0.0, idle_s=2.0),
            ]
        }
        # obs off: must not raise, must still purge
        policy.purge(entries, CLOCK.monotonic())
        assert len(entries) == 1

    @pytest.mark.parametrize("kind", ["literal", "intelligent"])
    def test_eviction_replays_on_the_cache_clock(self, kind):
        """Ages are virtual seconds on the cache's clock: an entry past
        ``max_age_s`` expires (not "age 0.0s under capacity pressure"), and
        two replays log byte-identical eviction records."""

        def replay() -> list[str]:
            clock = VirtualTimeClock()
            policy = EvictionPolicy(max_entries=3, max_age_s=12.0)
            cache = (
                LiteralCache(policy, clock=clock)
                if kind == "literal"
                else IntelligentCache(policy, clock=clock)
            )
            with obs.recording(clock) as rec:
                for i in range(5):  # one put every 5 virtual seconds
                    if kind == "literal":
                        cache.put(f"q{i}", "db", _table(i + 1), cost_s=0.01)
                    else:
                        cache.put(spec(dimensions=("carrier",), limit=i + 1), _table(i + 1))
                    clock.advance(5.0)
            return [json.dumps(e.to_dict(), sort_keys=True) for e in rec.events("cache.eviction")]

        first = replay()
        assert first == replay()
        events = [json.loads(line) for line in first]
        # q0 and q1 are each 15 virtual seconds old when the next put purges.
        assert [e["reason"].split(":")[0] for e in events] == ["expired", "expired"]
        assert all(e["attributes"]["age_s"] == 15.0 for e in events)


def _labelled(label) -> DataSourceModel:
    """The test model plus a calculated string field ``label``."""
    return DataSourceModel(
        "faa", "Extract.flights", joins=make_model().joins, calculations={"label": label}
    )


def _spec(markets=(0, 1, 2), dims=("name",), measures=None):
    return QuerySpec(
        "faa",
        dimensions=dims,
        measures=(("n", COUNT), ("a", AVG_DELAY)) if measures is None else measures,
        filters=(CategoricalFilter("market_id", markets),),
    )


class TestSubsumptionEvents:
    def test_accept_and_reject_reasons_in_recording(self):
        pipeline = QueryPipeline(make_source(), make_model())
        with obs.recording() as rec:
            pipeline.run_batch([_spec()])  # cold: rejected, no entries
            pipeline.run_batch([_spec(markets=(0, 2))])  # narrower: accepted
        rejects = rec.events("cache.subsumption", outcome="rejected")
        accepts = rec.events("cache.subsumption", outcome="accepted")
        assert rejects and accepts
        assert "no cached entries" in rejects[0].reason
        assert "proven to subsume" in accepts[-1].reason
        assert "post-processing" in accepts[-1].reason or "deriving via" in accepts[-1].reason

    def test_reject_names_failing_candidate_condition(self):
        cache = IntelligentCache()
        provider = _spec(markets=(0, 1))
        cache.put(provider, _table(), cost_s=0.1)
        wider = _spec(markets=(0, 1, 2, 3))
        with obs.recording() as rec:
            assert cache.lookup(wider) is None
        ev = rec.events("cache.subsumption", outcome="rejected")[0]
        assert ev.attributes["candidates"] == 1
        assert "not provably a subset" in ev.reason

    def test_reject_explains_the_first_entry_whose_grain_covers_the_request(self):
        cache = IntelligentCache()
        cache.put(_spec(dims=("market",)), _table(), cost_s=0.1)  # another zone's grain
        cache.put(_spec(markets=(0, 1)), _table(), cost_s=0.1)
        with obs.recording() as rec:
            assert cache.lookup(_spec(markets=(0, 1, 2, 3))) is None
        ev = rec.events("cache.subsumption", outcome="rejected")[0]
        assert ev.attributes["candidates"] == 2
        assert "not provably a subset" in ev.reason
        assert "absent from the cached grain" not in ev.reason

    def test_explain_mismatch_is_specific(self):
        a = _spec(dims=("name", "market_id"))
        b = _spec(dims=("name",))
        # b's grain lacks market_id, so it cannot answer a.
        assert "absent from the cached grain" in explain_mismatch(b, a)


class TestLiteralCacheEvents:
    def test_hit_and_miss(self):
        cache = LiteralCache()
        with obs.recording() as rec:
            assert cache.get("q-text") is None
            cache.put("q-text", "db", _table())
            assert cache.get("q-text") is not None
        assert [e.outcome for e in rec.events("cache.literal")] == ["miss", "hit"]


class TestFusionEvents:
    def test_fused_and_not_fused(self, monkeypatch):
        """One batch against an in-process TDE: one grouping-sets merge
        and every reason a query is sent alone."""
        source = TdeDataSource(ENGINE)
        model = _labelled(ColumnRef("name"))
        no_temp_tables = TdeDataSource(ENGINE)
        no_temp_tables.dialect = QUIRKDB  # a long IN list falls back to detail mode
        by_label = QuerySpec("faa", ("label",), (("n", COUNT),))
        batch = [
            compile_spec(QuerySpec("faa", ("name",), (("n", COUNT),)), model, source),
            compile_spec(QuerySpec("faa", ("name",), (("a", AVG_DELAY),)), model, source),
            compile_spec(by_label, model, source),
            # Same relation, but "label" is another column: the sets' one
            # output column would have two collations.
            compile_spec(by_label, _labelled(ColumnRef("market")), source),
            compile_spec(_spec(markets=(5,)), model, source),
            compile_spec(_spec(markets=tuple(range(20))), model, no_temp_tables),
            # One relation (a join to "#tt0"), two different temp tables.
            compile_spec(_spec(markets=(0, 1, 2, 3)), model, source, externalize_threshold=2),
            compile_spec(_spec(markets=(4, 5, 6, 7)), model, source, externalize_threshold=2),
        ]
        with obs.recording() as rec:
            (merged,) = fuse_batch(batch, model, source)
        assert merged.parts == tuple(batch[:3])
        (record,) = rec.events("fusion", outcome="merged")
        assert record.attributes["form"] == "grouping-sets"
        assert record.attributes["sets"] == 2  # the first two share a grain
        assert record.attributes["members"] == [q.spec.canonical() for q in batch[:3]]
        alone = rec.events("fusion", outcome="not_merged")
        declined = {event.attributes["spec"]: event.reason for event in alone}
        reasons = [declined.pop(q.spec.canonical()) for q in batch[3:]]
        assert not declined
        assert "clashes in type or collation" in reasons[0]
        assert "only query on its relation" in reasons[1]
        assert "detail mode" in reasons[2] and batch[5].detail_mode
        assert "only query on its relation" in reasons[3]
        assert "temp tables differ" in reasons[4]

        def no_record(*_args, **_kwargs):
            raise AssertionError("a fusion record was built with events off")

        monkeypatch.setattr(obs, "event", no_record)
        assert len(fuse_batch(batch, model, source)) == 1


class TestPoolEvents:
    def test_open_reuse_evict(self):
        pool = ConnectionPool(make_source(), max_connections=2, idle_ttl_s=0.0)
        with obs.recording() as rec:
            with pool.connection():
                pass
            with pool.connection():
                pass
            pool.evict_idle()
        outcomes = [e.outcome for e in rec.events("pool")]
        assert outcomes == ["opened", "reused", "evicted"]
        opened, reused, evicted = rec.events("pool")
        assert "opened a new one (1/2)" in opened.reason
        assert "reused an idle connection" in reused.reason
        assert "release remote resources" in evicted.reason


class TestPrefetchEvents:
    def test_skipped_when_nothing_to_predict(self):
        from repro.core.prefetch import InteractionPrefetcher

        class _Session:  # minimal duck-typed session with no actions
            class dashboard:
                zones: dict = {}

                @staticmethod
                def actions_from(_name):
                    return []

            zone_tables: dict = {}
            selections: dict = {}

        prefetcher = InteractionPrefetcher(background=False)
        with obs.recording() as rec:
            assert prefetcher.observe(_Session(), "map", ("east",)) == 0
        ev = rec.events("prefetch")[0]
        assert ev.outcome == "skipped"
        assert "no candidate next interactions" in ev.reason
