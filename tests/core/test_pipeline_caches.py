"""Pipeline integration tests + literal/distributed/persisted caches."""

import datetime as dt

import pytest

from repro.connectors import TdeDataSource
from repro.core.cache.distributed import (
    DistributedQueryCache,
    deserialize_table,
    serialize_table,
)
from repro.core.cache.literal import LiteralCache
from repro.core.cache.persistence import (
    load_intelligent_cache,
    save_intelligent_cache,
    spec_from_json,
    spec_to_json,
)
from repro.core.cache.intelligent import IntelligentCache
from repro.core.cache.replicated import ReplicatedStore
from repro.core import executor
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.dashboard import DashboardSession
from repro.faults import FaultPlan, FaultyDataSource
from repro.queries import CategoricalFilter, RangeFilter, TopNFilter
from repro.tde.storage import Table
from repro.workloads import fig1_dashboard, flights_model, generate_flights
from tests.core.conftest import (
    AVG_DELAY,
    COUNT,
    DISTINCT_MARKETS,
    SUM_DELAY,
    make_model,
    make_source,
    spec,
)


class TestPipeline:
    def test_single_remote_for_fusable_batch(self, source, model):
        pipe = QueryPipeline(source, model)
        batch = [
            spec(dimensions=("name",), measures=(("n", COUNT), ("a", AVG_DELAY))),
            spec(dimensions=("name",), measures=(("s", SUM_DELAY),)),
            spec(measures=(("total", COUNT),)),
        ]
        result = pipe.run_batch(batch)
        assert result.remote_queries == 1
        assert result.fused_away == 1
        assert result.batch_local == 1
        assert len(result.tables) == 3

    def test_two_filters_on_one_field_are_answered_as_asked(self, source, model, raw_pipeline):
        # No derivation is provable under two filters on one field, so the
        # spec is sent as asked rather than enriched.
        s = spec(
            dimensions=("name",),
            measures=(("n", COUNT),),
            filters=(
                CategoricalFilter("market_id", (0, 1, 2)),
                CategoricalFilter("market_id", (1, 2)),
            ),
        )
        result = QueryPipeline(source, model).run_batch([s])
        assert result.ok and result.table_for(s).column_names == ["name", "n"]
        assert result.table_for(s).approx_equals(raw_pipeline.run_spec(s), ordered=False)

    def test_interaction_served_from_cache(self, source, model):
        pipe = QueryPipeline(source, model)
        base = spec(
            dimensions=("name",),
            measures=(("n", COUNT),),
            filters=(CategoricalFilter("market_id", (0, 1, 2, 3)),),
        )
        pipe.run_batch([base])
        narrowed = base.with_filters((CategoricalFilter("market_id", (1, 2)),))
        result = pipe.run_batch([narrowed])
        assert result.remote_queries == 0
        assert result.cache_hits == 1

    def test_results_match_raw(self, source, model, raw_pipeline):
        pipe = QueryPipeline(source, model)
        batch = [
            spec(dimensions=("name",), measures=(("n", COUNT), ("a", AVG_DELAY))),
            spec(dimensions=("name",), measures=(("s", SUM_DELAY),)),
            spec(
                dimensions=("market",),
                measures=(("n", COUNT),),
                filters=(TopNFilter("market", COUNT, 3),),
                order_by=(("n", False),),
            ),
            spec(
                dimensions=("date_",),
                measures=(("n", COUNT),),
                filters=(RangeFilter("date_", dt.date(2014, 2, 1), dt.date(2014, 5, 1)),),
            ),
            spec(measures=(("u", DISTINCT_MARKETS),)),
        ]
        result = pipe.run_batch(batch)
        for s in batch:
            direct = raw_pipeline.run_spec(s)
            assert result.table_for(s).approx_equals(
                direct, ordered=bool(s.order_by), rel=1e-7, abs_tol=1e-7
            ), s.canonical()

    def test_repeat_batch_hits_everything(self, source, model):
        pipe = QueryPipeline(source, model)
        batch = [
            spec(dimensions=("name",), measures=(("n", COUNT),)),
            spec(dimensions=("market",), measures=(("n", COUNT),)),
        ]
        pipe.run_batch(batch)
        again = pipe.run_batch(batch)
        assert again.remote_queries == 0
        assert again.cache_hits == 2

    def test_literal_cache_catches_post_compile_duplicates(self, source, model):
        # Intelligent cache off: only the text-keyed cache can help.
        options = PipelineOptions(
            enable_intelligent_cache=False, enrich_for_reuse=False, enable_batch_graph=False
        )
        pipe = QueryPipeline(source, model, options=options)
        s = spec(dimensions=("name",), measures=(("n", COUNT),))
        pipe.run_batch([s])
        again = pipe.run_batch([s])
        assert again.remote_queries == 0
        assert again.literal_hits == 1

    def test_invalidate_purges(self, source, model):
        pipe = QueryPipeline(source, model)
        s = spec(dimensions=("name",), measures=(("n", COUNT),))
        pipe.run_batch([s])
        pipe.invalidate()
        result = pipe.run_batch([s])
        assert result.remote_queries == 1

    def test_everything_off_still_correct(self, source, model, raw_pipeline):
        s = spec(dimensions=("name",), measures=(("a", AVG_DELAY),))
        direct = raw_pipeline.run_spec(s)
        assert raw_pipeline.run_spec(s).approx_equals(direct, ordered=False)

    def test_duplicate_specs_in_batch(self, source, model):
        pipe = QueryPipeline(source, model)
        s = spec(dimensions=("name",), measures=(("n", COUNT),))
        result = pipe.run_batch([s, s, s])
        assert result.remote_queries == 1
        assert len(result.tables) == 1


class TestLiteralCache:
    def test_hit_miss(self):
        cache = LiteralCache()
        table = Table.from_pydict({"a": [1]})
        assert cache.get("k") is None
        cache.put("k", "ds", table)
        assert cache.get("k").equals(table)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_invalidate(self):
        cache = LiteralCache()
        cache.put("k1", "ds1", Table.from_pydict({"a": [1]}))
        cache.put("k2", "ds2", Table.from_pydict({"a": [2]}))
        assert cache.invalidate("ds1") == 1
        assert len(cache) == 1


def test_a_batch_never_runs_more_threads_than_connections(monkeypatch):
    # A thread past the pool's size would only wait at checkout, so the
    # executor's pool is as wide as the connection pool, never wider.
    pools = []

    class CountingPool(executor.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executor, "ThreadPoolExecutor", CountingPool)
    dataset = generate_flights(2_000, seed=1)
    # An inert fault plan: a remote-looking source, so batches use threads.
    source = FaultyDataSource(TdeDataSource(dataset.load_into_engine()), FaultPlan())
    options = PipelineOptions(max_connections=3, enable_fusion=False, enable_batch_graph=False)
    pipeline = QueryPipeline(source, flights_model(), options=options)
    try:
        DashboardSession(fig1_dashboard(), pipeline).render()
    finally:
        pipeline.close()
    assert pools and all(workers == 3 for workers in pools), pools


def test_a_send_answers_from_its_own_fetch_without_a_lookup(monkeypatch):
    """Counted over a cold Fig-1 render on the TDE: the intelligent cache
    is looked up once per distinct spec (the probe) and once per
    batch-local node, and never for a send, whose answer is its fetch
    through its plan's proof (16 lookups while each send read its own
    put back, 9 now)."""
    looked_up: list[str] = []
    real_lookup = IntelligentCache.lookup

    def counting_lookup(self, spec):
        looked_up.append(spec.canonical())
        return real_lookup(self, spec)

    monkeypatch.setattr(IntelligentCache, "lookup", counting_lookup)
    source = TdeDataSource(generate_flights(2_000, seed=1).load_into_engine())
    pipeline = QueryPipeline(source, flights_model())
    plans = []
    real_plan = pipeline._plan

    def recording_plan(*args, **kwargs):
        plans.append(real_plan(*args, **kwargs))
        return plans[-1]

    pipeline._plan = recording_plan
    try:
        render = DashboardSession(fig1_dashboard(), pipeline).render()
    finally:
        pipeline.close()
    distinct = [key for batch in render.batches for key in batch.tables]
    local = [node.key for plan in plans for node in plan.local]
    sends = [send.key for plan in plans for send in plan.sends]
    assert sends and local and render.cache_hits == 0
    assert len(looked_up) == len(distinct) + len(local) == 9
    assert [key for key in looked_up if key in sends] == sends  # each once, by the probe


def _one_node_tier() -> ReplicatedStore:
    return ReplicatedStore(("cache0",), replication=1, latency_s=0.0)


class TestDistributedCache:
    def test_serialization_roundtrip(self):
        table = Table.from_pydict({"a": [1, None], "s": ["x", "y"]})
        assert deserialize_table(serialize_table(table)).equals(table)

    def test_l1_over_l2(self):
        store = _one_node_tier()
        node_a = DistributedQueryCache(store, "ds")
        node_b = DistributedQueryCache(store, "ds")
        table = Table.from_pydict({"a": [1]})
        node_a.put("k", "ds", table)
        assert store.node("cache0").store.keys() == ("ds|k",)
        # Node B was never warmed locally; the shared store serves it.
        assert node_b.get("k").equals(table)
        assert node_b.l2_hits == 1
        # Second read on B comes from its own L1.
        assert node_b.get("k").equals(table)
        assert node_b.l1_hits == 1
        # Node A reads from its L1 directly.
        assert node_a.get("k").equals(table)
        assert node_a.l1_hits == 1

    def test_l1_disabled(self):
        node = DistributedQueryCache(_one_node_tier(), "ds", use_l1=False)
        node.put("k", "ds", Table.from_pydict({"a": [1]}))
        node.get("k")
        node.get("k")
        assert node.l1_hits == 0 and node.l2_hits == 2

    def test_miss(self):
        node = DistributedQueryCache(_one_node_tier(), "ds")
        assert node.get("nope") is None
        assert node.misses == 1

    def test_invalidate_drops_only_its_namespace(self):
        store = _one_node_tier()
        mine = DistributedQueryCache(store, "ds")
        other = DistributedQueryCache(store, "other")
        table = Table.from_pydict({"a": [1]})
        mine.put("k", "ds", table)
        other.put("k", "other", table)
        assert mine.invalidate("any name") == 1
        assert mine.get("k") is None  # gone from the L1 and the tier
        assert other.get("k").equals(table)


class TestPersistence:
    def test_spec_json_roundtrip(self):
        s = spec(
            dimensions=("name",),
            measures=(("a", AVG_DELAY), ("u", DISTINCT_MARKETS)),
            filters=(
                CategoricalFilter("market_id", (1, 2)),
                RangeFilter("date_", dt.date(2014, 1, 1), dt.date(2015, 1, 1)),
                TopNFilter("name", COUNT, 5),
                CategoricalFilter("code", ("AA",), exclude=True),
            ),
            order_by=(("a", False),),
            limit=7,
        )
        assert spec_from_json(spec_to_json(s)) == s

    def test_save_load(self, tmp_path, source, model):
        pipe = QueryPipeline(source, model)
        s = spec(dimensions=("name",), measures=(("n", COUNT),))
        expected = pipe.run_spec(s)
        path = tmp_path / "cache.zip"
        assert save_intelligent_cache(pipe.intelligent_cache, path) >= 1
        # A brand-new session loads the persisted cache: no remote queries.
        restored = load_intelligent_cache(path)
        fresh = QueryPipeline(make_source(), make_model(), intelligent_cache=restored)
        result = fresh.run_batch([s])
        assert result.remote_queries == 0
        assert result.table_for(s).approx_equals(expected, ordered=False)

    def test_version_1_file_is_refused_not_misread(self, tmp_path):
        """A cache saved before the wire format: manifest version 1, each
        entry a one-table database in the single-file (ZIP) format."""
        import io
        import json
        import zipfile

        from repro.errors import CacheError
        from repro.tde.storage import Database, pack_database

        table = Table.from_pydict({"name": ["AA"], "n": [7]})
        db = Database("cache")
        db.add_table("Extract.result", table)
        packed = io.BytesIO()
        pack_database(db, packed)
        s = spec(dimensions=("name",), measures=(("n", COUNT),))
        path = tmp_path / "v1.zip"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("0.tde", packed.getvalue())
            manifest = {"version": 1, "entries": [{"spec": spec_to_json(s), "payload": "0.tde"}]}
            zf.writestr("manifest.json", json.dumps(manifest))
        into = IntelligentCache()
        with pytest.raises(CacheError, match="unsupported cache version 1"):
            load_intelligent_cache(path, into)
        assert not into.entries()
        # The same entry saved today loads, into the cache it is given.
        saved = IntelligentCache()
        saved.put(s, table)
        save_intelligent_cache(saved, tmp_path / "v2.zip")
        assert load_intelligent_cache(tmp_path / "v2.zip", into) is into
        assert [t.equals(table) for _, t in into.entries()] == [True]

    def test_load_missing(self, tmp_path):
        from repro.errors import CacheError

        with pytest.raises(CacheError):
            load_intelligent_cache(tmp_path / "absent.zip")
