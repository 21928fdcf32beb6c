"""The physical-plan cache: normalization, staleness, bounds, races.

The cache's contract has four load-bearing edges:

* **normalization** — textual variants of the same query (whitespace,
  bare-vs-quoted names, the side a literal sits on) collapse to one key,
  while a *literal change* is a different query and must miss;
* **invalidation** — an extract refresh or any DDL drops every cached
  plan, so no query ever executes a plan bound to dead storage;
* **bounds** — the LRU never exceeds its capacity, and ``capacity=0``
  disables the cache without callers needing a guard;
* **the race** — a compile that snapshotted its generation before an
  ``invalidate()`` can never re-insert its stale plan after
  ``invalidate()`` returns.
"""

from __future__ import annotations

import threading

from repro.connectors import SimDbDataSource, SimulatedDatabase
from repro.connectors.simdb import ServerProfile
from repro.core.pipeline import QueryPipeline
from repro.queries import DataSourceModel
from repro.tde.engine import DataEngine
from repro.tde.optimizer.parallel import PlannerOptions
from repro.tde.plancache import PlanCache, normalize_tql, options_fingerprint

QUERY = '(aggregate (region) ((n (count))) (select (> day 5) (scan "Extract.t")))'


def _engine(plan_cache_size: int = 64) -> DataEngine:
    engine = DataEngine(
        "pc",
        options=PlannerOptions(max_dop=1, plan_cache_size=plan_cache_size),
    )
    engine.load_pydict(
        "Extract.t",
        {
            "day": sorted([d % 20 for d in range(200)]),
            "region": [["east", "west", "north"][i % 3] for i in range(200)],
            "amount": [float(i) for i in range(200)],
        },
        sort_keys=["day"],
        encodings={"day": "rle"},
    )
    return engine


# ---------------------------------------------------------------------- #
# Normalization
# ---------------------------------------------------------------------- #
class TestNormalization:
    def test_whitespace_variants_share_a_key(self):
        sprawled = (
            "(aggregate   (region)\n"
            "   ((n (count)))\n"
            '   (select (> day 5)   (scan "Extract.t")))'
        )
        assert normalize_tql(sprawled) == normalize_tql(QUERY)

    def test_literal_position_flips_canonicalize(self):
        # ``5 < day`` is the same predicate as ``day > 5``.
        flipped = '(aggregate (region) ((n (count))) (select (< 5 day) (scan "Extract.t")))'
        assert normalize_tql(flipped) == normalize_tql(QUERY)
        for a, b in [
            ("(< 5 day)", "(> day 5)"),
            ("(<= 5 day)", "(>= day 5)"),
            ('(= "east" region)', '(= region "east")'),
            ('(<> "east" region)', '(<> region "east")'),
        ]:
            assert normalize_tql(f'(select {a} (scan "Extract.t"))') == normalize_tql(
                f'(select {b} (scan "Extract.t"))'
            )

    def test_bare_and_quoted_names_share_a_key(self):
        assert normalize_tql('(select (> day 5) (scan Extract.t))') == normalize_tql(
            '(select (> day 5) (scan "Extract.t"))'
        )

    def test_literal_change_is_a_different_key(self):
        changed = QUERY.replace("(> day 5)", "(> day 6)")
        assert normalize_tql(changed) != normalize_tql(QUERY)

    def test_literal_vs_literal_comparison_is_left_alone(self):
        # Both sides literal: flipping would be wrong (and pointless).
        q = '(select (< 3 5) (scan "Extract.t"))'
        assert "(< 3 5)" in normalize_tql(q)

    def test_options_fingerprint_distinguishes_option_sets(self):
        a = PlannerOptions(max_dop=1)
        b = PlannerOptions(max_dop=2)
        assert options_fingerprint(a) != options_fingerprint(b)
        assert options_fingerprint(a) == options_fingerprint(PlannerOptions(max_dop=1))


# ---------------------------------------------------------------------- #
# Engine wiring: hits, misses, invalidation
# ---------------------------------------------------------------------- #
class TestEngineCacheBehaviour:
    def test_repeat_query_hits(self):
        engine = _engine()
        base = engine.plan_cache.stats()
        engine.query(QUERY)
        engine.query(QUERY)
        stats = engine.plan_cache.stats()
        assert stats["misses"] - base["misses"] == 1
        assert stats["hits"] - base["hits"] == 1

    def test_cold_and_warm_plan_each_parse_the_text_once(self, monkeypatch):
        from repro.tde import engine as engine_module
        from repro.tde import plancache as plancache_module

        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_tql(text)

        parse_tql = engine_module.parse_tql
        assert plancache_module.parse_tql is parse_tql
        monkeypatch.setattr(engine_module, "parse_tql", counting_parse)
        monkeypatch.setattr(plancache_module, "parse_tql", counting_parse)
        engine = _engine()
        cold = engine.plan(QUERY)
        assert parsed == [QUERY]  # the key and the plan come from one tree
        assert engine.plan(QUERY) is cold
        assert parsed == [QUERY, QUERY]  # a warm plan() still parses for its key
        assert engine.plan_cache.stats()["hits"] == 1

    def test_normalized_variants_hit_the_same_entry(self):
        engine = _engine()
        engine.query(QUERY)
        before = engine.plan_cache.stats()["hits"]
        variants = [
            # whitespace
            QUERY.replace(" (select", "\n   (select"),
            # literal side
            QUERY.replace("(> day 5)", "(< 5 day)"),
            # bare table name
            QUERY.replace('(scan "Extract.t")', "(scan Extract.t)"),
        ]
        for variant in variants:
            engine.query(variant)
        assert engine.plan_cache.stats()["hits"] - before == len(variants)
        assert len(engine.plan_cache) == 1

    def test_literal_change_misses(self):
        engine = _engine()
        engine.query(QUERY)
        before = engine.plan_cache.stats()
        engine.query(QUERY.replace("(> day 5)", "(> day 9)"))
        after = engine.plan_cache.stats()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] == before["hits"]
        assert len(engine.plan_cache) == 2

    def test_different_options_compile_different_plans(self):
        engine = _engine()
        engine.plan(QUERY)
        engine.plan(
            QUERY,
            options=PlannerOptions(max_dop=1, enable_code_space=False),
        )
        # Same normalized text, different fingerprints: two entries.
        assert len(engine.plan_cache) == 2

    def test_refresh_invalidates(self):
        engine = _engine()
        engine.query(QUERY)
        assert len(engine.plan_cache) == 1
        dropped = engine.invalidate_plans("refresh")
        assert dropped == 1
        assert len(engine.plan_cache) == 0
        before = engine.plan_cache.stats()
        engine.query(QUERY)  # must recompile
        assert engine.plan_cache.stats()["misses"] - before["misses"] == 1

    def test_catalog_change_invalidates_and_shifts_the_key(self):
        engine = _engine()
        engine.query(QUERY)
        version_before = engine.catalog.version
        engine.load_pydict("Extract.extra", {"x": [1, 2, 3]})
        # Both defenses engage: the cache is cleared *and* the catalog
        # version baked into new keys moves on.
        assert len(engine.plan_cache) == 0
        assert engine.plan_cache.stats()["invalidations"] >= 1
        assert engine.catalog.version != version_before
        engine.drop_table("Extract.extra")
        assert engine.catalog.version != version_before

    def test_constraint_declaration_shifts_the_key(self):
        engine = _engine()
        key_before = engine._plan_key(QUERY, engine.options)
        engine.declare_unique("Extract.t", ["day"])
        assert engine._plan_key(QUERY, engine.options) != key_before

    def test_pipeline_refresh_invalidates_backend_plans(self):
        """The server-side refresh path: ``QueryPipeline.invalidate()``
        reaches through the data source to the backing engine."""
        db = SimulatedDatabase("warehouse", ServerProfile(time_scale=0))
        db.engine.load_pydict("Extract.t", {"x": [1, 2, 3]})
        pipeline = QueryPipeline(
            SimDbDataSource(db), DataSourceModel("m", "Extract.t")
        )
        db.engine.query('(aggregate () ((n (count))) (scan "Extract.t"))')
        assert len(db.engine.plan_cache) == 1
        invalidations_before = db.engine.plan_cache.stats()["invalidations"]
        pipeline.invalidate()
        assert len(db.engine.plan_cache) == 0
        assert db.engine.plan_cache.stats()["invalidations"] == invalidations_before + 1


# ---------------------------------------------------------------------- #
# LRU bound
# ---------------------------------------------------------------------- #
class TestLruBound:
    def test_capacity_is_a_hard_bound(self):
        cache = PlanCache(capacity=2)
        gen = cache.generation()
        for i in range(5):
            cache.put(("q", i), f"plan{i}", gen)
            assert len(cache) <= 2
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["evictions"] == 3
        # The survivors are the most recently inserted.
        assert cache.get(("q", 4)) == "plan4"
        assert cache.get(("q", 3)) == "plan3"
        assert cache.get(("q", 0)) is None

    def test_get_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        gen = cache.generation()
        cache.put(("a",), "A", gen)
        cache.put(("b",), "B", gen)
        assert cache.get(("a",)) == "A"  # ``a`` is now the newest
        cache.put(("c",), "C", gen)  # evicts ``b``, not ``a``
        assert cache.get(("a",)) == "A"
        assert cache.get(("b",)) is None
        assert cache.get(("c",)) == "C"

    def test_engine_respects_the_configured_bound(self):
        engine = _engine(plan_cache_size=3)
        for day in range(8):
            engine.query(QUERY.replace("(> day 5)", f"(> day {day})"))
        stats = engine.plan_cache.stats()
        assert stats["capacity"] == 3
        assert stats["size"] == 3
        assert stats["evictions"] == 5

    def test_capacity_zero_disables(self):
        cache = PlanCache(capacity=0)
        assert not cache.enabled
        assert cache.put(("k",), "plan", cache.generation()) is False
        assert cache.get(("k",)) is None
        assert cache.stats()["misses"] == 0  # disabled gets are not misses

    def test_engine_with_cache_disabled_never_caches(self):
        engine = _engine(plan_cache_size=0)
        engine.query(QUERY)
        engine.query(QUERY)
        stats = engine.plan_cache.stats()
        # One invalidation rides along from the load_pydict DDL; nothing
        # was ever looked up or stored.
        assert stats == {
            "capacity": 0,
            "size": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "invalidations": 1,
        }


# ---------------------------------------------------------------------- #
# The two-thread race
# ---------------------------------------------------------------------- #
class TestInvalidationRace:
    def test_stale_generation_put_is_refused(self):
        cache = PlanCache(capacity=8)
        gen = cache.generation()
        cache.invalidate("refresh")
        assert cache.put(("k",), "stale", gen) is False
        assert cache.get(("k",)) is None

    def test_no_stale_plan_after_invalidate_returns(self):
        """Thread A snapshots its generation and compiles; ``invalidate()``
        runs to completion *during* the compile; A's put must be refused,
        so the first get after invalidation recompiles instead of serving
        the pre-refresh plan."""
        cache = PlanCache(capacity=8)
        compiling = threading.Event()
        refreshed = threading.Event()
        outcome: dict = {}

        def compile_thread():
            gen = cache.generation()
            compiling.set()
            # "compile" straddles the refresh
            assert refreshed.wait(5.0)
            outcome["stored"] = cache.put(("dashboard",), "stale-plan", gen)

        worker = threading.Thread(target=compile_thread)
        worker.start()
        assert compiling.wait(5.0)
        cache.invalidate("extract_refresh")
        refreshed.set()
        worker.join(5.0)
        assert worker.is_alive() is False
        assert outcome["stored"] is False, "stale plan must not be inserted"
        assert cache.get(("dashboard",)) is None

    def test_put_after_reinvalidation_round_trip_succeeds(self):
        # A compile started *after* the invalidation is current again.
        cache = PlanCache(capacity=8)
        cache.invalidate("refresh")
        gen = cache.generation()
        assert cache.put(("k",), "fresh", gen) is True
        assert cache.get(("k",)) == "fresh"

    def test_concurrent_readers_and_an_invalidator(self):
        """Hammer get/put/invalidate from threads: no exceptions, no stale
        entries surviving the final invalidation."""
        engine = _engine()
        errors: list[BaseException] = []

        def worker(day: int):
            try:
                for i in range(20):
                    engine.query(QUERY.replace("(> day 5)", f"(> day {day + i % 3})"))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(d,)) for d in (1, 4, 7)]
        for t in threads:
            t.start()
        for _ in range(5):
            engine.invalidate_plans("refresh")
        for t in threads:
            t.join(10.0)
        assert not errors
        engine.invalidate_plans("final")
        assert len(engine.plan_cache) == 0
