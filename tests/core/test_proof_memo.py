"""The intelligent cache's proof memo: fresh, bounded, and what a warm hit pays.

A subsumption hit is proven and compiled once per cache state; later
hits on the same request reuse the remembered ``(provider, plan)``. The
memo is sound only while every mutation empties it, so the property
below replays interleavings of puts, eviction-forcing puts,
invalidations and lookups against a reference that searches
``entries()`` afresh on every lookup — and two planted mutations that
keep proofs across a mutation must fail it.
"""

import gc
import hashlib
import os
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro
import repro.core.cache.intelligent as intelligent
import repro.core.pipeline as pipeline_module
import repro.queries.postops as postops
from repro import obs
from repro.connectors import TdeDataSource
from repro.core.cache.eviction import EvictionPolicy
from repro.core.cache.intelligent import MAX_PROOFS, IntelligentCache, match_specs
from repro.core.pipeline import QueryPipeline
from repro.dashboard import DashboardSession
from repro.expr.ast import AggExpr, ColumnRef, conjoin
from repro.queries import CategoricalFilter, QuerySpec, RangeFilter
from repro.queries.postops import LocalAggregate, LocalFilter, LocalSort, apply_post_ops
from repro.tde.storage import Table
from repro.tde.storage.wire import encode_table
from repro.workloads import fig1_dashboard, flights_model, generate_flights
from tests.core.conftest import make_model, make_source
from tests.difftest.gen import gen_specs

COUNT = AggExpr("count")
SUM_V = AggExpr("sum", ColumnRef("v"))
MEASURES = (("n", COUNT), ("s", SUM_V))
SOURCES = ("a", "b")

#: (dimensions, filters) of the entries a put stores.
PROVIDERS = [
    (("g", "h"), ()),
    (("g", "h"), (CategoricalFilter("h", (0, 1, 2)),)),
    (("g", "h"), (CategoricalFilter("g", ("x", "y")),)),
    (("g",), ()),
]
#: (dimensions, filters, ordered) of the requests lookups ask for: the
#: first is an exact hit on a provider, the rest roll-ups and narrowings
#: that two or three of the providers can answer.
REQUESTS = [
    (("g", "h"), (), False),
    (("g",), (), True),
    (("h",), (CategoricalFilter("g", ("x",)),), True),
    ((), (CategoricalFilter("h", (0, 1)),), False),
]


def _spec(source, dims, filters, ordered=False, measures=MEASURES):
    order_by = tuple((d, True) for d in dims) if ordered else ()
    return QuerySpec(source, dims, measures, filters, order_by)


def _base(version):
    """Every (g, h) pair once; ``v`` changes with the data version."""
    rows = [(g, h) for g in ("x", "y", "z") for h in range(4)]
    return Table.from_pydict(
        {
            "g": [g for g, _h in rows],
            "h": [h for _g, h in rows],
            "v": [(7 * i + 13 * version) % 11 for i in range(len(rows))],
        }
    )


def _answer(spec, version):
    """``spec`` over the data at ``version``, sorted by its dimensions:
    every sound derivation of it is then the same table."""
    ops = []
    predicate = conjoin([f.predicate() for f in spec.filters])
    if predicate is not None:
        ops.append(LocalFilter(predicate))
    ops.append(LocalAggregate(spec.dimensions, spec.measures))
    if spec.dimensions:
        ops.append(LocalSort(tuple((d, True) for d in spec.dimensions)))
    return apply_post_ops(_base(version), ops)


def _filler(source, j):
    """An entry no request can use: its measure is never asked for."""
    return _spec(source, ("g", "h"), (), measures=((f"pad{j}", AggExpr("max", ColumnRef("v"))),))


#: What one step does before it looks up every request on its source:
#: nothing ("lookup"), store provider ``i`` ("put"), put three entries
#: no request can use, which evicts everything else a 3-entry cache
#: holds ("evict"), or invalidate. Each step asks again for what the
#: steps before it proved, so a proof that outlives a mutation is served
#: on the step that made it stale.
KINDS = ("lookup", "put", "put", "evict", "invalidate", "invalidate_all")
OPS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.sampled_from(SOURCES), st.integers(0, 3)),
    min_size=4,
    max_size=20,
)


def _replay(cache, ops):
    """Run ``ops``; check every lookup, and the hit counters after it,
    against a search of ``entries()`` made afresh."""
    version = dict.fromkeys(SOURCES, 0)
    expected = {"exact_hits": 0, "subsumption_hits": 0, "misses": 0}
    cost = 1.0
    for op in ops:
        kind, source, i = op
        if kind in ("put", "evict"):
            if kind == "put":
                specs = [_spec(source, *PROVIDERS[i])]
            else:
                specs = [_filler(source, j) for j in range(3)]
            for spec in specs:
                # Each entry costs 100x more to re-evaluate than the one
                # before it, so eviction is oldest first, whatever the clock.
                cost *= 100.0
                cache.put(spec, _answer(spec, version[source]), cost_s=cost)
        elif kind == "invalidate":
            cache.invalidate(source)
            version[source] += 1  # a refresh: the next puts see new data
        elif kind == "invalidate_all":
            cache.invalidate()
            version = {s: n + 1 for s, n in version.items()}
        for shape in REQUESTS:
            request = _spec(source, *shape)
            want = _reference_lookup(cache, request, expected)
            got = cache.lookup(request)
            assert (got is None) == (want is None), (op, shape, got, want)
            assert got is None or got.equals(want), (op, shape, got.to_rows(), want.to_rows())
            stats = cache.stats.snapshot()
            assert {k: stats[k] for k in expected} == expected, (op, shape)


def _reference_lookup(cache, request, expected):
    entries = cache.entries()
    for spec, table in entries:
        if spec.canonical() == request.canonical():
            expected["exact_hits"] += 1
            return table
    for spec, table in entries:
        match = match_specs(spec, request)
        if match is not None:
            expected["subsumption_hits"] += 1
            return apply_post_ops(table, match.post_ops)
    expected["misses"] += 1
    return None


@pytest.mark.parametrize("use_index", [False, True])
@pytest.mark.parametrize("choose_best", [False, True])
@given(ops=OPS)
@settings(max_examples=40, deadline=None)
def test_a_remembered_proof_answers_what_a_fresh_search_does(choose_best, use_index, ops):
    cache = IntelligentCache(
        EvictionPolicy(max_entries=3), choose_best=choose_best, use_index=use_index
    )
    _replay(cache, ops)


class _KeepsProofsOnPut(IntelligentCache):
    def put(self, *args, **kwargs):
        proofs = dict(self._proofs)
        super().put(*args, **kwargs)
        self._proofs.update(proofs)


class _KeepsProofsOnInvalidate(IntelligentCache):
    def invalidate(self, datasource=None):
        proofs = dict(self._proofs)
        n = super().invalidate(datasource)
        self._proofs.update(proofs)
        return n


@pytest.mark.parametrize("mutant", [_KeepsProofsOnPut, _KeepsProofsOnInvalidate])
def test_a_memo_that_survives_a_mutation_fails_the_property(mutant):
    @given(ops=OPS)
    @settings(
        max_examples=100, deadline=None, derandomize=True, database=None, phases=[Phase.generate]
    )
    def replay_on_the_mutant(ops):
        _replay(mutant(EvictionPolicy(max_entries=3)), ops)

    with pytest.raises(AssertionError):
        replay_on_the_mutant()


def test_a_lookup_never_sees_data_older_than_a_finished_put():
    """Readers race a writer that re-puts the provider with new data: a
    proof made from the old entry must not land in the memo after the
    put that emptied it, so a lookup started after a put has returned
    derives from that put's data or newer."""
    cache = IntelligentCache()
    provider = _spec("a", ("g",), (), measures=(("s", SUM_V),))
    request = _spec("a", (), (), measures=(("s", SUM_V),))
    finished = [0]  # the newest version whose put has returned
    done = threading.Event()
    stale = []

    def writer():
        try:
            for version in range(1, 301):
                cache.put(provider, Table.from_pydict({"g": ["x", "y"], "s": [version] * 2}))
                finished[0] = version
        finally:
            done.set()

    def reader():
        while not done.is_set():
            floor = finished[0]
            got = cache.lookup(request)
            if got is not None and got.column("s").python_values() < [2 * floor]:
                stale.append((floor, got.to_rows()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert finished[0] == 300 and stale == []
    assert cache.lookup(request).to_rows() == [(600,)]


def test_a_subsumption_decision_says_where_its_proof_came_from():
    cache = IntelligentCache()
    for dims, filters in PROVIDERS[1:3]:  # neither can answer the request
        spec = _spec("a", dims, filters)
        cache.put(spec, _answer(spec, 0))
    provider = _spec("a", *PROVIDERS[0])
    cache.put(provider, _answer(provider, 0))
    request = _spec("a", ("g",), (), True)
    underivable = _spec("a", ("g",), (), measures=(("m", AggExpr("max", ColumnRef("v"))),))
    try:
        with obs.recording() as rec:
            for _ in range(2):
                cache.lookup(request)
            cache.put(provider, _answer(provider, 0))  # a put forgets the proof
            cache.lookup(request)
            assert cache.lookup(underivable) is None
    finally:
        obs.disable()
    accepted = rec.events("cache.subsumption", outcome="accepted")
    assert [(e.attributes["proof"], e.attributes["candidates"]) for e in accepted] == [
        ("search", 3),
        ("memo", 0),
        ("search", 3),
    ]
    ops = ["LocalAggregate", "LocalProject", "LocalSort"]
    assert all(e.attributes["post_ops"] == ops for e in accepted)
    # A rejection counts the same thing: the entries the search tried.
    [rejected] = rec.events("cache.subsumption", outcome="rejected")
    assert rejected.attributes["candidates"] == 3


# ---------------------------------------------------------------------- #
# What a warm hit pays, counted
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fig1_source():
    return TdeDataSource(generate_flights(2_000, seed=1).load_into_engine())


def test_a_repeat_warm_render_proves_and_compiles_nothing(monkeypatch, fig1_source):
    calls = {"match_specs": 0, "compile_post_ops": 0, "apply_post_ops": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(intelligent, "match_specs")
    # Counted where the cache compiles a proof and where a raw op
    # sequence (or a LOD / top-N sub-chain) would be compiled.
    for module in (intelligent, postops):
        counted(module, "compile_post_ops")
    for module in (intelligent, pipeline_module):
        counted(module, "apply_post_ops")
    pipeline = QueryPipeline(fig1_source, flights_model())
    try:
        DashboardSession(fig1_dashboard(), pipeline).render()  # cold: fills the cache
        calls.update(dict.fromkeys(calls, 0))
        proven = DashboardSession(fig1_dashboard(), pipeline).render()
        assert calls["match_specs"] > 0 and calls["compile_post_ops"] > 0
        assert calls["apply_post_ops"] == 8
        calls.update(dict.fromkeys(calls, 0))
        repeat = DashboardSession(fig1_dashboard(), pipeline).render()
    finally:
        pipeline.close()
    assert calls == {"match_specs": 0, "compile_post_ops": 0, "apply_post_ops": 8}
    assert repeat.zone_tables.keys() == proven.zone_tables.keys()
    for zone, table in repeat.zone_tables.items():
        assert table.equals(proven.zone_tables[zone]), zone


def test_the_memo_stays_within_its_cap():
    cache = IntelligentCache()
    provider = _spec("a", ("g", "h"), ())
    cache.put(provider, _answer(provider, 0))
    for i in range(10_000):
        low, high = divmod(i, 100)
        request = _spec("a", ("g",), (RangeFilter("h", low - 100, high),))
        assert cache.lookup(request) is not None
        assert len(cache._proofs) <= MAX_PROOFS
    assert len(cache._proofs) == MAX_PROOFS
    assert cache.stats.subsumption_hits == 10_000


def test_warm_renders_do_not_grow_the_heap(fig1_source):
    """500 warm renders, i.e. 4 000 warm lookups (8 zones each), grow the
    package's heap by less than 10 B per render."""
    renders = 500
    pipeline = QueryPipeline(fig1_source, flights_model())
    try:
        for _ in range(50):  # every lazy structure built, every proof made
            DashboardSession(fig1_dashboard(), pipeline).render()
        gc.collect()
        tracemalloc.start()
        try:
            # One traced render first: what the last render leaves alive
            # is then in both snapshots, so only growth is counted.
            DashboardSession(fig1_dashboard(), pipeline).render()
            gc.collect()
            before = tracemalloc.take_snapshot()
            for _ in range(renders):
                DashboardSession(fig1_dashboard(), pipeline).render()
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    finally:
        pipeline.close()
    program = [tracemalloc.Filter(True, os.path.join(os.path.dirname(repro.__file__), "*"))]
    grown = sum(
        stat.size_diff
        for stat in after.filter_traces(program).compare_to(
            before.filter_traces(program), "filename"
        )
    )
    assert grown / renders < 10, f"{grown / renders:.1f} B per warm render"


# ---------------------------------------------------------------------- #
# What a derivation keeps on its provider's entry
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("mutation", ["evict", "invalidate_source", "invalidate_all"])
def test_memoized_groupings_die_with_their_entry(mutation):
    cache = IntelligentCache(EvictionPolicy(max_entries=1))
    provider = _spec("a", ("g", "h"), ())
    cache.put(provider, _answer(provider, 0))
    # A selection rolled up to g, and g's roll-up: g's ids, then its keys.
    for request in (_spec("a", ("g",), (CategoricalFilter("h", (0, 1)),)), _spec("a", ("g",), ())):
        assert cache.lookup(request).equals(_answer(request, 0))
    entry = cache._entries[provider.canonical()]
    assert set(entry.memo) == {("g",), ("firsts", ("g",))}
    assert entry.size_bytes == entry.value.nbytes + entry.memo.nbytes > entry.value.nbytes
    held = [weakref.ref(entry.memo), weakref.ref(entry.memo[("g",)][0])]
    held += [weakref.ref(col) for col in entry.memo[("firsts", ("g",))].values()]
    del entry
    if mutation == "evict":
        # Dearer to re-evaluate than the provider: the provider goes.
        cache.put(_filler("a", 0), _answer(provider, 0), cost_s=100.0)
        assert provider.canonical() not in cache._entries
    else:
        cache.invalidate("a" if mutation == "invalidate_source" else None)
    gc.collect()
    assert [ref() for ref in held] == [None] * len(held)


def _wire_sha(table):
    return hashlib.sha256(encode_table(table)).hexdigest()


def _refreshed(table):
    """The same rows in the order a refresh might return them."""
    return table.take(list(range(table.n_rows - 1, -1, -1)))


@pytest.fixture(scope="module")
def difftest_entries():
    """The difftest's specs, and what the intelligent cache holds after a
    pipeline with every cache on has answered them."""
    specs = gen_specs(1337, 220)
    pipeline = QueryPipeline(make_source(), make_model())
    try:
        for start in range(0, len(specs), 8):
            pipeline.run_batch(specs[start : start + 8])
        return specs, pipeline.intelligent_cache.entries()
    finally:
        pipeline.close()


def _selections(provider, table):
    """A selection of two marks on each of the provider's dimensions,
    rolled up to its other dimensions."""
    out = []
    for dim in provider.dimensions:
        marks = [v for v in dict.fromkeys(table.column(dim).python_values()) if v is not None]
        rest = [d for d in provider.dimensions if d != dim]
        if not (rest or provider.measures):
            continue
        selected = provider.filters + (CategoricalFilter(dim, tuple(marks[:2])),)
        out.append(provider.with_dimensions(rest).with_filters(selected))
    return out


def _check_derivations(cache_type, specs, entries):
    """Each cached provider alone in a cache, before and after a refresh:
    every difftest spec it can answer and a selection on each of its
    dimensions, derived twice (proof, then memo), must be byte for byte
    what the generic post-ops build from it."""
    pairs = 0
    for provider, table in entries:
        requests = []
        for request in specs + _selections(provider, table):
            match = match_specs(provider, request)
            if match is not None and match.post_ops:
                requests.append((request, match.post_ops))
        cache = cache_type()
        for version in (table, _refreshed(table)):
            cache.invalidate(provider.datasource)
            cache.put(provider, version)
            for request, ops in requests * 2:
                want = _wire_sha(apply_post_ops(version, ops))
                assert _wire_sha(cache.lookup(request)) == want, (provider, request)
                pairs += 1
    return pairs


def test_compiled_derivations_equal_generic_ones_byte_for_byte(difftest_entries):
    assert _check_derivations(IntelligentCache, *difftest_entries) > 1500


class _KeepsMemoAcrossRefresh(IntelligentCache):
    """Hands a re-put entry the memo its key had before: a planted bug."""

    def put(self, spec, result, **kwargs):
        super().put(spec, result, **kwargs)
        kept = self.__dict__.setdefault("_kept", {})
        entry = self._entries[spec.canonical()]
        entry.memo = kept.setdefault(spec.canonical(), entry.memo)


def test_a_memo_that_outlives_a_refresh_fails_the_property(difftest_entries):
    with pytest.raises(AssertionError):
        _check_derivations(_KeepsMemoAcrossRefresh, *difftest_entries)
