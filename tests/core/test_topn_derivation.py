"""A Top-N filter ranked over a cached result that no Top-N ranked.

Fig. 2's carrier zone keeps its top 5 carriers, and a market selection
re-filters it. The market zone's cached (market, code) count holds every
row that ranking reads, so the cache ranks it locally: the selection's
filter, a roll-up to the ranked grain, the ranking and the zone's shape.
The answer must be the reference's and byte for byte the one the
compiler's remote-ranked form gives; a result that a Top-N already cut
under other filters must never be re-ranked.
"""

import hashlib
import random
from collections import Counter

import pytest

from repro.connectors import SimDbDataSource, SimulatedDatabase
from repro.connectors.simdb import ServerProfile
from repro.core.cache.intelligent import IntelligentCache, match_specs
from repro.core.cache.replicated import ReplicatedStore
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.expr.ast import AggExpr, ColumnRef
from repro.queries import CategoricalFilter, DataSourceModel, JoinSpec, QuerySpec, TopNFilter
from repro.queries.compile import compile_spec
from repro.queries.postops import LocalTopNFilter
from repro.server.vizserver import VizServer
from repro.tde.engine import DataEngine
from repro.tde.storage import Table
from repro.tde.storage.wire import encode_table
from repro.workloads import (
    CARRIERS,
    MARKETS,
    STATES,
    TrafficGenerator,
    fig1_dashboard,
    fig2_dashboard,
    flights_model,
    generate_flights,
)
from tests.difftest.reference import answer_spec

COUNT = AggExpr("count")
ALL_OFF = PipelineOptions(
    enable_intelligent_cache=False,
    enable_literal_cache=False,
    enable_fusion=False,
    enable_batch_graph=False,
    enrich_for_reuse=False,
    concurrent=False,
)

#: Flights per (key, market). In m1 NULL is the most frequent key and e
#: ties f at rank 5; over both markets g and h lead, so the top 5 of all
#: flights cut to m1 is not m1's top 5.
FLIGHTS = {
    "m1": {None: 9, "a": 7, "b": 6, "c": 5, "d": 4, "e": 3, "f": 3},
    "m2": {"g": 30, "h": 30, "f": 2},
}
KEYS = [None, "a", "b", "c", "d", "e", "f", "g", "h"]


def _wire_sha(table):
    return hashlib.sha256(encode_table(table)).hexdigest()


def _star():
    """``(source, model, view rows)``: the fact table joined to a key and
    a market dimension, both bounded, so the compiler ranks locally."""
    facts = [(KEYS.index(k), i) for i, m in enumerate(FLIGHTS) for k, n in FLIGHTS[m].items() for _ in range(n)]
    engine = DataEngine("topn")
    engine.load_pydict("Extract.facts", {"kid": [k for k, _ in facts], "mid": [m for _, m in facts]})
    engine.load_pydict("Extract.keys", {"id": list(range(len(KEYS))), "key": KEYS})
    engine.load_pydict("Extract.markets", {"id": [0, 1], "market": list(FLIGHTS)})
    db = SimulatedDatabase("topn", ServerProfile(time_scale=0))
    for schema, table, stored in engine.database.iter_tables():
        db.load_table(f"{schema}.{table}", stored)
    model = DataSourceModel(
        "t",
        "Extract.facts",
        joins=(JoinSpec("Extract.keys", (("kid", "id"),)), JoinSpec("Extract.markets", (("mid", "id"),))),
    )
    rows = [{"key": KEYS[k], "market": list(FLIGHTS)[m]} for k, m in facts]
    return SimDbDataSource(db), model, rows


#: The carrier zone's query before any selection, as enrichment sends it:
#: ranked over every market.
RANKED = QuerySpec("t", ("key", "market"), (("n", COUNT),), (TopNFilter("key", COUNT, 5),))
#: The market zone's, enriched with the action field: ranked by nothing.
UNRANKED = QuerySpec("t", ("market", "key"), (("n", COUNT),))
#: The carrier zone after a selection of m1.
SELECTED = QuerySpec(
    "t",
    ("key",),
    (("n", COUNT),),
    (TopNFilter("key", COUNT, 5), CategoricalFilter("market", ("m1",))),
    (("n", False),),
)


def _check_ranked_locally(cache_type):
    """A cache holding the ranked entry first and the unranked one after
    it answers the selection as the reference and the remote-ranked
    compilation do."""
    source, model, rows = _star()
    raw = QueryPipeline(source, model, options=ALL_OFF)
    try:
        cache = cache_type()
        for provider in (RANKED, UNRANKED):
            cache.put(provider, raw.run_spec(provider))
        # The remote-ranked form: one aggregate shipped, ranked by the client.
        assert isinstance(compile_spec(SELECTED, model, source).post_ops[0], LocalTopNFilter)
        remote = raw.run_spec(SELECTED)
        for _ in range(2):  # the proof, then its memo
            derived = cache.lookup(SELECTED)
            assert derived is not None
            assert list(zip(*derived.to_pydict().values())) == answer_spec(rows, SELECTED)
            assert _wire_sha(derived) == _wire_sha(remote)
        assert cache.stats.subsumption_hits == 2
    finally:
        raw.close()


def test_a_topn_ranks_locally_over_an_unranked_entry():
    assert answer_spec(_star()[2], SELECTED) == [("a", 7), ("b", 6), ("c", 5), ("d", 4), ("e", 3)]
    _check_ranked_locally(IntelligentCache)


def test_a_sum_ranks_only_where_the_cached_column_is_an_int():
    """A float SUM re-added from partial sums may round differently from
    the SUM over the rows, so only an INT one ranks a cached result."""
    total = AggExpr("sum", ColumnRef("v"))
    provider = QuerySpec("t", ("market", "key"), (("s", total),))
    request = QuerySpec("t", ("key",), (("s", total),), (TopNFilter("key", total, 1),))
    for values, derives in (([1, 2], True), ([1.0, 2.0], False)):
        table = Table.from_pydict({"market": ["m1", "m2"], "key": ["a", "b"], "s": values})
        assert (match_specs(provider, request, table) is not None) == derives
    assert match_specs(provider, request) is None  # untyped


class _ForgetsItsRanking(IntelligentCache):
    """Stores a result a Top-N cut as if nothing had ranked it, so a Top-N
    is derived from a provider ranked under another filter: a planted bug."""

    def put(self, spec, result, **kwargs):
        unranked = [f for f in spec.filters if not isinstance(f, TopNFilter)]
        super().put(spec.with_filters(unranked), result, **kwargs)


def test_a_topn_derived_from_a_provider_ranked_under_another_filter_fails():
    with pytest.raises(AssertionError):
        _check_ranked_locally(_ForgetsItsRanking)


# ---------------------------------------------------------------------- #
# One seeded session round over two nodes
# ---------------------------------------------------------------------- #
def _session(seed):
    """E25's simdb_session shape: 60 seeded visits by 8 users over both
    dashboards, a load then geometric selections each."""
    fig1, fig2 = fig1_dashboard(), fig2_dashboard()
    rng = random.Random(seed)

    def shuffled(marks):
        marks = list(marks)
        rng.shuffle(marks)
        return marks

    traffic = TrafficGenerator(
        [fig1, fig2],
        n_users=8,
        seed=25,
        interaction_rate=0.7,
        selection_domains={
            fig1.name: {
                "origin_map": shuffled(sorted({STATES.index(o) for _m, o, _d in MARKETS})),
                "dest_map": shuffled(sorted({STATES.index(d) for _m, _o, d in MARKETS})),
            },
            fig2.name: {
                "market": shuffled(m[0] for m in MARKETS),
                "carrier": shuffled(c[0] for c in CARRIERS[:5]),
            },
        },
    )
    return (fig1, fig2), list(traffic.events(60))


def _ranked(spec):
    return any(isinstance(f, TopNFilter) for f in spec.filters)


def test_a_session_round_sends_the_carrier_query_only_to_nodes_without_a_provider(monkeypatch):
    seed = 1
    db = generate_flights(5_000, seed=seed).load_into_simdb(ServerProfile(time_scale=0))
    source, model = SimDbDataSource(db), flights_model()
    dashboards, events = _session(seed)
    store = ReplicatedStore(("cache0", "cache1", "cache2"), replication=2, latency_s=0.0, per_mb_s=0.0)
    server = VizServer(2, source, model, store=store)
    for dashboard in dashboards:
        server.register_dashboard(dashboard)
    carrier_queries, answers = [], []
    for node in server.nodes:
        pipeline = node.pipeline
        run_batch, lookup = pipeline.executor.run_batch, pipeline.intelligent_cache.lookup

        def sending(compiled, run_batch=run_batch, cache=pipeline.intelligent_cache, **kwargs):
            for query in compiled:
                spec = getattr(query, "spec", None)
                if spec is not None and _ranked(spec):
                    # Sent only where no cached result over every row,
                    # ranked by nothing, holds the (code, market) count.
                    assert not any(
                        not entry.filters and {"code", "market"} <= set(entry.dimensions)
                        for entry, _table in cache.entries()
                    )
                    carrier_queries.append(spec)
            return run_batch(compiled, **kwargs)

        def looking_up(spec, lookup=lookup):
            answer = lookup(spec)
            if answer is not None and _ranked(spec):
                answers.append((spec, answer))
            return answer

        monkeypatch.setattr(pipeline.executor, "run_batch", sending)
        monkeypatch.setattr(pipeline.intelligent_cache, "lookup", looking_up)
    remote, visit = Counter(), -1
    for event in events:
        visit += event.kind == "load"
        user = f"{event.user}#{visit}"
        if event.kind == "load":
            result = server.load(user, event.dashboard)[1]
        else:
            result = server.select(user, event.dashboard, event.zone, event.values)[1]
        assert not result.degraded
        if result.remote_queries:
            remote["load" if event.kind == "load" else event.zone] += 1
    # Parent: 19 of 185 ops remote ({load: 2, market: 14, carrier: 3}),
    # 16 carrier queries and 33 backend queries a round.
    assert len(events) == 185
    assert remote == {"load": 2, "market": 7, "carrier": 3}
    assert len(carrier_queries) == 2
    assert db.stats.queries == 21
    # Every Top-N answer, derived or fetched, is the remote-ranked one.
    raw = QueryPipeline(source, model, options=ALL_OFF)
    try:
        assert len(answers) > 14
        for spec, answer in answers:
            assert isinstance(compile_spec(spec, model, source).post_ops[0], LocalTopNFilter)
            assert _wire_sha(answer) == _wire_sha(raw.run_spec(spec)), spec.canonical()
    finally:
        raw.close()
        for node in server.nodes:
            node.pipeline.close()
