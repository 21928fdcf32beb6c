"""E4 (paper 3.4): query fusion, counted rather than timed.

"Since it is quite common for different zones of a dashboard to share the
same filters but request different columns, the reduction might be
substantial. More importantly processing of a fused query is often much
more efficient ... as the underlying relation needs to be computed only
once." N zones over one filtered relation, each asking for its own
measure, send one query where the all-off pipeline sends N, and the
backend's modeled busy time (``ServerStats.busy_seconds``, deterministic
at ``time_scale=0``) falls by a factor that grows with N.
"""

import datetime as dt

from repro import obs
from repro.connectors import SimDbDataSource, SimulatedDatabase
from repro.connectors.simdb import ServerProfile
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.errors import SourceUnavailableError
from repro.expr.ast import AggExpr, ColumnRef
from repro.queries import CategoricalFilter, RangeFilter
from repro.sql.dialects import ANSI, QUIRKDB
from tests.core.conftest import COUNT, DISTINCT_MARKETS, ENGINE, make_model, spec
from tests.core.test_coalesce import GatedSource

#: One measure per zone, no two alike.
MEASURES = [("n", COUNT)] + [
    (f"{func}_{column}", AggExpr(func, ColumnRef(column)))
    for column in ("delay", "distance", "carrier_id", "market_id")
    for func in ("sum", "min", "max", "avg")
]

SPRING_ON = (RangeFilter("date_", dt.date(2014, 3, 1), dt.date(2014, 12, 1)),)


def _source(dialect=ANSI) -> SimDbDataSource:
    db = SimulatedDatabase("warehouse", ServerProfile(time_scale=0, dialect=dialect))
    for schema, table, data in ENGINE.database.iter_tables():
        db.load_table(f"{schema}.{table}", data)
    return SimDbDataSource(db)


def _run(batch, source, *, fusion: bool, enrich: bool = False, **options):
    """Run ``batch`` with only fusion (and optionally enrichment) on."""
    options = PipelineOptions(
        enable_intelligent_cache=False,
        enable_literal_cache=False,
        enable_batch_graph=False,
        enrich_for_reuse=enrich,
        concurrent=False,
        enable_fusion=fusion,
        **options,
    )
    pipeline = QueryPipeline(source, make_model(), options=options)
    try:
        return pipeline.run_batch(batch)
    finally:
        pipeline.close()


def _zones(n: int, filters=SPRING_ON):
    return [spec(dimensions=("name",), measures=(MEASURES[i],), filters=filters) for i in range(n)]


def _assert_same_answers(batch, result, oracle):
    assert result.ok, result.errors
    for s in batch:
        assert result.table_for(s).approx_equals(oracle.table_for(s), ordered=False), s


def test_n_zones_send_one_query_and_the_saving_grows_with_n():
    ratios = []
    for n in (2, 4, 8, 16):
        batch = _zones(n)
        off_source, on_source = _source(), _source()
        off = _run(batch, off_source, fusion=False)
        on = _run(batch, on_source, fusion=True)
        assert off.remote_queries == off_source.db.stats.queries == n
        assert on.remote_queries == on_source.db.stats.queries == 1
        assert on.fused_away == n - 1
        _assert_same_answers(batch, on, off)
        busy_off = off_source.db.stats.busy_seconds
        busy_on = on_source.db.stats.busy_seconds
        assert busy_on < busy_off
        ratios.append(busy_off / busy_on)
    assert ratios == sorted(ratios) and len(set(ratios)) == len(ratios), ratios


def test_measures_sharing_an_alias_but_not_an_aggregate_still_merge():
    batch = [
        spec(dimensions=("name",), measures=(("m", COUNT),), filters=SPRING_ON),
        spec(dimensions=("name",), measures=(("m", MEASURES[1][1]),), filters=SPRING_ON),
    ]
    on = _run(batch, _source(), fusion=True)
    assert on.remote_queries == 1 and on.fused_away == 1
    _assert_same_answers(batch, on, _run(batch, _source(), fusion=False))


def test_equal_temp_tables_still_merge():
    # One externalized IN list: both queries join the same "#tt0" rows.
    markets = (CategoricalFilter("market_id", (0, 1, 2, 3)),)
    batch = _zones(2, filters=markets)
    source = _source()
    on = _run(batch, source, fusion=True, externalize_threshold=2)
    assert on.remote_queries == source.db.stats.queries == 1
    assert source.db.stats.temp_tables_created == 1
    _assert_same_answers(batch, on, _run(batch, _source(), fusion=False))


class _FailingSource(GatedSource):
    """Fails every query whose text contains one of ``needles``."""

    def __init__(self, inner, *needles):
        super().__init__(inner)
        self.gate.set()
        self.needles = needles
        self.sent: list[str] = []

    def connect(self):
        conn = super().connect()
        gated = conn.driver
        outer = self

        class _Driver:
            def execute(self, text):
                outer.sent.append(text)
                if any(needle in text for needle in outer.needles):
                    raise SourceUnavailableError("scripted failure")
                return gated.execute(text)

            def __getattr__(self, name):
                return getattr(gated, name)

        conn.driver = _Driver()
        return conn


def test_a_failed_merged_query_is_resent_as_its_parts():
    """Each part then succeeds or degrades on its own: only the zone
    whose own query fails is an error."""
    batch = _zones(3)
    # The merged query names its measures __f0, __f1, ...; the third
    # zone's own query is the only one computing min(delay).
    source = _FailingSource(_source(), "__f", "MIN(")
    with obs.recording() as rec:
        result = _run(batch, source, fusion=True)
    assert len(source.sent) == 1 + 3
    assert set(result.errors) == {batch[2].canonical()}
    assert result.remote_queries == 2 and result.fused_away == 0
    oracle = _run(batch[:2], _source(), fusion=False)
    for s in batch[:2]:
        assert result.table_for(s).approx_equals(oracle.table_for(s), ordered=False)
    (unmerge,) = rec.events("degrade.unmerge")
    assert unmerge.attributes["members"] == [s.canonical() for s in batch]


class TestBehaviourChanges:
    """Fusion now sees compiled, enriched queries. Two consequences."""

    def test_a_count_distinct_part_no_longer_shares_a_widened_neighbours_query(self):
        # Enrichment adds the filter field date_ to every zone's grain but
        # the count_distinct one's, which it cannot roll up: two grains.
        batch = _zones(3) + [
            spec(dimensions=("name",), measures=(("u", DISTINCT_MARKETS),), filters=SPRING_ON)
        ]
        source = _source()
        on = _run(batch, source, fusion=True, enrich=True)
        assert on.remote_queries == source.db.stats.queries == 2
        assert on.fused_away == 2
        _assert_same_answers(batch, on, _run(batch, _source(), fusion=False))

    def test_detail_mode_queries_are_sent_alone(self):
        # quirkdb has no temp tables, so a 20-value IN list falls back to
        # fetching detail rows; each zone aggregates its own locally.
        wide = (CategoricalFilter("market_id", tuple(range(20))),)
        batch = _zones(2, filters=wide)
        source = _source(QUIRKDB)
        on = _run(batch, source, fusion=True)
        assert on.remote_queries == source.db.stats.queries == 2
        assert on.fused_away == 0
        _assert_same_answers(batch, on, _run(batch, _source(QUIRKDB), fusion=False))
