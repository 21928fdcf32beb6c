"""Level-of-detail calculation tests (paper 3.1's LOD subqueries)."""

import datetime as dt

import pytest

from repro.connectors import SimDbDataSource, SimulatedDatabase, TdeDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.pipeline import QueryPipeline
from repro.errors import BindError
from repro.expr.ast import AggExpr, ColumnRef
from repro.queries import (
    CategoricalFilter,
    LocalLod,
    LodCalculation,
    QuerySpec,
    RangeFilter,
    TopNFilter,
    apply_post_ops,
    compile_spec,
)
from repro.sql.dialects import QUIRKDB
from repro.tde.storage import Table
from repro.workloads import flights_model, generate_flights

COUNT = AggExpr("count")
DATASET = generate_flights(3000, seed=19)
ENGINE = DATASET.load_into_engine()


def _model():
    return flights_model().with_lod(
        "market_avg_delay", LodCalculation(("market",), AggExpr("avg", ColumnRef("dep_delay")))
    ).with_lod(
        "carrier_flights", LodCalculation(("carrier_name",), COUNT)
    )


def _tde():
    return TdeDataSource(ENGINE)


def _quirk():
    db = SimulatedDatabase("q", ServerProfile(dialect=QUIRKDB, time_scale=0))
    for s, t, tab in ENGINE.database.iter_tables():
        db.load_table(f"{s}.{t}", tab)
    return SimDbDataSource(db)


def _run(spec, model, source):
    compiled = compile_spec(spec, model, source)
    conn = source.connect()
    try:
        for name, table in compiled.temp_tables.items():
            conn.create_temp_table(name, table)
        return apply_post_ops(conn.execute(compiled.text), compiled.post_ops), compiled
    finally:
        conn.close()


class TestLodModel:
    def test_schema_includes_lod_fields(self):
        schema = _model().schema(_tde())
        from repro.datatypes import LogicalType

        assert schema["market_avg_delay"] is LogicalType.FLOAT
        assert schema["carrier_flights"] is LogicalType.INT

    def test_lod_fixing_unknown_field_rejected(self):
        model = flights_model().with_lod("bad", LodCalculation(("ghost",), COUNT))
        with pytest.raises(BindError):
            model.schema(_tde())

    def test_lod_needs_dimensions(self):
        with pytest.raises(BindError):
            LodCalculation((), COUNT)

    def test_expand_fields_reports_lods(self):
        physical, calcs, lods = _model().expand_fields({"market_avg_delay"}, _tde())
        assert "market_avg_delay" in lods
        assert "market_id" in physical or "dep_delay" in physical


class TestLodValues:
    def test_lod_matches_manual_computation(self):
        """Every flight of a market carries the market's average delay."""
        spec = QuerySpec(
            "faa",
            dimensions=("market", "market_avg_delay"),
            measures=(("own", AggExpr("avg", ColumnRef("dep_delay"))),),
        )
        out, compiled = _run(spec, _model(), _tde())
        assert not compiled.detail_mode
        # FIXED market : AVG(dep_delay) equals the per-market average.
        for market, lod_value, own in out.to_rows():
            assert lod_value == pytest.approx(own), market

    def test_lod_ignores_spec_filters(self):
        """FIXED calculations see the unfiltered view (Tableau semantics)."""
        unfiltered = QuerySpec("faa", dimensions=("market", "market_avg_delay"))
        filtered = QuerySpec(
            "faa",
            dimensions=("market", "market_avg_delay"),
            filters=(RangeFilter("date_", dt.date(2014, 6, 1), dt.date(2014, 7, 1)),),
        )
        base, _c = _run(unfiltered, _model(), _tde())
        narrowed, _c = _run(filtered, _model(), _tde())
        base_map = dict(base.to_rows())
        for market, lod_value in narrowed.to_rows():
            assert lod_value == pytest.approx(base_map[market]), market

    def test_lod_as_filter_field(self):
        """Filter flights to markets whose average delay is high."""
        spec = QuerySpec(
            "faa",
            dimensions=("market",),
            measures=(("n", COUNT),),
            filters=(RangeFilter("market_avg_delay", 13.0, None),),
        )
        out, _c = _run(spec, _model(), _tde())
        domain = dict(
            _run(QuerySpec("faa", dimensions=("market", "market_avg_delay")), _model(), _tde())[
                0
            ].to_rows()
        )
        for market in out.to_pydict()["market"]:
            assert domain[market] >= 13.0

    def test_detail_mode_agrees_with_pushdown(self):
        spec = QuerySpec(
            "faa",
            dimensions=("carrier_name",),
            measures=(("peers", AggExpr("avg", ColumnRef("market_avg_delay"))),),
            filters=(
                CategoricalFilter("market_id", (0, 1, 2, 3)),
                TopNFilter("carrier_name", COUNT, 4),
            ),
        )
        tde_out, tde_compiled = _run(spec, _model(), _tde())
        quirk_out, quirk_compiled = _run(spec, _model(), _quirk())
        assert not tde_compiled.detail_mode
        assert quirk_compiled.detail_mode
        assert tde_out.approx_equals(quirk_out, ordered=False)

    def test_two_lods_in_one_query(self):
        spec = QuerySpec(
            "faa",
            dimensions=("carrier_name", "carrier_flights"),
            measures=(("m", AggExpr("max", ColumnRef("market_avg_delay"))),),
        )
        out, _c = _run(spec, _model(), _tde())
        totals = dict(
            _run(
                QuerySpec("faa", dimensions=("carrier_name",), measures=(("n", COUNT),)),
                _model(),
                _tde(),
            )[0].to_rows()
        )
        for name, flights, _m in out.to_rows():
            assert flights == totals[name]

    def test_pipeline_and_cache_handle_lod(self):
        pipeline = QueryPipeline(_tde(), _model())
        spec = QuerySpec(
            "faa",
            dimensions=("market",),
            measures=(("lift", AggExpr("max", ColumnRef("market_avg_delay"))),),
            filters=(CategoricalFilter("market_id", (0, 1, 2)),),
        )
        first = pipeline.run_batch([spec])
        assert first.remote_queries == 1
        narrowed = spec.with_filters((CategoricalFilter("market_id", (1,)),))
        second = pipeline.run_batch([narrowed])
        assert second.remote_queries == 0  # served via subsumption
        direct = _run(narrowed, _model(), _tde())[0]
        assert second.table_for(narrowed).approx_equals(direct, ordered=False)


class TestLocalLodOp:
    def test_attach_basic(self):
        table = Table.from_pydict({"g": ["a", "a", "b"], "v": [1.0, 3.0, 10.0]})
        out = apply_post_ops(
            table, [LocalLod("avg_v", ("g",), AggExpr("avg", ColumnRef("v")))]
        )
        assert out.to_pydict()["avg_v"] == [2.0, 2.0, 10.0]

    def test_null_dimension_gets_null(self):
        table = Table.from_pydict({"g": ["a", None], "v": [1.0, 3.0]})
        out = apply_post_ops(
            table, [LocalLod("avg_v", ("g",), AggExpr("avg", ColumnRef("v")))]
        )
        assert out.to_pydict()["avg_v"] == [1.0, None]

    def test_empty_input(self):
        table = Table.from_pydict({"g": [], "v": []}, types=None) if False else None
        from repro.datatypes import LogicalType

        table = Table.from_pydict(
            {"g": [], "v": []}, types={"g": LogicalType.STR, "v": LogicalType.FLOAT}
        )
        out = apply_post_ops(
            table, [LocalLod("avg_v", ("g",), AggExpr("avg", ColumnRef("v")))]
        )
        assert out.n_rows == 0
        assert "avg_v" in out.column_names
