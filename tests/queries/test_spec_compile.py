"""Query spec and compiler tests (paper 3.1)."""

import datetime as dt
import re

import pytest

from repro.connectors import SimDbDataSource, SimulatedDatabase, TdeDataSource
from repro.connectors.simdb import ServerProfile
from repro.errors import BindError, WorkloadError
from repro.expr.ast import AggExpr, Call, ColumnRef, Literal
from repro.queries import (
    CategoricalFilter,
    CompiledQuery,
    DataSourceModel,
    JoinSpec,
    QuerySpec,
    RangeFilter,
    TopNFilter,
    apply_post_ops,
    compile_spec,
)
from repro.sql.dialects import ANSI, QUIRKDB
from tests.conftest import build_flights_engine

ENGINE = build_flights_engine(n=3000, seed=13)
TDE = TdeDataSource(ENGINE)
COUNT = AggExpr("count")
AVG_DELAY = AggExpr("avg", ColumnRef("delay"))


def _model(**kwargs) -> DataSourceModel:
    return DataSourceModel(
        "faa",
        "Extract.flights",
        joins=(JoinSpec("Extract.carriers", (("carrier_id", "id"),)),),
        **kwargs,
    )


def _quirk_source():
    db = SimulatedDatabase("quirk", ServerProfile(dialect=QUIRKDB, time_scale=0))
    for s, t, tab in ENGINE.database.iter_tables():
        db.load_table(f"{s}.{t}", tab)
    return SimDbDataSource(db)


def _ansi_source():
    db = SimulatedDatabase("ansi", ServerProfile(time_scale=0))
    for s, t, tab in ENGINE.database.iter_tables():
        db.load_table(f"{s}.{t}", tab)
    return SimDbDataSource(db)


def _run(compiled: CompiledQuery, source):
    conn = source.connect()
    try:
        for name, table in compiled.temp_tables.items():
            conn.create_temp_table(name, table)
        return apply_post_ops(conn.execute(compiled.text), compiled.post_ops)
    finally:
        conn.close()


class TestSpec:
    def test_needs_dims_or_measures(self):
        with pytest.raises(WorkloadError):
            QuerySpec("faa")

    def test_canonical_is_stable(self):
        a = QuerySpec("faa", ("x",), filters=(CategoricalFilter("f", ("b", "a")),))
        b = QuerySpec("faa", ("x",), filters=(CategoricalFilter("f", ("a", "b")),))
        assert a.canonical() == b.canonical()  # value order does not matter

    def test_canonical_distinguishes(self):
        a = QuerySpec("faa", ("x",))
        b = QuerySpec("faa", ("x",), limit=5)
        assert a.canonical() != b.canonical()

    def test_canonical_is_built_once_per_spec_object(self, monkeypatch):
        import dataclasses

        from repro.core.cache.persistence import spec_from_json, spec_to_json
        from repro.queries import spec as spec_module

        built = []

        def counting_to_sexpr(expr):
            built.append(expr)
            return to_sexpr(expr)

        to_sexpr = spec_module.to_sexpr
        monkeypatch.setattr(spec_module, "to_sexpr", counting_to_sexpr)
        spec = QuerySpec(
            "faa", ("name",), (("a", AVG_DELAY),), (CategoricalFilter("market_id", (1, 2)),)
        )
        texts = {spec.canonical() for _ in range(50)}
        assert len(texts) == 1 and len(built) == 1  # one measure, rendered once
        # Every copy is its own object and computes its own text.
        copies = [
            spec.with_filters(()),
            spec.with_dimensions(("name", "market_id")),
            spec.with_measures((("n", COUNT),)),
            dataclasses.replace(spec, limit=3),
        ]
        assert len({c.canonical() for c in copies} | texts) == 5
        assert len(built) == 5
        # The memo is not a field: it never reaches ==, hash, repr or JSON.
        fresh = QuerySpec(
            "faa", ("name",), (("a", AVG_DELAY),), (CategoricalFilter("market_id", (1, 2)),)
        )
        assert fresh == spec and hash(fresh) == hash(spec) and repr(fresh) == repr(spec)
        assert "_canonical" not in repr(spec)
        assert spec_to_json(fresh) == spec_to_json(spec)
        restored = spec_from_json(spec_to_json(spec))
        assert restored == spec and restored.canonical() == spec.canonical()

    def test_range_filter_needs_bound(self):
        with pytest.raises(WorkloadError):
            RangeFilter("f")

    def test_fields_used(self):
        spec = QuerySpec(
            "faa",
            ("name",),
            (("a", AVG_DELAY),),
            (TopNFilter("name", AggExpr("sum", ColumnRef("distance")), 3),),
            order_by=(("a", False),),
        )
        assert spec.fields_used() == {"name", "delay", "distance"}


class TestCompileFull:
    def test_tql_text(self):
        spec = QuerySpec("faa", ("name",), (("n", COUNT),))
        compiled = compile_spec(spec, _model(), TDE)
        assert compiled.language == "tql"
        assert compiled.text.startswith("(aggregate")
        assert not compiled.detail_mode

    def test_unknown_field(self):
        spec = QuerySpec("faa", ("bogus",))
        with pytest.raises(BindError):
            compile_spec(spec, _model(), TDE)

    def test_bad_order_key(self):
        spec = QuerySpec("faa", ("name",), order_by=(("nope", True),))
        with pytest.raises(BindError):
            compile_spec(spec, _model(), TDE)

    def test_externalization_threshold(self):
        values = tuple(range(100))
        spec = QuerySpec(
            "faa", ("name",), (("n", COUNT),), (CategoricalFilter("market_id", values),)
        )
        compiled = compile_spec(spec, _model(), TDE, externalize_threshold=10)
        assert len(compiled.temp_tables) == 1
        name, table = next(iter(compiled.temp_tables.items()))
        assert name.startswith("#tt")
        assert table.column_names == ["market_id"]
        assert name in compiled.text

    def test_small_lists_stay_inline(self):
        spec = QuerySpec(
            "faa", ("name",), (("n", COUNT),), (CategoricalFilter("market_id", (1, 2)),)
        )
        compiled = compile_spec(spec, _model(), TDE)
        assert not compiled.temp_tables
        assert "(in market_id" in compiled.text

    def test_literal_key_depends_on_temp_contents(self):
        def build(values):
            spec = QuerySpec(
                "faa", ("name",), (("n", COUNT),), (CategoricalFilter("market_id", values),)
            )
            return compile_spec(spec, _model(), TDE, externalize_threshold=2)

        a = build((1, 2, 3, 4))
        b = build((1, 2, 3, 5))
        assert a.text == b.text
        assert a.literal_key != b.literal_key


class TestCompileAcrossBackends:
    SPECS = [
        QuerySpec("faa", ("name",), (("n", COUNT), ("a", AVG_DELAY))),
        QuerySpec(
            "faa",
            ("name",),
            (("n", COUNT),),
            (
                CategoricalFilter("market_id", (0, 1, 2)),
                RangeFilter("date_", dt.date(2014, 3, 1), dt.date(2014, 11, 1)),
            ),
            order_by=(("n", False),),
            limit=3,
        ),
        QuerySpec(
            "faa",
            ("market",),
            (("n", COUNT),),
            (TopNFilter("market", COUNT, 4),),
        ),
        QuerySpec("faa", ("market",)),  # domain query
        QuerySpec(
            "faa",
            ("name",),
            (("u", AggExpr("count_distinct", ColumnRef("market_id"))),),
        ),
    ]

    @pytest.mark.parametrize("idx", range(len(SPECS)))
    def test_backends_agree(self, idx):
        spec = self.SPECS[idx]
        model = DataSourceModel(
            "faa",
            "Extract.flights",
            joins=(
                JoinSpec("Extract.carriers", (("carrier_id", "id"),)),
                JoinSpec("Extract.markets", (("market_id", "mid"),)),
            ),
        )
        reference = _run(compile_spec(spec, model, TDE), TDE)
        for source in (_ansi_source(), _quirk_source()):
            compiled = compile_spec(spec, model, source)
            out = _run(compiled, source)
            ordered = bool(spec.order_by)
            assert reference.approx_equals(out, ordered=ordered) or reference.approx_equals(
                out, ordered=False
            )

    def test_quirk_ranks_a_hoisted_topn_locally(self):
        spec = QuerySpec("faa", ("name",), (("n", COUNT),), (TopNFilter("name", COUNT, 2),))
        quirk = _quirk_source()
        compiled = compile_spec(spec, _model(), quirk)
        assert not compiled.detail_mode
        assert "LIMIT" not in compiled.text
        assert [type(op).__name__ for op in compiled.post_ops] == ["LocalTopNFilter"]
        reference = _run(compile_spec(spec, _model(), TDE), TDE)
        assert reference.equals_unordered(_run(compiled, quirk))

    def test_quirk_uses_detail_mode_for_a_float_sum_topn(self):
        by = AggExpr("sum", ColumnRef("delay"))  # float: partial sums reassociate
        spec = QuerySpec("faa", ("name",), (("n", COUNT),), (TopNFilter("name", by, 2),))
        compiled = compile_spec(spec, _model(), _quirk_source())
        assert compiled.detail_mode

    def test_quirk_strips_order_limit_without_topn(self):
        spec = QuerySpec("faa", ("name",), (("n", COUNT),), order_by=(("n", False),), limit=2)
        compiled = compile_spec(spec, _model(), _quirk_source())
        assert not compiled.detail_mode
        assert "LIMIT" not in compiled.text
        assert len(compiled.post_ops) == 1

    def test_unsupported_function_goes_local(self):
        model = _model(
            calculations={"upper_name": Call("substr", (ColumnRef("name"), Literal(1), Literal(3)))}
        )
        spec = QuerySpec("faa", ("upper_name",), (("n", COUNT),))
        quirk = _quirk_source()
        compiled = compile_spec(spec, model, quirk)
        assert compiled.detail_mode  # substr missing on quirkdb
        out = _run(compiled, quirk)
        reference = _run(compile_spec(spec, model, TDE), TDE)
        assert reference.equals_unordered(out)


class TestTopNForms:
    """One Top-N rule in all three compiled forms: a NULL key is not
    ranked, so n non-NULL members survive, and a tie at rank n goes to
    the lower key. Here NULL is the most frequent key and c ties d at
    rank 3."""

    COUNTS = {None: 10, "a": 6, "b": 5, "c": 4, "d": 4}
    EXPECTED = [("a", 6), ("b", 5), ("c", 4)]

    @staticmethod
    def _engine():
        from repro.tde.engine import DataEngine

        keys = list(TestTopNForms.COUNTS)
        rows = [i for i, key in enumerate(keys) for _ in range(TestTopNForms.COUNTS[key])]
        engine = DataEngine("topn")
        engine.load_pydict(
            "Extract.facts", {"kid": rows, "fact_key": [keys[i] for i in rows]}
        )
        engine.load_pydict("Extract.keys", {"id": list(range(len(keys))), "dim_key": keys})
        return engine

    @pytest.mark.parametrize("backend", ["tde", "ansi", "quirk"])
    @pytest.mark.parametrize("field", ["fact_key", "dim_key"])
    def test_null_is_not_ranked_and_ties_go_to_the_lower_key(self, backend, field):
        engine = self._engine()
        if backend == "tde":
            source = TdeDataSource(engine)
        else:
            dialect = ANSI if backend == "ansi" else QUIRKDB
            db = SimulatedDatabase(backend, ServerProfile(dialect=dialect, time_scale=0))
            for s, t, tab in engine.database.iter_tables():
                db.load_table(f"{s}.{t}", tab)
            source = SimDbDataSource(db)
        model = DataSourceModel(
            "t", "Extract.facts", joins=(JoinSpec("Extract.keys", (("kid", "id"),)),)
        )
        spec = QuerySpec("t", (field,), (("n", COUNT),), (TopNFilter(field, COUNT, 3),))
        compiled = compile_spec(spec, model, source)
        # The dimension key is bounded by its table's rows, so it is ranked
        # locally; the fact key is not, so it keeps the ranking subquery,
        # which a backend without LIMIT cannot run (detail mode).
        hoisted = field == "dim_key"
        assert compiled.detail_mode == (not hoisted and backend == "quirk")
        assert ("LocalTopNFilter" in str(compiled.post_ops)) == (hoisted or backend == "quirk")
        out = _run(compiled, source)
        assert sorted(zip(*out.to_pydict().values())) == self.EXPECTED


    def test_the_choice_is_a_provenance_note_stating_both_costs(self):
        from repro.tde.optimizer import provenance

        spec = QuerySpec("faa", ("name",), (("n", COUNT),), (TopNFilter("name", COUNT, 2),))
        with provenance.collect() as collector:
            compile_spec(spec, _model(), _ansi_source())
            compile_spec(spec, _model(), TDE)
        assert len(collector.notes) == 2
        for note in collector.notes:  # six carriers: at most 6 rows, 10 units each
            assert note.rule == "compile.topn_hoist" and note.fired
            costs = re.fullmatch(
                r"top 2 name: ranking pass (\d+) work units, shipping <= 6 rows 60", note.detail
            )
            assert costs and int(costs.group(1)) > 60


class TestCalculations:
    def test_calc_dimension(self):
        model = _model(
            calculations={"is_far": Call(">", (ColumnRef("distance"), Literal(1500)))}
        )
        spec = QuerySpec("faa", ("is_far",), (("n", COUNT),))
        out = _run(compile_spec(spec, model, TDE), TDE)
        assert out.n_rows == 2
        assert sum(out.to_pydict()["n"]) == 3000

    def test_calc_in_measure_and_filter(self):
        model = _model(
            calculations={"double_delay": Call("*", (ColumnRef("delay"), Literal(2.0)))}
        )
        spec = QuerySpec(
            "faa",
            ("name",),
            (("m", AggExpr("max", ColumnRef("double_delay"))),),
            (RangeFilter("double_delay", 0.0, None),),
        )
        out = _run(compile_spec(spec, model, TDE), TDE)
        assert all(v >= 0 for v in out.to_pydict()["m"])

    def test_unknown_calc_reference(self):
        model = _model(calculations={"c": Call("+", (ColumnRef("nope"), Literal(1)))})
        spec = QuerySpec("faa", ("c",))
        with pytest.raises(BindError):
            compiled = compile_spec(spec, model, TDE)
            _run(compiled, TDE)
