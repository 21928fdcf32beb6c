"""Direct tests of the physical operators (paper 4.1.3, 4.2.1)."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import LogicalType
from repro.expr import parse_sexpr
from repro.expr.ast import ColumnRef
from repro.tde.exec import (
    ExecContext,
    FractionTable,
    PExchange,
    PFilter,
    PHashAggregate,
    PHashJoin,
    PIndexedRleScan,
    PLimit,
    PProject,
    PScan,
    PSort,
    PStreamAggregate,
    PTopN,
    SharedBuild,
    execute_to_table,
)
from repro.tde.exec.kernels import AggSpec
from repro.tde.exec.physical import aggregate_table
from repro.tde.storage import Column, Table
from tests.difftest.reference import join_rows


def _ctx(batch_size=16):
    return ExecContext(batch_size=batch_size)


def _five_key_table(prefix=""):
    """131 072 distinct 5-column keys whose naive mixed-radix code wraps
    int64: the first column's weight is 65536**4 = 2**64 ≡ 0, so rows
    ``i`` and ``i + 65536`` would share a combined code."""
    i = np.arange(2 * 65536, dtype=np.int64)
    cols = {f"{prefix}k0": Column.from_numpy(i // 65536, LogicalType.INT)}
    for j in range(1, 5):
        cols[f"{prefix}k{j}"] = Column.from_numpy(i % 65536, LogicalType.INT)
    cols[f"{prefix}row"] = Column.from_numpy(i, LogicalType.INT)
    return Table(cols)


def _flights(n=200):
    rng = np.random.default_rng(1)
    return Table.from_pydict(
        {
            "day": sorted(int(d) for d in rng.integers(0, 20, n)),
            "carrier": [int(c) for c in rng.integers(0, 4, n)],
            "delay": [float(x) for x in rng.normal(10, 5, n)],
        },
        sort_keys=["day"],
        encodings={"day": "rle"},
    )


class TestScan:
    def test_batches_cover_table(self):
        t = _flights(100)
        out = execute_to_table(PScan(t), _ctx(batch_size=7))
        assert out.equals(t.slice(0, 100).project(t.column_names))
        assert out.n_rows == 100

    def test_partition_range(self):
        t = _flights(50)
        out = execute_to_table(PScan(t, start=10, stop=20), _ctx())
        assert out.equals(t.slice(10, 20))

    def test_column_pruning(self):
        out = execute_to_table(PScan(_flights(), columns=["delay"]), _ctx())
        assert out.column_names == ["delay"]

    def test_scan_predicate(self):
        t = _flights()
        pred = parse_sexpr("(< day 5)")
        out = execute_to_table(PScan(t, predicate=pred), _ctx(batch_size=13))
        assert all(d < 5 for d in out.to_pydict()["day"])

    def test_empty_result_keeps_schema(self):
        out = execute_to_table(PScan(_flights(), predicate=parse_sexpr("(> day 99)")), _ctx())
        assert out.n_rows == 0
        assert out.column_names == ["day", "carrier", "delay"]

    def test_metrics_rows_scanned(self):
        ctx = _ctx()
        execute_to_table(PScan(_flights(64)), ctx)
        assert ctx.metrics.rows_scanned == 64


class TestIndexedRleScan:
    def test_matches_plain_filter(self):
        t = _flights(300)
        pred = parse_sexpr("(= day 3)")
        indexed = execute_to_table(PIndexedRleScan(t, "day", pred), _ctx())
        plain = execute_to_table(PScan(t, predicate=pred), _ctx())
        assert indexed.equals_unordered(plain)

    def test_skips_rows(self):
        t = _flights(300)
        ctx = _ctx()
        execute_to_table(PIndexedRleScan(t, "day", parse_sexpr("(= day 3)")), ctx)
        assert ctx.metrics.rows_scanned < 300
        assert ctx.metrics.runs_skipped > 0

    def test_residual_applied(self):
        t = _flights(300)
        out = execute_to_table(
            PIndexedRleScan(t, "day", parse_sexpr("(= day 3)"), parse_sexpr("(> delay 10)")),
            _ctx(),
        )
        assert all(d == 3 and x > 10 for d, x in zip(out.to_pydict()["day"], out.to_pydict()["delay"]))

    def test_fallback_for_non_rle(self):
        t = Table.from_pydict({"x": [1, 2, 3]}, encodings={"x": "plain"})
        out = execute_to_table(PIndexedRleScan(t, "x", parse_sexpr("(= x 2)")), _ctx())
        assert out.to_pydict() == {"x": [2]}

    def test_no_match_keeps_schema(self):
        t = _flights(50)
        out = execute_to_table(PIndexedRleScan(t, "day", parse_sexpr("(= day 999)")), _ctx())
        assert out.n_rows == 0
        assert out.column_names == ["day", "carrier", "delay"]


class TestFilterProject:
    def test_filter(self):
        out = execute_to_table(PFilter(PScan(_flights()), parse_sexpr("(= carrier 1)")), _ctx())
        assert set(out.to_pydict()["carrier"]) <= {1}

    def test_project_computed_and_passthrough(self):
        node = PProject(
            PScan(_flights(10)),
            [("double_delay", parse_sexpr("(* delay 2.0)")), ("carrier", ColumnRef("carrier"))],
        )
        out = execute_to_table(node, _ctx(batch_size=3))
        t = _flights(10)
        assert out.column_names == ["double_delay", "carrier"]
        assert out.to_pydict()["double_delay"] == pytest.approx(
            [2 * d for d in t.to_pydict()["delay"]]
        )


class TestLimit:
    def test_limit_stops_stream(self):
        out = execute_to_table(PLimit(PScan(_flights(100)), 5), _ctx(batch_size=3))
        assert out.n_rows == 5

    def test_limit_zero(self):
        out = execute_to_table(PLimit(PScan(_flights(10)), 0), _ctx())
        assert out.n_rows == 0
        assert out.column_names == ["day", "carrier", "delay"]


class TestHashJoin:
    def _dims(self):
        return Table.from_pydict({"cid": [0, 1, 2], "name": ["AA", "UA", "DL"]})

    def test_inner(self):
        t = _flights(60)
        join = PHashJoin("inner", [("carrier", "cid")], PScan(t), PScan(self._dims()))
        out = execute_to_table(join, _ctx(batch_size=9))
        expected = sum(1 for c in t.to_pydict()["carrier"] if c in (0, 1, 2))
        assert out.n_rows == expected
        assert "cid" not in out.column_names

    def test_left_join_fills_nulls(self):
        left = Table.from_pydict({"k": [0, 5, 1]})
        join = PHashJoin("left", [("k", "cid")], PScan(left), PScan(self._dims()))
        out = execute_to_table(join, _ctx())
        d = dict(zip(out.to_pydict()["k"], out.to_pydict()["name"]))
        assert d[0] == "AA" and d[1] == "UA" and d[5] is None

    def test_null_keys_never_match(self):
        left = Table.from_pydict({"k": [0, None]})
        inner = execute_to_table(
            PHashJoin("inner", [("k", "cid")], PScan(left), PScan(self._dims())), _ctx()
        )
        assert inner.to_pydict()["k"] == [0]
        left_join = execute_to_table(
            PHashJoin("left", [("k", "cid")], PScan(left), PScan(self._dims())), _ctx()
        )
        assert left_join.n_rows == 2

    def test_multi_column_key(self):
        left = Table.from_pydict({"a": [1, 1, 2], "b": ["x", "y", "x"]})
        right = Table.from_pydict({"ra": [1, 2], "rb": ["x", "x"], "v": [10, 20]})
        join = PHashJoin("inner", [("a", "ra"), ("b", "rb")], PScan(left), PScan(right))
        out = execute_to_table(join, _ctx())
        assert sorted(out.to_pydict()["v"]) == [10, 20]

    def test_one_to_many_duplicates(self):
        left = Table.from_pydict({"k": [1]})
        right = Table.from_pydict({"rk": [1, 1, 1], "v": [1, 2, 3]})
        out = execute_to_table(
            PHashJoin("inner", [("k", "rk")], PScan(left), PScan(right)), _ctx()
        )
        assert sorted(out.to_pydict()["v"]) == [1, 2, 3]

    def test_many_key_codes_do_not_wrap_int64(self):
        left, right = _five_key_table(), _five_key_table("r")
        conditions = [(f"k{j}", f"rk{j}") for j in range(5)]
        out = execute_to_table(
            PHashJoin("inner", conditions, PScan(left), PScan(right)),
            _ctx(batch_size=1 << 15),
        )
        assert out.n_rows == left.n_rows
        assert out.to_pydict()["row"] == out.to_pydict()["rrow"]

    def test_shared_build(self):
        t = _flights(40)
        shared = SharedBuild(PScan(self._dims()))
        j1 = PHashJoin("inner", [("carrier", "cid")], PScan(t, stop=20), shared)
        j2 = PHashJoin("inner", [("carrier", "cid")], PScan(t, start=20), shared)
        merged = execute_to_table(PExchange([j1, j2]), _ctx())
        whole = execute_to_table(
            PHashJoin("inner", [("carrier", "cid")], PScan(t), PScan(self._dims())), _ctx()
        )
        assert merged.equals_unordered(whole)


@st.composite
def _join_case(draw):
    """A probe side with misses and NULL keys, a unique or multi-match
    build side carrying a STR and a NULL-bearing FLOAT column."""
    key = st.one_of(st.none(), st.integers(0, 6))
    probe_keys = draw(st.lists(key, max_size=40))
    build_keys = draw(st.lists(key, max_size=10, unique=draw(st.booleans())))
    L = LogicalType
    probe = Table.from_pydict(
        {"k": probe_keys, "row": list(range(len(probe_keys)))}, types={"k": L.INT, "row": L.INT}
    )
    build = Table.from_pydict(
        {
            "bk": build_keys,
            "brow": list(range(len(build_keys))),
            "name": [draw(st.sampled_from(["a", "B", "zz"])) for _ in build_keys],
            "w": [draw(st.one_of(st.none(), st.floats(-9, 9))) for _ in build_keys],
        },
        types={"bk": L.INT, "brow": L.INT, "name": L.STR, "w": L.FLOAT},
    )
    return draw(st.sampled_from(["inner", "left"])), probe, build


@settings(max_examples=120, deadline=None)
@given(_join_case())
def test_a_join_answers_the_same_table_however_its_probe_side_is_batched(case):
    """Float sums above a join add its rows in its output order, so that
    order may not depend on where the scan cut the probe side: a left
    join pads a miss where it stands, not after its batch's matches."""
    kind, probe, build = case
    join = PHashJoin(kind, [("k", "bk")], PScan(probe), PScan(build))
    whole = execute_to_table(join, _ctx(batch_size=sys.maxsize))
    for batch_size in (1, 7, 1024):
        assert execute_to_table(join, _ctx(batch_size=batch_size)).equals(whole)
    expected = join_rows(
        [{"k": k} for k in probe.column("k").python_values()],
        [{"bk": k} for k in build.column("bk").python_values()],
        [("k", "bk")],
        kind,
    )
    assert list(zip(whole.column("row").python_values(), whole.column("brow").python_values())) == expected


class TestAggregate:
    SPECS = [
        AggSpec("n", "count_star", None, LogicalType.INT),
        AggSpec("total", "sum", "delay", LogicalType.FLOAT),
        AggSpec("lo", "min", "delay", LogicalType.FLOAT),
        AggSpec("hi", "max", "delay", LogicalType.FLOAT),
        AggSpec("mean", "avg", "delay", LogicalType.FLOAT),
        AggSpec("days", "count_distinct", "day", LogicalType.INT),
    ]

    def test_hash_aggregate_matches_python(self):
        t = _flights(150)
        out = execute_to_table(PHashAggregate(PScan(t), ["carrier"], self.SPECS), _ctx())
        rows = {r[0]: r for r in out.to_rows()}
        data = t.to_pydict()
        for c in set(data["carrier"]):
            delays = [d for cc, d in zip(data["carrier"], data["delay"]) if cc == c]
            days = {d for cc, d in zip(data["carrier"], data["day"]) if cc == c}
            row = rows[c]
            assert row[1] == len(delays)
            assert row[2] == pytest.approx(sum(delays))
            assert row[3] == pytest.approx(min(delays))
            assert row[4] == pytest.approx(max(delays))
            assert row[5] == pytest.approx(sum(delays) / len(delays))
            assert row[6] == len(days)

    def test_global_aggregate_empty_input_yields_one_row(self):
        t = _flights(10)
        node = PHashAggregate(
            PScan(t, predicate=parse_sexpr("(> day 999)")),
            [],
            [AggSpec("n", "count_star", None, LogicalType.INT),
             AggSpec("s", "sum", "delay", LogicalType.FLOAT)],
        )
        out = execute_to_table(node, _ctx())
        assert out.n_rows == 1
        assert out.to_pydict() == {"n": [0], "s": [None]}

    def test_many_key_codes_do_not_wrap_int64(self):
        t = _five_key_table()
        keys = [f"k{j}" for j in range(5)]
        out = aggregate_table(t, keys, [AggSpec("n", "count_star", None, LogicalType.INT)])
        assert out.n_rows == t.n_rows
        assert set(out.to_pydict()["n"]) == {1}

    def test_a_measure_asked_for_twice_is_computed_once_per_result_type(self):
        t = Table.from_pydict({"g": [1, 2, 1, 2, 1], "v": [3, None, 4, 5, None]})
        L = LogicalType
        specs = [
            AggSpec("s", "sum", "v", L.INT),
            AggSpec("c", "count", "v", L.INT),
            AggSpec("partial_sum", "sum", "v", L.FLOAT),  # an avg's local phase
            AggSpec("partial_count", "count", "v", L.INT),
            AggSpec("again", "sum", "v", L.INT),
            AggSpec("n", "count_star", None, L.INT),
        ]
        out = aggregate_table(t, ["g"], specs)
        assert out.to_pydict() == {
            "g": [1, 2], "s": [7, 5], "c": [2, 1], "partial_sum": [7.0, 5.0],
            "partial_count": [2, 1], "again": [7, 5], "n": [3, 2],
        }
        assert out.column("s").physical.materialize().dtype == np.int64
        assert out.column("partial_sum").physical.materialize().dtype == np.float64
        assert out.column("again") is out.column("s") and out.column("partial_count") is out.column("c")

    def test_null_group_key_is_a_group(self):
        t = Table.from_pydict({"g": [1, None, 1, None], "v": [1, 2, 3, 4]})
        out = execute_to_table(
            PHashAggregate(PScan(t), ["g"], [AggSpec("s", "sum", "v", LogicalType.INT)]), _ctx()
        )
        assert out.n_rows == 2
        assert dict(out.to_rows())[None] == 6

    def test_sum_of_all_null_group_is_null(self):
        t = Table.from_pydict({"g": [1, 1], "v": [None, None]}, types={"v": LogicalType.INT})
        out = execute_to_table(
            PHashAggregate(PScan(t), ["g"], [AggSpec("s", "sum", "v", LogicalType.INT)]), _ctx()
        )
        assert out.to_pydict()["s"] == [None]

    def test_min_max_strings(self):
        t = Table.from_pydict({"g": [1, 1, 2], "s": ["b", "a", "z"]})
        out = execute_to_table(
            PHashAggregate(
                PScan(t),
                ["g"],
                [
                    AggSpec("lo", "min", "s", LogicalType.STR),
                    AggSpec("hi", "max", "s", LogicalType.STR),
                ],
            ),
            _ctx(),
        )
        rows = {r[0]: r[1:] for r in out.to_rows()}
        assert rows[1] == ("a", "b")
        assert rows[2] == ("z", "z")

    def test_stream_aggregate_matches_hash(self):
        t = _flights(200)
        specs = self.SPECS
        stream = execute_to_table(PStreamAggregate(PScan(t), ["day"], specs), _ctx(batch_size=17))
        hashed = execute_to_table(PHashAggregate(PScan(t), ["day"], specs), _ctx())
        assert stream.approx_equals(hashed, ordered=False)

    def test_stream_aggregate_emits_in_order(self):
        t = _flights(200)
        out = execute_to_table(
            PStreamAggregate(PScan(t), ["day"], self.SPECS[:1]), _ctx(batch_size=13)
        )
        days = out.to_pydict()["day"]
        assert days == sorted(days)


class TestSortTopN:
    def test_sort(self):
        t = _flights(80)
        out = execute_to_table(PSort(PScan(t), [("delay", False)]), _ctx(batch_size=11))
        delays = out.to_pydict()["delay"]
        assert delays == sorted(delays, reverse=True)

    def test_topn_matches_sort_head(self):
        t = _flights(300)
        top = execute_to_table(PTopN(PScan(t), 7, [("delay", False)]), _ctx(batch_size=23))
        full = execute_to_table(PSort(PScan(t), [("delay", False)]), _ctx())
        assert top.to_pydict()["delay"] == full.head(7).to_pydict()["delay"]

    def test_topn_bounded_buffer(self):
        t = _flights(5000)
        out = execute_to_table(PTopN(PScan(t), 3, [("delay", True)]), _ctx(batch_size=256))
        assert out.n_rows == 3


class TestExchange:
    def test_merges_all_fragments(self):
        t = _flights(100)
        scans = FractionTable.split_even(t, 4)
        out = execute_to_table(PExchange(list(scans)), _ctx())
        assert out.equals_unordered(t)

    def test_serial_mode_preserves_order(self):
        # Fragments are drained one after another, so the output is the
        # input order, whatever the degree.
        t = _flights(100)
        for degree in (3, 4):
            scans = FractionTable.split_even(t, degree)
            assert execute_to_table(PExchange(list(scans)), _ctx()).equals(t)

    def test_worker_errors_propagate(self):
        t = _flights(50)
        bad = PFilter(PScan(t), parse_sexpr("(> missing_column 1)"))
        with pytest.raises(Exception):
            execute_to_table(PExchange([PScan(t), bad]), _ctx())

    def test_no_path_starts_a_thread(self, monkeypatch):
        """query, EXPLAIN ANALYZE and a bare ExecContext all run a
        4-fragment Exchange inline on the calling thread."""
        import threading

        from repro.tde.engine import render_plan
        from tests.conftest import build_flights_engine

        engine = build_flights_engine(n=20_000)
        query = '(aggregate (carrier_id) ((n (count))) (scan "Extract.flights"))'
        plan = engine.plan(query)
        assert "Exchange(degree=4)" in render_plan(plan)
        starts = []
        start = threading.Thread.start

        def counted(thread):
            starts.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        engine.query(query)
        engine.explain(query, analyze=True)
        execute_to_table(plan, ExecContext())
        assert starts == []

    def test_zero_inputs_rejected(self):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            list(PExchange([]).execute(_ctx()))


class TestFractionTable:
    def test_split_even_covers_rows(self):
        t = _flights(103)
        scans = FractionTable.split_even(t, 4)
        assert sum((s.stop - s.start) for s in scans) == 103

    def test_split_by_key_respects_boundaries(self):
        t = _flights(500)
        scans = FractionTable.split_by_key(t, "day", 4)
        assert scans is not None
        days = t.to_pydict()["day"]
        seen: dict[int, int] = {}
        for i, scan in enumerate(scans):
            for d in days[scan.start : scan.stop]:
                assert seen.setdefault(d, i) == i  # each day in exactly one fraction

    def test_split_by_key_low_cardinality_returns_none(self):
        t = Table.from_pydict({"k": [1] * 100})
        assert FractionTable.split_by_key(t, "k", 4) is None
