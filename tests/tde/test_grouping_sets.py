"""Grouping sets answer exactly what their sets answer alone.

``(grouping-sets <set>... <child>)`` exists so that a dashboard's zones
can share one scan of one relation; it is correct iff every set's slice
of the tagged result is the table its standalone ``(aggregate ...)``
returns. The property below draws that comparison over the kernel
suite's table (dictionary STR, NULL-bearing, RLE and dense-int keys,
N:1 joins carrying STR attributes, keys that miss) for serial and
4-fragment plans; the cases under it pin the parser, the binder, the
output schema and the shape of the plan.
"""

from __future__ import annotations

import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connectors import TdeDataSource
from repro.core.pipeline import QueryPipeline
from repro.dashboard import DashboardSession
from repro.datatypes import LogicalType as L
from repro.errors import BindError, ExecutionError, TqlParseError
from repro.queries.postops import apply_post_ops
from repro.tde.engine import DataEngine
from repro.tde.exec import grouping, kernels
from repro.tde.exec.exchange import PExchange
from repro.tde.exec.fused import PFusedPipeline
from repro.tde.exec.grouping import PGroupingSets, PSharedInput, slice_set
from repro.tde.exec.physical import ExecContext, execute_to_table
from repro.tde.optimizer.parallel import PlannerOptions
from repro.tde.storage.table import Table
from repro.tde.tql.binder import bind
from repro.tde.tql.parser import parse_tql, to_tql
from repro.tde.tql.plan import SET_COLUMN, GroupingSets
from repro.workloads import fig1_dashboard, flights_model, generate_flights
from tests.conftest import build_flights_engine
from tests.difftest.test_kernel_equivalence import _build_shared_dataset

ENGINE = _build_shared_dataset()

SERIAL = PlannerOptions(max_dop=1, plan_cache_size=0)
#: Every scan splits four ways whatever its cost hint, and evenly (no
#: range partition on the sorted ``day``), so a set and its standalone
#: query see the same fragment bounds and must agree to the bit.
FOUR_WAY = PlannerOptions(
    max_dop=4, min_work_per_fraction=1.0, enable_range_partition_agg=False, plan_cache_size=0
)

EVENTS = '(scan "Extract.events")'
#: (relation, key columns it offers beyond the fact's own).
RELATIONS = [
    (EVENTS, []),
    (f'(select (and (>= day 10) (<> status "late")) {EVENTS})', []),
    (f'(select (< day 0) {EVENTS})', []),  # zero input rows
    (f'(join inner ((region region_key)) {EVENTS} (scan "Extract.regions"))', ["zone"]),
    (
        f'(join left ((qty qty_key)) (join left ((region region_key)) '
        f'(select flag {EVENTS}) (scan "Extract.regions")) (scan "Extract.buckets"))',
        ["zone", "bucket"],
    ),
]
FACT_KEYS = ["region", "status", "priority", "day", "qty"]
AGGS = [
    "(n (count))",
    "(s (sum amount))",
    "(lo (min amount))",
    "(hi (max region))",
    "(a (avg amount))",
    "(q (sum qty))",
    "(u (count_distinct region))",
    "(d (count_distinct day))",
]
#: A set's projection: renames, a calculation to group by and one to sum.
ITEMS = (
    '((r region) (s2 status) (half (/ day 2)) (a2 (* amount 2.0)) (q qty))',
    ["r", "s2", "half"],
    ["(n (count))", "(t (sum a2))", "(m (max q))", "(v (avg a2))", "(u (count_distinct r))"],
)


@st.composite
def grouping_sets(draw):
    relation, extra_keys = draw(st.sampled_from(RELATIONS))
    sets = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()) and draw(st.booleans()):
            items, keys, aggs = ITEMS
        else:
            items, keys, aggs = None, FACT_KEYS + extra_keys, AGGS
        groupby = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
        measures = draw(
            st.lists(st.sampled_from(aggs), min_size=0 if groupby else 1, max_size=3, unique=True)
        )
        text = f"(set ({' '.join(groupby)}) ({' '.join(measures)})"
        sets.append(text + (f" {items})" if items else ")"))
    return f"(grouping-sets {' '.join(sets)} {relation})"


@settings(max_examples=120, deadline=None)
@given(query=grouping_sets(), options=st.sampled_from([SERIAL, FOUR_WAY]))
def test_every_set_equals_its_standalone_query(query, options):
    _check_sets(query, options)


def _check_sets(query: str, options: PlannerOptions) -> None:
    plan = parse_tql(query)
    result = ENGINE.query(query, options=options)
    assert result.column_names == [SET_COLUMN, *plan.columns]
    for position, s in enumerate(plan.sets):
        alone = ENGINE.query(s.over(plan.child), options=options)
        mine = slice_set(result, position, list(s.columns))
        assert mine.equals(alone), f"set {position} of {query}"
    tags = result.column(SET_COLUMN).python_values()
    assert tags == sorted(tags), "the sets' answers come one after the other"


def test_a_fragment_read_in_one_piece_sums_like_the_query_read_in_batches():
    """The operator reads a fragment as one batch, its standalone query
    in batches of the engine's size: with left-join misses padded after
    each batch's matches, the rows (and the float sum) came in another
    order."""
    query = (
        f"(grouping-sets (set () ((n (count)) (s (sum amount)))) (join left ((qty qty_key)) "
        f'(join left ((region region_key)) (select flag {EVENTS}) (scan "Extract.regions")) '
        '(scan "Extract.buckets")))'
    )
    _check_sets(query, SERIAL)


#: The names a projected set gives the fact's keys: the renamed column is
#: the same column object, so its codes are shared with the other sets.
RENAMED = {"region": "r", "status": "s2", "priority": "p", "day": "d", "qty": "q"}


@st.composite
def sets_sharing_keys(draw):
    """Sets over one key list in several orders, with keys put in front
    of its suffixes, some through a renaming projection: partials whose
    keys end with the shared ones, partials in another order, and column
    codes reused across partials of one fragment."""
    relation, extra_keys = draw(st.sampled_from(RELATIONS))
    pool = FACT_KEYS + extra_keys
    base = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3, unique=True))
    sets = []
    for _ in range(draw(st.integers(2, 5))):
        keys = draw(st.permutations(base))
        keys = keys[draw(st.integers(0, len(keys) - 1)):]
        if draw(st.booleans()):
            keys = [draw(st.sampled_from(pool)), *keys]
        measures = " ".join(draw(st.lists(st.sampled_from(AGGS[:6]), max_size=2, unique=True)))
        if draw(st.booleans()) and all(k in RENAMED for k in keys):
            items = " ".join(f"({v} {k})" for k, v in RENAMED.items())
            by = [RENAMED[k] for k in dict.fromkeys(keys)]
            sets.append(f"(set ({' '.join(by)}) ((n (count)) (t (sum qty))) ({items} (qty qty)))")
        else:
            sets.append(f"(set ({' '.join(dict.fromkeys(keys))}) ({measures}))")
    return f"(grouping-sets {' '.join(sets)} {relation})"


@settings(max_examples=60, deadline=None)
@given(query=sets_sharing_keys(), options=st.sampled_from([SERIAL, FOUR_WAY]))
def test_sets_sharing_keys_equal_their_standalone_queries_under_tight_bounds(query, options):
    """Under a direct-addressing bound of one slot per row the suffix
    folds re-densify and fall back to ``np.unique`` inside the memo."""
    with mock.patch.multiple(kernels, _DIRECT_SLOTS_FLOOR=2, _DIRECT_SLOTS_PER_ROW=1):
        _check_sets(query, options)


def test_no_key_code_outlives_its_fragment(monkeypatch):
    seen = []
    key_codes = kernels.key_codes

    def watching(col):
        coded = key_codes(col)
        seen.extend((weakref.ref(col), weakref.ref(coded.codes)))
        return coded

    monkeypatch.setattr(grouping, "key_codes", watching)
    query = (
        "(grouping-sets (set (region status) ((n (count)))) (set (status region) ((s (sum amount)))) "
        f"(set (day status) ()) {EVENTS})"
    )
    ENGINE.query(query, options=FOUR_WAY)
    # The first two sets share one partial: three key columns coded in
    # each of four fragments, status for both partials.
    assert len(seen) == 2 * 3 * 4
    assert all(ref() is None for ref in seen)


def test_round_trips_through_text_and_the_plan_cache():
    query = (
        "(grouping-sets (set (region) ((n (count)))) "
        "(set (h) ((t (sum a2))) ((h (/ day 2)) (a2 (* 2.0 amount)))) "
        f"(set () ((n (count)))) (select (< 5 day) {EVENTS}))"
    )
    plan = parse_tql(query)
    assert isinstance(plan, GroupingSets) and len(plan.sets) == 3
    assert plan.sets[1].items is not None and plan.sets[0].items is None
    assert parse_tql(to_tql(plan)) == plan
    engine = DataEngine("gs-cache")
    engine.database, engine.catalog = ENGINE.database, ENGINE.catalog
    first = engine.query(query)
    # Literal-first comparison and spacing are normalised away.
    again = engine.query(query.replace("(< 5 day)", "(>  day 5)"))
    assert again.equals(first)
    assert engine.plan_cache.stats()["hits"] == 1


@pytest.mark.parametrize(
    "bad",
    [
        f"(grouping-sets {EVENTS})",
        f"(grouping-sets (region) {EVENTS})",
        f"(grouping-sets (set (region)) {EVENTS})",
        f"(grouping-sets (sets (region) ()) {EVENTS})",
    ],
)
def test_malformed_sets_are_parse_errors(bad):
    with pytest.raises(TqlParseError):
        parse_tql(bad)


def test_output_schema_and_its_refusals():
    ok = parse_tql(
        f"(grouping-sets (set (region) ((n (count)))) (set (day) ((n (count)) (s (sum amount)))) {EVENTS})"
    )
    assert bind(ok, ENGINE.catalog) == {
        SET_COLUMN: L.INT, "region": L.STR, "n": L.INT, "day": L.INT, "s": L.FLOAT,
    }
    for bad, match in [
        # The same name, two types: there is one column to put it in.
        (f"(grouping-sets (set () ((x (count)))) (set () ((x (sum amount)))) {EVENTS})", "x"),
        (f"(grouping-sets (set (region) ((region2 (count)))) (set () ((region2 (max region)))) {EVENTS})", "region2"),
        (f"(grouping-sets (set () (({SET_COLUMN} (count)))) {EVENTS})", SET_COLUMN),
        (f"(grouping-sets (set (nope) ()) {EVENTS})", "nope"),
        (f"(grouping-sets (set (h) () ((h (/ day 2)) (h day))) {EVENTS})", "h"),
    ]:
        with pytest.raises(BindError, match=match):
            ENGINE.query(bad)


def test_a_column_only_some_sets_have_is_null_in_the_others():
    result = ENGINE.query(
        f"(grouping-sets (set (region) ((n (count)))) (set () ((hi (max region)) (s (sum amount)))) {EVENTS})"
    )
    rows = result.to_rows()
    assert result.column_names == [SET_COLUMN, "region", "n", "hi", "s"]
    assert all(r[3] is None and r[4] is None for r in rows if r[0] == 0)
    (total,) = [r for r in rows if r[0] == 1]
    assert total[1] is None and total[2] is None and total[3] == "west"


def test_the_child_runs_once_and_its_rows_are_dropped_fragment_by_fragment():
    query = (
        "(grouping-sets (set (region) ((n (count)) (a (avg amount)))) "
        "(set (half) ((t (sum a2))) ((half (/ day 2)) (a2 (* amount 2.0)))) "
        f"(set (zone) ((u (count_distinct day)))) "
        f'(join inner ((region region_key)) {EVENTS} (scan "Extract.regions")))'
    )
    plan = ENGINE.plan(parse_tql(query), options=FOUR_WAY)
    assert isinstance(plan, PGroupingSets) and len(plan.fragments) == 4
    averaged, projected, distinct = plan.sets
    # The partials sit on the shared rows, not behind exchanges.
    assert not any(isinstance(n, PExchange) for p in (*plan.sets, *plan.partials) for n in p.walk())
    # local/global split: partial per fragment, one merge
    assert not isinstance(averaged.merge, PSharedInput)
    assert isinstance(plan.partials[projected.grain], PFusedPipeline)  # project+aggregate fused, as alone
    # count_distinct has no partial: the set keeps its own two columns
    # of every fragment and aggregates once, as its Exchange would have.
    assert plan.partials[distinct.grain] == PSharedInput(["day", "zone"], 1500)
    scanned = ExecContext(batch_size=1024)
    execute_to_table(plan, scanned)
    assert scanned.metrics.rows_scanned == ENGINE.table("Extract.events").n_rows + 5


def test_a_set_cannot_run_outside_its_operator():
    plan = ENGINE.plan(parse_tql(f"(grouping-sets (set (region) ()) {EVENTS})"), options=SERIAL)
    with pytest.raises(ExecutionError):
        execute_to_table(plan.sets[0])
    with pytest.raises(ExecutionError):
        execute_to_table(plan.partials[0])


def test_explain_shows_each_shared_partial_once_and_each_sets_joins():
    engine = build_flights_engine(n=2000)
    star = (
        '(join inner ((market_id mid)) (join inner ((carrier_id id)) '
        '(scan "Extract.flights") (scan "Extract.carriers")) (scan "Extract.markets"))'
    )
    query = (
        "(grouping-sets (set (name) ((n (count)) (a (avg delay)))) (set (name) ((far (max distance)))) "
        f"(set (market name) ((far (max distance)))) (set (cancelled) ()) {star})"
    )
    explained = engine.explain(query, analyze=True)
    lines = str(explained).splitlines()
    fragments = int(lines[1].split(" partials over ")[1].split(" ")[0])
    assert "GroupingSets(4 sets, 3 partials over" in lines[1] and fragments > 1
    sets = [line.strip() for line in lines if line.startswith("  #") and " Set(" in line]
    assert [s.split("  (")[0].split(" ", 1)[1] for s in sets] == [
        "Set(by name: n, a; partial 0)",
        "Set(by name: far; partial 0)",
        "Set(by market, name: far; partial 1)",
        "Set(by cancelled: <none>; partial 2)",
    ]
    assert all("actual=" in s and "not executed" not in s for s in sets)
    # The partials are the operator's children, each once: the two sets
    # by name share one, which groups by the foreign key.
    (by_carrier,) = [line for line in lines if line.startswith("  #") and "(by carrier_id)" in line]
    (by_both,) = [line for line in lines if line.startswith("  #") and "(by market_id, carrier_id)" in line]
    # The fragments are bare scans: no dimension is joined to fact rows.
    scans = [line for line in lines if line.startswith("  #") and "Extract.flights" in line]
    assert len(scans) == fragments and all("Scan[" in line for line in scans)
    # Each set reading a dimension joins it to its partial's results:
    # as many rows as the partial produced (the foreign key is total).
    def actual_rows(line):
        return int(line.split("actual=")[1].split(" ")[0])

    carrier_joins = [line for line in lines if "HashJoin[inner](carrier_id=id)" in line]
    market_joins = [line for line in lines if "HashJoin[inner](market_id=mid)" in line]
    assert len(carrier_joins) == 3 and len(market_joins) == 1
    assert [actual_rows(j) for j in carrier_joins] == [
        actual_rows(by_carrier), actual_rows(by_carrier), actual_rows(by_both)
    ]
    assert actual_rows(market_joins[0]) == actual_rows(by_both)
    # The operator names the keys its partials share — none here: the set
    # by cancelled shares no key with the others — and, analyzed, the time
    # spent coding keys; without that set both partials share carrier_id.
    assert "; shared keys <none>)" in lines[1] and ", keys coded in " in lines[1]
    fewer = str(engine.explain(query.replace("(set (cancelled) ()) ", ""))).splitlines()[1]
    assert "(3 sets, 2 partials over" in fewer and "; shared keys carrier_id)" in fewer
    notes = {
        n["detail"]: n["attributes"]["sets"]
        for n in explained.to_dict()["provenance"]
        if n["rule"] == "culling.foreign_key_space"
    }
    # Each join moved for the sets reading it; the others need neither.
    assert notes == {
        "join to Extract.carriers moved above the partials, grouped by carrier_id": [0, 1, 2],
        "join to Extract.markets moved above the partials, grouped by market_id": [2],
    }
    alone = str(engine.explain(f"(aggregate (cancelled) () {star})"))
    assert "HashJoin" not in alone


def test_fig1_is_one_query_whose_sets_equal_the_seven_it_replaces():
    engine = generate_flights(20_000, seed=1).load_into_engine()
    dashboard = fig1_dashboard()
    pipeline = QueryPipeline(TdeDataSource(engine), flights_model())
    try:
        session = DashboardSession(dashboard, pipeline)
        zones = dashboard.queryable_zones()
        reuse = frozenset(a.field for z in zones for a in dashboard.actions_onto(z.name))
        plan = pipeline._plan([session.effective_spec(z) for z in zones], reuse, traced=False)
    finally:
        pipeline.close()
    (merged,) = {id(send.merged): send.merged for send in plan.sends}.values()
    assert len(merged.parts) == 7 and plan.wire() == [merged]
    answer = engine.query(merged.text)
    for part, split in zip(merged.parts, merged.splits):
        rows = slice_set(answer, split.set, [column for _, column in split.columns])
        rows = Table({name: rows.column(column) for name, column in split.columns})
        assert apply_post_ops(rows, split.ops).equals(engine.query(part.text))
