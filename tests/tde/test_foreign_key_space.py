"""Aggregates over N:1 dimension joins, planned in foreign-key space.

The rule (``culling.foreign_key_space``) lets a partial aggregate group
by the fact's join key and joins the dimension to the partial results;
it must answer what the unrewritten query answers (``query_naive``, float
sums to a tolerance) and, where it declines, say why. The star below has
what makes that hard: inner and left joins, orphan and NULL foreign keys,
two stores in one city, a dimension whose key is not declared unique.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tde.engine import DataEngine
from repro.tde.optimizer.parallel import PlannerOptions

SERIAL = PlannerOptions(max_dop=1, plan_cache_size=0)
FOUR_WAY = PlannerOptions(
    max_dop=4, min_work_per_fraction=1.0, enable_range_partition_agg=False, plan_cache_size=0
)


def _star() -> DataEngine:
    engine = DataEngine("fk-space", batch_size=512)
    n = 4000
    engine.load_pydict(
        "Extract.sales",
        {
            # 7 and 8 are orphans; every 13th row has no store.
            "store": [None if i % 13 == 0 else i % 9 for i in range(n)],
            "item": [None if i % 17 == 0 else "abcdez"[i % 6] for i in range(n)],
            "qty": [i % 11 for i in range(n)],
            "price": [None if i % 19 == 0 else (i % 23) * 1.25 + 0.1 for i in range(n)],
            "day": [i % 5 for i in range(n)],
        },
    )
    engine.load_pydict(
        "Extract.stores",
        {
            "store_id": [0, 1, 2, 3, 4, 5, 6],
            "city": ["oslo", "oslo", "rome", "lima", "kyiv", "oslo", "rome"],
            "size": [3, 5, 2, 8, 1, 4, 6],
        },
    )
    engine.load_pydict("Extract.items", {"item_key": list("abcde"), "category": list("xxyzy")})
    # Two rows per key: a join to it multiplies fact rows.
    engine.load_pydict("Extract.loose", {"lkey": [0, 0, 1, 2, 3], "tag": list("ppqrs")})
    engine.declare_unique("Extract.stores", ["store_id"])
    engine.declare_unique("Extract.items", ["item_key"])
    engine.declare_foreign_key("Extract.sales", ["store"], "Extract.stores", ["store_id"], total=False)
    engine.declare_foreign_key("Extract.sales", ["item"], "Extract.items", ["item_key"], total=False)
    return engine


ENGINE = _star()
MEASURES = ["(n (count))", "(q (sum qty))", "(p (avg price))", "(lo (min price))", "(hi (max qty))"]
#: What each case adds to one set, and the reason the stores join must
#: then stay below the partials (None: it moves above them).
CASES = {
    "keys": None,
    "filter": None,  # depends on the join kind, see below
    "measure": "its column size is read by a measure",
    "count_distinct": "count_distinct has no partial to merge",
    "not_unique": "is not declared unique",
}


@st.composite
def star_queries(draw):
    kind = draw(st.sampled_from(["inner", "left"]))
    case = draw(st.sampled_from(sorted(CASES)))
    items = draw(st.sampled_from([None, "inner", "left"]))
    dim, key, attr = ("Extract.stores", "store_id", "city")
    if case == "not_unique":
        dim, key, attr = ("Extract.loose", "lkey", "tag")
    relation = f'(join {kind} ((store {key})) (scan "Extract.sales") (scan "{dim}"))'
    if items is not None:
        relation = f'(join {items} ((item item_key)) {relation} (scan "Extract.items"))'
    if case == "filter":
        relation = f'(select (<> city "rome") {relation})'
    sets = []
    for i in range(draw(st.integers(1, 3))):
        keys = [attr] + ["category"] * (items is not None)
        keys += draw(st.lists(st.sampled_from(["day", "store"]), max_size=2, unique=True))
        measures = draw(st.lists(st.sampled_from(MEASURES), min_size=1, max_size=3, unique=True))
        if i == 0 and case == "measure":
            measures.append("(big (max size))")
        if i == 0 and case == "count_distinct":
            measures.append("(u (count_distinct qty))")
        sets.append((" ".join(draw(st.permutations(keys))), " ".join(measures)))
    if len(sets) == 1:
        query = f"(aggregate ({sets[0][0]}) ({sets[0][1]}) {relation})"
    else:
        query = f"(grouping-sets {' '.join(f'(set ({k}) ({m}))' for k, m in sets)} {relation})"
    declined = CASES[case]
    if case == "filter":
        # Pushed onto the build side of an inner join; above a left one.
        declined = "not a base-table scan" if kind == "inner" else "its column city is read by a filter"
    expected = {dim: declined}
    if items is not None:
        expected["Extract.items"] = CASES[case] if case == "count_distinct" else None
    return query, expected


def _notes(query: str, options: PlannerOptions) -> dict[str, tuple[bool, str]]:
    notes = ENGINE.explain(query, options=options).to_dict()["provenance"]
    return {
        n["attributes"]["table"]: (n["fired"], n["detail"])
        for n in notes
        if n["rule"] == "culling.foreign_key_space"
    }


@settings(max_examples=80, deadline=None)
@given(drawn=star_queries(), options=st.sampled_from([SERIAL, FOUR_WAY]))
def test_answers_equal_the_unrewritten_query_and_declines_say_why(drawn, options):
    query, expected = drawn
    got = ENGINE.query(query, options=options)
    assert got.approx_equals(ENGINE.query_naive(query)), query
    notes = _notes(query, options)
    assert set(notes) == set(expected), (query, notes)
    for table, reason in expected.items():
        fired, detail = notes[table]
        if reason is None:
            assert fired and "moved above the partial" in detail, (query, detail)
        else:
            assert not fired and reason in detail, (query, detail)


def test_a_moved_join_leaves_the_fragments_and_joins_the_partials():
    query = (
        '(aggregate (city day) ((n (count)) (p (avg price))) (join inner ((store store_id)) '
        '(scan "Extract.sales") (scan "Extract.stores")))'
    )
    plan = ENGINE.plan(query, options=FOUR_WAY)
    text = str(ENGINE.explain(query, options=FOUR_WAY))
    assert "HashAggregate(by store, day)" in text  # the partials, in foreign-key space
    (join,) = [n for n in plan.walk() if type(n).__name__ == "PHashJoin"]
    assert type(join.probe).__name__ == "PExchange"  # above the fragments, not in them
    # Two stores in oslo: their partial rows merge into one group, and
    # the orphan and NULL stores' groups are dropped after aggregation.
    assert ENGINE.query(query, options=FOUR_WAY).approx_equals(ENGINE.query_naive(query))


def test_a_dimension_too_large_for_a_fragment_stays_below():
    query = (
        '(aggregate (city) ((n (count))) (join inner ((store store_id)) '
        '(scan "Extract.sales") (scan "Extract.stores")))'
    )
    # 4000 fact rows in 4000 fragments: one row each, next to 7 stores.
    many = PlannerOptions(max_dop=4000, min_work_per_fraction=1.0, plan_cache_size=0)
    ((fired, detail),) = _notes(query, many).values()
    assert not fired and "not small next to a 1-row fragment" in detail


STORES = '(join inner ((store store_id)) (scan "Extract.sales") (scan "Extract.stores"))'


@pytest.mark.parametrize(
    "query, fired, detail",
    [
        # Not read, but an inner join through a foreign key with orphans
        # filters rows: the partials group by the key too.
        (f"(aggregate (day) ((n (count)) (p (avg price))) {STORES})", True, "grouped by store"),
        (f"(aggregate () ((n (count))) {STORES})", False, "the aggregate has no keys"),
        (
            f"(aggregate (city store) ((n (count))) (project ((city city) (store (+ qty 1))) {STORES}))",
            False,
            "computes a column named like its join key",
        ),
    ],
)
def test_joins_the_aggregate_does_not_read_as_keys(query, fired, detail):
    for options in (SERIAL, FOUR_WAY):
        ((did, why),) = _notes(query, options).values()
        assert did == fired and detail in why
        assert ENGINE.query(query, options=options).approx_equals(ENGINE.query_naive(query))
