"""Seeded random query-spec generator for differential testing.

Draws specs over the flights star schema (tests.conftest) from a
``random.Random(seed)`` stream, so the same seed always yields the same
spec list regardless of PYTHONHASHSEED or platform. The shapes are
constrained to be *deterministic queries*: whenever a LIMIT is drawn,
the ORDER BY is forced to a total order (all dimensions first), so
truncation picks the same rows under every execution strategy. A Top-N
filter is deterministic too: a tie at the cut-off goes to the lower key.
Top-N filters come from a second stream, so whether one spec gets a
Top-N filter does not shift the draws of the specs after it.

Also hosts the result comparator: tables are compared as sorted row
multisets with a float tolerance, because parallel execution (DOP > 1)
may legally reassociate float additions.
"""

from __future__ import annotations

import datetime as dt
import math
import random

from repro.expr.ast import AggExpr, ColumnRef
from repro.queries.spec import CategoricalFilter, QuerySpec, RangeFilter, TopNFilter
from tests.conftest import CARRIERS, MARKETS

#: Dimensions the generator may group by. ``name`` / ``market`` come from
#: the joined dimension tables, so generated specs exercise the model's
#: join path too.
DIMENSIONS = ("carrier_id", "market_id", "cancelled", "name", "market")

_MEASURE_FUNCS = ("sum", "min", "max", "avg")
_MEASURE_COLS = ("delay", "distance")


def _measure_menu() -> list[tuple[str, AggExpr]]:
    menu: list[tuple[str, AggExpr]] = [("n", AggExpr("count"))]
    for func in _MEASURE_FUNCS:
        for col in _MEASURE_COLS:
            menu.append((f"{func}_{col}", AggExpr(func, ColumnRef(col))))
    menu.append(("carriers", AggExpr("count_distinct", ColumnRef("carrier_id"))))
    menu.append(("markets", AggExpr("count_distinct", ColumnRef("market_id"))))
    return menu


MEASURES = _measure_menu()


def _draw_filter(rng: random.Random, field: str):
    if field == "carrier_id":
        values = rng.sample(range(len(CARRIERS)), rng.randint(1, 3))
        return CategoricalFilter(field, sorted(values), exclude=rng.random() < 0.2)
    if field == "market_id":
        values = rng.sample(range(len(MARKETS)), rng.randint(1, 3))
        return CategoricalFilter(field, sorted(values), exclude=rng.random() < 0.2)
    if field == "cancelled":
        return CategoricalFilter(field, (rng.random() < 0.5,))
    if field == "name":
        return CategoricalFilter(field, sorted(rng.sample(CARRIERS, rng.randint(1, 3))))
    if field == "market":
        return CategoricalFilter(field, sorted(rng.sample(MARKETS, rng.randint(1, 2))))
    if field == "delay":
        low = round(rng.uniform(-40.0, 20.0), 1)
        return RangeFilter(field, low, round(low + rng.uniform(10.0, 80.0), 1))
    if field == "distance":
        low = rng.randrange(100, 2000)
        return RangeFilter(field, low, low + rng.randrange(300, 2500))
    if field == "date_":
        start = dt.date(2014, 1, 1) + dt.timedelta(days=rng.randrange(0, 300))
        return RangeFilter(field, start, start + dt.timedelta(days=rng.randrange(14, 120)))
    raise AssertionError(f"no filter recipe for {field}")


_FILTER_FIELDS = (
    "carrier_id",
    "market_id",
    "cancelled",
    "name",
    "market",
    "delay",
    "distance",
    "date_",
)


#: What a drawn Top-N filter ranks by: aggregates whose partial results
#: re-aggregate exactly, so that the compiler may rank it locally.
TOPN_BY = (AggExpr("count"), AggExpr("sum", ColumnRef("distance")))
#: The dimension tables' keys: they bound the rows an aggregate over them
#: ships, the other condition of ranking locally.
_KEYS = ("name", "market")


def _with_topn(spec: QuerySpec, rng: random.Random) -> QuerySpec:
    """``spec`` as drawn, or under a Top-N filter. Most Top-N specs are
    narrowed to what the compiler ranks locally (key dimensions, measures
    that re-aggregate exactly); the rest keep the ranking subquery."""
    if rng.random() >= 0.25:
        return spec
    by = rng.choice(TOPN_BY)
    topn = TopNFilter(rng.choice((*_KEYS, "carrier_id")), by, rng.randint(1, 5), rng.random() < 0.2)
    if rng.random() < 0.6:
        dims = tuple(d for d in spec.dimensions if d in _KEYS)
        exact = [m for m in spec.measures if m[1].func in ("min", "max") or m[1] in TOPN_BY]
        spec = QuerySpec(
            spec.datasource,
            dims,
            exact or ([] if dims else [("n", AggExpr("count"))]),
            spec.filters,
            tuple(key for key in spec.order_by if key[0] in dims),
            spec.limit if dims else None,
        )
    return spec.with_filters((*spec.filters, topn))


def gen_spec(rng: random.Random, topn_rng: random.Random, datasource: str = "faa") -> QuerySpec:
    """Draw one deterministic aggregate spec; ``topn_rng`` decides
    whether it carries a Top-N filter, and which."""
    dims = tuple(
        sorted(rng.sample(DIMENSIONS, rng.randint(0, min(3, len(DIMENSIONS)))))
    )
    n_measures = rng.randint(0 if dims else 1, 3)
    measures = tuple(sorted(rng.sample(MEASURES, n_measures)))
    filters = tuple(
        _draw_filter(rng, field)
        for field in sorted(rng.sample(_FILTER_FIELDS, rng.randint(0, 2)))
    )
    order_by: tuple[tuple[str, bool], ...] = ()
    limit = None
    if dims and rng.random() < 0.3:
        # LIMIT requires a total order for a deterministic answer: order
        # by every dimension (the group-by key is unique per row).
        order_by = tuple((d, rng.random() < 0.7) for d in dims)
        limit = rng.randint(1, 12)
    elif dims and rng.random() < 0.3:
        order_by = tuple(
            (d, rng.random() < 0.7) for d in rng.sample(dims, rng.randint(1, len(dims)))
        )
    spec = QuerySpec(
        datasource,
        dimensions=dims,
        measures=measures,
        filters=filters,
        order_by=order_by,
        limit=limit,
    )
    return _with_topn(spec, topn_rng)


def gen_specs(seed: int, n: int, datasource: str = "faa") -> list[QuerySpec]:
    """``n`` specs drawn deterministically from ``seed`` (duplicates kept)."""
    rng = random.Random(f"difftest|{seed}")
    topn_rng = random.Random(f"difftest-topn|{seed}")
    return [gen_spec(rng, topn_rng, datasource) for _ in range(n)]


# ---------------------------------------------------------------------- #
# Result comparison
# ---------------------------------------------------------------------- #
def _sort_token(value) -> str:
    """An order token that is stable across runs and float reassociation."""
    if isinstance(value, bool):
        return f"b:{value}"
    if isinstance(value, float):
        if math.isnan(value):
            return "f:nan"
        return f"f:{value:.6e}"
    if isinstance(value, int):
        return f"i:{value:024d}" if value >= 0 else f"i-:{-value:024d}"
    return f"{type(value).__name__}:{value!r}"


def rows_of(table) -> list[tuple]:
    cols = [table.column(name).python_values() for name in table.column_names]
    return [tuple(col[i] for col in cols) for i in range(table.n_rows)]


def sorted_rows(table) -> list[tuple]:
    return sorted(rows_of(table), key=lambda row: tuple(_sort_token(v) for v in row))


def _values_equal(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def assert_tables_equal(actual, expected, *, context: str = "") -> None:
    """Multiset row equality with float tolerance; raises AssertionError."""
    assert actual.column_names == expected.column_names, (
        f"{context}: column mismatch {actual.column_names} != {expected.column_names}"
    )
    assert_rows_equal(rows_of(actual), rows_of(expected), context=context)


def assert_rows_equal(actual: list[tuple], expected: list[tuple], *, context: str = "") -> None:
    """The same comparison over plain row tuples."""
    left, right = (
        sorted(rows, key=lambda row: tuple(_sort_token(v) for v in row))
        for rows in (actual, expected)
    )
    assert len(left) == len(right), (
        f"{context}: row count {len(left)} != {len(right)}"
    )
    for i, (got, want) in enumerate(zip(left, right)):
        for g, w in zip(got, want):
            assert _values_equal(g, w), (
                f"{context}: row {i} differs: {got!r} != {want!r}"
            )
