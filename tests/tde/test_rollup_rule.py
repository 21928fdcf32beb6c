"""One roll-up rule, every consumer: ``kernels.ROLLUP`` says how each
aggregate merges from its partials, and each place that merges partials
reads it — the engine's local/global split and grouping-sets merges
(paper 4.2.3), the sharded cluster (§7), the cache's roll-up from a finer
provider (§3.2) and a Top-N ranked locally. Each test runs every
function of the table, scalar and grouped, over an empty input, an
all-NULL argument and a mixed one, and checks the consumer against
``query_naive`` or ``tests/difftest/reference.py``.
"""

from __future__ import annotations

import functools

import pytest

from repro.connectors import TdeDataSource
from repro.core.cache.intelligent import enrich_spec, match_specs
from repro.datatypes import LogicalType
from repro.expr.ast import AggExpr, ColumnRef
from repro.queries import (
    CategoricalFilter,
    DataSourceModel,
    JoinSpec,
    QuerySpec,
    TopNFilter,
    apply_post_ops,
    compile_spec,
)
from repro.queries.postops import LocalAggregate, LocalTopNFilter
from repro.server import ShardedTdeCluster
from repro.tde.engine import DataEngine
from repro.tde.exec.grouping import slice_set
from repro.tde.exec.kernels import ROLLUP
from repro.tde.optimizer.parallel import PlannerOptions
from tests.difftest.gen import assert_rows_equal, assert_tables_equal, rows_of
from tests.difftest.reference import answer_spec

FUNCS = sorted(ROLLUP)
GRAINS = ("scalar", "grouped")
INPUTS = ("empty", "all_null", "mixed")
CASES = pytest.mark.parametrize(
    "func, grain, inputs", [(f, g, i) for f in FUNCS for g in GRAINS for i in INPUTS]
)

#: Every scan splits four ways, evenly, so partials really merge.
FOUR_WAY = PlannerOptions(
    max_dop=4, min_work_per_fraction=1.0, enable_range_partition_agg=False, plan_cache_size=0
)
ROWS = 48
#: The dimension: six keys in two groups; keys c and f have no facts.
KEYS = {"id": list(range(6)), "dim_key": list("abcdef"), "grp": [i % 2 for i in range(6)]}
#: Each fact's key, so that counts and sums rank the keys unlike their order.
KIDS = [(0, 1, 1, 3, 4, 4, 4, 1)[i % 8] if i % 9 else 3 for i in range(ROWS)]
MODEL = DataSourceModel("t", "Extract.facts", joins=(JoinSpec("Extract.keys", (("kid", "id"),)),))


def _x(inputs: str) -> list:
    if inputs == "all_null":
        return [None] * ROWS
    return [None if i % 5 == 0 else (i * 7) % 11 - 3 for i in range(ROWS)]


def _load(inputs: str, engine: DataEngine) -> None:
    facts = {"kid": KIDS, "fine": [i % 3 for i in range(ROWS)], "x": _x(inputs)}
    engine.load_pydict("Extract.facts", facts, types={"x": LogicalType.INT})
    engine.load_pydict("Extract.keys", KEYS)


@functools.cache
def _engine(inputs: str) -> DataEngine:
    engine = DataEngine("rollup")
    _load(inputs, engine)
    return engine


@functools.cache
def _cluster(inputs: str) -> ShardedTdeCluster:
    return ShardedTdeCluster(3, functools.partial(_load, inputs), "Extract.facts")


def _view(inputs: str) -> list[dict]:
    """The model's view as reference rows: each fact joined to its key."""
    keys = [dict(zip(KEYS, values)) for values in zip(*KEYS.values())]
    return [
        {"kid": kid, "fine": i % 3, "x": x, **keys[kid]}
        for i, (kid, x) in enumerate(zip(KIDS, _x(inputs)))
    ]


def _tql(func: str, grain: str, inputs: str) -> tuple[str, str, str]:
    """``(aggregate query, its aggregate, its relation)`` over the facts."""
    agg = "(count)" if func == "count_star" else f"({func} x)"
    relation = '(scan "Extract.facts")'
    if inputs == "empty":
        relation = f"(select (< kid 0) {relation})"
    keys = "kid" if grain == "grouped" else ""
    return f"(aggregate ({keys}) ((m {agg})) {relation})", agg, relation


def _spec(func: str, grain: str, inputs: str, *extra) -> QuerySpec:
    agg = AggExpr("count") if func == "count_star" else AggExpr(func, ColumnRef("x"))
    dims = ("grp",) if grain == "grouped" else ()
    filters = (CategoricalFilter("kid", (99,)),) if inputs == "empty" else ()
    return QuerySpec("t", dims, (("m", agg),), filters + extra)


def _run(spec: QuerySpec, inputs: str, compiled=None):
    source = TdeDataSource(_engine(inputs))
    compiled = compiled or compile_spec(spec, MODEL, source)
    return apply_post_ops(source.engine.query(compiled.text), compiled.post_ops)


@CASES
def test_the_engine_merges_fragment_partials(func, grain, inputs):
    engine = _engine(inputs)
    query, _agg, _relation = _tql(func, grain, inputs)
    assert "local/global split across 4 fragments" in engine.explain(query, options=FOUR_WAY)
    merged = engine.query(query, options=FOUR_WAY)
    assert_tables_equal(merged, engine.query_naive(query), context=query)


@CASES
def test_a_grouping_set_merges_its_partials(func, grain, inputs):
    engine = _engine(inputs)
    alone, agg, relation = _tql(func, grain, inputs)
    keys = "kid" if grain == "grouped" else ""
    query = f"(grouping-sets (set ({keys}) ((m {agg}))) (set (fine) ((n (count)))) {relation})"
    assert "local/global split across 4 fragments" in engine.explain(query, options=FOUR_WAY)
    mine = slice_set(engine.query(query, options=FOUR_WAY), 0, [*keys.split(), "m"])
    assert_tables_equal(mine, engine.query_naive(alone), context=query)


@CASES
def test_the_sharded_cluster_merges_shard_partials(func, grain, inputs):
    query, _agg, _relation = _tql(func, grain, inputs)
    naive = _engine(inputs).query_naive(query)
    assert_tables_equal(_cluster(inputs).query(query), naive, context=query)


@CASES
def test_the_cache_rolls_a_finer_provider_up(func, grain, inputs):
    request = _spec(func, grain, inputs)
    finer = (*request.dimensions, "fine")
    provider = enrich_spec(QuerySpec("t", finer, request.measures, request.filters))
    match = match_specs(provider, request)
    assert match is not None and any(isinstance(op, LocalAggregate) for op in match.post_ops)
    answer = apply_post_ops(_run(provider, inputs), match.post_ops)
    expected = answer_spec(_view(inputs), request)
    assert_rows_equal(rows_of(answer), expected, context=request.canonical())


@CASES
def test_a_topn_ranked_locally_merges_its_ranking(func, grain, inputs):
    """The dimension key bounds the rows shipped, so a Top-N whose
    aggregate re-aggregates exactly (all but AVG) is ranked locally."""
    by = _spec(func, grain, inputs).measures[0][1]
    spec = _spec(func, grain, inputs, TopNFilter("dim_key", by, 2))
    compiled = compile_spec(spec, MODEL, TdeDataSource(_engine(inputs)))
    hoisted = any(isinstance(op, LocalTopNFilter) for op in compiled.post_ops)
    assert hoisted == (func != "avg")
    expected = answer_spec(_view(inputs), spec)
    assert_rows_equal(rows_of(_run(spec, inputs, compiled)), expected, context=spec.canonical())
