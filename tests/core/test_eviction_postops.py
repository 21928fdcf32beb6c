"""Eviction policy and local post-op unit tests."""

import pytest

from repro.clock import VirtualTimeClock
from repro.core.cache.eviction import CacheEntry, EvictionPolicy
from repro.expr.ast import AggExpr, Call, ColumnRef, Literal
from repro.queries.postops import (
    LocalAggregate,
    LocalFilter,
    LocalProject,
    LocalSort,
    LocalTopN,
    LocalTopNFilter,
    apply_post_ops,
)
from repro.tde.storage import Table


#: The cache clock every entry is stamped on; nothing advances it, so an
#: entry's age is exactly what the test backdates it by.
CLOCK = VirtualTimeClock(10_000.0)


def _entry(key, *, size=10, cost=0.0, uses=0, age_s=0.0):
    entry = CacheEntry(key, "ds", None, size, CLOCK.monotonic() - age_s, cost)
    entry.uses = uses
    return entry


class TestEvictionPolicy:
    def test_within_capacity_no_eviction(self):
        entries = {f"k{i}": _entry(f"k{i}") for i in range(3)}
        assert EvictionPolicy(max_entries=3).purge(entries, CLOCK.monotonic()) == []
        assert len(entries) == 3

    def test_entry_cap(self):
        entries = {f"k{i}": _entry(f"k{i}") for i in range(5)}
        evicted = EvictionPolicy(max_entries=2).purge(entries, CLOCK.monotonic())
        assert len(evicted) == 3 and len(entries) == 2

    def test_byte_cap(self):
        entries = {f"k{i}": _entry(f"k{i}", size=100) for i in range(4)}
        EvictionPolicy(max_entries=100, max_bytes=250).purge(entries, CLOCK.monotonic())
        assert len(entries) == 2

    def test_age_cap(self):
        entries = {"old": _entry("old", age_s=100.0), "new": _entry("new")}
        evicted = EvictionPolicy(max_age_s=10.0).purge(entries, CLOCK.monotonic())
        assert evicted == ["old"]
        assert "new" in entries

    def test_usage_and_cost_protect_entries(self):
        """Paper 3.2: purged by a combination of age, usage, and the
        expense of re-evaluating the query."""
        entries = {
            "cheap_unused": _entry("cheap_unused", cost=0.001, uses=0, age_s=5),
            "expensive": _entry("expensive", cost=10.0, uses=0, age_s=5),
            "popular": _entry("popular", cost=0.001, uses=50, age_s=5),
        }
        EvictionPolicy(max_entries=2).purge(entries, CLOCK.monotonic())
        assert set(entries) == {"expensive", "popular"}

    def test_recency_matters(self):
        entries = {
            "stale": _entry("stale", uses=1, age_s=1000.0),
            "fresh": _entry("fresh", uses=1, age_s=0.0),
        }
        EvictionPolicy(max_entries=1).purge(entries, CLOCK.monotonic())
        assert set(entries) == {"fresh"}

    def test_retention_score_monotonicity(self):
        now = CLOCK.monotonic()
        low = _entry("a", cost=0.1, uses=1, age_s=100)
        high = _entry("b", cost=0.1, uses=1, age_s=1)
        assert high.retention_score(now) > low.retention_score(now)


class TestPostOps:
    def _table(self):
        return Table.from_pydict(
            {
                "g": ["a", "a", "b", "b", "c"],
                "v": [1.0, 3.0, 10.0, 20.0, 100.0],
                "n": [1, 1, 2, 2, 5],
            }
        )

    def test_filter(self):
        out = apply_post_ops(
            self._table(), [LocalFilter(Call(">", (ColumnRef("v"), Literal(5.0))))]
        )
        assert out.to_pydict()["v"] == [10.0, 20.0, 100.0]

    def test_project(self):
        out = apply_post_ops(
            self._table(),
            [LocalProject((("g", ColumnRef("g")), ("double", Call("*", (ColumnRef("v"), Literal(2.0))))))],
        )
        assert out.column_names == ["g", "double"]
        assert out.to_pydict()["double"][0] == 2.0

    def test_aggregate(self):
        out = apply_post_ops(
            self._table(),
            [LocalAggregate(("g",), (("total", AggExpr("sum", ColumnRef("v"))),))],
        )
        assert dict(out.to_rows()) == {"a": 4.0, "b": 30.0, "c": 100.0}

    def test_aggregate_with_computed_arg(self):
        out = apply_post_ops(
            self._table(),
            [
                LocalAggregate(
                    (),
                    (("s", AggExpr("sum", Call("*", (ColumnRef("v"), Literal(2.0))))),),
                )
            ],
        )
        assert out.to_pydict()["s"] == [268.0]

    def test_sort_and_topn(self):
        out = apply_post_ops(self._table(), [LocalSort((("v", False),))])
        assert out.to_pydict()["v"][0] == 100.0
        out = apply_post_ops(self._table(), [LocalTopN(2, (("v", False),))])
        assert out.to_pydict()["v"] == [100.0, 20.0]

    def test_topn_filter(self):
        """Keep all rows of the top-2 groups by total v."""
        out = apply_post_ops(
            self._table(),
            [LocalTopNFilter("g", AggExpr("sum", ColumnRef("v")), 2)],
        )
        assert set(out.to_pydict()["g"]) == {"b", "c"}
        assert out.n_rows == 3

    def test_topn_filter_ascending(self):
        out = apply_post_ops(
            self._table(),
            [LocalTopNFilter("g", AggExpr("sum", ColumnRef("v")), 1, ascending=True)],
        )
        assert set(out.to_pydict()["g"]) == {"a"}

    def test_chained_ops(self):
        out = apply_post_ops(
            self._table(),
            [
                LocalFilter(Call("<", (ColumnRef("v"), Literal(50.0)))),
                LocalAggregate(("g",), (("s", AggExpr("sum", ColumnRef("v"))),)),
                LocalSort((("s", False),)),
            ],
        )
        assert out.to_rows() == [("b", 30.0), ("a", 4.0)]

    def test_empty_input_flows_through(self):
        empty = self._table().slice(0, 0)
        out = apply_post_ops(
            empty,
            [
                LocalFilter(Call(">", (ColumnRef("v"), Literal(0.0)))),
                LocalAggregate(("g",), (("n", AggExpr("count"),),)),
                LocalTopN(3, (("n", False),)),
            ],
        )
        assert out.n_rows == 0
        assert out.column_names == ["g", "n"]

    def test_unknown_op_rejected(self):
        with pytest.raises(TypeError):
            apply_post_ops(self._table(), [object()])
