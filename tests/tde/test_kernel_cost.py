"""Cost guard: a cold render sorts nothing, searches nothing, idles no thread.

Counted, not timed, in the style of ``test_scan_cost.py``. Every Fig-1
group-by key is a dictionary code or a small-span integer and every
join an N:1 lookup on such a key, so the group-by and join kernels must
address directly: before they did, one 20k-row render issued 154
``np.unique``, 31 ``np.argsort`` and 62 ``np.searchsorted`` calls from
``kernels.py`` — a third of its time sorting, a quarter searching — and
ran on an 8-thread pool that an in-process engine cannot use.
"""

import sys

import numpy as np

from repro.connectors import SimDbDataSource, TdeDataSource
from repro.connectors.simdb import ServerProfile
from repro.core import executor
from repro.core.pipeline import QueryPipeline
from repro.dashboard import DashboardSession
from repro.datatypes import LogicalType
from repro.expr.ast import AggExpr, ColumnRef
from repro.faults import FaultPlan, FaultyDataSource
from repro.queries.postops import LocalAggregate, apply_post_ops
from repro.tde.exec import kernels
from repro.tde.exec.kernels import AggSpec
from repro.tde.exec.physical import (
    PHashAggregate,
    PHashJoin,
    PScan,
    aggregate_table,
    execute_to_table,
)
from repro.tde.storage import Table
from repro.tde.storage.column import Column
from repro.workloads import fig1_dashboard, flights_model, generate_flights


def _render(source):
    pipeline = QueryPipeline(source, flights_model())
    try:
        result = DashboardSession(fig1_dashboard(), pipeline).render()
    finally:
        pipeline.close()
    # Seven zones query; an in-process TQL source is sent them as one
    # grouping-sets query, every other source one query each.
    assert result.remote_queries == (1 if source.in_process else 7) and not result.degraded
    return result


def test_numpy_keeps_the_last_write_of_a_repeated_index():
    # ``kernels._dense_ids`` finds first occurrences by scattering row
    # numbers in reverse row order; it is only right while this holds.
    a = np.zeros(1, dtype=np.int64)
    a[[0, 0]] = [1, 2]
    assert a[0] == 2


def test_fig1_render_never_sorts_or_searches(monkeypatch):
    issued = {"unique": 0, "argsort": 0, "searchsorted": 0}

    class CountingNumpy:
        """Stands in for the ``np`` that ``kernels.py`` sees, so only
        calls issued from that module are counted."""

        def __getattr__(self, name):
            attr = getattr(np, name)
            if name not in issued:
                return attr

            def counted(*args, **kwargs):
                issued[name] += 1
                return attr(*args, **kwargs)

            return counted

    engine = generate_flights(20_000, seed=1).load_into_engine()
    monkeypatch.setattr(kernels, "np", CountingNumpy())
    _render(TdeDataSource(engine))
    assert issued == {"unique": 0, "argsort": 0, "searchsorted": 0}
    # ... and the counter is live: a wide-span key still sorts.
    kernels.combine_codes([(np.array([0, 2**40]), 2**40 + 1)], 2)
    assert issued["unique"] == 1


def test_a_fully_matched_n_to_1_join_gathers_no_probe_rows(monkeypatch):
    """Every Fig-1 join is a total foreign key onto an 8- or 12-row
    dimension: each probe row matches exactly one build row, in order, so
    gathering the probe side would copy every column to itself."""
    gathered = []
    take = Table.take

    def counting_take(self, indices):
        if sys._getframe(1).f_code.co_name == "_join_batch":
            gathered.append(len(indices))
        return take(self, indices)

    monkeypatch.setattr(Table, "take", counting_take)
    _render(TdeDataSource(generate_flights(20_000, seed=1).load_into_engine()))
    assert gathered == []

    def join(kind, probe_keys, build_keys):
        probe = Table.from_pydict({"k": probe_keys, "v": list(range(len(probe_keys)))})
        build = Table.from_pydict({"bk": build_keys, "w": [10 * k for k in build_keys]})
        node = PHashJoin(kind, [("k", "bk")], PScan(probe), PScan(build))
        return execute_to_table(node).to_rows()

    assert join("inner", [2, 0, 1, 0], [0, 1, 2]) == [(2, 0, 20), (0, 1, 0), (1, 2, 10), (0, 3, 0)]
    assert join("left", [1, 1], [0, 1]) == [(1, 0, 10), (1, 1, 10)]
    assert gathered == []
    # ... and the gather is still there for every join that needs one.
    assert join("inner", [2, 9, 1], [0, 1, 2]) == [(2, 0, 20), (1, 2, 10)]  # a probe row misses
    assert join("left", [2, 9], [0, 1, 2]) == [(2, 0, 20), (9, 1, None)]  # ... and is padded
    assert join("inner", [1, 0], [0, 1, 1]) == [(1, 0, 10), (1, 0, 10), (0, 1, 0)]  # two matches
    # As many pairs as probe rows, but not one each: no shortcut.
    assert join("inner", [1, 9], [1, 1]) == [(1, 0, 10), (1, 0, 10)]
    assert gathered == [2, 2, 3, 2]


def test_an_aggregate_gathers_only_its_keys(monkeypatch):
    """The group representatives are gathered for the output keys alone:
    the measures come from the aggregate kernels, so gathering every
    input column at them was wasted work on each roll-up."""
    gathered = []
    take = Column.take

    def counting_take(self, indices):
        gathered.append(len(indices))
        return take(self, indices)

    table = Table.from_pydict(
        {"g": ["x", "y", "x", "z"], "h": [1, 2, 1, 2], "v": [1, 2, 3, 4], "w": [5, 6, 7, 8]}
    )
    specs = [AggSpec("s", "sum", "v", LogicalType.INT), AggSpec("m", "max", "w", LogicalType.INT)]
    sum_v = (("s", AggExpr("sum", ColumnRef("v"))),)
    monkeypatch.setattr(Column, "take", counting_take)
    for keys in ([], ["g"], ["g", "h"]):
        del gathered[:]
        aggregate_table(table, keys, specs)
        assert len(gathered) == len(keys), keys
        del gathered[:]
        execute_to_table(PHashAggregate(PScan(table), keys, specs))
        assert len(gathered) == len(keys), keys
        del gathered[:]
        rolled = apply_post_ops(table, [LocalAggregate(tuple(keys), sum_v)])
        assert len(gathered) == len(keys), keys
    assert rolled.to_rows() == [("x", 1, 4), ("y", 2, 2), ("z", 2, 4)]
    assert gathered == [3, 3]


def test_thread_pool_is_for_sources_that_wait(monkeypatch):
    pools = []

    class CountingPool(executor.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executor, "ThreadPoolExecutor", CountingPool)
    dataset = generate_flights(2_000, seed=1)
    tde = TdeDataSource(dataset.load_into_engine())
    assert tde.in_process
    _render(tde)
    assert pools == []  # computed inline, on the calling thread

    # An inert fault plan: the wrapper still models a remote source, and
    # must not inherit the inner engine's ``in_process`` by delegation.
    faulty = FaultyDataSource(tde, FaultPlan())
    assert not faulty.in_process
    _render(faulty)
    assert len(pools) >= 1 and all(workers > 1 for workers in pools)

    del pools[:]
    simdb = SimDbDataSource(dataset.load_into_simdb(ServerProfile(), name="warehouse"))
    assert not simdb.in_process
    _render(simdb)
    assert len(pools) >= 1 and all(workers > 1 for workers in pools)
