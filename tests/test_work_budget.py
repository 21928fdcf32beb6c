"""Work budgets: the Python call events seven user-facing surfaces make.

On a shared host, wall-clock pairs often cannot decide a change of a few
percent. Call events repeat exactly, and on a local op they *are* the
cost, so each surface asserts a ceiling on them (``obs.count_calls``).
A ceiling is the per-package count of the commit that set it. Ceilings
only go down: a change that lowers a count lowers its ceiling, and a
change that must cost more calls on a surface pays them back there. A
failure prints the per-package difference, so a regression names its
layer.

The counts depend on the interpreter and on numpy's Python wrappers, so
the ceilings hold for the versions they were counted on; elsewhere the
budget tests skip and only the repeatability test runs.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

from repro import obs
from repro.connectors import SimDbDataSource, TdeDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.pipeline import QueryPipeline
from repro.dashboard import DashboardSession
from repro.expr.ast import AggExpr
from repro.queries import QuerySpec
from repro.workloads import fig1_dashboard, fig2_dashboard, flights_model, generate_flights

#: (CPython, numpy) minor versions the ceilings were counted on.
COUNTED_ON = ("3.11", "2.4")

#: Surface -> package -> call events, at the commit that set the ceiling:
#: ``warm_render`` after cached derivations were compiled (1 583 before),
#: ``market_selection`` and ``origin_selection`` once a Top-N derived
#: from a provider ranked under no Top-N and a bound roll-up aggregated
#: dense group ids (294 on the entry an earlier remote selection left,
#: and 660), the other four once a send answered from its own fetch by
#: its plan's proof, with no read-back lookup, and string ``IN`` tested
#: membership without a generator frame per row (``cold_render``
#: 15 410, ``replan_render`` 18 520, ``simdb_market_selection`` 1 078
#: and 7 385 while the selection went remote, ``simdb_remote_op`` 5 120).
CEILINGS = {
    "cold_render": {
        "repro.tde.storage": 5939, "repro.expr": 1880, "repro.tde.exec": 1520, "numpy": 1279,
        "other": 953, "repro.core": 912, "repro.queries": 754, "repro.tde.tql": 668,
        "repro.datatypes": 271, "repro.obs": 268, "repro.dashboard": 117, "repro.connectors": 80,
        "repro.tde.engine": 70, "repro.tde.plancache": 70, "repro.collation": 44,
        "repro.faults": 1, "repro.tde.optimizer": 1,
    },
    "warm_render": {
        "repro.tde.storage": 193, "repro.dashboard": 117, "repro.obs": 98, "repro.tde.exec": 90,
        "numpy": 79, "repro.queries": 58, "other": 51, "repro.core": 43, "repro.datatypes": 16,
        "repro.expr": 10,
    },
    "origin_selection": {
        "repro.tde.storage": 118, "repro.dashboard": 117, "repro.queries": 113, "repro.obs": 71,
        "repro.tde.exec": 56, "numpy": 49, "other": 36, "repro.core": 28, "repro.datatypes": 22,
        "repro.expr": 20,
    },
    "market_selection": {
        "repro.tde.storage": 73, "repro.dashboard": 59, "repro.queries": 48, "repro.obs": 44,
        "repro.tde.exec": 18, "repro.datatypes": 14, "repro.core": 13, "numpy": 12, "other": 8,
        "repro.expr": 5,
    },
    "simdb_remote_op": {
        "repro.sql": 2956, "repro.tde.storage": 475, "repro.expr": 457, "repro.tde.tql": 368,
        "repro.tde.optimizer": 357, "repro.obs": 107, "numpy": 81, "repro.tde.exec": 79,
        "repro.queries": 63, "repro.core": 59, "repro.connectors": 56, "other": 37,
        "repro.tde.engine": 16, "repro.datatypes": 3, "repro.faults": 1,
    },
    "replan_render": {
        "repro.tde.storage": 6442, "repro.expr": 2657, "repro.tde.exec": 1751, "numpy": 1383,
        "other": 1053, "repro.tde.optimizer": 1046, "repro.tde.tql": 985, "repro.core": 912,
        "repro.queries": 754, "repro.datatypes": 297, "repro.obs": 272, "repro.dashboard": 117,
        "repro.connectors": 80, "repro.tde.plancache": 73, "repro.tde.engine": 70,
        "repro.collation": 44, "repro.faults": 1,
    },
    "simdb_market_selection": {
        "repro.tde.storage": 217, "repro.queries": 168, "repro.expr": 128, "numpy": 95,
        "repro.tde.exec": 83, "repro.core": 79, "repro.dashboard": 59, "repro.obs": 46,
        "other": 32, "repro.datatypes": 31,
    },
}


def _surfaces():
    """Surface -> a setup that readies one op and returns it uncounted."""
    engine = generate_flights(20_000, seed=1).load_into_engine()
    source = TdeDataSource(engine)
    model, fig1, fig2 = flights_model(), fig1_dashboard(), fig2_dashboard()
    warm = QueryPipeline(source, model)
    db = generate_flights(2_000, seed=1).load_into_simdb(ServerProfile(time_scale=0))
    remote = QueryPipeline(SimDbDataSource(db), model)
    carriers = QuerySpec("faa", ("carrier_name",), (("flights", AggExpr("count")),))

    def selection(dashboard, zone, marks=None, pipeline=warm):
        """Select ``marks`` (else the zone's top mark) on a rendered session."""
        session = DashboardSession(dashboard, pipeline)
        session.render()
        if marks is None:
            marks = session.zone_tables[zone].column(zone).python_values()[:1]
        return lambda: session.select(zone, marks)

    def cold(dashboard):
        return DashboardSession(dashboard, QueryPipeline(source, model)).render()

    def remote_op():
        remote.invalidate()
        return lambda: remote.run_spec(carriers)

    def replan():
        engine.plan_cache.invalidate()
        return lambda: cold(fig1)

    def remote_selection():
        remote.invalidate()
        return selection(fig2, "market", pipeline=remote)

    return {
        # A first user's load: a fresh pipeline, the engine's plan cache warm.
        "cold_render": lambda: lambda: cold(fig1),
        # A second user's load: every zone derived from the cache.
        "warm_render": lambda: lambda: DashboardSession(fig1, warm).render(),
        "origin_selection": lambda: selection(fig1, "origin_map", [5]),
        "market_selection": lambda: selection(fig2, "market"),
        "simdb_remote_op": remote_op,
        # The first load after a plan-cache miss (a refresh): the planner runs.
        "replan_render": replan,
        # A Fig-2 market selection right after a first load over simdb.
        "simdb_market_selection": remote_selection,
    }


@pytest.fixture(scope="module")
def counts():
    """Surface -> two counts of its op, after two uncounted runs: the
    first run fills the caches, the second makes the proofs that outlive
    the first run's puts. The collector is off while an op is counted:
    whether it runs depends on what ran before, and a collection calls
    other code's callbacks (hypothesis installs one)."""
    out = {}
    for name, setup in _surfaces().items():
        for _ in range(2):
            setup()()
        runs = []
        for _ in range(2):
            op = setup()
            gc.disable()
            try:
                with obs.count_calls() as counted:
                    op()
            finally:
                gc.enable()
            runs.append(counted)
        out[name] = runs
    return out


def test_counts_repeat_exactly(counts):
    for name, (first, second) in counts.items():
        assert first == second, name


@pytest.mark.parametrize("surface", sorted(CEILINGS))
def test_within_budget(counts, surface):
    running = ("%d.%d" % sys.version_info[:2], ".".join(np.__version__.split(".")[:2]))
    if running != COUNTED_ON:
        pytest.skip(f"ceilings counted on CPython {COUNTED_ON[0]} / numpy {COUNTED_ON[1]}")
    got, ceiling = counts[surface][0], CEILINGS[surface]
    diff = {p: got[p] - ceiling.get(p, 0) for p in sorted(set(got) | set(ceiling))}
    assert sum(got.values()) <= sum(ceiling.values()), (
        f"{surface}: {sum(got.values())} call events, ceiling {sum(ceiling.values())}; "
        f"by package: { {p: d for p, d in diff.items() if d} }"
    )
