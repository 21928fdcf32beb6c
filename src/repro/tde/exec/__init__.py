"""Volcano-style vectorized execution engine (paper 4.1.3, 4.2).

Physical operators pull batches (small Tables) from their children.
Operators are *streaming* (Filter, Project, Limit, the probe side of
HashJoin) or *stop-and-go* (Sort, TopN, HashAggregate, the build side of
HashJoin). Plans keep the paper's 4.2.1 parallel shapes, the Exchange /
SharedTable / FractionTable trio (``exchange.py``); their fragments run
inline, and ``repro.sim.machine`` replays them on virtual cores.
"""

from .physical import (
    ExecContext,
    PhysNode,
    PScan,
    PIndexedRleScan,
    PFilter,
    PProject,
    PHashJoin,
    PHashAggregate,
    PStreamAggregate,
    PSort,
    PTopN,
    PLimit,
    execute_to_table,
)
from .exchange import PExchange, SharedBuild, FractionTable

__all__ = [
    "ExecContext",
    "PhysNode",
    "PScan",
    "PIndexedRleScan",
    "PFilter",
    "PProject",
    "PHashJoin",
    "PHashAggregate",
    "PStreamAggregate",
    "PSort",
    "PTopN",
    "PLimit",
    "PExchange",
    "SharedBuild",
    "FractionTable",
    "execute_to_table",
]
