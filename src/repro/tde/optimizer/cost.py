"""Cost model: cardinality estimation and per-operator cost formulas.

Costs are in abstract *work units* (one unit ≈ one simple arithmetic
operation on one row). The same constants drive three consumers:

* the physical planner's operator choices (streaming vs hash aggregate,
  RLE index scan vs plain scan);
* the parallel plan generator's degree-of-parallelism decision, including
  the function cost profile ("the cost constants are obtained by empirical
  measuring", paper 4.2.2);
* the virtual-time machine (``repro.sim``) that replays physical plans on
  a simulated multicore host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ...expr.ast import AggExpr, Call, CaseWhen, Cast, ColumnRef, Expr, Literal
from ...expr.functions import function_cost
from ..exec.exchange import PExchange, SharedBuild
from ..exec.fused import PFusedPipeline
from ..exec.grouping import PGroupingSet, PGroupingSets, PSharedInput
from ..exec.physical import (
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
    PWindow,
    PhysNode,
)
from ..tql.plan import (
    Aggregate,
    Distinct,
    GroupingSets,
    Join,
    Limit,
    LogicalPlan,
    Order,
    Project,
    Select,
    TableScan,
    TopN,
    Window,
)
from .catalog import StorageCatalog

#: Per-row work-unit constants (empirically shaped, see bench_e8).
SCAN_ROW = 1.0
FILTER_ROW = 0.5
PROJECT_ROW = 0.4
JOIN_BUILD_ROW = 3.0
JOIN_PROBE_ROW = 2.0
AGG_HASH_ROW = 2.5
AGG_STREAM_ROW = 1.2
SORT_ROW_LOG = 1.4
TOPN_ROW = 1.1
EXCHANGE_ROW = 0.12
EXCHANGE_SETUP = 2_000.0
DEFAULT_SELECTIVITY = 0.25
EQ_BASE_SELECTIVITY = 0.05
#: Shipping one result row from a server to the client: the default
#: simulated server's per-row transfer time over its work-unit time.
TRANSFER_ROW = 10.0


def expr_cost(expr: Expr | AggExpr | None) -> float:
    """Per-row cost weight of evaluating an expression tree."""
    if expr is None:
        return 0.0
    if isinstance(expr, AggExpr):
        return 1.0 + expr_cost(expr.arg)
    total = 0.0
    for node in expr.walk():
        if isinstance(node, Call):
            total += function_cost(node.func)
            if node.func == "in":
                lst = node.args[1]
                if isinstance(lst, Literal) and isinstance(lst.value, tuple):
                    total += 0.05 * len(lst.value)
        elif isinstance(node, Cast):
            total += 1.5
        elif isinstance(node, CaseWhen):
            total += 2.0
        elif isinstance(node, (ColumnRef, Literal)):
            total += 0.1
    return total


def estimate_selectivity(predicate: Expr, schema_rows: int | None = None) -> float:
    """Crude textbook selectivity estimate for a predicate."""
    if isinstance(predicate, Call):
        if predicate.func == "and":
            return min(1.0, estimate_selectivity(predicate.args[0]) * estimate_selectivity(predicate.args[1]))
        if predicate.func == "or":
            a = estimate_selectivity(predicate.args[0])
            b = estimate_selectivity(predicate.args[1])
            return min(1.0, a + b - a * b)
        if predicate.func == "not":
            return max(0.0, 1.0 - estimate_selectivity(predicate.args[0]))
        if predicate.func == "=":
            return EQ_BASE_SELECTIVITY
        if predicate.func == "in":
            lst = predicate.args[1]
            k = len(lst.value) if isinstance(lst, Literal) and isinstance(lst.value, tuple) else 4
            return min(1.0, EQ_BASE_SELECTIVITY * max(k, 1))
        if predicate.func in ("<", "<=", ">", ">="):
            return 0.3
    return DEFAULT_SELECTIVITY


@dataclass
class CostEstimate:
    rows: int
    cost: float


def estimate_groups(rows: float, keyed: bool) -> float:
    """Groups a group-by over ``rows`` rows is expected to produce."""
    return max(1.0, min(rows, rows**0.75)) if keyed else 1.0


def estimate_plan(plan: LogicalPlan, catalog: StorageCatalog) -> CostEstimate:
    """Estimate output cardinality and total serial work of a plan."""
    if isinstance(plan, TableScan):
        rows = catalog.row_count(plan.table)
        return CostEstimate(rows, rows * SCAN_ROW)
    if isinstance(plan, Select):
        child = estimate_plan(plan.child, catalog)
        sel = estimate_selectivity(plan.predicate)
        rows = max(1, int(child.rows * sel))
        return CostEstimate(rows, child.cost + child.rows * (FILTER_ROW + expr_cost(plan.predicate)))
    if isinstance(plan, Project):
        child = estimate_plan(plan.child, catalog)
        per_row = PROJECT_ROW + sum(expr_cost(e) for _, e in plan.items)
        return CostEstimate(child.rows, child.cost + child.rows * per_row)
    if isinstance(plan, Join):
        left = estimate_plan(plan.left, catalog)
        right = estimate_plan(plan.right, catalog)
        rows = max(left.rows, 1)  # FK joins keep probe cardinality
        cost = left.cost + right.cost + right.rows * JOIN_BUILD_ROW + left.rows * JOIN_PROBE_ROW
        return CostEstimate(rows, cost)
    if isinstance(plan, Aggregate):
        child = estimate_plan(plan.child, catalog)
        groups = int(estimate_groups(child.rows, bool(plan.groupby)))
        per_row = AGG_HASH_ROW + sum(expr_cost(a) for _, a in plan.aggs)
        return CostEstimate(groups, child.cost + child.rows * per_row)
    if isinstance(plan, GroupingSets):
        # Every set's aggregation, but the child only once.
        child = estimate_plan(plan.child, catalog)
        alone = [estimate_plan(s.over(plan.child), catalog) for s in plan.sets]
        return CostEstimate(
            sum(e.rows for e in alone), child.cost + sum(e.cost - child.cost for e in alone)
        )
    if isinstance(plan, Distinct):
        child = estimate_plan(plan.child, catalog)
        groups = max(1, int(child.rows ** 0.75))
        return CostEstimate(groups, child.cost + child.rows * AGG_HASH_ROW)
    if isinstance(plan, Order):
        child = estimate_plan(plan.child, catalog)
        n = max(child.rows, 2)
        return CostEstimate(child.rows, child.cost + n * math.log2(n) * SORT_ROW_LOG)
    if isinstance(plan, TopN):
        child = estimate_plan(plan.child, catalog)
        return CostEstimate(min(child.rows, plan.n), child.cost + child.rows * TOPN_ROW)
    if isinstance(plan, Limit):
        child = estimate_plan(plan.child, catalog)
        return CostEstimate(min(child.rows, plan.n), child.cost)
    if isinstance(plan, Window):
        child = estimate_plan(plan.child, catalog)
        n = max(child.rows, 2)
        per_item = n * math.log2(n) * SORT_ROW_LOG + n * 1.5
        return CostEstimate(child.rows, child.cost + per_item * max(len(plan.items), 1))
    raise TypeError(f"unknown plan node {type(plan).__name__}")


def topn_pass_costs(relation: LogicalPlan, ranked: LogicalPlan, rows: int, catalog):
    """``(second pass, transfer)`` of a Top-N filter over ``relation``: the
    work ``ranked`` (joined to its ranking subquery) adds on the server,
    and that of shipping ``rows`` aggregate rows for the client to rank."""
    second_pass = estimate_plan(ranked, catalog).cost - estimate_plan(relation, catalog).cost
    return second_pass, rows * TRANSFER_ROW


# ---------------------------------------------------------------------- #
# Physical operators
# ---------------------------------------------------------------------- #
def operator_work(node: PhysNode, rows_in: Sequence[float]) -> tuple[float, float]:
    """``(work units, output rows)`` of one physical operator on its own,
    given the output rows of each of its ``children()`` in order.

    Every :class:`PhysNode` subclass has a formula here; the simulator
    (``repro.sim.machine``) adds only how operators overlap in time.
    """
    if isinstance(node, PScan):
        stop = node.table.n_rows if node.stop is None else node.stop
        return _scan_work(max(stop - node.start, 0), node.predicate)
    if isinstance(node, PIndexedRleScan):
        rows = node.table.n_rows
        runs = getattr(node.table.column(node.column).physical, "n_runs", rows)
        scanned = rows * estimate_selectivity(node.predicate)
        own = runs * (FILTER_ROW + expr_cost(node.predicate)) + scanned * SCAN_ROW
        if node.residual is not None:
            own += scanned * (FILTER_ROW + expr_cost(node.residual))
            scanned *= estimate_selectivity(node.residual)
        return own, scanned
    if isinstance(node, PSharedInput):
        return 0.0, node.est_rows
    if isinstance(node, PFusedPipeline):
        own = 0.0
        if node.table is not None:
            stop = node.table.n_rows if node.stop is None else node.stop
            own, rows = _scan_work(max(stop - node.start, 0), node.predicate)
        else:
            (rows,) = rows_in
            if node.predicate is not None:
                own = rows * (FILTER_ROW + expr_cost(node.predicate))
                rows *= estimate_selectivity(node.predicate)
        if node.items is not None:
            own += rows * (PROJECT_ROW + sum(expr_cost(e) for _n, e in node.items))
        if node.specs is not None:
            own += rows * AGG_HASH_ROW * max(1, len(node.specs))
            rows = estimate_groups(rows, bool(node.groupby))
        return own, rows
    if isinstance(node, PHashJoin):
        probe_rows, build_rows = rows_in
        return build_rows * JOIN_BUILD_ROW + probe_rows * JOIN_PROBE_ROW, probe_rows
    if isinstance(node, PExchange):
        return sum(rows_in) * EXCHANGE_ROW, sum(rows_in)
    if isinstance(node, PGroupingSets):
        # Its own work is tagging and stacking the sets' answers.
        answers = sum(rows_in[: len(node.sets)])
        return answers * EXCHANGE_ROW, answers
    if isinstance(node, (SharedBuild, PGroupingSet)):
        return 0.0, rows_in[0]
    (rows,) = rows_in
    if isinstance(node, PFilter):
        own = rows * (FILTER_ROW + expr_cost(node.predicate))
        return own, rows * estimate_selectivity(node.predicate)
    if isinstance(node, PProject):
        return rows * (PROJECT_ROW + sum(expr_cost(e) for _n, e in node.items)), rows
    if isinstance(node, (PHashAggregate, PStreamAggregate)):
        per_row = AGG_STREAM_ROW if isinstance(node, PStreamAggregate) else AGG_HASH_ROW
        groups = estimate_groups(rows, bool(node.groupby))
        return rows * per_row * max(1, len(node.specs)), groups
    if isinstance(node, PSort):
        n = max(rows, 2.0)
        return n * math.log2(n) * SORT_ROW_LOG, rows
    if isinstance(node, PWindow):
        n = max(rows, 2.0)
        per_item = n * math.log2(n) * SORT_ROW_LOG + n * 1.5
        return per_item * max(len(node.items), 1), rows
    if isinstance(node, PTopN):
        return rows * TOPN_ROW, min(rows, node.n)
    if isinstance(node, PLimit):
        return 0.0, min(rows, node.n)
    raise TypeError(f"no cost formula for {type(node).__name__}")


def _scan_work(rows: float, predicate: Expr | None) -> tuple[float, float]:
    own = rows * SCAN_ROW
    if predicate is None:
        return own, rows
    own += rows * (FILTER_ROW + expr_cost(predicate))
    return own, rows * estimate_selectivity(predicate)
