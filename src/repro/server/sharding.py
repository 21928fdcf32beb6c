"""Sharded TDE cluster: data partitioning in a distributed architecture.

Paper §7: "Substantial sizes of federated datasets and rapidly growing
popularity of our SaaS platform put more pressure on the Tableau Data
Engine to process larger extracts. Therefore, we are considering using
data partitioning in a distributed architecture."

This module realizes that plan with machinery the paper already describes:
the fact table is range-sharded across shared-nothing TDE nodes
(dimensions replicated), and aggregate queries run scatter-gather using
the *same local/global split* (``split_local_global``) as the intra-node
parallel aggregation of 4.2.3 — each shard computes partial aggregates,
the coordinator merges them. COUNT DISTINCT is handled by widening the local
grain with the distinct column (shards may then repeat a (group, value)
pair, which the coordinator's distinct count absorbs). Non-aggregate
queries concatenate shard results, with order/top-n/limit re-applied at
the coordinator.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ServerError
from ..expr.ast import AggExpr, Call, ColumnRef, Literal
from ..queries.postops import LocalProject, apply_post_ops
from ..tde.engine import DataEngine
from ..tde.exec.kernels import COUNTS, ROLLUP, lower_aggregates
from ..tde.exec.physical import aggregate_table
from ..tde.optimizer.parallel import PlannerOptions, split_local_global
from ..tde.optimizer.rules import rewrite_logical
from ..tde.storage.table import Table
from ..tde.tql.binder import bind
from ..tde.tql.parser import parse_tql
from ..tde.tql.plan import Aggregate, Limit, LogicalPlan, Order, Project, TopN


class ShardedTdeCluster:
    """Shared-nothing TDE nodes over a range-sharded fact table."""

    def __init__(
        self,
        n_nodes: int,
        loader: Callable[[DataEngine], None],
        shard_table: str,
        *,
        options: PlannerOptions | None = None,
    ):
        """``loader`` fills a staging engine; ``shard_table``'s rows are
        then split into contiguous ranges (preserving any sort order, so
        per-shard streaming aggregation keeps working) while every other
        table is replicated to all nodes.
        """
        if n_nodes < 1:
            raise ServerError("sharded cluster needs at least one node")
        staging = DataEngine("staging")
        loader(staging)
        if not staging.has_table(shard_table):
            raise ServerError(f"shard table {shard_table!r} was not loaded")
        self.shard_table = shard_table
        self.nodes: list[DataEngine] = []
        fact = staging.table(shard_table)
        bounds = np.linspace(0, fact.n_rows, n_nodes + 1).astype(np.int64)
        for i in range(n_nodes):
            node = DataEngine(f"shard{i}", options=options)
            loader(node)
            shard = fact.slice(int(bounds[i]), int(bounds[i + 1]))
            shard.sort_keys = fact.sort_keys  # contiguous slices stay sorted
            node.create_table(shard_table, shard, replace=True)
            self.nodes.append(node)
        self.scatter_queries = 0

    # ------------------------------------------------------------------ #
    def row_counts(self) -> list[int]:
        return [node.table(self.shard_table).n_rows for node in self.nodes]

    def query(self, tql: str) -> Table:
        """Run a query over the whole sharded dataset."""
        plan = rewrite_logical(parse_tql(tql), self.nodes[0].catalog)
        bind(plan, self.nodes[0].catalog)
        return self._execute(plan)

    # ------------------------------------------------------------------ #
    def _execute(self, plan: LogicalPlan) -> Table:
        if isinstance(plan, Aggregate):
            return self._scatter_aggregate(plan)
        if isinstance(plan, TopN):
            if isinstance(plan.child, Aggregate):
                merged = self._scatter_aggregate(plan.child)
            else:
                # Per-shard top-n bounds the shuffle; re-rank globally.
                merged = self._gather(TopN(plan.child, plan.n, plan.keys))
            return merged.sort_by(list(plan.keys)).head(plan.n)
        if isinstance(plan, Order):
            return self._execute(plan.child).sort_by(list(plan.keys))
        if isinstance(plan, Limit):
            return self._gather(Limit(plan.child, plan.n)).head(plan.n)
        return self._gather(plan)

    def _gather(self, plan: LogicalPlan) -> Table:
        """Run the same plan on every shard and concatenate (scatter).

        Shards run one after another on the calling thread, as the
        engine's own fragments do; parallel speed-ups of this shape are
        reproduced in virtual time (``sim/``)."""
        self.scatter_queries += 1
        return Table.concat([node.query(plan) for node in self.nodes])

    # ------------------------------------------------------------------ #
    def _scatter_aggregate(self, plan: Aggregate) -> Table:
        """Local/global decomposition across shards (cf. paper 4.2.3)."""
        distinct = [agg.arg for _alias, agg in plan.aggs if agg.func not in ROLLUP]
        if not all(isinstance(arg, ColumnRef) for arg in distinct):
            raise ServerError("scatter COUNT DISTINCT requires a plain column argument")
        grain = list(dict.fromkeys([*plan.groupby, *(arg.name for arg in distinct)]))
        schema = bind(plan.child, self.nodes[0].catalog)
        specs, pre_items, _ = lower_aggregates(grain, plan.aggs, schema)
        local, global_, final, _ = split_local_global(
            list(plan.groupby), [spec for spec in specs if spec.func in ROLLUP]
        )
        child = plan.child if pre_items is None else Project(plan.child, pre_items)
        aggs = [  # only COUNT(*) lowers to a spec without an argument
            (s.name, AggExpr("count") if s.arg is None else AggExpr(s.func, ColumnRef(s.arg)))
            for s in local
        ]
        partials = self._gather(Aggregate(child, grain, aggs))
        finished = dict(final)
        if distinct:
            # Partials of a finer grain: a scalar aggregate may merge none.
            for spec in specs:
                if spec.func not in ROLLUP:
                    global_.append(spec)
                elif spec.func in COUNTS:
                    finished[spec.name] = Call("ifnull", (finished[spec.name], Literal(0)))
        table = aggregate_table(partials, list(plan.groupby), global_)
        names = [*plan.groupby, *(spec.name for spec in specs)]
        items = [(name, finished.get(name, ColumnRef(name))) for name in names]
        return apply_post_ops(table, [LocalProject(items)])
