"""Join culling: unused-dimension removal and fact-table culling.

Paper 4.1.2: "removal of unnecessary joins ... removal of the fact table
from a join is critical for performance of domain queries, frequently sent
by Tableau." Both rules are guarded by declared metadata
(:class:`~repro.tde.optimizer.catalog.TableMeta`,
:class:`~repro.tde.optimizer.catalog.ForeignKey`), so they only fire when
provably result-preserving:

* **Dimension removal** — an inner join to a dimension whose columns are
  never referenced above, joined on the dimension's unique key through a
  *total* foreign key (no orphans, non-NULL), is a no-op per fact row.
* **Fact culling** — a domain query (pure GROUP BY, no aggregates) whose
  keys all come from the dimension side can be answered from the dimension
  alone when the foreign key is declared *onto* (every dimension key
  occurs in the fact table).
"""

from __future__ import annotations

from ...expr.ast import columns_used
from ..tql.plan import (
    Aggregate,
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
from . import provenance
from .catalog import StorageCatalog


def cull_joins(plan: LogicalPlan, catalog: StorageCatalog) -> LogicalPlan:
    """Apply both culling rules everywhere they are provably safe."""
    return _cull(plan, None, catalog)


def _cull(plan: LogicalPlan, needed: set[str] | None, catalog: StorageCatalog) -> LogicalPlan:
    if isinstance(plan, TableScan):
        return plan
    if isinstance(plan, Select):
        child_needed = None if needed is None else needed | columns_used(plan.predicate)
        return Select(_cull(plan.child, child_needed, catalog), plan.predicate)
    if isinstance(plan, Project):
        child_needed: set[str] = set()
        for _name, expr in plan.items:
            child_needed |= columns_used(expr)
        return Project(_cull(plan.child, child_needed, catalog), plan.items)
    if isinstance(plan, Aggregate):
        culled = _try_fact_culling(plan, catalog)
        if culled is not None:
            return culled
        child_needed = set(plan.groupby)
        for _name, agg in plan.aggs:
            if agg.arg is not None:
                child_needed |= columns_used(agg.arg)
        return Aggregate(_cull(plan.child, child_needed, catalog), plan.groupby, plan.aggs)
    if isinstance(plan, GroupingSets):
        # A dimension stays if any one set reads it: the join is an N:1
        # probe the sets then share, not one each.
        reads = [s.reads() for s in plan.sets]
        child = _cull(plan.child, set().union(*reads), catalog)
        if provenance.active():
            _note_shared_joins(child, reads, catalog)
        return GroupingSets(child, plan.sets)
    if isinstance(plan, (Order, TopN)):
        child_needed = None if needed is None else needed | {k for k, _ in plan.keys}
        child = _cull(plan.child, child_needed, catalog)
        if isinstance(plan, Order):
            return Order(child, plan.keys)
        return TopN(child, plan.n, plan.keys)
    if isinstance(plan, Limit):
        return Limit(_cull(plan.child, needed, catalog), plan.n)
    if isinstance(plan, Join):
        return _cull_join(plan, needed, catalog)
    if isinstance(plan, Window):
        return Window(_cull(plan.child, None, catalog), plan.items)
    return plan


def _cull_join(join: Join, needed: set[str] | None, catalog: StorageCatalog) -> LogicalPlan:
    removed = _try_dimension_removal(join, needed, catalog)
    if removed is not None:
        return _cull(removed, needed, catalog)
    left = _cull(join.left, _side_needed(needed, [l for l, _ in join.conditions]), catalog)
    right = _cull(join.right, _side_needed(needed, [r for _, r in join.conditions]), catalog)
    return Join(join.kind, join.conditions, left, right)


def _note_shared_joins(child: LogicalPlan, reads: list[set[str]], catalog) -> None:
    """Say which sets each surviving dimension join is kept for."""
    for node in child.walk():
        if not isinstance(node, Join) or not isinstance(node.right, TableScan):
            continue
        table = node.right.table
        columns = set(catalog.schema_of(table)) - {r for _, r in node.conditions}
        users = [i for i, needed in enumerate(reads) if needed & columns]
        if users and len(users) < len(reads):
            used = sorted(columns & set().union(*(reads[i] for i in users)))
            provenance.note(
                "culling.grouping_sets",
                False,
                f"join to {table} kept for set{'s' if len(users) > 1 else ''} "
                f"{', '.join(map(str, users))} ({', '.join(used)}); the other "
                f"{len(reads) - len(users)} do not read it and share its probe",
                table=table,
                sets=users,
            )


def _side_needed(needed: set[str] | None, keys: list[str]) -> set[str] | None:
    if needed is None:
        return None
    return needed | set(keys)


def _try_dimension_removal(
    join: Join, needed: set[str] | None, catalog: StorageCatalog
) -> LogicalPlan | None:
    """Drop an inner join whose right side contributes nothing."""
    rule = "culling.dimension_removal"
    if needed is None or join.kind != "inner":
        if needed is not None:
            provenance.note(rule, False, f"{join.kind} join: only inner joins are removable")
        return None
    if not isinstance(join.right, TableScan):
        provenance.note(rule, False, "build side is not a base-table scan")
        return None
    right_table = join.right.table
    right_keys = tuple(r for _, r in join.conditions)
    right_out = set(catalog.schema_of(right_table)) - set(right_keys)
    if needed & right_out:
        provenance.note(
            rule,
            False,
            f"{right_table} columns {sorted(needed & right_out)} are referenced above the join",
            table=right_table,
        )
        return None
    if not catalog.meta(right_table).is_unique(right_keys):
        provenance.note(
            rule,
            False,
            f"{right_table}{list(right_keys)} is not declared unique",
            table=right_table,
        )
        return None
    fk = _find_fk(join.left, [l for l, _ in join.conditions], right_table, right_keys, catalog)
    if fk is None or not fk.total:
        provenance.note(
            rule,
            False,
            f"no total foreign key onto {right_table}{list(right_keys)}"
            if fk is None
            else f"foreign key to {right_table} admits orphans (not total)",
            table=right_table,
        )
        return None
    provenance.note(
        rule,
        True,
        f"dropped join to {right_table}: no columns needed, key unique, FK total",
        table=right_table,
    )
    return join.left


def _try_fact_culling(agg: Aggregate, catalog: StorageCatalog) -> LogicalPlan | None:
    """Answer a domain query from the dimension table alone."""
    rule = "culling.fact_culling"
    if agg.aggs:
        return None  # not a domain query; too common to note
    child = agg.child
    pre_filter = None
    if isinstance(child, Select):
        pre_filter = child.predicate
        child = child.child
    if not isinstance(child, Join) or child.kind != "inner":
        return None
    if not isinstance(child.right, TableScan) or not isinstance(child.left, TableScan):
        provenance.note(rule, False, "join sides are not both base-table scans")
        return None
    right_table = child.right.table
    right_keys = tuple(r for _, r in child.conditions)
    right_cols = set(catalog.schema_of(right_table))
    if not set(agg.groupby) <= (right_cols - set(right_keys)):
        provenance.note(
            rule,
            False,
            f"group-by columns are not all non-key columns of {right_table}",
            table=right_table,
        )
        return None
    if pre_filter is not None and not columns_used(pre_filter) <= (right_cols - set(right_keys)):
        provenance.note(
            rule, False, "filter references fact-side columns", table=right_table
        )
        return None
    if not catalog.meta(right_table).is_unique(right_keys):
        provenance.note(
            rule,
            False,
            f"{right_table}{list(right_keys)} is not declared unique",
            table=right_table,
        )
        return None
    fk = catalog.foreign_key(
        child.left.table, tuple(l for l, _ in child.conditions), right_table, right_keys
    )
    if fk is None or not fk.onto or not fk.total:
        provenance.note(
            rule,
            False,
            "foreign key is missing or not declared total+onto "
            "(every dimension key must occur in the fact table)",
            table=right_table,
        )
        return None
    provenance.note(
        rule,
        True,
        f"domain query answered from {right_table} alone (fact table "
        f"{child.left.table} culled)",
        table=right_table,
        fact=child.left.table,
    )
    base: LogicalPlan = child.right
    if pre_filter is not None:
        base = Select(base, pre_filter)
    return Aggregate(base, agg.groupby, ())


def _find_fk(left: LogicalPlan, left_keys: list[str], parent: str, parent_keys, catalog):
    """Find a declared FK from any base table in the left subtree.

    Column identity is by name: the engine's workloads keep fact FK column
    names stable through the plan, which the scan-level check enforces.
    """
    for node in left.walk():
        if isinstance(node, TableScan):
            fk = catalog.foreign_key(node.table, tuple(left_keys), parent, tuple(parent_keys))
            if fk is not None:
                return fk
    return None
