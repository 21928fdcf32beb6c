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

The planner's :func:`foreign_key_space` moves a dimension join between an
aggregate's local and global phases (4.2.3) instead of removing it.
"""

from __future__ import annotations

from typing import Sequence

from ...expr.ast import ColumnRef, columns_used
from ..exec.kernels import ROLLUP
from ..tql.plan import (
    Aggregate,
    GroupingSet,
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
        # A dimension stays if any one set reads it; whether it is then
        # joined to the fact rows or to the partials is the planner's
        # call (``foreign_key_space``).
        reads = [s.reads() for s in plan.sets]
        return GroupingSets(_cull(plan.child, set().union(*reads), catalog), plan.sets)
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


# ---------------------------------------------------------------------- #
# Foreign-key space: dimension joins above the partial aggregates
# ---------------------------------------------------------------------- #
_RULE = "culling.foreign_key_space"
#: A set joins a dimension to its partials' results, or needs no join.
_DEFER, _SKIP = "defer", "skip"
#: Fact rows per dimension row in a fragment, at least: grouping by the
#: foreign key multiplies a partial's groups by at most the dimension's
#: rows, so joins above the partials stay far below the probes they save.
_FACT_ROWS_PER_DIMENSION_ROW = 16


def foreign_key_space(
    sets: Sequence[GroupingSet], relation: LogicalPlan, catalog: StorageCatalog, fragments: int
) -> tuple[LogicalPlan, list[tuple[GroupingSet, tuple[Join, ...]]]]:
    """Plan aggregations of ``relation`` over N:1 dimension joins in
    foreign-key space where that is safe (paper 4.1.2 meets 4.2.3).

    A set that reads a dimension's columns only as group keys can group
    its partials by the fact's join key, which determines them, and join
    the dimension to their results before its global phase. An inner
    join drops orphan and NULL-key groups there as it drops their rows
    before; a left join folds them into its NULL group. Returns
    ``relation`` without the joins no set needs below its partial, and
    per set ``(set to plan over it, joins its global phase applies)``,
    independent of the other sets. ``fragments``: most a scan makes.
    """
    dims = _dimension_joins(relation, catalog, fragments)
    if not dims:
        return relation, [(s, ()) for s in sets]
    sets = [_pruned(s) for s in sets]
    verdicts = [[_verdict(s, _reads(s), *dim, catalog) for dim in dims] for s in sets]
    dropped = set()
    for k, (join, *_) in enumerate(dims):
        mine = [v[k] for v in verdicts]
        if all(v in (_DEFER, _SKIP) for v in mine):
            dropped.add(id(join))
        if provenance.active():
            _note(join, mine)
    planned = [
        _in_space(s, [d[0] for d, v in zip(dims, vs) if v == _DEFER], catalog)
        for s, vs in zip(sets, verdicts)
    ]
    return _without(relation, dropped), planned


def _pruned(s: GroupingSet) -> GroupingSet:
    """``s`` without the projection items it does not read (and with none
    rather than an empty one, which would lose the row count)."""
    if s.items is None:
        return s
    read = set(s.groupby).union(*(columns_used(agg.arg) for _, agg in s.aggs))
    return GroupingSet(s.groupby, s.aggs, [(n, e) for n, e in s.items if n in read] or None)


def _dimension_joins(relation: LogicalPlan, catalog: StorageCatalog, fragments: int):
    """The joins down ``relation``'s probe side, outermost first, each
    with the columns read above it (by filters, by the conditions of the
    joins above it) and the rows of one fragment of the fact table."""
    found, filtered, conditions = [], set(), set()
    node = relation
    while isinstance(node, (Select, Join)):
        if isinstance(node, Select):
            filtered |= columns_used(node.predicate)
            node = node.child
            continue
        found.append((node, frozenset(filtered), frozenset(conditions)))
        conditions |= {l for l, _ in node.conditions}
        node = node.left
    rows = catalog.row_count(node.table) if isinstance(node, TableScan) else 0
    return [(*dim, rows // max(1, fragments)) for dim in found]


def _reads(s: GroupingSet) -> tuple[set[str], dict[str, str]]:
    """The columns ``s`` groups by, and how it reads the others: by a
    ``measure`` or by a ``calculation`` of its projection."""
    measured = set().union(*(columns_used(agg.arg) for _, agg in s.aggs))
    if s.items is None:
        return set(s.groupby), dict.fromkeys(measured, "measure")
    passed = {n for n, e in s.items if e == ColumnRef(n)}
    other = {c: "calculation" for n, e in s.items if n not in passed for c in columns_used(e)}
    return passed & set(s.groupby), {**other, **dict.fromkeys(passed & measured, "measure")}


def _verdict(s, reads, join: Join, filtered, conditions, fragment_rows: int, catalog) -> str:
    """_DEFER, _SKIP, or why ``join`` must stay below ``s``'s partial."""
    if not isinstance(join.right, TableScan):
        return "its build side is not a base-table scan"
    table, keys = join.right.table, tuple(r for _, r in join.conditions)
    if not catalog.meta(table).is_unique(keys):
        return f"its key {list(keys)} is not declared unique"
    attrs = set(catalog.schema_of(table)) - set(keys)
    grouped, other = reads
    other = {**dict.fromkeys(filtered, "filter"), **dict.fromkeys(conditions, "join"), **other}
    if attrs & set(other):
        column = min(attrs & set(other))
        return f"its column {column} is read by a {other[column]}"
    left_keys = [l for l, _ in join.conditions]
    if not attrs & grouped:
        fk = _find_fk(join.left, left_keys, table, keys, catalog)
        if join.kind == "left" or (fk is not None and fk.total):
            return _SKIP  # not read, and joining it changes no row
    if unmerged := [agg.func for _, agg in s.aggs if agg.func not in ROLLUP]:
        return f"{unmerged[0]} has no partial to merge"
    if not s.groupby:
        return "the aggregate has no keys: an empty partial would lose its one row"
    rows = catalog.row_count(table)
    if rows * _FACT_ROWS_PER_DIMENSION_ROW > fragment_rows:
        return f"its {rows} rows are not small next to a {fragment_rows}-row fragment"
    if {n for n, e in s.items or () if e != ColumnRef(n)} & set(left_keys):
        return f"the set's projection computes a column named like its join key {left_keys}"
    return _DEFER


def _in_space(s: GroupingSet, joins: list[Join], catalog):
    """``s`` grouping by each join key of ``joins`` where the first column
    of its dimension was, and those joins innermost first."""
    if not joins:
        return s, ()
    moved: dict[str, list[str]] = {}
    join_keys = []
    for join in joins:
        left, right = [l for l, _ in join.conditions], {r for _, r in join.conditions}
        moved.update(dict.fromkeys(set(catalog.schema_of(join.right.table)) - right, left))
        join_keys += left
    items = s.items
    if items is not None:
        # A set reads a moved column only through an item passing it on.
        moved = {n: moved[n] for n, e in items if n in moved and e == ColumnRef(n)}
        names = {n for n, _ in items}
        items = [(n, e) for n, e in items if n not in moved]
        items += [(k, ColumnRef(k)) for k in dict.fromkeys(join_keys) if k not in names]
    keys = [k for key in s.groupby for k in moved.get(key, [key])] + join_keys
    return GroupingSet(list(dict.fromkeys(keys)), s.aggs, items), tuple(reversed(joins))


def _without(plan: LogicalPlan, joins: set[int]) -> LogicalPlan:
    """``plan`` with the joins whose ``id`` is in ``joins`` dropped."""
    if not joins:
        return plan
    if isinstance(plan, Select):
        return Select(_without(plan.child, joins), plan.predicate)
    if isinstance(plan, Join):
        left = _without(plan.left, joins)
        return left if id(plan) in joins else Join(plan.kind, plan.conditions, left, plan.right)
    return plan


def _note(join: Join, verdicts: list[str]) -> None:
    table = next(n.table for n in join.right.walk() if isinstance(n, TableScan))
    kept = [(i, v) for i, v in enumerate(verdicts) if v not in (_DEFER, _SKIP)]
    if kept:
        detail = f"join to {table} kept below the partials: {kept[0][1]} (set {kept[0][0]})"
    else:
        keys = ", ".join(l for l, _ in join.conditions)
        detail = f"join to {table} moved above the partials, grouped by {keys}"
    deferred = [i for i, v in enumerate(verdicts) if v == _DEFER]
    provenance.note(_RULE, not kept, detail, table=table, sets=[i for i, _ in kept] or deferred)
