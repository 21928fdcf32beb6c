"""Physical planning: logical plan → (possibly parallel) physical plan.

Implements the paper's bottom-up parallel plan generation (4.2.2):

1. at TableScan the optimizer decides a fraction count N ≥ 1 from metadata
   and the expression cost profile of the pipeline above;
2. flow operators (Select, Project) inherit the degree of parallelism;
3. stop-and-go operators (Aggregate, Order, TopN) close the region with an
   Exchange — except aggregates, which prefer local/global aggregation or,
   when a range partition on a sort-prefix group-by column is available,
   run fully parallel with no global phase at all (Lemmas 1–3, 4.2.3);
4. joins parallelize their left (fact) side and share a single build-side
   table across fragments (Figure 4);
5. an Exchange at the root closes any remaining parallelism.

Aggregate partition requirements are pushed down to the nearest scan
("the TableScan only gets the partition requirements from the nearest
Aggregate operator", 4.2.3).
"""

from __future__ import annotations

from ...errors import OptimizerError
from ...expr.ast import ColumnRef, columns_used, conjuncts
from ..exec.exchange import FractionTable, SharedBuild
from ..exec.grouping import PGroupingSet, PGroupingSets, PSharedInput
from ..exec.kernels import lower_aggregates
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
from ..storage.table import Table
from ..tql.binder import bind
from ..tql.plan import (
    Aggregate,
    Distinct,
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
from .cost import estimate_groups, estimate_plan, expr_cost
from .culling import foreign_key_space
from .decompression import choose_rle_scan
from .parallel import (
    Fragments,
    PlannerOptions,
    close_fragments,
    decide_dop,
    split_local_global,
)
from .properties import grouping_satisfied_by_order, range_partition_key, sorted_prefix
from .rules import fuse_pipelines, rewrite_logical


def plan_query(
    logical: LogicalPlan,
    catalog: StorageCatalog,
    options: PlannerOptions | None = None,
    *,
    rewrite: bool = True,
) -> PhysNode:
    """Produce an executable physical plan for a logical query."""
    options = options or PlannerOptions()
    if rewrite:
        logical = rewrite_logical(logical, catalog)
    bind(logical, catalog)  # validate before committing to a plan
    frags = _build(logical, catalog, options, needed=None, hint=0.0, partition_req=())
    plan = close_fragments(frags)
    if options.enable_pipeline_fusion:
        plan = fuse_pipelines(plan, options)
    return plan


# ---------------------------------------------------------------------- #
# Recursive construction
# ---------------------------------------------------------------------- #
def _build(
    plan: LogicalPlan,
    catalog: StorageCatalog,
    options: PlannerOptions,
    *,
    needed: set[str] | None,
    hint: float,
    partition_req: tuple[str, ...],
) -> Fragments:
    if isinstance(plan, TableScan):
        return _build_scan(plan, catalog, options, needed, hint, partition_req, None)
    if isinstance(plan, Select):
        return _build_select(plan, catalog, options, needed, hint, partition_req)
    if isinstance(plan, Project):
        return _build_project(plan, catalog, options, needed, hint, partition_req)
    if isinstance(plan, Join):
        return _build_join(plan, catalog, options, needed, hint, partition_req)
    if isinstance(plan, Aggregate):
        return _build_aggregate(plan, catalog, options, hint)
    if isinstance(plan, GroupingSets):
        return _build_grouping_sets(plan, catalog, options, hint)
    if isinstance(plan, Distinct):
        # Normalization-independent path (used when rewrites are skipped).
        return _build_aggregate(Aggregate(plan.child, plan.columns, ()), catalog, options, hint)
    if isinstance(plan, Order):
        frags = _build(
            plan.child,
            catalog,
            options,
            needed=_extend(needed, [k for k, _ in plan.keys]),
            hint=hint,
            partition_req=(),
        )
        return Fragments([PSort(close_fragments(frags), list(plan.keys))])
    if isinstance(plan, TopN):
        frags = _build(
            plan.child,
            catalog,
            options,
            needed=_extend(needed, [k for k, _ in plan.keys]),
            hint=hint,
            partition_req=(),
        )
        if frags.degree > 1:
            # Local/global TopN (paper 4.2.3): each fragment keeps its own
            # top n, the Exchange merges, a global TopN finishes.
            locals_ = [PTopN(node, plan.n, list(plan.keys)) for node in frags.nodes]
            merged = close_fragments(Fragments(locals_))
            return Fragments([PTopN(merged, plan.n, list(plan.keys))])
        return Fragments([PTopN(frags.nodes[0], plan.n, list(plan.keys))])
    if isinstance(plan, Limit):
        frags = _build(
            plan.child, catalog, options, needed=needed, hint=hint, partition_req=()
        )
        return Fragments([PLimit(close_fragments(frags), plan.n)])
    if isinstance(plan, Window):
        # Window calculations need every input column (the output carries
        # them all) and are stop-and-go: close any parallelism first.
        frags = _build(
            plan.child, catalog, options, needed=None, hint=hint, partition_req=()
        )
        return Fragments([PWindow(close_fragments(frags), list(plan.items))])
    raise OptimizerError(f"cannot plan {type(plan).__name__} (rewrite first?)")


def _extend(needed: set[str] | None, extra) -> set[str] | None:
    if needed is None:
        return None
    return needed | set(extra)


def _scan_columns(table: Table, needed: set[str] | None) -> list[str] | None:
    if needed is None:
        return None
    columns = [c for c in table.column_names if c in needed]
    if not columns and table.column_names:
        # COUNT(*)-style queries need row counts even with no columns
        # referenced; keep the cheapest column as a row carrier.
        cheapest = min(table.column_names, key=lambda c: table.column(c).nbytes)
        columns = [cheapest]
    return columns


def _build_scan(
    plan: TableScan,
    catalog: StorageCatalog,
    options: PlannerOptions,
    needed: set[str] | None,
    hint: float,
    partition_req: tuple[str, ...],
    predicate,
) -> Fragments:
    storage = catalog.storage(plan.table)
    columns = _scan_columns(storage, needed)
    row_hint = hint + (expr_cost(predicate) if predicate is not None else 0.0)
    dop = decide_dop(storage.n_rows, row_hint, options)
    if dop > 1 and partition_req and options.enable_range_partition_agg:
        key = range_partition_key(partition_req, storage.sort_keys)
        if key is not None:
            scans = FractionTable.split_by_key(
                storage, key, dop, columns=columns, predicate=predicate
            )
            if scans is not None and len(scans) > 1:
                return Fragments(list(scans), range_partitioned_on=key)
    if dop > 1:
        scans = FractionTable.split_even(storage, dop, columns=columns, predicate=predicate)
        return Fragments(list(scans))
    return Fragments([PScan(storage, columns, predicate)])


def _build_select(
    plan: Select,
    catalog: StorageCatalog,
    options: PlannerOptions,
    needed: set[str] | None,
    hint: float,
    partition_req: tuple[str, ...],
) -> Fragments:
    child_needed = _extend(needed, columns_used(plan.predicate))
    if isinstance(plan.child, TableScan):
        storage = catalog.storage(plan.child.table)
        if options.enable_rle_index:
            choice = choose_rle_scan(storage, conjuncts(plan.predicate))
            if choice is not None:
                column, index_pred, residual = choice
                columns = _scan_columns(storage, child_needed)
                # The IndexTable join runs serially: range skipping trades
                # away the degree of parallelism (paper 4.3's caveat).
                node = PIndexedRleScan(storage, column, index_pred, residual, columns)
                return Fragments([node])
        return _build_scan(
            plan.child, catalog, options, child_needed, hint, partition_req, plan.predicate
        )
    frags = _build(
        plan.child,
        catalog,
        options,
        needed=child_needed,
        hint=hint + expr_cost(plan.predicate),
        partition_req=partition_req,
    )
    nodes = [PFilter(node, plan.predicate) for node in frags.nodes]
    return Fragments(nodes, frags.range_partitioned_on)


def _build_project(
    plan: Project,
    catalog: StorageCatalog,
    options: PlannerOptions,
    needed: set[str] | None,
    hint: float,
    partition_req: tuple[str, ...],
) -> Fragments:
    child_needed: set[str] = set()
    for _name, expr in plan.items:
        child_needed |= columns_used(expr)
    # Map the aggregate's partition requirement through renames.
    passthrough = {
        name: expr.name for name, expr in plan.items if isinstance(expr, ColumnRef)
    }
    child_req = tuple(passthrough[c] for c in partition_req if c in passthrough)
    item_cost = sum(expr_cost(e) for _, e in plan.items)
    frags = _build(
        plan.child,
        catalog,
        options,
        needed=child_needed,
        hint=hint + item_cost,
        partition_req=child_req,
    )
    nodes = [PProject(node, list(plan.items)) for node in frags.nodes]
    part = None
    if frags.range_partitioned_on is not None:
        inverse = {src: out for out, src in passthrough.items()}
        part = inverse.get(frags.range_partitioned_on)
    return Fragments(nodes, part)


def _build_join(
    plan: Join,
    catalog: StorageCatalog,
    options: PlannerOptions,
    needed: set[str] | None,
    hint: float,
    partition_req: tuple[str, ...],
) -> Fragments:
    left_schema = bind(plan.left, catalog)
    right_schema = bind(plan.right, catalog)
    left_keys = [l for l, _ in plan.conditions]
    right_keys = [r for _, r in plan.conditions]
    if needed is None:
        left_needed: set[str] | None = None
        right_needed: set[str] | None = None
    else:
        left_needed = (needed & set(left_schema)) | set(left_keys)
        right_needed = (needed & set(right_schema)) | set(right_keys)
    # Partition requirements survive only through probe-side columns.
    left_req = tuple(c for c in partition_req if c in left_schema)
    left = _build(
        plan.left,
        catalog,
        options,
        needed=left_needed,
        hint=hint + 2.0,
        partition_req=left_req,
    )
    # The right sub-tree forms its own independent parallel unit whose
    # result is shared between threads (paper 4.2.2).
    right = _build(
        plan.right, catalog, options, needed=right_needed, hint=0.0, partition_req=()
    )
    shared = SharedBuild(close_fragments(right))
    nodes = [
        PHashJoin(plan.kind, list(plan.conditions), node, shared) for node in left.nodes
    ]
    part = left.range_partitioned_on if plan.kind == "inner" else None
    return Fragments(nodes, part)


def _build_aggregate(
    plan: Aggregate,
    catalog: StorageCatalog,
    options: PlannerOptions,
    hint: float,
) -> Fragments:
    items = plan.child.items if isinstance(plan.child, Project) else None
    alone = GroupingSet(plan.groupby, plan.aggs, items)
    relation = plan.child.child if items is not None else plan.child
    relation, ((alone, joins),) = _foreign_key_space([alone], relation, catalog, options)
    merge = (plan.groupby, joins) if joins else None
    plan = alone.over(relation)
    child_needed = set(plan.groupby)
    for _name, agg in plan.aggs:
        if agg.arg is not None:
            child_needed |= columns_used(agg.arg)
    frags = _build(
        plan.child,
        catalog,
        options,
        needed=child_needed,
        hint=hint + _aggregate_cost(plan.aggs),
        partition_req=tuple(plan.groupby),
    )
    partials, finish = _aggregate_phases(plan, frags, catalog, options, merge)
    if finish is None:
        return partials
    return Fragments([finish(close_fragments(partials))])


def _aggregate_cost(aggs) -> float:
    return 2.5 + sum(expr_cost(a) for _, a in aggs)


def _foreign_key_space(sets, relation: LogicalPlan, catalog: StorageCatalog, options):
    # Foreign-key space is a local/global split: off with it (query_naive).
    if not options.enable_local_global_agg:
        return relation, [(s, ()) for s in sets]
    return foreign_key_space(sets, relation, catalog, options.max_dop)


def _aggregate_phases(
    plan: Aggregate,
    frags: Fragments,
    catalog: StorageCatalog,
    options: PlannerOptions,
    merge: tuple[tuple[str, ...], tuple[Join, ...]] | None = None,
    prefix: str = "",
    builds: dict[tuple, SharedBuild] | None = None,
):
    """Plan ``plan`` over the already built fragments of its child.

    Returns ``(partials, finish)``: what runs in each fragment and, unless
    the partials together already are the answer (``finish`` is None),
    the function building the global phase over their merged output.
    ``merge`` = ``(groupby, joins)``: ``plan`` is in foreign-key space, and
    its global phase joins ``joins`` before grouping by ``groupby``, each
    to its build in ``builds`` (by default their own). The partial
    columns' names start with ``prefix``.
    """
    specs, pre_items, _ = lower_aggregates(plan.groupby, plan.aggs, bind(plan.child, catalog))
    if pre_items is not None:
        frags = Fragments(
            [PProject(node, pre_items) for node in frags.nodes], frags.range_partitioned_on
        )
    groupby = list(plan.groupby)
    child_order = sorted_prefix(plan.child, catalog)
    streamable = options.enable_streaming_agg and grouping_satisfied_by_order(
        tuple(groupby), child_order
    )
    rule = "parallel.aggregate_strategy"
    mode = "streaming" if streamable else "hash"
    op = PStreamAggregate if streamable else PHashAggregate
    if streamable and provenance.active():
        provenance.note(
            "parallel.streaming_agg",
            True,
            f"input already ordered on {list(child_order)[: len(groupby)]}: "
            "groups arrive contiguously, aggregate streams without a table",
        )
    merge_by, joins = merge or (groupby, ())
    if frags.degree == 1 and not joins:
        provenance.note(rule, False, f"serial input: single {mode} aggregate")
        return Fragments([op(frags.nodes[0], groupby, specs)]), None
    if (
        options.enable_range_partition_agg
        and not joins
        and frags.range_partitioned_on is not None
        and frags.range_partitioned_on in set(groupby)
    ):
        # Lemma 3: every group lives in exactly one fragment — aggregate
        # each fragment completely; no Exchange, no global phase.
        provenance.note(
            rule,
            True,
            f"range partition on group-by column {frags.range_partitioned_on!r} "
            "(Lemma 3): each fragment aggregates completely, no global phase",
            degree=frags.degree,
        )
        nodes = [op(node, groupby, specs) for node in frags.nodes]
        return Fragments(nodes, frags.range_partitioned_on), None
    if options.enable_local_global_agg:
        split = split_local_global(list(merge_by), specs, prefix)
        if split is not None:
            provenance.note(
                rule,
                True,
                f"local/global split across {frags.degree} fragments: partial "
                f"{mode} aggregates merged by a global hash aggregate",
                degree=frags.degree,
            )
            local_specs, global_specs, final_items, needs_final = split
            if joins and builds is None:
                builds = _dimension_builds(catalog, [(merge_by, joins)])

            def finish(merged: PhysNode) -> PhysNode:
                for join in joins:
                    build = builds[id(join), tuple(merge_by)]
                    merged = PHashJoin(join.kind, list(join.conditions), merged, build)
                out: PhysNode = PHashAggregate(merged, list(merge_by), global_specs)
                return PProject(out, final_items) if needs_final else out

            return Fragments([op(node, groupby, local_specs) for node in frags.nodes]), finish
        provenance.note(
            rule,
            False,
            "local/global split impossible (COUNT DISTINCT partials cannot "
            "be merged): closing parallelism with an Exchange",
            degree=frags.degree,
        )
    return frags, lambda merged: PHashAggregate(merged, groupby, specs)


def _dimension_builds(catalog: StorageCatalog, merges) -> dict[tuple, SharedBuild]:
    """``(id(join), groupby) → build`` for the joins of the ``(groupby,
    joins)`` merges: one serial scan per table (the rule moves only small
    base tables) of the columns any of them reads, narrowed once for the
    merges that read fewer."""
    reads: dict[str, dict[tuple[str, ...], list[tuple]]] = {}
    for merge_by, joins in merges:
        for join in joins:
            storage = catalog.storage(join.right.table)
            columns = _scan_columns(storage, {*merge_by, *(r for _, r in join.conditions)})
            key = (id(join), tuple(merge_by))
            reads.setdefault(join.right.table, {}).setdefault(tuple(columns), []).append(key)
    builds = {}
    for table, by_columns in reads.items():
        storage = catalog.storage(table)
        scan = SharedBuild(PScan(storage, _scan_columns(storage, set().union(*by_columns))))
        for columns, keys in by_columns.items():
            build = scan
            if list(columns) != scan.child.columns:
                build = SharedBuild(PProject(scan, [(c, ColumnRef(c)) for c in columns]))
            builds.update(dict.fromkeys(keys, build))
    return builds


def _build_grouping_sets(
    plan: GroupingSets, catalog: StorageCatalog, options: PlannerOptions, hint: float
) -> Fragments:
    """One pass over the child for all sets (see ``exec/grouping.py``).

    Each set is planned over the child's fragments as its standalone
    ``Aggregate`` would be (in foreign-key space where the rule allows),
    the fragments built once, reading what any set reads, without the
    joins every set moved above its partial. Sets whose partials group
    alike share one; each keeps its own merge, and the merges joining one
    table share one scan of it. The scan splits as it would for the
    costliest set alone; once that is ``max_dop`` ways (any extract large
    enough to matter) every set sees the fragment bounds — and returns the
    bits — of its own query.
    """
    relation, planned = _foreign_key_space(plan.sets, plan.child, catalog, options)
    reads = [s.reads() for s, _ in planned]
    heaviest = max(
        _aggregate_cost(s.aggs) + sum(expr_cost(e) for _, e in s.items or ()) for s, _ in planned
    )
    shared = _build(
        relation,
        catalog,
        options,
        needed=set().union(*reads),
        hint=hint + heaviest,
        partition_req=(),
    )
    rows_in = estimate_plan(relation, catalog).rows // shared.degree
    builds = _dimension_builds(catalog, [(a.groupby, j) for a, (_, j) in zip(plan.sets, planned)])
    partials: list[PhysNode] = []
    grains: dict[tuple, int] = {}
    sets = []
    for i, (asked, (s, joins), columns) in enumerate(zip(plan.sets, planned, reads)):
        # A set that reads nothing (a bare COUNT(*)) still needs rows to
        # count: it takes the shared columns as they are.
        leaf: PhysNode = PSharedInput(sorted(columns) or None, rows_in)
        if s.items is not None:
            leaf = PProject(leaf, list(s.items))
        phases, finish = _aggregate_phases(
            s.over(relation),
            Fragments([leaf] * shared.degree),
            catalog,
            options,
            (asked.groupby, joins) if joins else None,
            prefix=f"__{i}_",
            builds=builds,
        )
        partial = phases.nodes[0]
        groups_per_fragment = isinstance(partial, (PHashAggregate, PStreamAggregate))
        rows_out = rows_in
        if groups_per_fragment:
            rows_out = int(estimate_groups(rows_in, bool(s.groupby)))
        merge: PhysNode = PSharedInput(None, rows_out * shared.degree)
        grain = len(partials)
        if finish is not None:
            merge = finish(merge)
            if groups_per_fragment and partial.child is leaf:
                # Sets whose partials group alike share one. Their join keys
                # come in one order, so each set sums its floats as alone.
                moved = {l for join in joins for l, _ in join.conditions}
                alike = (type(partial), frozenset(s.groupby), s.items)
                grain = grains.setdefault((*alike, *(k for k in s.groupby if k in moved)), grain)
        if grain < len(partials):
            partials[grain] = _shared_partial(partials[grain], partial)
        else:
            partials.append(partial)
        sets.append(PGroupingSet(list(asked.groupby), [n for n, _ in asked.aggs], grain, merge))
    return Fragments([PGroupingSets(list(shared.nodes), partials, sets)])


def _shared_partial(mine, theirs):
    """One partial for two sets grouping by the same keys: both sets'
    partial measures (named apart) over the columns either reads."""
    leaf = mine.child
    if isinstance(leaf, PSharedInput):
        columns = set(leaf.columns or ()) | set(theirs.child.columns or ())
        leaf = PSharedInput(sorted(columns) or None, leaf.est_rows)
    return type(mine)(leaf, mine.groupby, mine.specs + theirs.specs)
