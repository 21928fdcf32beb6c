"""Logical plan nodes.

Plans are immutable trees of frozen dataclasses; rewrites build new trees.
Structural equality and hashing enable common-subexpression elimination and
the batch processor's duplicate-query detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ...expr.ast import AggExpr, Expr, columns_used

#: The INT column of a :class:`GroupingSets` result naming the set (by
#: position) each row answers.
SET_COLUMN = "__set"


class LogicalPlan:
    """Base class for logical operators."""

    def children(self) -> tuple["LogicalPlan", ...]:
        return ()

    def walk(self) -> Iterator["LogicalPlan"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def is_streaming(self) -> bool:
        """Streaming operators emit rows while consuming (paper 4.1.3)."""
        return False


@dataclass(frozen=True)
class TableScan(LogicalPlan):
    """Scan a stored table by qualified name (``schema.table``)."""

    table: str

    def is_streaming(self) -> bool:
        return True


@dataclass(frozen=True)
class Select(LogicalPlan):
    """Row filter. The paper calls the operator Select; SQL says WHERE."""

    child: LogicalPlan
    predicate: Expr

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def is_streaming(self) -> bool:
        return True


@dataclass(frozen=True)
class Project(LogicalPlan):
    """Compute named output columns from input columns."""

    child: LogicalPlan
    items: tuple[tuple[str, Expr], ...]

    def __init__(self, child: LogicalPlan, items):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "items", tuple((n, e) for n, e in items))

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def is_streaming(self) -> bool:
        return True


@dataclass(frozen=True)
class Join(LogicalPlan):
    """Equi-join. ``conditions`` pairs (left_column, right_column).

    The TDE represents multi-way joins as left-deep trees with the fact
    table leftmost (paper 4.2.2); the executor builds a hash table on the
    right input and probes with the left.
    """

    kind: str  # "inner" | "left"
    conditions: tuple[tuple[str, str], ...]
    left: LogicalPlan
    right: LogicalPlan

    def __init__(self, kind, conditions, left, right):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "conditions", tuple((l, r) for l, r in conditions))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Aggregate(LogicalPlan):
    """Group by child columns; compute aggregate expressions.

    ``groupby`` names child columns (computed keys are pre-projected by the
    compiler). ``aggs`` maps output names to :class:`AggExpr`.
    """

    child: LogicalPlan
    groupby: tuple[str, ...]
    aggs: tuple[tuple[str, AggExpr], ...]

    def __init__(self, child, groupby, aggs):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "groupby", tuple(groupby))
        object.__setattr__(self, "aggs", tuple((n, a) for n, a in aggs))

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass(frozen=True)
class GroupingSet:
    """One answer of a :class:`GroupingSets`: its own keys and aggregate
    list and, when they read calculated columns, the projection that
    computes them (what a ``Project`` under a lone ``Aggregate`` does)."""

    groupby: tuple[str, ...]
    aggs: tuple[tuple[str, AggExpr], ...]
    items: tuple[tuple[str, Expr], ...] | None = None

    def __init__(self, groupby, aggs, items=None):
        object.__setattr__(self, "groupby", tuple(groupby))
        object.__setattr__(self, "aggs", tuple((n, a) for n, a in aggs))
        object.__setattr__(
            self, "items", None if items is None else tuple((n, e) for n, e in items)
        )

    @property
    def columns(self) -> tuple[str, ...]:
        """Output columns, in the order the standalone query returns them."""
        return self.groupby + tuple(name for name, _ in self.aggs)

    def reads(self) -> set[str]:
        """The child columns this set needs: every input of its
        projection if it has one (as under a ``Project``), else its keys
        and aggregate arguments."""
        if self.items is not None:
            return set().union(*(columns_used(expr) for _, expr in self.items))
        needed = set(self.groupby)
        for _, agg in self.aggs:
            if agg.arg is not None:
                needed |= columns_used(agg.arg)
        return needed

    def over(self, child: LogicalPlan) -> Aggregate:
        """The standalone query this set is the answer of."""
        if self.items is not None:
            child = Project(child, self.items)
        return Aggregate(child, self.groupby, self.aggs)


@dataclass(frozen=True)
class GroupingSets(LogicalPlan):
    """Several aggregations of one relation, answered from one pass.

    Unlike SQL's ``GROUPING SETS`` every set has its own aggregate list
    (a dashboard's zones share a relation, rarely their measures). The
    result is the sets' answers one after the other: :data:`SET_COLUMN`
    says which set a row belongs to, then comes the union of the sets'
    output columns in first-seen order, NULL where a row's set has no
    such column. Same-named outputs must agree in type.
    """

    child: LogicalPlan
    sets: tuple[GroupingSet, ...]

    def __init__(self, child, sets):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "sets", tuple(sets))

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    @property
    def columns(self) -> tuple[str, ...]:
        """The union of the sets' output columns, first-seen order."""
        return tuple(dict.fromkeys(c for s in self.sets for c in s.columns))


@dataclass(frozen=True)
class Order(LogicalPlan):
    """Total order by ``[(column, ascending), ...]``; NULLs first."""

    child: LogicalPlan
    keys: tuple[tuple[str, bool], ...]

    def __init__(self, child, keys):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "keys", tuple((k, bool(a)) for k, a in keys))

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass(frozen=True)
class TopN(LogicalPlan):
    """First ``n`` rows under ``keys`` ordering (used by top-n filters)."""

    child: LogicalPlan
    n: int
    keys: tuple[tuple[str, bool], ...]

    def __init__(self, child, n, keys):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "keys", tuple((k, bool(a)) for k, a in keys))

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Limit(LogicalPlan):
    """First ``n`` rows in input order."""

    child: LogicalPlan
    n: int

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def is_streaming(self) -> bool:
        return True


@dataclass(frozen=True)
class WindowItem:
    """One window/table calculation.

    Supported functions (the "window and statistical functions" of the
    paper's §1): ``row_number``, ``rank``, ``running_sum``,
    ``running_avg``, ``window_sum``, ``window_max``, ``window_min``,
    ``share`` (percent of partition total).
    """

    alias: str
    func: str
    arg: Expr | None
    partition_by: tuple[str, ...]
    order_by: tuple[tuple[str, bool], ...]

    SUPPORTED = (
        "row_number",
        "rank",
        "running_sum",
        "running_avg",
        "window_sum",
        "window_max",
        "window_min",
        "share",
    )
    NEEDS_ARG = frozenset(
        {"running_sum", "running_avg", "window_sum", "window_max", "window_min", "share"}
    )
    NEEDS_ORDER = frozenset({"row_number", "rank", "running_sum", "running_avg"})

    def __init__(self, alias, func, arg, partition_by=(), order_by=()):
        object.__setattr__(self, "alias", alias)
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "partition_by", tuple(partition_by))
        object.__setattr__(self, "order_by", tuple((k, bool(a)) for k, a in order_by))


@dataclass(frozen=True)
class Window(LogicalPlan):
    """Window calculations over partitions (stop-and-go).

    The output contains every input column plus one column per item; rows
    come out sorted by (partition, order) of the *first* item — window
    evaluation imposes that physical order, like a Tableau table calc
    addressing.
    """

    child: LogicalPlan
    items: tuple[WindowItem, ...]

    def __init__(self, child, items):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "items", tuple(items))

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Distinct(LogicalPlan):
    """Distinct rows over the given columns.

    Front-end sugar: the compiler rewrites it to an Aggregate with no
    aggregate expressions ("expressing SELECT DISTINCT as a GROUP BY
    query", paper 4.1.2).
    """

    child: LogicalPlan
    columns: tuple[str, ...]

    def __init__(self, child, columns):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "columns", tuple(columns))

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)


def replace_children(plan: LogicalPlan, new_children: tuple[LogicalPlan, ...]) -> LogicalPlan:
    """Rebuild ``plan`` with different children (rewrite helper)."""
    if isinstance(plan, TableScan):
        return plan
    if isinstance(plan, Select):
        return Select(new_children[0], plan.predicate)
    if isinstance(plan, Project):
        return Project(new_children[0], plan.items)
    if isinstance(plan, Join):
        return Join(plan.kind, plan.conditions, new_children[0], new_children[1])
    if isinstance(plan, Aggregate):
        return Aggregate(new_children[0], plan.groupby, plan.aggs)
    if isinstance(plan, GroupingSets):
        return GroupingSets(new_children[0], plan.sets)
    if isinstance(plan, Order):
        return Order(new_children[0], plan.keys)
    if isinstance(plan, TopN):
        return TopN(new_children[0], plan.n, plan.keys)
    if isinstance(plan, Limit):
        return Limit(new_children[0], plan.n)
    if isinstance(plan, Distinct):
        return Distinct(new_children[0], plan.columns)
    if isinstance(plan, Window):
        return Window(new_children[0], plan.items)
    raise TypeError(f"unknown plan node {type(plan).__name__}")


def transform_up(plan: LogicalPlan, fn) -> LogicalPlan:
    """Bottom-up rewrite: apply ``fn`` to each node after its children."""
    kids = plan.children()
    if kids:
        new_kids = tuple(transform_up(k, fn) for k in kids)
        if new_kids != kids:
            plan = replace_children(plan, new_kids)
    return fn(plan)
