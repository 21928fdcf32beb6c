"""TQL text ↔ logical plan.

Syntax (s-expressions; expressions use ``repro.expr.sexpr``):

    (scan "Extract.flights")
    (select <expr> <plan>)
    (project ((name <expr>) ...) <plan>)
    (join inner ((lcol rcol) ...) <left-plan> <right-plan>)
    (aggregate (g1 g2 ...) ((alias <agg-expr>) ...) <plan>)
    (grouping-sets (set (g1 ...) ((alias <agg-expr>) ...) [((name <expr>) ...)]) ... <plan>)
    (order ((col asc|desc) ...) <plan>)
    (topn N ((col asc|desc) ...) <plan>)
    (limit N <plan>)
    (distinct (c1 c2 ...) <plan>)
"""

from __future__ import annotations

from ...errors import TqlParseError
from ...expr.sexpr import _String, _Symbol, build_expr, read_forms, to_sexpr
from .plan import (
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
    WindowItem,
)


def parse_tql(text: str) -> LogicalPlan:
    """Parse TQL text into a logical plan."""
    forms = read_forms(text)
    if len(forms) != 1:
        raise TqlParseError(f"expected one plan, found {len(forms)} forms")
    return _build_plan(forms[0])


def _name(form) -> str:
    if isinstance(form, (_Symbol, _String)):
        return str(form)
    raise TqlParseError(f"expected a name, got {form!r}")


def _build_plan(form) -> LogicalPlan:
    if not isinstance(form, list) or not form or not isinstance(form[0], _Symbol):
        raise TqlParseError(f"expected a plan form, got {form!r}")
    op = str(form[0])
    rest = form[1:]
    if op == "scan":
        if len(rest) != 1:
            raise TqlParseError("(scan \"schema.table\")")
        return TableScan(_name(rest[0]))
    if op == "select":
        if len(rest) != 2:
            raise TqlParseError("(select <expr> <plan>)")
        return Select(_build_plan(rest[1]), build_expr(rest[0]))
    if op == "project":
        if len(rest) != 2 or not isinstance(rest[0], list):
            raise TqlParseError("(project ((name expr) ...) <plan>)")
        return Project(_build_plan(rest[1]), _build_items(rest[0]))
    if op == "join":
        if len(rest) != 4 or not isinstance(rest[1], list):
            raise TqlParseError("(join kind ((l r) ...) <left> <right>)")
        kind = _name(rest[0])
        if kind not in ("inner", "left"):
            raise TqlParseError(f"unsupported join kind {kind!r}")
        conds = []
        for pair in rest[1]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise TqlParseError(f"bad join condition {pair!r}")
            conds.append((_name(pair[0]), _name(pair[1])))
        return Join(kind, conds, _build_plan(rest[2]), _build_plan(rest[3]))
    if op == "aggregate":
        if len(rest) != 3 or not isinstance(rest[0], list) or not isinstance(rest[1], list):
            raise TqlParseError("(aggregate (keys...) ((alias agg) ...) <plan>)")
        groupby = [_name(g) for g in rest[0]]
        return Aggregate(_build_plan(rest[2]), groupby, _build_aggs(rest[1]))
    if op == "grouping-sets":
        if len(rest) < 2:
            raise TqlParseError("(grouping-sets (set ...) ... <plan>)")
        return GroupingSets(_build_plan(rest[-1]), [_build_set(f) for f in rest[:-1]])
    if op in ("order", "topn"):
        return _build_ordered(op, rest)
    if op == "limit":
        if len(rest) != 2 or not isinstance(rest[0], int):
            raise TqlParseError("(limit N <plan>)")
        return Limit(_build_plan(rest[1]), rest[0])
    if op == "distinct":
        if len(rest) != 2 or not isinstance(rest[0], list):
            raise TqlParseError("(distinct (cols...) <plan>)")
        return Distinct(_build_plan(rest[1]), [_name(c) for c in rest[0]])
    if op == "window":
        if len(rest) != 2 or not isinstance(rest[0], list):
            raise TqlParseError("(window ((alias func ...) ...) <plan>)")
        items = [_build_window_item(form) for form in rest[0]]
        return Window(_build_plan(rest[1]), items)
    raise TqlParseError(f"unknown plan operator {op!r}")


def _build_items(form) -> list:
    items = []
    for pair in form:
        if not isinstance(pair, list) or len(pair) != 2:
            raise TqlParseError(f"bad projection item {pair!r}")
        items.append((_name(pair[0]), build_expr(pair[1])))
    return items


def _build_aggs(form) -> list:
    aggs = []
    for pair in form:
        if not isinstance(pair, list) or len(pair) != 2:
            raise TqlParseError(f"bad aggregate item {pair!r}")
        aggs.append((_name(pair[0]), build_expr(pair[1], allow_agg=True)))
    return aggs


def _build_set(form) -> GroupingSet:
    if (
        not isinstance(form, list)
        or len(form) not in (3, 4)
        or not (isinstance(form[0], _Symbol) and form[0] == "set")
        or not all(isinstance(part, list) for part in form[1:])
    ):
        raise TqlParseError("(set (keys...) ((alias agg) ...) [((name expr) ...)])")
    items = _build_items(form[3]) if len(form) == 4 else None
    return GroupingSet([_name(g) for g in form[1]], _build_aggs(form[2]), items)


def _build_window_item(form) -> WindowItem:
    if not isinstance(form, list) or len(form) < 2:
        raise TqlParseError(f"bad window item {form!r}")
    alias = _name(form[0])
    func = _name(form[1])
    if func not in WindowItem.SUPPORTED:
        raise TqlParseError(f"unknown window function {func!r}")
    arg = None
    partition: list[str] = []
    order: list[tuple[str, bool]] = []
    for clause in form[2:]:
        head = (
            str(clause[0])
            if isinstance(clause, list) and clause and not isinstance(clause[0], list)
            else None
        )
        if head == "partition":
            partition = [_name(c) for c in clause[1:]]
        elif head == "order":
            for pair in clause[1:]:
                if not isinstance(pair, list) or len(pair) != 2:
                    raise TqlParseError(f"bad window order key {pair!r}")
                direction = _name(pair[1])
                if direction not in ("asc", "desc"):
                    raise TqlParseError(f"order direction must be asc|desc, got {direction!r}")
                order.append((_name(pair[0]), direction == "asc"))
        else:
            if arg is not None:
                raise TqlParseError("window item has more than one argument expression")
            arg = build_expr(clause)
    if func in WindowItem.NEEDS_ARG and arg is None:
        raise TqlParseError(f"window function {func} requires an argument")
    if func not in WindowItem.NEEDS_ARG and arg is not None:
        raise TqlParseError(f"window function {func} takes no argument")
    if func in WindowItem.NEEDS_ORDER and not order:
        raise TqlParseError(f"window function {func} requires an (order ...) clause")
    return WindowItem(alias, func, arg, partition, order)


def _build_ordered(op: str, rest) -> LogicalPlan:
    if op == "order":
        if len(rest) != 2 or not isinstance(rest[0], list):
            raise TqlParseError("(order ((col dir) ...) <plan>)")
        keys_form, child_form = rest[0], rest[1]
    else:
        if len(rest) != 3 or not isinstance(rest[0], int) or not isinstance(rest[1], list):
            raise TqlParseError("(topn N ((col dir) ...) <plan>)")
        keys_form, child_form = rest[1], rest[2]
    keys = []
    for pair in keys_form:
        if not isinstance(pair, list) or len(pair) != 2:
            raise TqlParseError(f"bad order key {pair!r}")
        direction = _name(pair[1])
        if direction not in ("asc", "desc"):
            raise TqlParseError(f"order direction must be asc|desc, got {direction!r}")
        keys.append((_name(pair[0]), direction == "asc"))
    child = _build_plan(child_form)
    return Order(child, keys) if op == "order" else TopN(child, rest[0], keys)


# ---------------------------------------------------------------------- #
# Printing
# ---------------------------------------------------------------------- #
def to_tql(plan: LogicalPlan) -> str:
    """Render a logical plan to canonical TQL text (round-trips)."""
    if isinstance(plan, TableScan):
        return f'(scan "{plan.table}")'
    if isinstance(plan, Select):
        return f"(select {to_sexpr(plan.predicate)} {to_tql(plan.child)})"
    if isinstance(plan, Project):
        items = " ".join(f"({n} {to_sexpr(e)})" for n, e in plan.items)
        return f"(project ({items}) {to_tql(plan.child)})"
    if isinstance(plan, Join):
        conds = " ".join(f"({l} {r})" for l, r in plan.conditions)
        return f"(join {plan.kind} ({conds}) {to_tql(plan.left)} {to_tql(plan.right)})"
    if isinstance(plan, Aggregate):
        groups = " ".join(plan.groupby)
        aggs = " ".join(f"({n} {to_sexpr(a)})" for n, a in plan.aggs)
        return f"(aggregate ({groups}) ({aggs}) {to_tql(plan.child)})"
    if isinstance(plan, GroupingSets):
        sets = " ".join(_set_text(s) for s in plan.sets)
        return f"(grouping-sets {sets} {to_tql(plan.child)})"
    if isinstance(plan, Order):
        keys = " ".join(f"({k} {'asc' if asc else 'desc'})" for k, asc in plan.keys)
        return f"(order ({keys}) {to_tql(plan.child)})"
    if isinstance(plan, TopN):
        keys = " ".join(f"({k} {'asc' if asc else 'desc'})" for k, asc in plan.keys)
        return f"(topn {plan.n} ({keys}) {to_tql(plan.child)})"
    if isinstance(plan, Limit):
        return f"(limit {plan.n} {to_tql(plan.child)})"
    if isinstance(plan, Distinct):
        return f"(distinct ({' '.join(plan.columns)}) {to_tql(plan.child)})"
    if isinstance(plan, Window):
        items = " ".join(_window_item_text(item) for item in plan.items)
        return f"(window ({items}) {to_tql(plan.child)})"
    raise TqlParseError(f"cannot print plan node {type(plan).__name__}")


def _set_text(s: GroupingSet) -> str:
    aggs = " ".join(f"({n} {to_sexpr(a)})" for n, a in s.aggs)
    text = f"(set ({' '.join(s.groupby)}) ({aggs})"
    if s.items is not None:
        text += " (" + " ".join(f"({n} {to_sexpr(e)})" for n, e in s.items) + ")"
    return text + ")"


def _window_item_text(item) -> str:
    parts = [item.alias, item.func]
    if item.arg is not None:
        parts.append(to_sexpr(item.arg))
    if item.partition_by:
        parts.append(f"(partition {' '.join(item.partition_by)})")
    if item.order_by:
        keys = " ".join(f"({k} {'asc' if asc else 'desc'})" for k, asc in item.order_by)
        parts.append(f"(order {keys})")
    return f"({' '.join(parts)})"
