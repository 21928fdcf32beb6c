"""Logical rewrites: normalization, predicate simplification, pushdown.

These are the "classic rewrites" of paper 4.1.2 (DISTINCT expressed as
GROUP BY) together with the predicate work of 3.1 (predicate
simplification) and the filter/project push-down the TDE optimizer
performs. All rewrites preserve results; the property-based tests compare
optimized vs naive execution.
"""

from __future__ import annotations

import contextvars
from typing import Mapping

import numpy as np

from ... import obs
from ...datatypes import LogicalType, from_storage
from ...errors import ReproError
from ...expr.ast import (
    Call,
    ColumnRef,
    Expr,
    Literal,
    columns_used,
    conjoin,
    conjuncts,
    infer_type,
    substitute,
)
from ...expr.eval import evaluate
from ..exec import physical as ph
from ..exec.fused import PFusedPipeline
from ..storage.column import Column
from ..storage.table import Table
from ..storage.vectors import PlainVector
from ..tql.plan import (
    SET_COLUMN,
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
    transform_up,
)
from . import provenance
from .culling import cull_joins

_TRUE = Literal(True)
_FALSE = Literal(False)


# ---------------------------------------------------------------------- #
# Predicate simplification
# ---------------------------------------------------------------------- #
def _is_const(expr: Expr) -> bool:
    return all(isinstance(node, (Literal, Call)) for node in expr.walk()) and not columns_used(
        expr
    )


_FOLD_TABLE = Table(
    {"__one": Column(LogicalType.INT, PlainVector(np.zeros(1, dtype=np.int64)))}
)


def _fold(expr: Expr) -> Expr:
    """Evaluate a constant expression down to a literal."""
    try:
        ltype = infer_type(expr, {})
        values, mask = evaluate(expr, _FOLD_TABLE)
        if mask is not None and mask[0]:
            return Literal(None, ltype)
        return Literal(from_storage(values[0], ltype), ltype)
    except ReproError:
        return expr


def simplify_predicate(expr: Expr) -> Expr:
    """Bottom-up predicate simplification.

    Handles boolean short-circuits (AND/OR with constants), double
    negation, empty/singleton IN lists, and folds literal-only subtrees.
    """
    if isinstance(expr, (Literal, ColumnRef)):
        return expr
    if isinstance(expr, Call):
        args = tuple(simplify_predicate(a) for a in expr.args)
        expr = Call(expr.func, args)
        if expr.func == "and":
            a, b = args
            if a == _TRUE:
                return b
            if b == _TRUE:
                return a
            if _FALSE in (a, b):
                return _FALSE
        elif expr.func == "or":
            a, b = args
            if a == _FALSE:
                return b
            if b == _FALSE:
                return a
            if _TRUE in (a, b):
                return _TRUE
        elif expr.func == "not":
            (a,) = args
            if isinstance(a, Call) and a.func == "not":
                return a.args[0]
            if a == _TRUE:
                return _FALSE
            if a == _FALSE:
                return _TRUE
        elif expr.func == "in":
            target, lst = args
            if isinstance(lst, Literal) and isinstance(lst.value, tuple):
                if len(lst.value) == 0:
                    return _FALSE
                if len(lst.value) == 1:
                    return simplify_predicate(Call("=", (target, Literal(lst.value[0]))))
        if _is_const(expr):
            return _fold(expr)
        return expr
    # Cast / CaseWhen: fold when constant, otherwise leave intact.
    if _is_const(expr):
        return _fold(expr)
    return expr


def simplify_plan_predicates(plan: LogicalPlan) -> LogicalPlan:
    """Simplify every Select predicate; drop always-true filters."""

    def fn(node: LogicalPlan) -> LogicalPlan:
        if isinstance(node, Select):
            pred = simplify_predicate(node.predicate)
            if pred == _TRUE:
                return node.child
            return Select(node.child, pred)
        return node

    return transform_up(plan, fn)


# ---------------------------------------------------------------------- #
# Normalization
# ---------------------------------------------------------------------- #
def distinct_to_aggregate(plan: LogicalPlan) -> LogicalPlan:
    """Express DISTINCT as GROUP BY (paper 4.1.2)."""

    def fn(node: LogicalPlan) -> LogicalPlan:
        if isinstance(node, Distinct):
            return Aggregate(node.child, node.columns, ())
        return node

    return transform_up(plan, fn)


def merge_selects(plan: LogicalPlan) -> LogicalPlan:
    """Collapse stacked Selects into one conjunction."""

    def fn(node: LogicalPlan) -> LogicalPlan:
        if isinstance(node, Select) and isinstance(node.child, Select):
            merged = conjoin(conjuncts(node.predicate) + conjuncts(node.child.predicate))
            return Select(node.child.child, merged)
        return node

    return transform_up(plan, fn)


# ---------------------------------------------------------------------- #
# Predicate pushdown
# ---------------------------------------------------------------------- #
def pushdown_selects(plan: LogicalPlan) -> LogicalPlan:
    """Push filters toward the scans wherever semantics allow."""

    def fn(node: LogicalPlan) -> LogicalPlan:
        if isinstance(node, Select):
            return _push(node.predicate, node.child)
        return node

    return transform_up(plan, fn)


def _push(predicate: Expr, child: LogicalPlan) -> LogicalPlan:
    if isinstance(child, Select):
        merged = conjoin(conjuncts(predicate) + conjuncts(child.predicate))
        return _push(merged, child.child)
    if isinstance(child, Project):
        mapping: Mapping[str, Expr] = {name: expr for name, expr in child.items}
        if columns_used(predicate) <= set(mapping):
            pushed = substitute(predicate, mapping)
            return Project(_push(pushed, child.child), child.items)
        return Select(child, predicate)
    if isinstance(child, Order):
        return Order(_push(predicate, child.child), child.keys)
    if isinstance(child, Join):
        return _push_into_join(predicate, child)
    if isinstance(child, Aggregate):
        groupby = set(child.groupby)
        below, above = [], []
        for conj in conjuncts(predicate):
            (below if columns_used(conj) <= groupby else above).append(conj)
        inner: LogicalPlan = child
        if below:
            inner = Aggregate(_push(conjoin(below), child.child), child.groupby, child.aggs)
        if above:
            return Select(inner, conjoin(above))
        return inner
    # TopN / Limit / TableScan / anything else: stop here.
    return Select(child, predicate)


def _push_into_join(predicate: Expr, join: Join) -> LogicalPlan:
    left_cols = _output_columns(join.left)
    right_cols = _output_columns(join.right)
    right_keys = {r for _, r in join.conditions}
    key_map = {l: r for l, r in join.conditions}
    left_parts: list[Expr] = []
    right_parts: list[Expr] = []
    rest: list[Expr] = []
    for conj in conjuncts(predicate):
        used = columns_used(conj)
        if used <= left_cols:
            left_parts.append(conj)
            # A filter purely on the join keys also prunes the build side.
            if join.kind == "inner" and used and used <= set(key_map):
                right_parts.append(
                    substitute(conj, {l: ColumnRef(r) for l, r in key_map.items()})
                )
        elif used <= (right_cols - right_keys):
            if join.kind == "inner":
                right_parts.append(conj)
            else:
                rest.append(conj)  # filtering the right of a LEFT join differs
        else:
            rest.append(conj)
    new_left = _push(conjoin(left_parts), join.left) if left_parts else join.left
    new_right = _push(conjoin(right_parts), join.right) if right_parts else join.right
    out: LogicalPlan = Join(join.kind, join.conditions, new_left, new_right)
    if rest:
        out = Select(out, conjoin(rest))
    return out


def _output_columns(plan: LogicalPlan) -> set[str]:
    """Output column names without needing a catalog (scans excluded).

    For subtrees rooted at scans we cannot know the schema here, so join
    pushdown is invoked from :func:`rewrite_logical`, which wraps this
    with catalog knowledge via ``_SCHEMA_HINTS``.
    """
    if isinstance(plan, TableScan):
        hints = _SCHEMA_HINTS.get()
        if hints is None:
            raise ReproError("pushdown requires schema hints; use rewrite_logical")
        return set(hints.schema_of(plan.table))
    if isinstance(plan, Project):
        return {name for name, _ in plan.items}
    if isinstance(plan, Aggregate):
        return set(plan.groupby) | {name for name, _ in plan.aggs}
    if isinstance(plan, Distinct):
        return set(plan.columns)
    if isinstance(plan, GroupingSets):
        return {SET_COLUMN, *plan.columns}
    if isinstance(plan, Join):
        right_keys = {r for _, r in plan.conditions}
        return _output_columns(plan.left) | (_output_columns(plan.right) - right_keys)
    if isinstance(plan, (Select, Order, TopN, Limit)):
        return _output_columns(plan.child)
    if isinstance(plan, Window):
        return _output_columns(plan.child) | {item.alias for item in plan.items}
    raise ReproError(f"unknown plan node {type(plan).__name__}")


_SCHEMA_HINTS: contextvars.ContextVar = contextvars.ContextVar("schema_hints", default=None)


# ---------------------------------------------------------------------- #
# Top-level rewrite pipeline
# ---------------------------------------------------------------------- #
#: The rewrite pipeline stages, in application order. Each entry names
#: the rule (for provenance) and the effect a change implies.
_REWRITE_STAGES: tuple[tuple[str, str], ...] = (
    ("distinct_to_aggregate", "DISTINCT expressed as GROUP BY"),
    ("simplify_predicates", "predicates simplified / constant-folded"),
    ("merge_selects", "stacked filters merged into one conjunction"),
    ("pushdown_selects", "filters pushed toward the scans"),
    ("simplify_predicates", "predicates simplified after pushdown"),
    ("cull_joins", "unused-dimension / fact-table joins removed"),
    ("merge_selects", "stacked filters merged after culling"),
)


def rewrite_logical(plan: LogicalPlan, catalog) -> LogicalPlan:
    """Run the full logical rewrite pipeline.

    ``catalog`` must provide ``schema_of`` (and, for join culling, the
    metadata methods of :class:`~repro.tde.optimizer.catalog.StorageCatalog`).

    Each stage reports provenance (see :mod:`.provenance`): whether it
    changed the plan, so EXPLAIN can list the rewrites that shaped it.
    """
    stages = {
        "distinct_to_aggregate": distinct_to_aggregate,
        "simplify_predicates": simplify_plan_predicates,
        "merge_selects": merge_selects,
        "pushdown_selects": pushdown_selects,
        "cull_joins": (
            (lambda p: cull_joins(p, catalog)) if hasattr(catalog, "meta") else None
        ),
    }
    token = _SCHEMA_HINTS.set(catalog)
    try:
        for rule, effect in _REWRITE_STAGES:
            fn = stages[rule]
            if fn is None:
                provenance.note(
                    f"rewrite.{rule}", False, "catalog exposes no table metadata"
                )
                continue
            rewritten = fn(plan)
            if provenance.active():
                changed = rewritten != plan
                provenance.note(
                    f"rewrite.{rule}",
                    changed,
                    effect if changed else "plan already in target form",
                )
            plan = rewritten
        return plan
    finally:
        _SCHEMA_HINTS.reset(token)


# ---------------------------------------------------------------------- #
# Physical rewrite: pipeline fusion (paper 4.1)
# ---------------------------------------------------------------------- #
def fuse_pipelines(root, options):
    """Collapse adjacent PFilter/PProject/PHashAggregate chains — and the
    PScan they sit on — into :class:`~repro.tde.exec.fused.PFusedPipeline`
    operators.

    Runs on the *physical* tree after Exchange insertion, so each parallel
    fragment fuses independently and fraction boundaries are untouched.
    A chain is fused only when it folds at least two operators' worth of
    per-batch work (an aggregate, a projection, a filter, or a scan with a
    pushed-down predicate); bare scans and lone operators stay as they
    are, because gather-based fusion would only add copies there.

    The walk rewrites children in place: physical plans are private to one
    ``plan_query`` call, so no sharing hazard exists (cached plans are
    fused *before* they enter the plan cache).
    """
    fused_chains: list[tuple[str, ...]] = []

    def try_fuse(node):
        groupby = specs = items = pred = None
        ops: list[str] = []
        cur = node
        if isinstance(cur, ph.PHashAggregate):
            groupby, specs = list(cur.groupby), list(cur.specs)
            ops.append("aggregate")
            cur = cur.child
        while True:
            if isinstance(cur, ph.PProject):
                # Re-express the accumulated state in the lower project's
                # input space; filter-before-project stays equivalent
                # because projections only rename/compute, never filter.
                lower = dict(cur.items)
                items = (
                    list(cur.items)
                    if items is None
                    else [(n, substitute(e, lower)) for n, e in items]
                )
                if pred is not None:
                    pred = substitute(pred, lower)
                ops.append("project")
                cur = cur.child
                continue
            if isinstance(cur, ph.PFilter):
                pred = conjoin(conjuncts(cur.predicate) + conjuncts(pred))
                ops.append("filter")
                cur = cur.child
                continue
            break
        if isinstance(cur, ph.PScan):
            if cur.predicate is not None:
                pred = conjoin(conjuncts(cur.predicate) + conjuncts(pred))
                ops.append("scan_filter")
            if len(ops) < 2:
                return None
            ops.append("scan")
            fused_chains.append(tuple(reversed(ops)))
            return PFusedPipeline(
                table=cur.table,
                columns=cur.columns,
                start=cur.start,
                stop=cur.stop,
                predicate=pred,
                items=items,
                groupby=groupby,
                specs=specs,
                fused_ops=tuple(reversed(ops)),
                code_space=options.enable_code_space,
            )
        if len(ops) < 2:
            return None
        fused_chains.append(tuple(reversed(ops)))
        return PFusedPipeline(
            source=cur,
            predicate=pred,
            items=items,
            groupby=groupby,
            specs=specs,
            fused_ops=tuple(reversed(ops)),
            code_space=options.enable_code_space,
        )

    def visit(node):
        replacement = try_fuse(node)
        if replacement is not None:
            node = replacement
        for attr in ("child", "probe", "build_source", "source", "merge"):
            child = getattr(node, attr, None)
            if isinstance(child, ph.PhysNode):
                setattr(node, attr, visit(child))
        for attr in ("inputs", "fragments", "partials", "sets"):
            children = getattr(node, attr, None)
            if children:
                setattr(node, attr, [visit(child) for child in children])
        return node

    root = visit(root)
    if provenance.active():
        if fused_chains:
            for chain in fused_chains:
                provenance.note(
                    "fuse.pipeline",
                    True,
                    f"fused {'+'.join(chain)} into one per-batch pass",
                )
        else:
            provenance.note(
                "fuse.pipeline", False, "no fusable operator chain in this plan"
            )
    if fused_chains and obs.events_enabled():
        obs.event(
            "fuse.pipeline",
            "fused",
            "collapsed filter/project/aggregate chains into single-pass operators",
            chains=len(fused_chains),
            ops=sum(len(c) for c in fused_chains),
        )
    return root
