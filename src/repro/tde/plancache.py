"""Physical-plan cache: skip parse/bind/optimize for repeat queries.

Dashboards re-issue the same TQL on every interaction (paper §3.1's
"compile once" observation): the text differs only in whitespace, name
quoting, or the side a literal sits on. This module gives the engine a
bounded LRU of *compiled physical plans* keyed on

    (normalized TQL, catalog version, planner-options fingerprint)

so the second load of a dashboard skips the whole compile phase.

Normalization is semantic, not textual: the text is parsed and printed
back through the canonical s-expression printer, after flipping
literal-first comparisons (``5 < x`` → ``x > 5``). Whitespace and
quoted-vs-bare name variants collapse for free because the parser never
sees them differently.

Staleness is handled two ways, both required:

* the key embeds :attr:`StorageCatalog.version`, so DDL (create/drop
  table, new constraint declarations) silently misses rather than
  serving a plan bound to dead storage;
* :meth:`PlanCache.invalidate` bumps a generation counter *before*
  clearing, and :meth:`PlanCache.put` refuses entries compiled under an
  older generation. A compile that raced an extract refresh can never
  resurrect its stale plan after ``invalidate()`` returns — the
  guarantee the two-thread race test pins.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import fields
from typing import Any

from .. import obs
from ..expr.ast import AggExpr, Call, CaseWhen, Cast, Expr, Literal
from .tql.parser import parse_tql, to_tql
from .tql.plan import (
    Aggregate,
    GroupingSet,
    GroupingSets,
    LogicalPlan,
    Project,
    Select,
    transform_up,
)

#: Comparison flips for literal-first operands: ``5 < x`` ≡ ``x > 5``.
_FLIP = {"=": "=", "<>": "<>", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _canonical_expr(expr: Expr) -> Expr:
    if isinstance(expr, Call):
        args = tuple(_canonical_expr(a) for a in expr.args)
        if (
            expr.func in _FLIP
            and len(args) == 2
            and isinstance(args[0], Literal)
            and not isinstance(args[1], Literal)
        ):
            return Call(_FLIP[expr.func], (args[1], args[0]))
        return expr if args == expr.args else Call(expr.func, args)
    if isinstance(expr, Cast):
        arg = _canonical_expr(expr.arg)
        return expr if arg is expr.arg else Cast(arg, expr.to)
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            tuple((_canonical_expr(c), _canonical_expr(v)) for c, v in expr.branches),
            _canonical_expr(expr.otherwise),
        )
    return expr


def _canonical_items(items) -> list:
    return [(n, _canonical_expr(e)) for n, e in items]


def _canonical_aggs(aggs) -> list:
    return [
        (name, AggExpr(a.func, _canonical_expr(a.arg)) if a.arg is not None else a)
        for name, a in aggs
    ]


def _canonical_node(plan: LogicalPlan) -> LogicalPlan:
    if isinstance(plan, Select):
        return Select(plan.child, _canonical_expr(plan.predicate))
    if isinstance(plan, Project):
        return Project(plan.child, _canonical_items(plan.items))
    if isinstance(plan, Aggregate):
        return Aggregate(plan.child, plan.groupby, _canonical_aggs(plan.aggs))
    if isinstance(plan, GroupingSets):
        sets = [
            GroupingSet(
                s.groupby,
                _canonical_aggs(s.aggs),
                None if s.items is None else _canonical_items(s.items),
            )
            for s in plan.sets
        ]
        return GroupingSets(plan.child, sets)
    return plan


def normalize_tql(query: str | LogicalPlan) -> str:
    """Canonical cache-key text for a TQL query (its text, or the tree
    already parsed from it)."""
    logical = parse_tql(query) if isinstance(query, str) else query
    return to_tql(transform_up(logical, _canonical_node))


def options_fingerprint(options: Any) -> tuple:
    """Hashable identity of a ``PlannerOptions`` — plans compiled under
    different options are different plans."""
    return tuple(getattr(options, f.name) for f in fields(options))


class PlanCache:
    """Bounded LRU of compiled physical plans, thread-safe.

    ``capacity=0`` disables the cache entirely (every :meth:`get` is a
    recorded miss-free no-op and :meth:`put` drops its argument), so
    callers never need an enabled check around the lookup path.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = int(capacity)
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        self._generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def generation(self) -> int:
        """Snapshot the generation *before* compiling; pass it back to
        :meth:`put` so a concurrent invalidation voids the entry."""
        with self._lock:
            return self._generation

    def get(self, key: tuple) -> Any | None:
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                if obs.events_enabled():
                    obs.event("plan_cache.miss", outcome="miss", reason="absent")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        if obs.events_enabled():
            obs.event("plan_cache.hit", "hit", "reused the compiled physical plan")
        return entry

    def put(self, key: tuple, plan: Any, generation: int) -> bool:
        """Insert unless ``generation`` is stale; True when stored."""
        if not self.enabled:
            return False
        evicted = 0
        with self._lock:
            if generation != self._generation:
                if obs.events_enabled():
                    obs.event(
                        "plan_cache.invalidate",
                        outcome="rejected",
                        reason="stale_generation",
                    )
                return False
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted and obs.events_enabled():
            obs.event("plan_cache.evict", outcome="evicted", reason="lru", count=evicted)
        return True

    def invalidate(self, reason: str = "refresh") -> int:
        """Drop everything; returns the number of entries dropped.

        The generation bump happens under the same lock as the clear, so
        once this returns no in-flight compile (which snapshotted the old
        generation) can re-insert a pre-invalidation plan.
        """
        with self._lock:
            self._generation += 1
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += 1
        if obs.events_enabled():
            obs.event(
                "plan_cache.invalidate", outcome="cleared", reason=reason, dropped=dropped
            )
        return dropped

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
