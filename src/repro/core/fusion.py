"""Query fusion (paper 3.4).

"One basic optimization we apply across queries before executing a query
batch is combining groups of queries defined over the same relation and
potentially different with respect to their top-level projection lists.
Strictly speaking, we replace a group of queries of the form
[πP1(R), ..., πPn(R)] with a single query πP(R), where R is the common
relation, P1..Pn are respective projection lists and P = ∪ Pi."

In spec terms: queries sharing (datasource, dimensions, filters) — the
common relation R — but requesting different measures fuse into one spec
whose measure list is the union. Each original answer is recovered by a
local projection (plus its own ordering/limit, which are stripped before
fusing so the shared result is complete).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..expr.ast import ColumnRef
from ..expr.sexpr import to_sexpr
from ..queries.postops import LocalProject, PostOp, shape_ops
from ..queries.spec import QuerySpec


@dataclass
class FusedQuery:
    """One fused remote query and the recipes to split it back apart."""

    spec: QuerySpec
    members: list[QuerySpec]
    extract_ops: dict[str, tuple[PostOp, ...]]  # original canonical -> ops


def fuse_batch(specs: list[QuerySpec], *, enabled: bool = True) -> list[FusedQuery]:
    """Group a batch into fused queries (singletons when nothing fuses)."""
    if not enabled:
        return [_singleton(spec) for spec in specs]
    groups: dict[tuple, list[QuerySpec]] = {}
    for spec in specs:
        key = (
            spec.datasource,
            spec.dimensions,
            tuple(sorted(f.canonical() for f in spec.filters)),
        )
        groups.setdefault(key, []).append(spec)
    out: list[FusedQuery] = []
    for members in groups.values():
        if len(members) == 1:
            if len(specs) > 1:
                obs.event(
                    "fusion",
                    "not_fused",
                    "no other query in the batch shares this query's relation "
                    "(datasource, dimensions, filters)",
                    spec=members[0].canonical(),
                )
            out.append(_singleton(members[0]))
        else:
            fused = _fuse(members)
            obs.event(
                "fusion",
                "fused",
                f"{len(members)} queries over the same relation merged; "
                f"projection union has {len(fused.spec.measures)} measures",
                members=[m.canonical() for m in members],
                spec=fused.spec.canonical(),
            )
            out.append(fused)
    return out


def _singleton(spec: QuerySpec) -> FusedQuery:
    return FusedQuery(spec, [spec], {spec.canonical(): ()})


def _fuse(members: list[QuerySpec]) -> FusedQuery:
    first = members[0]
    fused_measures: list[tuple[str, object]] = []
    alias_by_agg: dict = {}
    for spec in members:
        for _alias, agg in spec.measures:
            if agg not in alias_by_agg:
                fused_name = f"__f{len(fused_measures)}"
                alias_by_agg[agg] = fused_name
                fused_measures.append((fused_name, agg))
    fused_spec = QuerySpec(
        first.datasource,
        first.dimensions,
        tuple(fused_measures) if fused_measures else (),
        first.filters,
    )
    extract_ops: dict[str, tuple[PostOp, ...]] = {}
    for spec in members:
        items = [(d, ColumnRef(d)) for d in spec.dimensions]
        items += [(alias, ColumnRef(alias_by_agg[agg])) for alias, agg in spec.measures]
        shape = shape_ops(spec.order_by, spec.limit)
        extract_ops[spec.canonical()] = (LocalProject(tuple(items)), *shape)
    return FusedQuery(fused_spec, list(members), extract_ops)
