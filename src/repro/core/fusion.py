"""Query fusion (paper 3.4).

"... we replace a group of queries of the form [πP1(R), ..., πPn(R)]
with a single query πP(R), where R is the common relation, P1..Pn are
respective projection lists and P = ∪ Pi."

Here R is the plan under a compiled query's ``Aggregate`` (joins and
filters, with the temp tables they read). Queries over one R group by
grain — keys plus calculated columns — and a grain's measures are
unioned, one column per distinct aggregate: one ``grouping-sets`` query
per relation for an in-process TQL source (one scan for all), else one
plain ``Aggregate`` per grain that two or more queries share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..datatypes import LogicalType
from ..expr.ast import ColumnRef, substitute
from ..queries.compile import CompiledQuery, ModelCatalog
from ..queries.model import DataSourceModel
from ..queries.postops import PostOp, shape_ops
from ..sql.generator import generate_sql
from ..tde.storage.table import Table
from ..tde.tql.parser import to_tql
from ..tde.tql.plan import GroupingSet, GroupingSets, Limit, LogicalPlan, Order, Project, TopN


@dataclass(frozen=True)
class Split:
    """How a part's answer comes out of its merged query's result: set
    ``set``'s rows (all rows when None), ``columns`` as ``(the part's
    name, the merged column)``, then ``ops`` — the part's ORDER BY /
    LIMIT, which the merged query does not carry, and its post-ops."""

    set: int | None
    columns: tuple[tuple[str, str], ...]
    ops: tuple[PostOp, ...]


@dataclass
class MergedQuery(CompiledQuery):
    """Compiled queries over one relation sent as one (``spec`` is None:
    it answers several). ``splits[i]`` recovers ``parts[i]``'s answer."""

    parts: tuple[CompiledQuery, ...] = ()
    splits: tuple[Split, ...] = ()

    @property
    def form(self) -> str:
        return "grouping-sets" if isinstance(self.plan, GroupingSets) else "aggregate"


@dataclass
class _Grain:
    groupby: tuple[str, ...]
    items: dict | None = None
    aggs: dict = field(default_factory=dict)  # merged column -> AggExpr
    parts: list = field(default_factory=list)  # (query, split columns, split ops)


@dataclass
class _Relation:
    temp_tables: dict[str, Table]
    keys: dict[str, tuple] = field(default_factory=dict)
    names: dict[tuple, str] = field(default_factory=dict)
    grains: dict[tuple, _Grain] = field(default_factory=dict)


def fuse_batch(
    compiled: list[CompiledQuery], model: DataSourceModel, source
) -> list[MergedQuery]:
    """Merge the queries of a batch that aggregate the same relation.

    A query is sent alone in detail mode, when its temp tables differ
    from its relation's first query's, or when a group key shares a name
    with an earlier set's under another type or, for a string, another
    definition (grouping sets share one column per name). Each merge and
    each query left out is a ``fusion`` decision record.
    """
    # An in-process engine has no backend parallelism for the queries to
    # use, only one scan to share between them.
    as_sets = source.in_process and source.query_language == "tql"
    view = model.schema(source) if as_sets else None
    relations: dict[LogicalPlan, _Relation] = {}
    alone: list[tuple[CompiledQuery, str]] = []
    for query in compiled:
        if query.detail_mode:
            alone.append((query, "detail mode: the source returns rows, not its aggregate"))
            continue
        aggregate, shape = _unshaped(query.plan)
        relation, items = aggregate.child, None
        if isinstance(relation, Project):
            relation, items = relation.child, relation.items
        group = relations.setdefault(relation, _Relation(query.temp_tables))
        theirs = group.temp_tables
        if theirs.keys() != query.temp_tables.keys() or not all(
            table.equals(theirs[name]) for name, table in query.temp_tables.items()
        ):
            alone.append((query, "its temp tables differ from those of its relation's queries"))
            continue
        calc = dict(items or ())
        if as_sets:
            keys = {
                k: (view[k], calc.get(k, ColumnRef(k)) if view[k] is LogicalType.STR else None)
                for k in aggregate.groupby
            }
            if any(group.keys.get(name, sig) != sig for name, sig in keys.items()):
                alone.append((query, "a group key clashes in type or collation with a set's"))
                continue
            group.keys.update(keys)
        # A grain is its calculated columns, not what it passes through.
        made = None if items is None else tuple(i for i in items if i[1] != ColumnRef(i[0]))
        grain = group.grains.setdefault((aggregate.groupby, made), _Grain(aggregate.groupby))
        if items is not None:
            grain.items = {**(grain.items or {}), **calc}
        columns = [(key, key) for key in aggregate.groupby]
        for alias, agg in aggregate.aggs:
            defined = (agg.func, None if agg.arg is None else substitute(agg.arg, calc))
            name = group.names.setdefault(defined, f"__f{len(group.names)}")
            grain.aggs[name] = agg
            columns.append((alias, name))
        grain.parts.append((query, tuple(columns), shape + query.post_ops))
    merged = []
    for relation, group in relations.items():
        grains = list(group.grains.values())
        for unit in [grains] if as_sets else [[grain] for grain in grains]:
            parts = [part for grain in unit for part in grain.parts]
            if len(parts) == 1:
                where = "" if as_sets else " at its grain"
                alone.append((parts[0][0], f"only query on its relation{where}"))
                continue
            sets = [
                GroupingSet(g.groupby, g.aggs.items(), None if g.items is None else g.items.items())
                for g in unit
            ]
            plan = GroupingSets(relation, sets) if as_sets else sets[0].over(relation)
            if source.query_language == "tql":
                text = to_tql(plan)
            else:
                text = generate_sql(plan, source.dialect, ModelCatalog(source, group.temp_tables))
            splits = [
                Split(i if as_sets else None, columns, ops)
                for i, grain in enumerate(unit)
                for _, columns, ops in grain.parts
            ]
            query = MergedQuery(
                None, source.name, source.query_language, text, plan, dict(group.temp_tables),
                parts=tuple(query for query, _, _ in parts), splits=tuple(splits),
            )
            merged.append(query)
            if obs.events_enabled():
                obs.event(
                    "fusion",
                    "merged",
                    f"{len(parts)} queries over one relation sent as one {query.form} query",
                    members=[part.spec.canonical() for part in query.parts],
                    form=query.form,
                    sets=len(sets),
                )
    if obs.events_enabled():
        for query, reason in alone:
            obs.event("fusion", "not_merged", reason, spec=query.spec.canonical())
    return merged


def _unshaped(plan: LogicalPlan):
    """A full compilation's ``Aggregate``, and its shape as post-ops."""
    if isinstance(plan, TopN):
        return plan.child, shape_ops(plan.keys, plan.n)
    if isinstance(plan, Order):
        return plan.child, shape_ops(plan.keys, None)
    if isinstance(plan, Limit):
        return plan.child, shape_ops((), plan.n)
    return plan, ()
