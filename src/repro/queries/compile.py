"""Spec → remote plan + dialect text + temp tables + local post-ops.

The compiler mirrors paper 3.1: it builds a logical operator tree for the
view, applies structural simplification (delegated to the TDE optimizer's
rewrite pipeline where the target is the TDE), externalizes large
enumerations into temporary tables, consults backend capabilities, and —
when the backend cannot express something — falls back to a *detail-mode*
query whose missing pieces run locally in the post-processing stage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..datatypes import LogicalType
from ..errors import BindError, CapabilityError
from ..expr.ast import AggExpr, Call, ColumnRef, Expr, columns_used, conjoin, infer_type
from ..sql.generator import generate_sql, _Generator
from ..tde.optimizer import provenance
from ..tde.optimizer.cost import topn_pass_costs
from ..tde.storage.table import Table
from ..tde.tql.parser import to_tql
from ..tde.tql.plan import (
    Aggregate,
    Join,
    Limit,
    LogicalPlan,
    Order,
    Project,
    Select,
    TableScan,
    TopN,
)
from .model import DataSourceModel
from .postops import (
    LocalAggregate,
    LocalFilter,
    LocalLod,
    LocalProject,
    LocalTopNFilter,
    PostOp,
    rank_locally,
    shape_ops,
)
from .spec import CategoricalFilter, QuerySpec, TopNFilter


class ModelCatalog:
    """Binder catalog over a data source plus per-query temp tables."""

    def __init__(self, source, temp_tables: dict[str, Table] | None = None):
        self.source = source
        self.temp_tables = temp_tables or {}

    def schema_of(self, table: str) -> dict[str, LogicalType]:
        if table in self.temp_tables:
            return self.temp_tables[table].schema()
        return self.source.schema_of(table)

    def row_count(self, table: str) -> int:
        if table in self.temp_tables:
            return self.temp_tables[table].n_rows
        return self.source.row_count(table)


@dataclass
class CompiledQuery:
    """Everything needed to execute one spec against one data source."""

    spec: QuerySpec | None
    datasource: str
    language: str  # "sql" | "tql"
    text: str
    plan: LogicalPlan
    temp_tables: dict[str, Table] = field(default_factory=dict)
    post_ops: tuple[PostOp, ...] = ()
    detail_mode: bool = False

    @property
    def literal_key(self) -> str:
        """Key for the literal query cache: text + temp-table fingerprints.

        Two textually identical queries referencing temp tables with
        different contents must not collide.
        """
        digest = hashlib.sha256()
        digest.update(self.datasource.encode())
        digest.update(self.text.encode())
        for name in sorted(self.temp_tables):
            digest.update(name.encode())
            for row in self.temp_tables[name].to_rows():
                digest.update(repr(row).encode())
        return digest.hexdigest()


def compile_spec(
    spec: QuerySpec,
    model: DataSourceModel,
    source,
    *,
    externalize_threshold: int | None = None,
) -> CompiledQuery:
    """Compile one query spec for one data source."""
    compiler = _Compiler(spec, model, source, externalize_threshold)
    return compiler.compile()


class _Compiler:
    def __init__(self, spec, model, source, externalize_threshold):
        self.spec = spec
        self.model = model
        self.source = source
        self.dialect = source.dialect
        self.language = source.query_language
        if externalize_threshold is not None:
            self.externalize_threshold = externalize_threshold
        else:
            self.externalize_threshold = self.dialect.max_in_list
        self.temp_tables: dict[str, Table] = {}
        self.view_schema = model.schema(source)

    # ------------------------------------------------------------------ #
    def compile(self) -> CompiledQuery:
        self._validate()
        try:
            return self._compile_full(strip_shape=False)
        except CapabilityError as exc:
            if exc.capability == "limit" and not self._has_topn_filter():
                self.temp_tables = {}
                return self._compile_full(strip_shape=True)
            self.temp_tables = {}
            return self._compile_detail()

    def _validate(self) -> None:
        for name in self.spec.fields_used():
            if name not in self.view_schema:
                raise BindError(f"unknown field {name!r} in model {self.model.name}")
        out_names = set(self.spec.dimensions) | {n for n, _ in self.spec.measures}
        for key, _asc in self.spec.order_by:
            if key not in out_names:
                raise BindError(f"order key {key!r} is not in the query output")

    def _has_topn_filter(self) -> bool:
        return any(isinstance(f, TopNFilter) for f in self.spec.filters)

    # ------------------------------------------------------------------ #
    # Full pushdown
    # ------------------------------------------------------------------ #
    def _compile_full(self, *, strip_shape: bool) -> CompiledQuery:
        plan = self._calc_plan()
        plan = self._apply_lod_joins(plan)
        plan, topn = self._apply_filters_remote(plan)
        hoisted = self._hoist_topn(plan, topn)
        post_ops: tuple[PostOp, ...] = ()
        if hoisted is not None:
            plan, post_ops = hoisted
        else:
            for tf in topn:
                plan = self._topn_join(plan, tf)
            plan = Aggregate(plan, self.spec.dimensions, self.spec.measures)
            if strip_shape:
                post_ops = shape_ops(self.spec.order_by, self.spec.limit)
            else:
                plan = self._shape(plan)
        text = self._render(plan)
        return CompiledQuery(
            self.spec,
            self.source.name,
            self.language,
            text,
            plan,
            dict(self.temp_tables),
            post_ops,
        )

    def _calc_plan(self) -> LogicalPlan:
        base = self.model.base_plan()
        physical, calc_items, _lods = self.model.expand_fields(
            self.spec.fields_used(), self.source
        )
        if not calc_items:
            return base
        items = [(c, ColumnRef(c)) for c in sorted(physical)]
        items += sorted(calc_items.items())
        return Project(base, items)

    def _apply_lod_joins(self, plan: LogicalPlan) -> LogicalPlan:
        """Attach FIXED level-of-detail fields via aggregate subqueries.

        Each LOD becomes "compute agg grouped by its dimensions over the
        (unfiltered) view, then join back" — the paper 3.1's "subqueries
        for computed columns of different levels of detail". A LEFT join
        keeps rows whose LOD dimension is NULL (their LOD value is NULL).
        """
        _physical, _calcs, lod_items = self.model.expand_fields(
            self.spec.fields_used(), self.source
        )
        if not lod_items:
            return plan
        view = self._calc_plan()  # unfiltered view, calc columns included
        for name in sorted(lod_items):
            lod = lod_items[name]
            sub: LogicalPlan = Aggregate(view, lod.dimensions, ((name, lod.agg),))
            renamed = tuple(
                (f"__lod_{name}_{d}", ColumnRef(d)) for d in lod.dimensions
            ) + ((name, ColumnRef(name)),)
            sub = Project(sub, renamed)
            conditions = tuple((d, f"__lod_{name}_{d}") for d in lod.dimensions)
            plan = Join("left", conditions, plan, sub)
        return plan

    def _apply_filters_remote(self, plan: LogicalPlan) -> tuple[LogicalPlan, list[TopNFilter]]:
        """The plan under every filter but the Top-N ones, which it returns."""
        simple: list[Expr] = []
        topn: list[TopNFilter] = []
        for f in self.spec.filters:
            if isinstance(f, TopNFilter):
                topn.append(f)
            elif isinstance(f, CategoricalFilter) and self._should_externalize(f):
                plan = self._externalize(plan, f)
            else:
                simple.append(f.predicate())
        if simple:
            plan = Select(plan, conjoin(simple))
        return plan, topn

    def _should_externalize(self, f: CategoricalFilter) -> bool:
        if f.exclude:
            return False  # anti-join externalization is not supported
        threshold = self.externalize_threshold
        if threshold is None:
            return False
        if len(f.values) <= threshold:
            return False
        if not self.dialect.supports_temp_tables:
            raise CapabilityError(
                f"IN-list of {len(f.values)} values with no temp-table support",
                "in_list",
            )
        return True

    def _externalize(self, plan: LogicalPlan, f: CategoricalFilter) -> LogicalPlan:
        """Ship a large enumeration as a temp table + join (paper 3.1, 5.3)."""
        name = f"#tt{len(self.temp_tables)}"
        ltype = self.view_schema[f.field]
        values = sorted(set(f.values))
        self.temp_tables[name] = Table.from_pydict(
            {f.field: values}, types={f.field: ltype}
        )
        return Join("inner", ((f.field, f.field),), plan, TableScan(name))

    def _topn_join(self, plan: LogicalPlan, tf: TopNFilter) -> LogicalPlan:
        """The filter as a second pass over ``plan`` joined back; a NULL key is not ranked."""
        present = Select(plan, Call("not", (Call("isnull", (ColumnRef(tf.field),)),)))
        ranked = Aggregate(present, (tf.field,), (("__by", tf.by),))
        top = TopN(ranked, tf.n, (("__by", tf.ascending), (tf.field, True)))
        sub = Project(top, ((tf.field, ColumnRef(tf.field)),))
        return Join("inner", ((tf.field, tf.field),), plan, sub)

    def _hoist_topn(self, plan: LogicalPlan, topn: list[TopNFilter]):
        """A lone Top-N filter ranked locally: ``plan`` aggregated at the
        spec's grain plus the filter's field, and post-ops that rank, roll
        up and shape it. None (the ranking subquery) unless every aggregate
        re-aggregates exactly, a bound on the rows shipped exists and the
        second pass costs more than shipping them."""
        if len(topn) != 1:
            return None
        (tf,) = topn
        dims, measures = self.spec.dimensions, self.spec.measures
        grain = dims if tf.field in dims else (*dims, tf.field)
        hoist = False
        if not all(self._reaggregates(agg) for agg in (tf.by, *(a for _, a in measures))):
            why = "the ranking or a measure does not re-aggregate exactly"
        elif (bound := self.model.grain_rows(grain, self.source)) is None:
            why = "a grain column reads the base table, so nothing bounds the rows shipped"
        else:
            catalog = ModelCatalog(self.source, self.temp_tables)
            ranking, shipping = topn_pass_costs(plan, self._topn_join(plan, tf), bound, catalog)
            hoist = ranking > shipping
            why = f"ranking pass {ranking:.0f} work units, shipping <= {bound} rows {shipping:.0f}"
        why = f"top {tf.n} {tf.field}: {why}"
        provenance.note("compile.topn_hoist", hoist, why, spec=self.spec)
        if not hoist:
            return None
        ranked, ops = rank_locally(self.spec, tf)
        return Aggregate(plan, grain, ranked.measures), tuple(ops)

    def _reaggregates(self, agg: AggExpr) -> bool:
        """Whether ``agg`` over groups' partial results equals ``agg`` over
        their rows, exactly: counts, integer sums, MIN and MAX."""
        if agg.func == "sum":
            return infer_type(agg.arg, self.view_schema) is LogicalType.INT
        return agg.func in ("count", "min", "max")

    def _shape(self, plan: LogicalPlan) -> LogicalPlan:
        if self.spec.order_by and self.spec.limit is not None:
            return TopN(plan, self.spec.limit, self.spec.order_by)
        if self.spec.order_by:
            return Order(plan, self.spec.order_by)
        if self.spec.limit is not None:
            return Limit(plan, self.spec.limit)
        return plan

    # ------------------------------------------------------------------ #
    # Detail mode
    # ------------------------------------------------------------------ #
    def _compile_detail(self) -> CompiledQuery:
        """Fetch pre-filtered detail rows; aggregate and finish locally."""
        physical, calc_items, lod_items = self.model.expand_fields(
            self.spec.fields_used(), self.source
        )
        plan: LogicalPlan = self.model.base_plan()
        remote_preds: list[Expr] = []
        local_filters: list[Expr] = []
        topn_filters: list[TopNFilter] = []
        for f in self.spec.filters:
            if isinstance(f, TopNFilter):
                topn_filters.append(f)
                continue
            pred = f.predicate()
            if lod_items:
                # FIXED calculations are evaluated over the unfiltered
                # view: keep every filter local so the LOD sees all rows.
                local_filters.append(pred)
                continue
            if isinstance(f, CategoricalFilter) and self._can_externalize_detail(f):
                plan = self._externalize(plan, f)
                continue
            if columns_used(pred) <= physical and self._renders(pred):
                remote_preds.append(pred)
            else:
                local_filters.append(pred)
        if remote_preds:
            plan = Select(plan, conjoin(remote_preds))
        plan = Project(plan, tuple((c, ColumnRef(c)) for c in sorted(physical)))
        post_ops: list[PostOp] = []
        if calc_items:
            items = [(c, ColumnRef(c)) for c in sorted(physical)]
            items += sorted(calc_items.items())
            post_ops.append(LocalProject(items))
        for name in sorted(lod_items):
            lod = lod_items[name]
            post_ops.append(LocalLod(name, lod.dimensions, lod.agg))
        if local_filters:
            post_ops.append(LocalFilter(conjoin(local_filters)))
        for tf in topn_filters:
            post_ops.append(LocalTopNFilter(tf.field, tf.by, tf.n, tf.ascending))
        post_ops.append(LocalAggregate(self.spec.dimensions, self.spec.measures))
        post_ops.extend(shape_ops(self.spec.order_by, self.spec.limit))
        text = self._render(plan)
        return CompiledQuery(
            self.spec,
            self.source.name,
            self.language,
            text,
            plan,
            dict(self.temp_tables),
            tuple(post_ops),
            detail_mode=True,
        )

    def _can_externalize_detail(self, f: CategoricalFilter) -> bool:
        threshold = self.externalize_threshold
        return (
            not f.exclude
            and threshold is not None
            and len(f.values) > threshold
            and self.dialect.supports_temp_tables
        )

    def _renders(self, pred: Expr) -> bool:
        if self.language == "tql":
            return True
        try:
            _Generator(self.dialect).expr(pred)
            return True
        except CapabilityError:
            return False

    # ------------------------------------------------------------------ #
    def _render(self, plan: LogicalPlan) -> str:
        if self.language == "tql":
            return to_tql(plan)
        catalog = ModelCatalog(self.source, self.temp_tables)
        return generate_sql(plan, self.dialect, catalog)
