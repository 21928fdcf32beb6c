"""Query specifications: the structured form of a zone's data request.

Specs are immutable and hashable; the intelligent cache keys on their
canonical text and reasons about subsumption between them (paper 3.2).
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Union

from ..errors import WorkloadError
from ..expr.ast import AggExpr, Call, ColumnRef, Expr, Literal, columns_used, conjoin
from ..expr.sexpr import to_sexpr


@dataclass(frozen=True)
class CategoricalFilter:
    """Keep rows whose ``field`` is in ``values`` (or not, if ``exclude``)."""

    field: str
    values: tuple[Any, ...]
    exclude: bool = False

    def __init__(self, field: str, values, exclude: bool = False):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "exclude", exclude)

    def predicate(self) -> Expr:
        base = Call("in", (ColumnRef(self.field), Literal(self.values)))
        return Call("not", (base,)) if self.exclude else base

    def canonical(self) -> str:
        word = "not-in" if self.exclude else "in"
        return f"({word} {self.field} {sorted(map(_canon_value, self.values))})"


@dataclass(frozen=True)
class RangeFilter:
    """Keep rows with ``low <= field < high`` (either bound may be open).

    The half-open convention composes cleanly for dates and makes range
    subsumption checks in the cache a simple interval containment.
    """

    field: str
    low: Any = None
    high: Any = None

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise WorkloadError("range filter needs at least one bound")

    def predicate(self) -> Expr:
        parts: list[Expr] = []
        if self.low is not None:
            parts.append(Call(">=", (ColumnRef(self.field), Literal(self.low))))
        if self.high is not None:
            parts.append(Call("<", (ColumnRef(self.field), Literal(self.high))))
        out = conjoin(parts)
        assert out is not None
        return out

    def canonical(self) -> str:
        return f"(range {self.field} {_canon_value(self.low)} {_canon_value(self.high)})"


@dataclass(frozen=True)
class TopNFilter:
    """Keep rows whose ``field`` value ranks in the top ``n`` by ``by``.

    Example (paper Fig. 2): "the Carrier zone is filtered to the top 5
    carriers, based upon number of flights".
    """

    field: str
    by: AggExpr
    n: int
    ascending: bool = False

    def canonical(self) -> str:
        direction = "asc" if self.ascending else "desc"
        return f"(topn {self.field} {self.n} {direction} {to_sexpr(self.by)})"


Filter = Union[CategoricalFilter, RangeFilter, TopNFilter]


@dataclass(frozen=True)
class QuerySpec:
    """One aggregate-select-project request against a data source view.

    ``measures`` maps output aliases to aggregate expressions; an empty
    measure list makes this a *domain query* (distinct dimension values),
    the kind fact-table culling accelerates (paper 4.1.2).
    """

    datasource: str
    dimensions: tuple[str, ...] = ()
    measures: tuple[tuple[str, AggExpr], ...] = ()
    filters: tuple[Filter, ...] = ()
    order_by: tuple[tuple[str, bool], ...] = ()
    limit: int | None = None

    def __init__(
        self,
        datasource: str,
        dimensions=(),
        measures=(),
        filters=(),
        order_by=(),
        limit: int | None = None,
    ):
        object.__setattr__(self, "datasource", datasource)
        object.__setattr__(self, "dimensions", tuple(dimensions))
        object.__setattr__(self, "measures", tuple((n, a) for n, a in measures))
        object.__setattr__(self, "filters", tuple(filters))
        object.__setattr__(self, "order_by", tuple((k, bool(a)) for k, a in order_by))
        object.__setattr__(self, "limit", limit)
        if not self.dimensions and not self.measures:
            raise WorkloadError("a query needs dimensions or measures")

    # ------------------------------------------------------------------ #
    def canonical(self) -> str:
        """Deterministic text identity (cache keys, batch dedup).

        Built once per spec object and kept on the instance, outside the
        dataclass fields: equality, hashing, ``repr`` and ``replace``
        never see it, and two threads racing here write the same string.
        """
        text = self.__dict__.get("_canonical")
        if text is None:
            dims = " ".join(self.dimensions)
            measures = " ".join(f"({n} {to_sexpr(a)})" for n, a in self.measures)
            filters = " ".join(sorted(f.canonical() for f in self.filters))
            order = " ".join(f"({k} {'asc' if asc else 'desc'})" for k, asc in self.order_by)
            text = (
                f"(query {self.datasource} (dims {dims}) (measures {measures})"
                f" (filters {filters}) (order {order}) (limit {self.limit}))"
            )
            object.__setattr__(self, "_canonical", text)
        return text

    def fields_used(self) -> set[str]:
        """Every view field the spec touches (for calculation expansion)."""
        out = set(self.dimensions)
        for _n, agg in self.measures:
            out |= columns_used(agg.arg)
        for f in self.filters:
            out.add(f.field)
            if isinstance(f, TopNFilter):
                out |= columns_used(f.by.arg)
        # order_by keys reference *output* names (dims/measure aliases),
        # not view fields, so they are intentionally excluded here.
        return out

    def filter_fields(self) -> set[str]:
        return {f.field for f in self.filters}

    def with_filters(self, filters) -> "QuerySpec":
        return QuerySpec(
            self.datasource,
            self.dimensions,
            self.measures,
            tuple(filters),
            self.order_by,
            self.limit,
        )

    def with_dimensions(self, dimensions) -> "QuerySpec":
        return QuerySpec(
            self.datasource,
            tuple(dimensions),
            self.measures,
            self.filters,
            self.order_by,
            self.limit,
        )

    def with_measures(self, measures) -> "QuerySpec":
        return QuerySpec(
            self.datasource,
            self.dimensions,
            tuple(measures),
            self.filters,
            self.order_by,
            self.limit,
        )


def _canon_value(v: Any) -> str:
    if isinstance(v, (_dt.date, _dt.datetime)):
        return v.isoformat()
    return repr(v)
