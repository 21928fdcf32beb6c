"""Dashboard structure: zones and the actions linking them."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import WorkloadError
from ..expr.ast import AggExpr
from ..queries.spec import Filter, QuerySpec


@dataclass(frozen=True)
class Zone:
    """One dashboard zone backed by a query.

    ``kind`` is cosmetic metadata ("map", "bar", "filter", "text", ...);
    zones of kind ``"filter"`` are quick filters — their query is the
    domain query for their field, and user selections on them act like
    filter actions on every other zone (paper 3.2's Fig. 1 discussion).
    Zones with ``kind="legend"`` have no query at all.
    """

    name: str
    kind: str = "chart"
    dimensions: tuple[str, ...] = ()
    measures: tuple[tuple[str, AggExpr], ...] = ()
    filters: tuple[Filter, ...] = ()
    order_by: tuple[tuple[str, bool], ...] = ()
    limit: int | None = None

    def __init__(
        self,
        name: str,
        kind: str = "chart",
        dimensions=(),
        measures=(),
        filters=(),
        order_by=(),
        limit: int | None = None,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dimensions", tuple(dimensions))
        object.__setattr__(self, "measures", tuple((n, a) for n, a in measures))
        object.__setattr__(self, "filters", tuple(filters))
        object.__setattr__(self, "order_by", tuple((k, bool(a)) for k, a in order_by))
        object.__setattr__(self, "limit", limit)

    @property
    def has_query(self) -> bool:
        return self.kind != "legend" and (bool(self.dimensions) or bool(self.measures))

    def spec(self, datasource: str, extra_filters: tuple[Filter, ...]) -> QuerySpec:
        """The zone's query on ``datasource`` under ``extra_filters``.

        The unfiltered one is built once per data source and kept on the
        zone, outside the dataclass fields, as ``QuerySpec.canonical``
        keeps its text: every render then reuses it and its text."""
        kept = self.__dict__.setdefault("_specs", {}) if not extra_filters else {}
        spec = kept.get(datasource)
        if spec is None:
            spec = QuerySpec(
                datasource,
                self.dimensions,
                self.measures,
                self.filters + tuple(extra_filters),
                self.order_by,
                self.limit,
            )
            kept[datasource] = spec
        return spec


@dataclass(frozen=True)
class FilterAction:
    """An interactive filter action (paper Figure 2).

    Selecting marks in ``source`` filters every zone in ``targets`` on
    ``field`` by the selected values.
    """

    source: str
    field: str
    targets: tuple[str, ...]

    def __init__(self, source: str, field: str, targets):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "targets", tuple(targets))


@dataclass
class Dashboard:
    """A named collection of zones plus the actions between them."""

    name: str
    datasource: str
    zones: dict[str, Zone] = field(default_factory=dict)
    actions: list[FilterAction] = field(default_factory=list)

    def add_zone(self, zone: Zone) -> "Dashboard":
        if zone.name in self.zones:
            raise WorkloadError(f"duplicate zone {zone.name!r}")
        self.zones[zone.name] = zone
        return self

    def add_action(self, action: FilterAction) -> "Dashboard":
        if action.source not in self.zones:
            raise WorkloadError(f"action source zone {action.source!r} missing")
        for target in action.targets:
            if target not in self.zones:
                raise WorkloadError(f"action target zone {target!r} missing")
            if target == action.source:
                raise WorkloadError("an action cannot target its own source")
        self.actions.append(action)
        return self

    def add_quick_filter(self, name: str, field: str, *, targets=None) -> "Dashboard":
        """Add a quick-filter zone whose selection filters other zones.

        The zone's own query is the field's domain query — sent only once,
        since "further interactions might change the selection but not the
        domains" (paper 3.2).
        """
        zone = Zone(name, kind="filter", dimensions=(field,))
        self.add_zone(zone)
        if targets is None:
            targets = [z for z in self.zones if z != name and self.zones[z].kind != "filter"]
        self.add_action(FilterAction(name, field, targets))
        return self

    def queryable_zones(self) -> list[Zone]:
        return [z for z in self.zones.values() if z.has_query]

    def actions_from(self, zone_name: str) -> list[FilterAction]:
        return [a for a in self.actions if a.source == zone_name]

    def actions_onto(self, zone_name: str) -> list[FilterAction]:
        return [a for a in self.actions if zone_name in a.targets]
