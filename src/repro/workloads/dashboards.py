"""The paper's two example dashboards over the FAA dataset.

``fig1_dashboard`` rebuilds the nine-zone Flights On-Time dashboard of
Figure 1 (maps, slave charts, quick filters, record count, legend);
``fig2_dashboard`` rebuilds the three-zone Market/Carrier/Airline
dashboard of Figure 2 with its two interactive filter actions.
"""

from __future__ import annotations

from ..datatypes import LogicalType
from ..expr.ast import AggExpr, Cast, ColumnRef
from ..queries.spec import TopNFilter
from ..dashboard.model import Dashboard, FilterAction, Zone

_COUNT = AggExpr("count")


def _sum_bool(column: str) -> AggExpr:
    return AggExpr("sum", Cast(ColumnRef(column), LogicalType.INT))


def fig1_dashboard(datasource: str = "faa") -> Dashboard:
    """The FAA Flights On-Time dashboard (paper Figure 1)."""
    dash = Dashboard("flights-on-time", datasource)
    dash.add_zone(
        Zone(
            "origin_map",
            kind="map",
            dimensions=("origin_state_id",),
            measures=(("flights", _COUNT), ("avg_dep_delay", AggExpr("avg", ColumnRef("dep_delay")))),
        )
    )
    dash.add_zone(
        Zone(
            "dest_map",
            kind="map",
            dimensions=("dest_state_id",),
            measures=(("flights", _COUNT), ("avg_arr_delay", AggExpr("avg", ColumnRef("arr_delay")))),
        )
    )
    dash.add_zone(
        Zone(
            "carriers",
            kind="bar",
            dimensions=("carrier_name",),
            measures=(("flights", _COUNT), ("avg_arr_delay", AggExpr("avg", ColumnRef("arr_delay")))),
            order_by=(("flights", False),),
        )
    )
    dash.add_zone(
        Zone(
            "dest_airports",
            kind="bar",
            dimensions=("dest_airport",),
            measures=(("flights", _COUNT),),
            order_by=(("flights", False),),
        )
    )
    dash.add_zone(
        Zone(
            "cancellations_by_weekday",
            kind="bar",
            dimensions=("weekday",),
            measures=(("cancelled", _sum_bool("cancelled")), ("delayed", _sum_bool("delayed"))),
        )
    )
    dash.add_zone(
        Zone(
            "arr_delay_by_hour",
            kind="histogram",
            dimensions=("hour",),
            measures=(("avg_arr_delay", AggExpr("avg", ColumnRef("arr_delay"))), ("flights", _COUNT)),
        )
    )
    dash.add_zone(
        Zone("record_count", kind="text", measures=(("records", _COUNT),))
    )
    dash.add_zone(Zone("color_legend", kind="legend"))
    slaves = (
        "carriers",
        "dest_airports",
        "cancellations_by_weekday",
        "arr_delay_by_hour",
        "record_count",
    )
    # "The two upper maps ... allow specifying origins and destinations
    # for the slave charts at the bottom."
    dash.add_action(FilterAction("origin_map", "origin_state_id", slaves))
    dash.add_action(FilterAction("dest_map", "dest_state_id", slaves))
    # Right-hand side quick filters.
    dash.add_quick_filter("carrier_filter", "code", targets=list(slaves) + ["origin_map", "dest_map"])
    return dash


def fig2_dashboard(datasource: str = "faa") -> Dashboard:
    """Market / Carrier / Airline Name with two filter actions (Fig. 2)."""
    dash = Dashboard("market-carrier-airline", datasource)
    dash.add_zone(
        Zone(
            "market",
            kind="bar",
            dimensions=("market",),
            measures=(("flights_per_day", _COUNT),),
            order_by=(("flights_per_day", False),),
        )
    )
    dash.add_zone(
        Zone(
            "carrier",
            kind="bar",
            dimensions=("code",),
            measures=(("flights_per_day", _COUNT),),
            # "filtered to the top 5 carriers, based upon number of flights"
            filters=(TopNFilter("code", _COUNT, 5),),
            order_by=(("flights_per_day", False),),
        )
    )
    dash.add_zone(
        Zone(
            "airline_name",
            kind="bar",
            dimensions=("carrier_name",),
            measures=(("flights_per_day", _COUNT),),
            order_by=(("flights_per_day", False),),
        )
    )
    # "(1) selecting a field in the Market zone will filter the results in
    # the Carrier and Airline Name zones, and (2) selecting a carrier in
    # the Carrier zone will filter the Airline Name zone."
    dash.add_action(FilterAction("market", "market", ("carrier", "airline_name")))
    dash.add_action(FilterAction("carrier", "code", ("airline_name",)))
    return dash
