"""Synthetic FAA Flights On-Time dataset (paper Figures 1–2, [43]).

The real dataset ("all the flights in the US in the past decade") is not
redistributable here, so this module generates a schema-compatible star
with controlled skew:

* fact ``flights``: flight date (sorted, RLE-friendly), departure hour,
  carrier, market (origin-destination city pair), origin/destination
  state, departure/arrival delays (seasonal + carrier effects),
  cancellations, diversions, distance;
* dimensions ``carriers``, ``markets``, ``states``.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import datetime as _dt
import math
import random
from dataclasses import dataclass

import numpy as np

from ..connectors.simdb import ServerProfile, SimulatedDatabase
from ..expr.ast import Call, ColumnRef, Literal
from ..queries.model import DataSourceModel, JoinSpec
from ..tde.engine import DataEngine
from ..tde.optimizer.parallel import PlannerOptions

CARRIERS = [
    ("AA", "American Airlines"),
    ("UA", "United Airlines"),
    ("DL", "Delta Air Lines"),
    ("WN", "Southwest Airlines"),
    ("B6", "JetBlue Airways"),
    ("AS", "Alaska Airlines"),
    ("NK", "Spirit Airlines"),
    ("F9", "Frontier Airlines"),
]

MARKETS = [
    ("LAX-SFO", "CA", "CA"),
    ("JFK-BOS", "NY", "MA"),
    ("HNL-OGG", "HI", "HI"),
    ("ORD-DEN", "IL", "CO"),
    ("SEA-PDX", "WA", "OR"),
    ("ATL-MCO", "GA", "FL"),
    ("DFW-IAH", "TX", "TX"),
    ("PHX-LAS", "AZ", "NV"),
    ("MSP-DTW", "MN", "MI"),
    ("CLT-BNA", "NC", "TN"),
    ("SLC-BOI", "UT", "ID"),
    ("MIA-SJU", "FL", "PR"),
]

STATES = sorted({m[1] for m in MARKETS} | {m[2] for m in MARKETS})

#: Markets that no HNL-OGG-like carrier serves; used to reproduce the
#: Figure 2 cascade (selecting HNL-OGG eliminates the AA selection).
_CARRIERS_BY_MARKET = {
    "HNL-OGG": (5,),  # only Alaska serves the island hop in this synth
}


#: Numpy types of the fact columns (the rest are bool or float64), and
#: the columns that hold NULLs.
_FACT_TYPES = {
    "date_": "datetime64[D]",
    **dict.fromkeys(
        ("hour", "carrier_id", "market_id", "origin_state_id", "dest_state_id", "distance"),
        np.int16,
    ),
}
_NULLABLE = ("dep_delay", "arr_delay")


@dataclass
class FlightsDataset:
    """Generated column data for the star schema.

    The fact table stays resident while it is served, so it is held as
    typed numpy columns (``fact``: the values, and the NULL mask of a
    column that has NULLs); ``flights`` reads it back as Python lists."""

    fact: dict[str, tuple[np.ndarray, np.ndarray | None]]
    carriers: dict[str, list]
    markets: dict[str, list]
    states: dict[str, list]
    n_rows: int

    @property
    def flights(self) -> dict[str, list]:
        out = {}
        for name, (values, nulls) in self.fact.items():
            column = values.tolist()
            if nulls is not None:
                column = [None if null else value for value, null in zip(column, nulls.tolist())]
            out[name] = column
        return out

    # ------------------------------------------------------------------ #
    def load_into_engine(
        self,
        engine: DataEngine | None = None,
        *,
        options: PlannerOptions | None = None,
    ) -> DataEngine:
        """Register the star schema (with constraints) in a TDE engine."""
        engine = engine or DataEngine("faa", options=options or PlannerOptions())
        engine.load_pydict(
            "Extract.flights",
            self.flights,
            sort_keys=["date_"],
            encodings={"date_": "rle"},
            replace=True,
        )
        engine.load_pydict("Extract.carriers", self.carriers, replace=True)
        engine.load_pydict("Extract.markets", self.markets, replace=True)
        engine.load_pydict("Extract.states", self.states, replace=True)
        engine.declare_unique("Extract.carriers", ["id"])
        engine.declare_unique("Extract.markets", ["mid"])
        engine.declare_unique("Extract.states", ["sid"])
        engine.declare_foreign_key(
            "Extract.flights", ["carrier_id"], "Extract.carriers", ["id"], total=True, onto=True
        )
        engine.declare_foreign_key(
            "Extract.flights", ["market_id"], "Extract.markets", ["mid"], total=True, onto=True
        )
        return engine

    def load_into_simdb(
        self, profile: ServerProfile | None = None, *, name: str = "warehouse"
    ) -> SimulatedDatabase:
        """Stand up a simulated SQL server holding the star schema."""
        db = SimulatedDatabase(name, profile)
        engine = self.load_into_engine(db.engine)
        assert engine is db.engine
        return db


def generate_flights(
    n_rows: int,
    *,
    seed: int = 42,
    start: _dt.date = _dt.date(2014, 1, 1),
    days: int = 365,
) -> FlightsDataset:
    """Generate ``n_rows`` flights over ``days`` days starting at ``start``.

    Skew: carrier and market popularity follow a 1/(k+1) Zipf-like decay;
    delays combine a seasonal wave, an hour-of-day ramp and per-carrier
    offsets; ~2% of flights cancel, more in winter.
    """
    rng = random.Random(seed)
    carrier_weights = [1.0 / (k + 1) for k in range(len(CARRIERS))]
    market_weights = [1.0 / (k + 1) for k in range(len(MARKETS))]
    market_names = [m[0] for m in MARKETS]
    restricted = {
        market_names.index(name): allowed for name, allowed in _CARRIERS_BY_MARKET.items()
    }
    state_index = {s: i for i, s in enumerate(STATES)}

    dates: list[_dt.date] = []
    per_day = n_rows / days
    acc = 0.0
    for d in range(days):
        acc += per_day
        count = int(acc)
        acc -= count
        dates.extend([start + _dt.timedelta(days=d)] * count)
    while len(dates) < n_rows:
        dates.append(start + _dt.timedelta(days=days - 1))
    dates = dates[:n_rows]

    flights: dict[str, list] = {
        "date_": dates,
        "hour": [],
        "carrier_id": [],
        "market_id": [],
        "origin_state_id": [],
        "dest_state_id": [],
        "dep_delay": [],
        "arr_delay": [],
        "distance": [],
        "cancelled": [],
        "diverted": [],
    }
    for date in dates:
        market_id = rng.choices(range(len(MARKETS)), weights=market_weights)[0]
        allowed = restricted.get(market_id)
        if allowed is not None:
            carrier_id = rng.choice(allowed)
        else:
            carrier_id = rng.choices(range(len(CARRIERS)), weights=carrier_weights)[0]
        hour = min(23, max(5, int(rng.gauss(13, 4))))
        season = 6.0 * math.sin(2 * math.pi * (date.timetuple().tm_yday / 365.0))
        base = 8.0 + season + 0.6 * (hour - 6) + 1.5 * carrier_id % 7
        dep_delay = round(rng.gauss(base, 18.0), 1)
        arr_delay = round(dep_delay + rng.gauss(0, 6.0), 1)
        winter = date.month in (12, 1, 2)
        cancelled = rng.random() < (0.035 if winter else 0.015)
        diverted = (not cancelled) and rng.random() < 0.002
        _name, origin_state, dest_state = MARKETS[market_id]
        flights["hour"].append(hour)
        flights["carrier_id"].append(carrier_id)
        flights["market_id"].append(market_id)
        flights["origin_state_id"].append(state_index[origin_state])
        flights["dest_state_id"].append(state_index[dest_state])
        flights["dep_delay"].append(None if cancelled else dep_delay)
        flights["arr_delay"].append(None if cancelled else arr_delay)
        flights["distance"].append(rng.randrange(120, 2800))
        flights["cancelled"].append(cancelled)
        flights["diverted"].append(diverted)
    fact = {}
    for name, column in flights.items():
        nulls = np.array([value is None for value in column]) if name in _NULLABLE else None
        if nulls is not None:
            column = [0.0 if value is None else value for value in column]
        elif name == "date_":
            column = np.datetime64(start, "D") + np.array([(day - start).days for day in column])
        fact[name] = (np.array(column, dtype=_FACT_TYPES.get(name)), nulls)

    carriers = {
        "id": list(range(len(CARRIERS))),
        "code": [c[0] for c in CARRIERS],
        "carrier_name": [c[1] for c in CARRIERS],
    }
    markets = {
        "mid": list(range(len(MARKETS))),
        "market": [m[0] for m in MARKETS],
        "origin_airport": [m[0].split("-")[0] for m in MARKETS],
        "dest_airport": [m[0].split("-")[1] for m in MARKETS],
    }
    states = {"sid": list(range(len(STATES))), "state": list(STATES)}
    return FlightsDataset(fact, carriers, markets, states, n_rows)


def flights_model(name: str = "faa") -> DataSourceModel:
    """The published view: star join plus shared calculations (paper 5.2)."""
    return DataSourceModel(
        name,
        "Extract.flights",
        joins=(
            JoinSpec("Extract.carriers", (("carrier_id", "id"),)),
            JoinSpec("Extract.markets", (("market_id", "mid"),)),
        ),
        calculations={
            # Weekday of the flight (0 = Monday), for the Fig. 1 breakdown.
            "weekday": Call("weekday", (ColumnRef("date_"),)),
            # Arrival delay bucketed to the hour of day, for the histogram.
            "delayed": Call(">", (ColumnRef("arr_delay"), Literal(15.0))),
            "dep_delay_hours": Call("/", (ColumnRef("dep_delay"), Literal(60.0))),
        },
    )
