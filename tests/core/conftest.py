"""Core-layer fixtures: a shared backend + helpers to evaluate specs."""


import pytest

from repro.connectors import SimDbDataSource, SimulatedDatabase
from repro.connectors.simdb import ServerProfile
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.expr.ast import AggExpr, ColumnRef
from repro.queries import DataSourceModel, JoinSpec, QuerySpec
from tests.conftest import build_flights_engine

ENGINE = build_flights_engine(n=4000, seed=21)

COUNT = AggExpr("count")
SUM_DELAY = AggExpr("sum", ColumnRef("delay"))
AVG_DELAY = AggExpr("avg", ColumnRef("delay"))
MIN_DELAY = AggExpr("min", ColumnRef("delay"))
DISTINCT_MARKETS = AggExpr("count_distinct", ColumnRef("market_id"))


def make_source(**profile_kwargs) -> SimDbDataSource:
    profile = ServerProfile(time_scale=0, **profile_kwargs)
    db = SimulatedDatabase("warehouse", profile)
    for s, t, tab in ENGINE.database.iter_tables():
        db.load_table(f"{s}.{t}", tab)
    return SimDbDataSource(db)


def make_model() -> DataSourceModel:
    return DataSourceModel(
        "faa",
        "Extract.flights",
        joins=(
            JoinSpec("Extract.carriers", (("carrier_id", "id"),)),
            JoinSpec("Extract.markets", (("market_id", "mid"),)),
        ),
    )


@pytest.fixture()
def source():
    return make_source()


@pytest.fixture()
def model():
    return make_model()


@pytest.fixture()
def raw_pipeline(source, model):
    """A pipeline with every optimization off — the reference oracle."""
    return QueryPipeline(
        source,
        model,
        options=PipelineOptions(
            enable_intelligent_cache=False,
            enable_literal_cache=False,
            enable_fusion=False,
            enable_batch_graph=False,
            enrich_for_reuse=False,
            concurrent=False,
        ),
    )


def spec(**kwargs) -> QuerySpec:
    return QuerySpec("faa", **kwargs)
