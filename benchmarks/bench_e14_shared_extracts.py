"""E14 (§5.2): shared published extracts vs per-workbook copies.

"Instead of 100 workbooks with distinct copies of the same extract, a
single extract is created. Refreshing a single extract daily — rather
than all copies of it — significantly reduces the query load on the
underlying database."

We model a nightly refresh for N workbooks. Embedded: every workbook owns
an extract copy, so each refresh re-extracts from the warehouse (one full
scan each) and stores its own bytes. Published: one shared extract, one
re-extraction. Expected shape: warehouse scan count and storage both drop
by a factor of N.
"""


from repro.connectors import TdeDataSource
from repro.server import DataServer
from repro.sim.metrics import Recorder
from repro.tde import DataEngine

from .conftest import make_backend, record

N_WORKBOOKS = 10


def _extract_from_warehouse(db) -> DataEngine:
    """One extract refresh = full fact scan at the warehouse + a copy."""
    session = db.open_session()
    try:
        fact = session.execute('SELECT * FROM "Extract"."flights"')
    finally:
        session.close()
    engine = DataEngine("extract")
    engine.create_table("Extract.flights", fact)
    return engine


def test_e14_shared_extracts(benchmark, dataset, model):
    from repro.connectors.simdb import ServerProfile

    profile = ServerProfile(work_unit_time_s=2e-8, name="edw")
    db, source = make_backend(dataset, profile, name="edw")

    # Embedded: each workbook refreshes its own copy.
    before = db.stats.queries
    embedded = [_extract_from_warehouse(db) for _ in range(N_WORKBOOKS)]
    embedded_queries = db.stats.queries - before
    embedded_bytes = sum(e.table("Extract.flights").nbytes for e in embedded)

    # Published: one shared extract behind Data Server.
    before = db.stats.queries
    shared_extract = _extract_from_warehouse(db)
    server = DataServer()
    server.publish("faa", model, TdeDataSource(shared_extract))
    server.refresh_extract("faa")
    published_queries = db.stats.queries - before
    published_bytes = shared_extract.table("Extract.flights").nbytes

    recorder = Recorder(
        f"E14: nightly refresh for {N_WORKBOOKS} workbooks",
        columns=["strategy", "warehouse_scans", "extract_bytes"],
    )
    recorder.add("embedded per-workbook extracts", embedded_queries, embedded_bytes)
    recorder.add("published shared extract", published_queries, published_bytes)
    record("e14_shared_extracts", recorder)

    assert embedded_queries == N_WORKBOOKS
    assert published_queries == 1
    assert embedded_bytes >= published_bytes * N_WORKBOOKS

    benchmark.pedantic(lambda: _extract_from_warehouse(db), rounds=3, iterations=1)
