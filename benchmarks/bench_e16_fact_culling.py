"""E16 (§4.1.2): fact-table culling for domain queries.

"The TDE optimizer is specially optimized for interactive analysis ...
removal of the fact table from a join is critical for performance of
domain queries, frequently sent by Tableau."

Domain queries (quick-filter domains: DISTINCT dim.column over the star
join) are measured with the rewrite on and off, in real wall time,
across fact-table sizes. Expected shape: with culling the latency is flat
(dimension-sized); without it the latency grows with the fact table —
the gap widening to orders of magnitude.
"""


from repro.sim.metrics import Recorder, time_call
from repro.tde.tql.plan import Join, TableScan
from tests.conftest import build_flights_engine

from .conftest import record

DOMAIN_QUERY = (
    '(distinct (name) (join inner ((carrier_id id))'
    ' (scan "Extract.flights") (scan "Extract.carriers")))'
)

SIZES = (20_000, 100_000, 400_000)


def test_e16_fact_culling(benchmark):
    recorder = Recorder(
        "E16: fact-table culling for domain queries (real time)",
        columns=["fact_rows", "culled_ms", "unculled_ms", "speedup"],
    )
    gaps = []
    last_engine = None
    for n in SIZES:
        engine = build_flights_engine(n=n, max_dop=1)
        last_engine = engine
        culled_plan = engine.rewrite(DOMAIN_QUERY)
        assert isinstance(culled_plan.child, TableScan)  # join removed
        t_culled, culled = time_call(lambda: engine.query(DOMAIN_QUERY), repeat=3)
        t_raw, raw = time_call(lambda: engine.query_naive(DOMAIN_QUERY), repeat=3)
        assert isinstance(engine.parse(DOMAIN_QUERY).child, Join)
        assert culled.equals_unordered(raw)
        recorder.add(n, t_culled * 1000, t_raw * 1000, t_raw / t_culled)
        gaps.append(t_raw / t_culled)
    record("e16_fact_culling", recorder)

    # The culled query is fact-size independent: the gap widens with n.
    assert gaps[-1] > gaps[0]
    assert gaps[-1] > 10.0  # "critical for performance"

    benchmark(lambda: last_engine.query(DOMAIN_QUERY))
