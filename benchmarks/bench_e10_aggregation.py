"""E10 (Figure 5 of §4.2.3): aggregation strategies under parallelism.

Three strategies for a parallel GROUP BY, replayed in virtual time:

* naive           — Exchange closes parallelism, one serial aggregate
                    on top of the raw merged rows;
* local/global    — aggregate each fragment, Exchange merges the small
                    partials, a global aggregate finishes (Figure 5);
* range-partition — the sort-prefix group-by column lets the scan split
                    at key boundaries, removing the global phase and the
                    Exchange serialization point entirely (Lemmas 1–3).

Expected shape: local/global ≫ naive at higher core counts; range
partitioning wins again over local/global; with a skewed/low-cardinality
partition key the planner refuses range partitioning (the caveat).
"""


from repro.sim import MachineModel, simulate_plan
from repro.sim.metrics import Recorder
from repro.tde import DataEngine
from repro.tde.exec import PExchange, PHashAggregate, PStreamAggregate
from repro.tde.exec.physical import ExecContext, execute_to_table
from repro.tde.optimizer.parallel import PlannerOptions
from tests.conftest import build_flights_engine

from .conftest import record

ENGINE = build_flights_engine(n=200_000, max_dop=8, min_work_per_fraction=16_000)

UNSORTED_GROUP = '(aggregate (carrier_id) ((s (sum delay)) (n (count))) (scan "Extract.flights"))'
SORTED_GROUP = '(aggregate (date_) ((s (sum delay)) (n (count))) (scan "Extract.flights"))'


def _options(**kwargs) -> PlannerOptions:
    return PlannerOptions(max_dop=8, min_work_per_fraction=16_000, **kwargs)


def test_e10_aggregation_strategies(benchmark):
    naive = ENGINE.plan(
        UNSORTED_GROUP, options=_options(enable_local_global_agg=False, enable_range_partition_agg=False)
    )
    local_global = ENGINE.plan(UNSORTED_GROUP, options=_options(enable_range_partition_agg=False))
    range_part = ENGINE.plan(SORTED_GROUP, options=_options())
    lg_on_sorted = ENGINE.plan(SORTED_GROUP, options=_options(enable_range_partition_agg=False))

    # Plan shapes: naive = serial agg over Exchange of scans; local/global
    # = agg over Exchange of aggs; range partition = Exchange of aggs.
    assert isinstance(naive, PHashAggregate) and isinstance(naive.child, PExchange)
    assert all(not isinstance(c, (PHashAggregate, PStreamAggregate)) for c in naive.child.children())
    assert isinstance(local_global, PHashAggregate)
    assert all(isinstance(c, PHashAggregate) for c in local_global.child.children())
    assert isinstance(range_part, PExchange)
    assert all(
        isinstance(c, (PHashAggregate, PStreamAggregate)) for c in range_part.children()
    )

    recorder = Recorder(
        "E10: parallel aggregation strategies (virtual time, ms)",
        columns=["cores", "naive", "local/global", "lg_sorted", "range_part"],
    )
    ratios = {}
    for cores in (2, 4, 8):
        machine = MachineModel(cores=cores)
        t_naive = simulate_plan(naive, machine).elapsed_s * 1000
        t_lg = simulate_plan(local_global, machine).elapsed_s * 1000
        t_lgs = simulate_plan(lg_on_sorted, machine).elapsed_s * 1000
        t_rp = simulate_plan(range_part, machine).elapsed_s * 1000
        recorder.add(cores, t_naive, t_lg, t_lgs, t_rp)
        ratios[cores] = (t_naive, t_lg, t_lgs, t_rp)
    record("e10_aggregation", recorder)

    t_naive, t_lg, t_lgs, t_rp = ratios[8]
    assert t_lg < t_naive  # Figure 5's improvement
    assert t_rp < t_lgs  # Lemma 3 removes the global phase

    # Correctness of every strategy.
    reference = ENGINE.query_naive(UNSORTED_GROUP)
    for plan in (naive, local_global):
        assert execute_to_table(plan, ExecContext()).approx_equals(
            reference, ordered=False, rel=1e-7, abs_tol=1e-6
        )
    sorted_ref = ENGINE.query_naive(SORTED_GROUP)
    assert execute_to_table(range_part, ExecContext()).approx_equals(
        sorted_ref, ordered=False, rel=1e-7, abs_tol=1e-6
    )

    benchmark(lambda: simulate_plan(range_part, MachineModel(cores=8)).elapsed_s)


def test_e10b_skew_caveat(benchmark):
    """"if the data is skewed or if the partition key has very low
    cardinality (e.g. partitioning on gender), range partitioning may be
    slower" — our planner declines range partitioning when the sort key
    cannot produce balanced fractions."""
    engine = DataEngine("skewed", options=PlannerOptions(max_dop=8, min_work_per_fraction=4000))
    n = 100_000
    engine.load_pydict(
        "Extract.t",
        {"gender": ["f"] * (n // 2) + ["m"] * (n // 2), "v": list(range(n))},
        sort_keys=["gender"],
        encodings={"gender": None} if False else {},
    )
    plan = engine.plan('(aggregate (gender) ((s (sum v))) (scan "Extract.t"))')
    # Low-cardinality partition key: either the split is refused (falls
    # back to local/global) or it degenerates to very few fractions.
    if isinstance(plan, PExchange):
        assert plan.degree <= 2  # at most one boundary exists
        report = simulate_plan(plan, MachineModel(cores=8))
        serial = simulate_plan(
            engine.plan('(aggregate (gender) ((s (sum v))) (scan "Extract.t"))',
                        options=PlannerOptions(max_dop=1)),
            MachineModel(cores=8),
        )
        # Skewed range partitioning buys little over serial.
        assert report.elapsed_s > serial.elapsed_s * 0.4
    else:
        assert isinstance(plan, PHashAggregate)

    benchmark(lambda: engine.query('(aggregate (gender) ((s (sum v))) (scan "Extract.t"))'))
