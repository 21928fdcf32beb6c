"""E8 (Figure 3 of §4.2): parallel plan generation for flow pipelines.

The bottom-up algorithm parallelizes TableScan→Select→Project pipelines
and closes them with an Exchange at stop-and-go operators. We replay the
generated plans on the virtual multicore machine (the host is GIL-bound;
see repro.sim) across a core sweep. Expected shape: speedup grows with
cores up to the fragment count; on one core the parallel plan pays a small
overhead; expensive per-row expressions raise the chosen degree.
"""


from repro.sim import MachineModel, simulate_plan
from repro.sim.metrics import Recorder
from repro.tde.exec import PExchange
from repro.tde.optimizer.parallel import PlannerOptions
from tests.conftest import build_flights_engine

from .conftest import record

ENGINE = build_flights_engine(n=200_000, max_dop=8, min_work_per_fraction=16_000)

#: A cheap pipeline and an expensive one (string manipulation per row —
#: the cost-profile case of paper 4.2.2).
CHEAP = '(aggregate () ((n (count))) (select (> delay 20) (scan "Extract.flights")))'
EXPENSIVE = (
    '(aggregate () ((n (count))) (select (and (> delay 20)'
    ' (> (sqrt (* delay delay)) 19.9)) (scan "Extract.flights")))'
)


def _plans(query: str):
    serial = ENGINE.plan(query, options=PlannerOptions(max_dop=1))
    parallel = ENGINE.plan(
        query, options=PlannerOptions(max_dop=8, min_work_per_fraction=16_000)
    )
    return serial, parallel


def test_e8_parallel_plans(benchmark):
    recorder = Recorder(
        "E8: flow-pipeline parallel plans (200k rows, virtual time)",
        columns=["pipeline", "cores", "serial_ms", "parallel_ms", "speedup"],
    )
    curves = {}
    for label, query in (("cheap filter", CHEAP), ("costly expression", EXPENSIVE)):
        serial_plan, parallel_plan = _plans(query)
        speedups = []
        for cores in (1, 2, 4, 8):
            machine = MachineModel(cores=cores)
            s = simulate_plan(serial_plan, machine).elapsed_s
            p = simulate_plan(parallel_plan, machine).elapsed_s
            recorder.add(label, cores, s * 1000, p * 1000, s / p)
            speedups.append(s / p)
        curves[label] = speedups
        # Correctness: both plans return identical answers (real runtime).
        from repro.tde.exec.physical import ExecContext, execute_to_table

        assert execute_to_table(serial_plan, ExecContext()).approx_equals(
            execute_to_table(parallel_plan, ExecContext()), ordered=False
        )
    record("e8_parallel_plans", recorder)

    for label, speedups in curves.items():
        assert speedups[0] < 1.05  # one core: parallelism cannot win
        assert speedups == sorted(speedups)  # monotone in cores
        assert speedups[-1] > 2.5, label

    # The cost profile drives the degree decision: a cheap pipeline over a
    # small table stays serial while a costly one parallelizes.
    small = build_flights_engine(n=8_000, max_dop=8, min_work_per_fraction=16_000)
    cheap_small = small.plan(CHEAP)
    costly_small = small.plan(EXPENSIVE)
    cheap_deg = max((n.degree for n in cheap_small.walk() if isinstance(n, PExchange)), default=1)
    costly_deg = max((n.degree for n in costly_small.walk() if isinstance(n, PExchange)), default=1)
    assert costly_deg > cheap_deg

    _serial, parallel_plan = _plans(CHEAP)
    benchmark(lambda: simulate_plan(parallel_plan, MachineModel(cores=8)).elapsed_s)
