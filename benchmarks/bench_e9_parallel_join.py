"""E9 (Figure 4 of §4.2): the parallel join plan.

"The left sub-tree of the join participates in the main parallelism. The
right sub-tree forms a separate and independent parallel unit, and the
resulting table is shared between threads. A single hash table is built
from the shared table and then shared for every left-hand block to probe."

Expected shape: the probe side scales with cores while the (small) shared
build is paid once; plan structure contains exactly one SharedTable under
N join fragments.

The query filters on the dimension's ``name``. Without the filter,
``culling.foreign_key_space`` groups the partials by ``carrier_id`` and
joins ``carriers`` above them, and Figure 4 no longer appears.
"""


from repro.sim import MachineModel, simulate_plan
from repro.sim.metrics import Recorder
from repro.tde.exec import PHashJoin, SharedBuild
from repro.tde.exec.physical import ExecContext, execute_to_table
from repro.tde.optimizer.parallel import PlannerOptions
from tests.conftest import build_flights_engine

from .conftest import record

ENGINE = build_flights_engine(n=200_000, max_dop=8, min_work_per_fraction=16_000)

QUERY = (
    '(aggregate (name) ((n (count)) (s (sum delay)))'
    ' (select (not (= name "none"))'
    ' (join inner ((carrier_id id)) (scan "Extract.flights") (scan "Extract.carriers"))))'
)


def test_e9_parallel_join(benchmark):
    options = PlannerOptions(max_dop=8, min_work_per_fraction=16_000)
    serial = ENGINE.plan(QUERY, options=PlannerOptions(max_dop=1))
    parallel = ENGINE.plan(QUERY, options=options)

    # The filter keeps the join below the partial aggregates.
    notes = ENGINE.explain(QUERY, options=options).to_dict()["provenance"]
    fk_space = [n for n in notes if n["rule"] == "culling.foreign_key_space"]
    assert fk_space and not any(n["fired"] for n in fk_space)

    # Figure-4 structure: N fragments each probing one shared build.
    joins = [n for n in parallel.walk() if isinstance(n, PHashJoin)]
    shared = {id(j.build_source) for j in joins if isinstance(j.build_source, SharedBuild)}
    assert len(joins) >= 2
    assert len(shared) == 1  # one hash table shared by every fragment

    recorder = Recorder(
        "E9: parallel join, shared build (200k ⋈ 8, virtual time)",
        columns=["cores", "serial_ms", "parallel_ms", "speedup"],
    )
    speedups = []
    for cores in (1, 2, 4, 8):
        machine = MachineModel(cores=cores)
        s = simulate_plan(serial, machine).elapsed_s
        p = simulate_plan(parallel, machine).elapsed_s
        recorder.add(cores, s * 1000, p * 1000, s / p)
        speedups.append(s / p)
    record("e9_parallel_join", recorder)

    assert speedups[-1] > 3.0
    assert speedups == sorted(speedups)
    assert execute_to_table(serial, ExecContext()).approx_equals(
        execute_to_table(parallel, ExecContext()), ordered=False, rel=1e-7, abs_tol=1e-6
    )

    benchmark(lambda: simulate_plan(parallel, MachineModel(cores=8)).elapsed_s)
