"""Virtual-time machine tests: the parallelism shapes of paper 4.2."""

import pytest

from repro.sim import MachineModel, simulate_plan
from repro.sim.machine import _lpt_makespan
from repro.sim.metrics import Recorder
from repro.tde.engine import _node_label
from repro.tde.exec.physical import PhysNode
from repro.tde.optimizer.cost import operator_work
from repro.tde.optimizer.parallel import PlannerOptions
from tests.conftest import build_flights_engine

ENGINE = build_flights_engine(n=50_000, max_dop=8, min_work_per_fraction=4000)

AGG = '(aggregate (carrier_id) ((s (sum delay)) (n (count))) (scan "Extract.flights"))'
JOIN = (
    '(aggregate (name) ((s (sum delay))) (join inner ((carrier_id id))'
    ' (scan "Extract.flights") (scan "Extract.carriers")))'
)
SORTED_AGG = '(aggregate (date_) ((n (count))) (scan "Extract.flights"))'


def _elapsed(query: str, *, dop: int, cores: int) -> float:
    plan = ENGINE.plan(query, options=PlannerOptions(max_dop=dop, min_work_per_fraction=4000))
    return simulate_plan(plan, MachineModel(cores=cores)).elapsed_s


class TestLpt:
    def test_empty(self):
        assert _lpt_makespan([], 4) == 0

    def test_single_core_is_sum(self):
        assert _lpt_makespan([3.0, 1.0, 2.0], 1) == 6.0

    def test_perfect_split(self):
        assert _lpt_makespan([1.0, 1.0, 1.0, 1.0], 4) == 1.0

    def test_imbalance(self):
        assert _lpt_makespan([4.0, 1.0, 1.0], 2) == 4.0


class TestParallelShapes:
    @pytest.mark.parametrize("query", [AGG, JOIN, SORTED_AGG])
    def test_parallel_beats_serial_on_multicore(self, query):
        serial = _elapsed(query, dop=1, cores=4)
        parallel = _elapsed(query, dop=8, cores=4)
        assert parallel < serial * 0.6

    @pytest.mark.parametrize("query", [AGG, JOIN, SORTED_AGG])
    def test_parallel_overhead_on_single_core(self, query):
        """With one core the parallel plan can only lose (thread setup)."""
        serial = _elapsed(query, dop=1, cores=1)
        parallel = _elapsed(query, dop=8, cores=1)
        assert parallel >= serial

    def test_speedup_monotone_in_cores(self):
        elapsed = [_elapsed(AGG, dop=8, cores=c) for c in (1, 2, 4, 8)]
        assert elapsed == sorted(elapsed, reverse=True)

    def test_range_partition_scales_better_than_local_global(self):
        """Removing the global phase (Lemma 3) improves 8-core scaling."""
        lg_speedup = _elapsed(AGG, dop=1, cores=8) / _elapsed(AGG, dop=8, cores=8)
        rp_speedup = _elapsed(SORTED_AGG, dop=1, cores=8) / _elapsed(SORTED_AGG, dop=8, cores=8)
        assert rp_speedup > lg_speedup

    def test_cpu_time_close_to_serial(self):
        """Parallelism redistributes work; it must not inflate it much."""
        serial_plan = ENGINE.plan(AGG, options=PlannerOptions(max_dop=1))
        par_plan = ENGINE.plan(AGG, options=PlannerOptions(max_dop=8, min_work_per_fraction=4000))
        serial = simulate_plan(serial_plan, MachineModel(cores=1))
        parallel = simulate_plan(par_plan, MachineModel(cores=8))
        assert parallel.cpu_s < serial.cpu_s * 1.5

    def test_fragments_reported(self):
        plan = ENGINE.plan(AGG, options=PlannerOptions(max_dop=8, min_work_per_fraction=4000))
        report = simulate_plan(plan, MachineModel(cores=8))
        assert report.fragments >= 2
        assert report.speedup_headroom > 1.0

    def test_shared_build_counted_once(self):
        plan = ENGINE.plan(JOIN, options=PlannerOptions(max_dop=8, min_work_per_fraction=4000))
        report_few = simulate_plan(plan, MachineModel(cores=8))
        # Build-side work (5 rows) is negligible; elapsed must be close to
        # the probe fragments' makespan, not multiplied by fragment count.
        probe_only = ENGINE.plan(AGG, options=PlannerOptions(max_dop=8, min_work_per_fraction=4000))
        report_probe = simulate_plan(probe_only, MachineModel(cores=8))
        assert report_few.elapsed_s < report_probe.elapsed_s * 4


FLIGHTS = '(scan "Extract.flights")'
STAR = f'(join inner ((carrier_id id)) {FLIGHTS} (scan "Extract.carriers"))'
#: Between them, a plan for every operator the planner can emit.
EVERY_OPERATOR = [
    (AGG, {}),  # fused scan+aggregate fragments under an exchange
    (JOIN, {}),
    (f"(aggregate (date_) ((n (count))) {FLIGHTS})", {"max_dop": 1}),  # stream aggregate
    (f"(order ((delay asc)) {FLIGHTS})", {}),  # one sort above an exchange
    (f"(order ((delay asc)) {FLIGHTS})", {"max_dop": 1}),
    (f"(limit 5 (topn 9 ((delay desc)) (select (or (> delay 1.0) (= name \"Delta\")) {STAR})))", {}),
    (f'(select (= date_ (date "2014-03-01")) {FLIGHTS})', {}),  # RLE index scan
    (f"(project ((d2 (* delay 2.0))) {STAR})", {"enable_pipeline_fusion": False}),
    (f"(window ((r row_number (order (delay asc)))) (limit 50 {FLIGHTS}))", {}),
    (
        "(grouping-sets (set (name) ((n (count)))) (set (half) ((s (sum delay)))"
        f" ((half (/ distance 2)) (delay delay))) (set () ((u (count_distinct market_id)))) {STAR})",
        {},
    ),
]


def _all_operators() -> set[type]:
    found, todo = set(), [PhysNode]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


class TestEveryOperatorIsKnown:
    """An operator the planner emits but the cost model, the simulator
    or EXPLAIN never heard of fails here, not in an unguarded benchmark:
    the simulator refused ``PFusedPipeline`` — and with it the paper's
    4.2 figure (E8) — from PR 8 until this test existed."""

    @pytest.fixture(scope="class")
    def plans(self):
        return [
            ENGINE.plan(
                ENGINE.parse(q), options=PlannerOptions(**{"max_dop": 8, "min_work_per_fraction": 4000, **o})
            )
            for q, o in EVERY_OPERATOR
        ]

    def test_the_plans_cover_every_operator(self, plans):
        seen = {type(node) for plan in plans for node in plan.walk()}
        assert seen == _all_operators(), "add a plan above for the new operator"

    def test_each_has_a_cost_formula_a_label_and_a_simulator_case(self, plans):
        for plan in plans:
            report = simulate_plan(plan, MachineModel(cores=4))
            assert report.elapsed_s >= 0 and report.cpu_s >= report.elapsed_s * 0.99
            for node in plan.walk():
                work, rows = operator_work(node, [100.0] * len(node.children()))
                assert work >= 0 and rows >= 0
                assert _node_label(node) != type(node).__name__, "EXPLAIN has no label for it"

    def test_sharing_the_scan_is_cheaper_than_scanning_per_set(self, plans):
        sets = ENGINE.parse(EVERY_OPERATOR[-1][0])
        shared = simulate_plan(plans[-1], MachineModel(cores=4))
        alone = [
            simulate_plan(
                ENGINE.plan(s.over(sets.child), options=PlannerOptions(max_dop=8, min_work_per_fraction=4000)),
                MachineModel(cores=4),
            )
            for s in sets.sets
        ]
        assert shared.cpu_s < sum(r.cpu_s for r in alone)
        assert shared.cpu_s > max(r.cpu_s for r in alone)


class TestRecorder:
    def test_render(self):
        rec = Recorder("demo", columns=["a", "b"])
        rec.add(1, 2.5)
        rec.add("x", 0.00012)
        text = rec.render()
        assert "demo" in text and "2.50" in text and "0.0001" in text
