"""Multicore machine model: replay physical plans in virtual time.

The model walks a physical operator tree bottom-up, computing each
pipeline fragment's CPU work from the optimizer's cost constants and the
*actual* row counts of the scanned fractions (available on the plan's
``PScan`` nodes). Exchange inputs become parallel tasks scheduled onto K
cores with longest-processing-time list scheduling; everything above an
Exchange is serial; SharedTable builds are paid once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..tde.exec.exchange import PExchange, SharedBuild
from ..tde.exec.grouping import PGroupingSets
from ..tde.exec.physical import PHashJoin, PhysNode
from ..tde.optimizer import cost as C


@dataclass
class MachineModel:
    """A simulated host."""

    cores: int = 4
    #: Seconds of virtual time per cost-model work unit.
    unit_time_s: float = 2e-8
    #: Fixed cost of standing up one parallel fragment (thread dispatch).
    fragment_overhead_units: float = C.EXCHANGE_SETUP


@dataclass
class SimReport:
    """Virtual-time outcome of one plan replay."""

    elapsed_s: float
    cpu_s: float
    fragments: int
    critical_path_s: float

    @property
    def speedup_headroom(self) -> float:
        """cpu / elapsed — how much parallelism the plan realized."""
        return self.cpu_s / self.elapsed_s if self.elapsed_s else 1.0


def simulate_plan(plan: PhysNode, machine: MachineModel | None = None) -> SimReport:
    """Replay ``plan`` on the machine model; returns virtual timings."""
    machine = machine or MachineModel()
    sim = _Simulator(machine)
    elapsed_units, _rows = sim.elapsed(plan)
    return SimReport(
        elapsed_s=elapsed_units * machine.unit_time_s,
        cpu_s=sim.total_work * machine.unit_time_s,
        fragments=sim.fragments,
        critical_path_s=elapsed_units * machine.unit_time_s,
    )


class _Simulator:
    def __init__(self, machine: MachineModel):
        self.machine = machine
        self.total_work = 0.0
        self.fragments = 0
        self._shared_seen: set[int] = set()

    # ------------------------------------------------------------------ #
    # Elapsed (wall) virtual time of a subtree
    # ------------------------------------------------------------------ #
    def elapsed(self, node: PhysNode) -> tuple[float, float]:
        """Return (elapsed_units, output_rows)."""
        if isinstance(node, PExchange):
            works, rows, prelude = self._parallel(node.inputs)
            merge, out_rows = C.operator_work(node, rows)
            self.total_work += merge
            return prelude + _lpt_makespan(works, self.machine.cores) + merge, out_rows
        if isinstance(node, PGroupingSets):
            # A fragment's task is its scan and joins plus every partial
            # over them; the sets' merges run after, serially.
            works, _rows, prelude = self._parallel(node.fragments)
            for partial in node.partials:
                work, _ = self.work(partial)
                works = [w + work for w in works]
                # work() counted the partial once; it runs per fragment.
                self.total_work += work * (len(works) - 1)
            serial, set_rows = 0.0, []
            for s in node.sets:
                merge, rows = self.work(s.merge)
                serial += merge
                set_rows.append(rows)
            own, out_rows = C.operator_work(node, set_rows)
            self.total_work += own
            return prelude + _lpt_makespan(works, self.machine.cores) + serial + own, out_rows
        if isinstance(node, SharedBuild):
            if id(node) in self._shared_seen:
                return 0.0, self._rows_of(node.child)
            self._shared_seen.add(id(node))
            return self.elapsed(node.child)
        if isinstance(node, PHashJoin):
            build_elapsed, build_rows = self.elapsed(node.build_source)
            probe_elapsed, probe_rows = self.elapsed(node.probe)
            own, rows = C.operator_work(node, (probe_rows, build_rows))
            self.total_work += own
            return build_elapsed + probe_elapsed + own, rows
        own, rows, child = self._own(node)
        self.total_work += own
        if child is None:
            return own, rows
        child_elapsed, _ = self.elapsed(child)
        return child_elapsed + own, rows

    def _parallel(self, inputs: list[PhysNode]) -> tuple[list[float], list[float], float]:
        """Parallel tasks: ``(work of each, rows of each, serial prelude)``."""
        works, rows, prelude = [], [], 0.0
        for child in inputs:
            # Shared builds inside fragments are built once, serially,
            # before the parallel region starts.
            prelude += self._collect_shared(child)
            w, r = self.work(child)
            works.append(w + self.machine.fragment_overhead_units)
            rows.append(r)
        self.fragments += len(works)
        return works, rows, prelude

    # ------------------------------------------------------------------ #
    # Total serial work of a subtree (a fragment's CPU demand)
    # ------------------------------------------------------------------ #
    def work(self, node: PhysNode, *, count: bool = True) -> tuple[float, float]:
        if isinstance(node, SharedBuild):
            first = id(node) not in self._shared_seen
            if first:
                self._shared_seen.add(id(node))
            w, r = self.work(node.child, count=count and first)
            return (w if first else 0.0), r
        if isinstance(node, PGroupingSets):
            raise ReproError("cannot simulate a grouping-sets operator inside a fragment")
        total, rows = 0.0, []
        for child in node.children():
            w, r = self.work(child, count=count)
            total += w
            rows.append(r)
        own, out_rows = C.operator_work(node, rows)
        if isinstance(node, PExchange):
            own = 0.0  # run serially, its inputs need no merging
        if count:
            self.total_work += own
        return total + own, out_rows

    def _collect_shared(self, node: PhysNode) -> float:
        """Serial prelude: unbuilt SharedBuild work inside a fragment."""
        prelude = 0.0
        for sub in node.walk():
            if isinstance(sub, SharedBuild) and id(sub) not in self._shared_seen:
                self._shared_seen.add(id(sub))
                w, _ = self.work(sub.child)
                prelude += w
        return prelude

    def _own(self, node: PhysNode) -> tuple[float, float, PhysNode | None]:
        """A leaf's or unary operator's ``(own work, rows, child)``."""
        children = node.children()
        own, rows = C.operator_work(node, [self._rows_of(child) for child in children])
        return own, rows, (children[0] if children else None)

    def _rows_of(self, node: PhysNode) -> float:
        """Estimated output rows of a subtree (no work accounting)."""
        return C.operator_work(node, [self._rows_of(c) for c in node.children()])[1]


def _lpt_makespan(works: list[float], cores: int) -> float:
    """Longest-processing-time list scheduling makespan."""
    if not works:
        return 0.0
    loads = [0.0] * max(1, cores)
    for w in sorted(works, reverse=True):
        idx = loads.index(min(loads))
        loads[idx] += w
    return max(loads)
