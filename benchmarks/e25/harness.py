"""The closed loop, the statistics and the oracle check.

One client, zero think time: the next step starts when the previous one
returns. Each step is timed with ``perf_counter`` (and ``process_time``)
around the workload's single public call; digesting the answer and all
other bookkeeping happen after the timers stop and are in no metric.
"""

from __future__ import annotations

import math
import resource
import statistics
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, process_time

from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.dashboard import DashboardSession, RenderResult
from repro.tde.storage.table import Table

from .metrics import END_TO_END
from .trace import Tracer
from .workloads import Op, Workload

#: The oracle: no cache, no rewrite, no concurrency — every zone's query
#: compiled as written and sent alone.
ALL_OFF = PipelineOptions(
    enable_intelligent_cache=False,
    enable_literal_cache=False,
    enable_fusion=False,
    enable_batch_graph=False,
    concurrent=False,
    enrich_for_reuse=False,
    enable_coalescing=False,
)

_BATCH_FIELDS = ("cache_hits", "derived_hits", "literal_hits", "fused_away",
                 "batch_local", "remote_queries")


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile. Refuses a tail percentile with
    fewer than ten samples beyond it: such a value is one slow op, not a
    property of the program."""
    if not samples:
        raise ValueError("no samples")
    rank = math.ceil(q / 100.0 * len(samples))
    if q > 50 and len(samples) - rank < 10:
        raise ValueError(
            f"p{q:g} needs at least ten samples beyond it; "
            f"{len(samples)} samples leave {len(samples) - rank}"
        )
    return sorted(samples)[max(rank, 1) - 1]


# ---------------------------------------------------------------------- #
# The loop
# ---------------------------------------------------------------------- #
@dataclass
class OpRecord:
    op: Op
    wall_s: float
    #: Backend queries the op sent; > 0 makes it a *remote* op.
    remote: int
    #: (dashboard, selections in force after the op), for the oracle.
    state: tuple
    #: Per-zone digests of the answer, or None when the op raised.
    digests: tuple | None
    error: str | None = None


@dataclass
class Phase:
    """What one timed phase produced."""

    records: list[OpRecord] = field(default_factory=list)
    #: Per round: (ops, summed wall, summed CPU) of every timed step,
    #: refreshes included.
    rounds: list[tuple[int, float, float]] = field(default_factory=list)
    refreshes: int = 0
    #: Sums of RenderResult / BatchResult fields over the ops.
    sums: Counter = field(default_factory=Counter)
    #: Growth of the program's public counters over the phase.
    counters: Counter = field(default_factory=Counter)
    #: One answer per distinct (state, digests), for the oracle.
    answers: dict[tuple, dict[str, Table]] = field(default_factory=dict)

    def walls_ms(self, *, remote: bool) -> list[float]:
        return [
            r.wall_s * 1e3
            for r in self.records
            if r.digests is not None and (r.remote > 0) == remote
        ]

    def headline_ms(self) -> list[float]:
        """Remote ops — the ones a user waits for — where the workload has
        any, else local ops."""
        return self.walls_ms(remote=True) or self.walls_ms(remote=False)


def _row_key(row: tuple) -> tuple:
    return tuple((v is None, "" if v is None else str(v), str(type(v))) for v in row)


def digest(table: Table, *, ordered: bool) -> int:
    """Equal for identical tables (row order ignored unless the zone is
    ordered). Used only to group identical answers: the oracle compares
    one real table per group."""
    rows = table.to_rows()
    if not ordered:
        rows.sort(key=_row_key)
    return hash((tuple(table.schema().items()), tuple(rows)))


def _state_after(selections: dict, op: Op, result: RenderResult) -> tuple:
    """The selections in force once ``op`` returned, from public results
    only: what was asked for, minus what the render reported dropped."""
    current = selections.setdefault((op.user, op.dashboard), {})
    if op.kind == "select":
        current[op.zone] = tuple(op.values)
    for zone, gone in result.dropped_selections:
        current[zone] = tuple(v for v in current.get(zone, ()) if v != gone)
    return op.dashboard, tuple(sorted((z, v) for z, v in current.items() if v))


def run_phase(
    workload: Workload,
    *,
    seconds: float | None = None,
    rounds: int | None = None,
    tracer: Tracer | None = None,
) -> Phase:
    """Replay the workload's round until ``seconds`` have passed (checked
    between rounds) or ``rounds`` rounds are done."""
    phase = Phase()
    script = workload.script()
    ordered = {
        name: {z.name: bool(z.order_by) for z in dash.queryable_zones()}
        for name, dash in workload.dashboards.items()
    }
    before = workload.counters()
    started = perf_counter()
    while True:
        workload.begin_round()
        selections: dict = {}
        ops_before, round_wall, round_cpu = len(phase.records), 0.0, 0.0
        for op in script:
            result, error = None, None
            cpu0 = process_time()
            t0 = perf_counter()
            if tracer is not None:
                tracer.begin_op(t0)
            try:
                result = workload.run(op)
            except Exception:  # the op boundary: count it, keep measuring
                error = traceback.format_exc()
            t1 = perf_counter()
            cpu = process_time() - cpu0
            if tracer is not None:
                tracer.end_op(t1)
            wall = t1 - t0
            workload.settle(op)
            round_wall += wall
            round_cpu += cpu
            if op.kind == "refresh" and error is None:
                phase.refreshes += 1
                continue
            if error is not None:
                phase.records.append(OpRecord(op, wall, 0, (op.dashboard, ()), None, error))
                continue
            state = _state_after(selections, op, result)
            zones = ordered[op.dashboard]
            digests = tuple(
                (name, digest(table, ordered=zones[name]))
                for name, table in sorted(result.zone_tables.items())
            )
            phase.answers.setdefault((state, digests), result.zone_tables)
            record = OpRecord(op, wall, result.remote_queries, state, digests)
            if result.degraded:
                record.error = (
                    f"degraded: stale={sorted(result.stale_zones)} "
                    f"errors={result.zone_errors}"
                )
            phase.records.append(record)
            phase.sums["iterations"] += result.iterations
            phase.sums["total_queries"] += result.total_queries
            for batch in result.batches:
                for name in _BATCH_FIELDS:
                    phase.sums[name] += getattr(batch, name)
        phase.rounds.append((len(phase.records) - ops_before, round_wall, round_cpu))
        if rounds is not None and len(phase.rounds) >= rounds:
            break
        if seconds is not None and perf_counter() - started >= seconds:
            break
    after = workload.counters()
    after.subtract(before)
    phase.counters = after
    return phase


# ---------------------------------------------------------------------- #
# The oracle
# ---------------------------------------------------------------------- #
def check_against_oracle(workload: Workload, phases: list[Phase]) -> list[str]:
    """Recompute every distinct (dashboard, selection state) with the
    all-off pipeline on the same data and compare each distinct answer
    the run produced. Marks the ops behind a wrong answer as failed and
    returns one message per mismatch."""
    problems: list[str] = []
    wrong: set[tuple] = set()
    expected_by_state: dict[tuple, dict[str, Table]] = {}
    pipeline = QueryPipeline(workload.oracle_source(), workload.model, options=ALL_OFF)
    try:
        for phase in phases:
            for (state, digests), actual in phase.answers.items():
                dashboard = workload.dashboards[state[0]]
                expected = expected_by_state.get(state)
                if expected is None:
                    session = DashboardSession(dashboard, pipeline)
                    session.selections = dict(state[1])
                    expected = expected_by_state[state] = session.render().zone_tables
                bad = sorted(set(expected) ^ set(actual))
                for zone in dashboard.queryable_zones():
                    if zone.name in bad or zone.name not in expected:
                        continue
                    # Exact but for the last digits of floats: a cached
                    # roll-up sums in another order than a direct scan.
                    if not actual[zone.name].approx_equals(
                        expected[zone.name], ordered=bool(zone.order_by)
                    ):
                        bad.append(zone.name)
                if bad:
                    wrong.add((state, digests))
                    problems.append(f"{state}: zones {bad} differ from the all-off oracle")
    finally:
        pipeline.close()
    for phase in phases:
        for record in phase.records:
            if record.error is None and (record.state, record.digests) in wrong:
                record.error = "oracle mismatch"
    return problems


# ---------------------------------------------------------------------- #
# End-to-end metrics
# ---------------------------------------------------------------------- #
def reset_peak_rss() -> None:
    """Start the kernel's RSS high-water mark again from the present RSS,
    so that ``peak_rss_mb`` is the peak of what follows — the loaded data
    plus whatever the program's caches grow to — and not of set-up, whose
    data generation otherwise sets the mark on the small workloads."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        pass  # a kernel without it: the peak then includes set-up


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(
    workload: str, phase: Phase, setup_samples: list[float], rss_mb: float
) -> dict[str, dict]:
    """Every end-to-end metric reported on ``workload``; a value is None
    when the run is too short to support it (a p95 under 200 samples)."""
    ops = len(phase.records)
    rounds = len(phase.rounds)
    local = phase.walls_ms(remote=False)
    remote = phase.walls_ms(remote=True)
    headline = phase.headline_ms()
    failed = sum(r.error is not None for r in phase.records)

    def tail(samples: list[float], q: float) -> float | None:
        try:
            return percentile(samples, q)
        except ValueError:
            return None

    def median(samples: list[float]) -> float | None:
        return statistics.median(samples) if samples else None

    values = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        # Medians over rounds: a burst from a noisy neighbour spoils the
        # rounds it hits, not the run's number.
        "ops_per_s": (statistics.median(n / wall for n, wall, _ in phase.rounds), rounds),
        "cpu_ms_per_op": (
            statistics.median(cpu * 1e3 / n for n, _, cpu in phase.rounds), rounds),
        "op_ms_p50": (median(headline), len(headline)),
        "local_op_ms_p50": (median(local), len(local)),
        "local_op_ms_p95": (tail(local, 95), len(local)),
        "remote_op_ms_p50": (median(remote), len(remote)),
        "backend_queries_per_op": (sum(r.remote for r in phase.records) / ops, ops),
        "failed_share": (failed / ops, ops),
        "peak_rss_mb": (rss_mb, 1),
    }
    return {
        m.name: {"value": values[m.name][0], "unit": m.unit, "n": values[m.name][1]}
        for m in END_TO_END
        if workload in m.on
    }
