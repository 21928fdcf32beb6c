"""Shared benchmark fixtures and result recording.

Every experiment writes the series it measured (the paper-shaped rows)
to ``benchmarks/_results/<experiment>.txt`` in addition to printing, so
the numbers survive pytest's output capture; EXPERIMENTS.md points at
these files.

Since PR 1 each ``record()`` call also writes a machine-readable
``benchmarks/_results/BENCH_<experiment>.json`` — the measured series
plus (when the experiment captured one) a per-phase trace summary from
:mod:`repro.obs` — so the perf trajectory across PRs can be diffed by
tooling instead of by eyeballing text tables.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import pytest

from repro.connectors import SimDbDataSource
from repro.connectors.simdb import ServerProfile
from repro.expr.ast import AggExpr, ColumnRef
from repro.obs import SCHEMA_VERSION, PerformanceRecording
from repro.queries import QuerySpec
from repro.sim.metrics import Recorder
from repro.workloads import flights_model, generate_flights

RESULTS_DIR = Path(__file__).parent / "_results"

#: Fact-table size used by the pipeline-level experiments. Big enough for
#: realistic service times, small enough to keep the harness quick.
PIPELINE_ROWS = 20_000

#: Benchmark backends run with inflated per-unit work so that the
#: *modeled* service time dominates the (GIL-bound) real execution the
#: simulated server performs for correctness — otherwise concurrency
#: effects would be drowned out on a single-core host.
BENCH_WORK_UNIT_S = 1.5e-6

COUNT = AggExpr("count")
SUM_DELAY = AggExpr("sum", ColumnRef("dep_delay"))
AVG_DELAY = AggExpr("avg", ColumnRef("dep_delay"))
AVG_ARR_DELAY = AggExpr("avg", ColumnRef("arr_delay"))


def record(
    name: str,
    recorder: Recorder,
    *,
    trace: PerformanceRecording | dict[str, Any] | None = None,
) -> None:
    """Print the series; persist text + BENCH_<name>.json artifacts.

    ``trace`` (a :class:`PerformanceRecording` captured around one
    representative run, or an equivalent dict) attaches the per-phase
    latency attribution to the JSON so regressions can be localized.
    """
    recorder.emit()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(recorder.render() + "\n")
    if isinstance(trace, PerformanceRecording):
        trace = {
            "phases": trace.phase_summary(),
            "metrics": trace.metrics.snapshot(),
            "events": trace.event_log.to_list(),
            "event_counts": trace.event_log.kinds(),
        }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "experiment": name,
        "series": recorder.to_dict(),
        "trace": trace,
    }
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2, default=str) + "\n"
    )


@pytest.fixture(scope="session")
def dataset():
    return generate_flights(PIPELINE_ROWS, seed=42)


@pytest.fixture(scope="session")
def model():
    return flights_model()


def make_backend(dataset, profile: ServerProfile | None = None, name: str = "warehouse"):
    """A fresh simulated warehouse (fresh caches/stats per experiment)."""
    if profile is None:
        profile = ServerProfile(work_unit_time_s=BENCH_WORK_UNIT_S)
    db = dataset.load_into_simdb(profile, name=name)
    return db, SimDbDataSource(db)


def spec(**kwargs) -> QuerySpec:
    return QuerySpec("faa", **kwargs)
