"""E22: causal tracing — overhead bounds and critical-path attribution.

PR 7 adds trace identity, cross-request causal links, tail-based
sampling and a critical-path analyzer on top of the telemetry plane.
Like always-on telemetry (E21), tracing is only shippable if its *off*
state is free and its *on* state is cheap; and it is only *useful* if
the analyzer points at the true culprit. This experiment measures both:

* **Overhead** — three interleaved warm-load arms over identical
  servers: ``base`` (no telemetry; per-request ledgers forced on so the
  comparison isolates the telemetry + tracing hooks), ``off``
  (telemetry on, tracing off — the production default), and ``on``
  (telemetry on, tracing every request into the tail-sampling buffer).
  Hard in-run bounds: tracing-off <= 1.1x base, tracing-on <= 1.5x
  base. The committed baseline's ``overhead_time_x`` columns put the
  measured ratios under perfgate (0.10 tolerance — the 1.1x bound,
  machine-independently, as drift on a ratio).
* **Attribution** — a deterministic virtual-time run where a scripted
  :class:`~repro.faults.plan.FaultRule` injects 0.5s latency into every
  backend ``execute``. The aggregate critical-path report over the
  retained traces must name ``backend`` as the dominant component, the
  per-trace critical path must conserve wall time, and two seeded runs
  must export byte-identical trace JSONL (ids, stamps, links and all).

Artifacts: ``_results/traces_e22.jsonl`` (the retained traces) and
``_results/traceview_e22.txt`` (the rendered operator report), plus the
usual ``BENCH_e22_trace_attribution.json`` series.
"""

from __future__ import annotations

import json
import time

from repro import obs
from repro.connectors import SimDbDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.cache.replicated import ReplicatedStore
from repro.core.pipeline import PipelineOptions
from repro.clock import VirtualTimeClock
from repro.faults.injector import FaultyDataSource
from repro.faults.plan import FaultPlan, FaultRule
from repro.obs.critpath import aggregate_report, critical_path, link_resolver
from repro.obs.sampling import SamplingPolicy
from repro.obs.trace import Tracer
from repro.obs.window import TelemetryOptions
from repro.server import VizServer
from repro.sim.metrics import Recorder
from repro.workloads import (
    fig1_dashboard,
    fig2_dashboard,
    flights_model,
    generate_flights,
)

from .conftest import BENCH_WORK_UNIT_S, RESULTS_DIR, record
from .traceview import load_traces, render

DATASET_ROWS = 12_000
WARM_LOADS = 60
#: Tracing must never change what a request costs in kind. The *off*
#: bound is tight — disabled tracing is a handful of predicate checks —
#: while the *on* bound allows the real span/link bookkeeping.
MAX_OFF_RATIO = 1.1
MAX_ON_RATIO = 1.5
#: Virtual seconds injected into every backend execute in the
#: attribution run; dwarfs everything else, so the critical path must
#: land on the backend component.
INJECTED_LATENCY_S = 0.5
#: Attribution-run visit sequence: two cold loads, then warm reloads of
#: the same dashboards by later users (cache hits linking back).
ATTRIBUTION_VISITS = 6

DATASET = generate_flights(DATASET_ROWS, seed=22)
WARM_DASHBOARD = fig2_dashboard()


def _make_server(*, arm: str) -> VizServer:
    db = DATASET.load_into_simdb(
        ServerProfile(name="traced", workers=4, work_unit_time_s=BENCH_WORK_UNIT_S),
        name="traced",
    )
    telemetry = None
    options = None
    if arm == "base":
        # No telemetry plane, but ledgers forced on to match the other
        # arms' pipelines — the delta is then hooks, not bookkeeping.
        options = PipelineOptions(enable_ledger=True)
    else:
        telemetry = TelemetryOptions(
            slowlog_capacity=8,
            slow_threshold_s=0.05,
            sampling=SamplingPolicy(slow_threshold_s=0.05, sample_every_n=10),
        )
    server = VizServer(
        1,
        SimDbDataSource(db),
        flights_model(),
        store=ReplicatedStore(("cache0",), replication=1, latency_s=0.0),
        options=options,
        telemetry=telemetry,
    )
    server.register_dashboard(fig1_dashboard())
    server.register_dashboard(fig2_dashboard())
    return server


# ---------------------------------------------------------------------- #
# Overhead arms
# ---------------------------------------------------------------------- #
def _overhead_arms() -> tuple[dict[str, VizServer], dict[str, list[float]]]:
    """Interleaved warm loads across base / tracing-off / tracing-on.

    One loop drives all three servers so clock drift (CPU frequency,
    scheduler pressure) hits every arm equally. The *on* arm swaps a
    live tracer into the global slot for exactly its own loads — the
    same global the production hooks consult — so base and off keep
    running the true disabled path.
    """
    servers = {arm: _make_server(arm=arm) for arm in ("base", "off", "on")}
    tracer = Tracer()  # roots also flow to the on-server's TraceBuffer
    latencies: dict[str, list[float]] = {arm: [] for arm in servers}

    def load(arm: str, user: str) -> float:
        previous = obs.set_tracer(tracer) if arm == "on" else None
        try:
            started = time.perf_counter()
            servers[arm].load(user, WARM_DASHBOARD.name)
            return time.perf_counter() - started
        finally:
            if previous is not None:
                obs.set_tracer(previous)

    for arm in servers:
        load(arm, "primer")  # cold fill (slow-loggable, traced on `on`)
    for i in range(WARM_LOADS):
        for arm in servers:
            latencies[arm].append(load(arm, f"viewer{i}"))
    return servers, {arm: sorted(lat) for arm, lat in latencies.items()}


def _row(latencies: list[float], ratio: float) -> tuple[int, float, float, float, float]:
    return (
        len(latencies),
        latencies[len(latencies) // 2] * 1000,
        latencies[int(len(latencies) * 0.95)] * 1000,
        sum(latencies) * 1000,
        ratio,
    )


# ---------------------------------------------------------------------- #
# Attribution: injected backend slowdown on virtual time
# ---------------------------------------------------------------------- #
def _attribution_run() -> dict:
    """One seeded virtual-time serving run with a slowed backend.

    Returns the exported trace JSONL plus everything the assertions
    need; called twice to prove byte-identical determinism.
    """
    clock = VirtualTimeClock()
    plan = FaultPlan.scripted(
        [FaultRule("latency", op="execute", latency_s=INJECTED_LATENCY_S)],
        clock=clock,
    )
    db = DATASET.load_into_simdb(ServerProfile(name="slowed", time_scale=0), name="slowed")
    server = VizServer(
        1,
        FaultyDataSource(SimDbDataSource(db), plan, clock=clock),
        flights_model(),
        store=ReplicatedStore(("cache0",), replication=1, latency_s=0.0),
        # Serial execution: virtual-time sleeps from concurrent workers
        # would interleave nondeterministically; serial keeps span stamps
        # and id mint order identical across runs.
        options=PipelineOptions(concurrent=False),
        telemetry=TelemetryOptions(
            slowlog_capacity=8,
            slow_threshold_s=0.05,
            sampling=SamplingPolicy(slow_threshold_s=0.25, sample_every_n=1),
        ),
        clock=clock,
    )
    server.register_dashboard(fig1_dashboard())
    server.register_dashboard(fig2_dashboard())
    visits = ([fig1_dashboard().name, fig2_dashboard().name] * 3)[:ATTRIBUTION_VISITS]
    with obs.recording(clock=clock):
        for i, dashboard in enumerate(visits):
            server.load(f"user{i}", dashboard)
    buffer = server.telemetry.traces
    roots = buffer.traces()
    return {
        "jsonl": buffer.export_jsonl(),
        "roots": roots,
        "report": aggregate_report(roots),
        "statz": server.statz(),
    }


def _check_attribution(run: dict) -> None:
    report = run["report"]
    assert report["analyzed"] >= 1
    # The injected 0.5s-per-execute dwarfs all real work on virtual
    # time, so the slow tail's critical paths must run through the
    # backend — the whole point of the analyzer.
    assert report["dominant"] == "backend", (
        f"expected backend to dominate, got {report['components']}"
    )
    shares = sum(row["share"] for row in report["components"])
    assert abs(shares - 1.0) < 1e-6

    # Conservation on every retained trace: the critical path exactly
    # partitions the root's wall time.
    resolve = link_resolver(run["roots"])
    for root in run["roots"]:
        segments = critical_path(root, resolve_link=resolve)
        total = sum(seg.duration_s for seg in segments)
        assert abs(total - root.duration_s) < 1e-9, (
            f"critical path of {root.trace_id} sums to {total}, "
            f"wall is {root.duration_s}"
        )

    # Cache hits link back to the populating trace: later visitors of
    # the same dashboard inherit the cold loader's work.
    link_kinds = {
        link.kind
        for root in run["roots"]
        for span in root.walk()
        for link in (span.links or ())
    }
    assert "cache.populated_by" in link_kinds, (
        f"warm reloads should link to the populating trace, saw {link_kinds}"
    )

    # The slow log names the trace and carries its critical path.
    slowlog = run["statz"]["slowlog"]["entries"]
    assert slowlog, "the cold 3s+ virtual loads must be slow-logged"
    for entry in slowlog:
        assert entry["trace_id"], "slow-log entries must carry a trace id"
        path = entry["critical_path"]
        assert path, "slow-log entries must carry a critical path"
        assert sum(seg["self_s"] for seg in path) <= entry["wall_s"] + 1e-9
    worst = max(slowlog, key=lambda e: e["wall_s"])
    assert any(
        seg["component"] == "backend" for seg in worst["critical_path"]
    )

    # statz surfaces: the p99 exemplar points at a real retained trace.
    exemplar = run["statz"]["window"]["exemplar"]
    assert exemplar["trace_id"]
    assert any(r.trace_id == exemplar["trace_id"] for r in run["roots"])
    traces_snap = run["statz"]["traces"]
    assert traces_snap["offered"] == ATTRIBUTION_VISITS
    assert traces_snap["kept"] >= 2  # at least the two cold loads


def test_e22_trace_attribution(benchmark):
    recorder = Recorder(
        "E22: tracing overhead (base/off/on) and critical-path attribution",
        columns=[
            "arm", "requests", "p50_wall", "p95_wall", "total_wall",
            "overhead_time_x",
        ],
    )
    _overhead_arms()  # throwaway: warm code paths before timing

    servers, lat = _overhead_arms()
    base_total = max(sum(lat["base"]), 1e-9)
    ratios = {arm: sum(lat[arm]) / base_total for arm in lat}
    for arm in ("base", "off", "on"):
        recorder.add(arm, *_row(lat[arm], ratios[arm]))

    assert ratios["off"] < MAX_OFF_RATIO, (
        f"tracing-off overhead vs base: {ratios['off']:.3f}x"
    )
    assert ratios["on"] < MAX_ON_RATIO, (
        f"tracing-on overhead vs base: {ratios['on']:.3f}x"
    )

    # The traced arm retained real traces; the off arms stayed empty —
    # telemetry-only deployments pay nothing for the trace plane.
    on_statz = servers["on"].statz()
    assert on_statz["traces"]["offered"] == WARM_LOADS + 1
    assert on_statz["window"]["count"] == WARM_LOADS + 1
    off_statz = servers["off"].statz()
    assert off_statz["traces"]["offered"] == 0
    assert "exemplar" not in off_statz["window"]

    # Attribution on virtual time; twice, to pin determinism end to end.
    first = _attribution_run()
    second = _attribution_run()
    _check_attribution(first)
    assert first["jsonl"] == second["jsonl"], (
        "seeded attribution runs must export byte-identical trace JSONL"
    )
    assert first["report"] == second["report"]

    RESULTS_DIR.mkdir(exist_ok=True)
    jsonl_path = RESULTS_DIR / "traces_e22.jsonl"
    jsonl_path.write_text(first["jsonl"])
    view = render(load_traces(jsonl_path), top=5)
    (RESULTS_DIR / "traceview_e22.txt").write_text(view + "\n")
    assert "dominant: backend" in view

    cold_walls = sorted(
        (r.duration_s for r in first["roots"]), reverse=True
    )[:2]
    record(
        "e22_trace_attribution",
        recorder,
        trace={
            "overhead_ratios": ratios,
            "dominant": first["report"]["dominant"],
            "components": first["report"]["components"],
            "top_paths": first["report"]["top_paths"][:3],
            "cold_walls_virtual_s": cold_walls,
            "traces_kept": first["statz"]["traces"]["kept"],
        },
    )
    snapshot = {
        "experiment": "e22_trace_attribution",
        "vizserver_on": on_statz,
        "attribution": first["statz"],
    }
    (RESULTS_DIR / "statz_e22.json").write_text(
        json.dumps(snapshot, indent=2, default=str) + "\n"
    )

    # Representative timed path: one traced warm load.
    tracer = Tracer()
    server = servers["on"]

    def traced_load() -> float:
        previous = obs.set_tracer(tracer)
        try:
            started = time.perf_counter()
            server.load("bench", WARM_DASHBOARD.name)
            return (time.perf_counter() - started) * 1000
        finally:
            obs.set_tracer(previous)

    result = benchmark.pedantic(traced_load, rounds=3, iterations=1)
    assert result > 0.0
