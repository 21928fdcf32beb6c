"""E21: cost and value of the serving-stack telemetry plane (§3.3, §6).

The paper's answer to "why was this dashboard slow?" is the Performance
Recorder; PR 6 adds its always-on production counterpart — per-request
latency-attribution ledgers, windowed percentiles, burn-rate SLO
monitoring and a worst-N slow-query log behind ``VizServer.statz()``.
Always-on instrumentation is only viable if it is nearly free, so this
experiment measures both sides:

* **Overhead** — the warm-load path (E1's steady state: cache-hit
  renders for a stream of distinct viewers) and the cold-herd path
  (E20's coalesced stampede), each run with telemetry off and on.
  Target: <3% added p95 when enabled (the committed baseline documents
  the measured number); the hard assertion is deliberately generous
  (CI runners are noisy) and guards against the failure mode that
  matters — telemetry turning a cheap request into an expensive one.
* **Value** — a deterministic injected-fault burst on virtual time: a
  scripted :class:`~repro.faults.plan.FaultRule` opens a 1s-latency
  outage window against the backend, and the burn-rate SLO monitor must
  breach during the outage and recover after it, emitting
  ``slo.breach`` / ``slo.recovered`` decision events at reproducible
  virtual timestamps.

The telemetry-on servers' ``statz()`` snapshots (plus the SLO demo
timeline) are written to ``_results/statz_e21.json`` so CI can archive
what the operator-facing view actually looked like for this build.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.connectors import SimDbDataSource
from repro.connectors.simdb import ServerProfile
from repro.core.cache.replicated import ReplicatedStore
from repro.clock import VirtualTimeClock
from repro.faults.injector import FaultyDataSource
from repro.faults.plan import FaultPlan, FaultRule
from repro.obs.window import SLOObjective, Telemetry, TelemetryOptions
from repro.server import VizServer
from repro.sim.metrics import Recorder
from repro.workloads import (
    TrafficGenerator,
    fig1_dashboard,
    fig2_dashboard,
    flights_model,
    generate_flights,
)

from .conftest import BENCH_WORK_UNIT_S, RESULTS_DIR, record

DATASET_ROWS = 12_000
WARM_LOADS = 100
HERD_VIEWERS = 4
HERD_VISITS = 3
#: Warm cache-hit renders are a few milliseconds at worst; only
#: genuinely slow requests (the cold primer, herd stampede losers)
#: enter the slow log, so the timed warm loop never pays the EXPLAIN
#: capture cost — the admission threshold doing exactly its job.
SLOW_THRESHOLD_S = 0.05
#: Generous hard bound on enabled/disabled wall-time ratio; the <3%
#: p95 target is documented by the committed baseline, not asserted,
#: because shared runners cannot resolve 3% on sub-ms paths.
MAX_OVERHEAD_RATIO = 1.5
#: The warm bound compares the sums of each arm's fastest 95 % of loads.
#: A whole warm arm takes tens of milliseconds, so one scheduler stall
#: in it would double a plain sum; telemetry's cost is paid on every
#: request, so it still shows in the loads that are kept.
WARM_KEPT_SHARE = 0.95

DATASET = generate_flights(DATASET_ROWS, seed=21)
WARM_DASHBOARD = fig2_dashboard()


def _telemetry_options() -> TelemetryOptions:
    return TelemetryOptions(slowlog_capacity=8, slow_threshold_s=SLOW_THRESHOLD_S)


def _make_server(*, telemetry: bool, nodes: int = 1) -> VizServer:
    db = DATASET.load_into_simdb(
        ServerProfile(name="telemetered", workers=4, work_unit_time_s=BENCH_WORK_UNIT_S),
        name="telemetered",
    )
    server = VizServer(
        nodes,
        SimDbDataSource(db),
        flights_model(),
        store=ReplicatedStore(("cache0",), replication=1, latency_s=0.0),
        telemetry=_telemetry_options() if telemetry else None,
    )
    server.register_dashboard(fig1_dashboard())
    server.register_dashboard(fig2_dashboard())
    return server


# ---------------------------------------------------------------------- #
# Overhead arms
# ---------------------------------------------------------------------- #
def _warm_arms() -> tuple[dict[bool, VizServer], dict[bool, list[float]]]:
    """E1's steady state: distinct viewers loading a warm dashboard.

    The off/on loads interleave in one loop so slow clock drift (CPU
    frequency, scheduler pressure) hits both arms equally instead of
    whichever arm ran second.
    """
    servers = {False: _make_server(telemetry=False), True: _make_server(telemetry=True)}
    latencies: dict[bool, list[float]] = {False: [], True: []}
    for enabled, server in servers.items():
        server.load("primer", WARM_DASHBOARD.name)  # cold fill (slow-loggable)
    for i in range(WARM_LOADS):
        for enabled, server in servers.items():
            started = time.perf_counter()
            server.load(f"viewer{i}", WARM_DASHBOARD.name)
            latencies[enabled].append(time.perf_counter() - started)
    return servers, {enabled: sorted(lat) for enabled, lat in latencies.items()}


def _herd_arm(*, telemetry: bool) -> tuple[VizServer, list[float]]:
    """E20's cold stampede: K viewers arrive together, coalescing on."""
    server = _make_server(telemetry=telemetry, nodes=2)
    generator = TrafficGenerator(
        [fig1_dashboard(), fig2_dashboard()],
        n_users=HERD_VIEWERS * 8,
        seed=77,
        interaction_rate=0.0,
    )
    events = list(generator.events(HERD_VIEWERS * HERD_VISITS))
    barrier = threading.Barrier(HERD_VIEWERS)

    def viewer(tid: int) -> list[float]:
        barrier.wait()
        out = []
        for event in events[tid::HERD_VIEWERS]:
            started = time.perf_counter()
            _node, result = server.load(event.user, event.dashboard)
            out.append(time.perf_counter() - started)
            assert not result.degraded
        return out

    with ThreadPoolExecutor(max_workers=HERD_VIEWERS) as tp:
        latencies = sorted(x for lats in tp.map(viewer, range(HERD_VIEWERS)) for x in lats)
    return server, latencies


def _row(latencies: list[float]) -> tuple[int, float, float, float]:
    return (
        len(latencies),
        latencies[len(latencies) // 2] * 1000,
        latencies[int(len(latencies) * 0.95)] * 1000,
        sum(latencies) * 1000,
    )


# ---------------------------------------------------------------------- #
# SLO burn demo: scripted fault burst on virtual time
# ---------------------------------------------------------------------- #
OUTAGE_FROM_S = 120.0
OUTAGE_UNTIL_S = 160.0


def _slo_burn_demo() -> dict:
    """Deterministic breach→recovery driven by the real fault injector."""
    clock = VirtualTimeClock()
    plan = FaultPlan.scripted(
        [
            FaultRule(
                "latency",
                op="connect",
                t_from=OUTAGE_FROM_S,
                t_until=OUTAGE_UNTIL_S,
                latency_s=1.0,
            )
        ],
        clock=clock,
    )
    db = DATASET.load_into_simdb(ServerProfile(time_scale=0), name="burndemo")
    faulty = FaultyDataSource(SimDbDataSource(db), plan, clock=clock)
    telemetry = Telemetry(
        TelemetryOptions(slo=SLOObjective()), clock=clock
    )
    timeline = {"breach_t": None, "recover_t": None}

    def tick() -> None:
        started = clock.monotonic()
        conn = faulty.connect()
        conn.close()
        elapsed = clock.monotonic() - started  # 1.0s virtual during the outage
        before = telemetry.slo.state
        telemetry.observe(elapsed, dimensions={"backend": faulty.name})
        after = telemetry.slo.state
        if (before, after) == ("ok", "breach"):
            timeline["breach_t"] = clock.monotonic()
        elif (before, after) == ("breach", "ok"):
            timeline["recover_t"] = clock.monotonic()
        clock.advance(1.0)

    with obs.recording(clock=clock) as rec:
        while clock.monotonic() < OUTAGE_FROM_S:  # healthy baseline traffic
            tick()
        assert telemetry.slo.state == "ok"
        while clock.monotonic() < OUTAGE_UNTIL_S:  # the outage window
            tick()
        assert telemetry.slo.state == "breach", (
            "injected latency burst did not trip the burn-rate SLO"
        )
        for _ in range(120):  # healthy again; the fast window drains
            tick()
        event_kinds = rec.event_log.kinds()

    monitor = telemetry.slo
    assert monitor.state == "ok", "SLO did not recover after the outage ended"
    assert monitor.breaches == 1
    assert event_kinds.get("slo.breach") == 1
    assert event_kinds.get("slo.recovered") == 1
    assert event_kinds.get("fault.injected", 0) == faulty.injected == len(plan.schedule)
    # The whole timeline is virtual: re-runs land on identical stamps.
    assert OUTAGE_FROM_S < timeline["breach_t"] <= OUTAGE_UNTIL_S
    assert timeline["recover_t"] > OUTAGE_UNTIL_S
    return {
        "objective": monitor.snapshot(),
        "breach_t": timeline["breach_t"],
        "recover_t": timeline["recover_t"],
        "faults_injected": faulty.injected,
        "event_counts": event_kinds,
    }


def _check_slowlog(server: VizServer) -> int:
    """Slow-log entries carry conserved ledgers; returns the entry count."""
    snap = server.statz()["slowlog"]
    assert snap["entries"], "cold primer load should have been slow-logged"
    for entry in snap["entries"]:
        for zone, ledger in entry["ledgers"].items():
            total = sum(ledger["phases"].values())
            assert abs(total - ledger["wall_s"]) < 1e-6, (
                f"{entry['key']}/{zone}: phases sum {total} != wall {ledger['wall_s']}"
            )
    return len(snap["entries"])


def test_e21_telemetry(benchmark):
    recorder = Recorder(
        "E21: telemetry overhead (off/on) and SLO burn detection",
        columns=["arm", "requests", "p50_ms", "p95_ms", "total_ms"],
    )
    _warm_arms()  # throwaway: warm code paths before timing

    warm_servers, warm_lat = _warm_arms()
    herd: dict[bool, tuple[VizServer, list[float]]] = {}
    for enabled in (False, True):
        herd[enabled] = _herd_arm(telemetry=enabled)
        suffix = "on" if enabled else "off"
        recorder.add(f"warm_{suffix}", *_row(warm_lat[enabled]))
        recorder.add(f"herd_{suffix}", *_row(herd[enabled][1]))

    kept = int(WARM_LOADS * WARM_KEPT_SHARE)
    warm_ratio = sum(warm_lat[True][:kept]) / max(sum(warm_lat[False][:kept]), 1e-9)
    herd_ratio = sum(herd[True][1]) / max(sum(herd[False][1]), 1e-9)
    # Telemetry must never change what a request costs in kind — only
    # add bookkeeping noise. The baseline documents the <3% p95 target.
    assert warm_ratio < MAX_OVERHEAD_RATIO, (
        f"telemetry overhead on warm loads: {warm_ratio:.2f}x"
    )
    assert herd_ratio < MAX_OVERHEAD_RATIO, (
        f"telemetry overhead on herd traffic: {herd_ratio:.2f}x"
    )

    # The enabled servers expose the full operator view...
    warm_statz = warm_servers[True].statz()
    assert warm_statz["telemetry_enabled"]
    assert warm_statz["requests"]["total"] == WARM_LOADS + 1
    assert warm_statz["window"]["count"] > 0
    assert warm_statz["slo"]["state"] == "ok"
    slowlogged = _check_slowlog(warm_servers[True])
    # ...while the disabled ones report only the cheap liveness facts.
    off_statz = warm_servers[False].statz()
    assert not off_statz["telemetry_enabled"]
    assert "window" not in off_statz

    slo_demo = _slo_burn_demo()

    record(
        "e21_telemetry",
        recorder,
        trace={
            "warm_overhead_ratio": warm_ratio,
            "herd_overhead_ratio": herd_ratio,
            "slowlog_entries": slowlogged,
            "slo_demo": slo_demo,
        },
    )
    snapshot = {
        "experiment": "e21_telemetry",
        "vizserver_warm": warm_statz,
        "vizserver_herd": herd[True][0].statz(),
        "slo_demo": slo_demo,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "statz_e21.json").write_text(
        json.dumps(snapshot, indent=2, default=str) + "\n"
    )

    # Representative timed path: one interleaved warm load stream.
    result = benchmark.pedantic(
        lambda: _warm_arms()[1][True][-1] * 1000, rounds=2, iterations=1
    )
    assert result > 0.0
