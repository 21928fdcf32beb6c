"""Command line: run one workload, print its metrics, save the record.

The last line of standard output is the one JSON object the benchmark
driver reads; everything above it is for people.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from repro import obs

from . import compare
from .harness import (
    Phase,
    check_against_oracle,
    end_to_end_metrics,
    peak_rss_mb,
    reset_peak_rss,
    run_phase,
)
from .metrics import ALL, CHURN, END_TO_END, PER_LAYER
from .trace import Tracer, layer_metrics
from .workloads import TIER_LATENCY_S, TIER_PER_MB_S, WORKLOAD_CLASSES

#: BENCHMARK.json's ``run_seconds``. The benchmark driver passes it back
#: as ``--seconds`` on every run, which is why the flag exists; a set of
#: runs holds one length, and ``--compare`` refuses two sets that differ.
DEFAULT_SECONDS = 15
#: ``setup_s`` is the median of the run's set-ups: at least MIN_SETUPS,
#: and more (up to MAX_SETUPS) while they have cost under SETUP_BUDGET_S
#: in all, so that a 0.3 s set-up is not judged on three samples.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 3.0
OUT_DIR = Path(__file__).resolve().parent / "_out"


def run_workload(
    name: str,
    seed: int,
    *,
    seconds: float = DEFAULT_SECONDS,
    trace: bool = False,
    smoke: bool = False,
) -> dict:
    """One run: set up, measure untraced, optionally measure again under
    the tracer, check every answer, and return the run's record. A smoke
    run measures one round of the shrunk workload whatever ``seconds``."""
    if obs.enabled() or obs.events_enabled():
        raise RuntimeError("repro.obs must be off while the benchmark measures")
    workload = WORKLOAD_CLASSES[name](seed, smoke=smoke)
    setup_s, generate_s, load_s = [], [], []
    most = 1 if smoke else MAX_SETUPS
    while len(setup_s) < most and (
        len(setup_s) < MIN_SETUPS or sum(setup_s) < SETUP_BUDGET_S
    ):
        started = perf_counter()
        workload.setup()
        setup_s.append(perf_counter() - started)
        generate_s.append(workload.generate_s)
        load_s.append(workload.load_s)
    # A traced run splits its time: end-to-end numbers always come from
    # the untraced half, the layer table from the traced half.
    budget = dict(rounds=1) if smoke else dict(seconds=seconds / 2 if trace else seconds)
    reset_peak_rss()
    phase = run_phase(workload, **budget)
    rss_mb = peak_rss_mb()
    phases = [phase]
    layers = None
    if trace:
        tracer = Tracer()
        with tracer.installed():
            traced = run_phase(workload, tracer=tracer, **budget)
            layers = _layer_table(workload, tracer, phase, traced, generate_s, load_s)
        phases.append(traced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{name}.spans.jsonl")
    problems = check_against_oracle(workload, phases)
    workload.close()
    attempted = sum(len(p.records) for p in phases)
    failed = sum(r.error is not None for p in phases for r in p.records)
    errors = [r.error for p in phases for r in p.records if r.error is not None]
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "rows": workload.size.rows,
        "seconds": None if smoke else seconds,
        "rounds": len(phase.rounds),
        "attempted": attempted,
        "failed": failed,
        "problems": (problems + errors)[:10],
        "end_to_end": end_to_end_metrics(name, phase, setup_s, rss_mb),
        "per_layer": layers,
    }


def _layer_table(workload, tracer: Tracer, untraced: Phase, traced: Phase,
                 generate_s: list[float], load_s: list[float]) -> dict[str, dict]:
    values = layer_metrics(
        tracer,
        ops=len(traced.records),
        cycles=traced.refreshes,
        sums=traced.sums,
        counters=traced.counters,
        tier_model=(TIER_LATENCY_S, TIER_PER_MB_S),
    )
    values["workloads.generate_s"] = statistics.median(generate_s)
    values["workloads.load_s"] = statistics.median(load_s)
    # Local ops where there are any: a remote op on simdb_session is mostly
    # modeled sleep, which hides what the wrappers cost.
    values["trace.overhead_ratio"] = statistics.median(
        traced.walls_ms(remote=False) or traced.walls_ms(remote=True)
    ) / statistics.median(
        untraced.walls_ms(remote=False) or untraced.walls_ms(remote=True)
    )
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #
def _print_record(record: dict) -> None:
    size = "smoke" if record["smoke"] else f"{record['seconds']:g} s"
    print(
        f"E25 {record['workload']}  seed={record['seed']}  rows={record['rows']}  "
        f"{size}  rounds={record['rounds']}  ops={record['attempted']}"
    )
    print("end-to-end (untraced, closed loop, one client)")
    for name, m in record["end_to_end"].items():
        value = "n/a (too few samples)" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<26}{value:>16} {m['unit']:<6} n={m['n']}")
    if record["per_layer"] is not None:
        print("per-layer (traced)")
        for name, m in record["per_layer"].items():
            print(f"  {name:<54}{m['value']:>14.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)


def _driver_line(record: dict, *, trace: bool, attempted: int, failed: int) -> str:
    """The driver's contract: the gated end-to-end metrics untraced, every
    per-layer metric traced; ``attempted`` and ``failed`` count every run
    the command made, as its exit status does."""
    if trace:
        metrics = record["per_layer"]
    else:
        gated = {m.name for m in END_TO_END if m.gated}
        metrics = {k: v for k, v in record["end_to_end"].items() if k in gated}
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    })


def _save(record: dict, path: Path) -> None:
    """Append the record to the JSON list at ``path`` (a set of runs)."""
    runs = json.loads(path.read_text()) if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps(runs, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e25",
        description="E25: end-to-end dashboard benchmark with a per-layer table.",
    )
    parser.add_argument("--workload", choices=ALL)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed phase (a traced run splits it in two); "
                             "the benchmark driver passes BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also run under benchmark-owned spans; print the layer table")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one round; without --workload: all four + one traced")
    parser.add_argument("--save", type=Path, metavar="RUNS.json",
                        help="append this run's record to a set of runs for --compare")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"),
                        help="compare two sets of runs against the metrics' bounds")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required (or --smoke for all four)")
    # Smoke without a workload: all four, then one traced run of the
    # workload that crosses the most layers.
    plan = (
        [(args.workload, bool(args.trace))]
        if args.workload
        else [(name, False) for name in ALL] + [(CHURN, True)]
    )
    attempted = failed = 0
    for name, trace in plan:
        record = run_workload(
            name, args.seed, seconds=args.seconds, trace=trace, smoke=args.smoke
        )
        _print_record(record)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
        if args.save:
            _save(record, args.save)
        attempted += record["attempted"]
        failed += record["failed"]
    print(_driver_line(record, trace=trace, attempted=attempted, failed=failed))
    return 1 if failed else 0
