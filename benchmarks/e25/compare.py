"""``--compare A.json B.json``: two sets of runs against the bounds.

Each file is the JSON list ``--save`` builds. For every workload and
end-to-end metric present in both sets it prints both medians, how much
worse B is than A (as a share of A's median, positive = worse) and the
metric's bound; any metric beyond its bound makes the exit status 1. Run
length and sizes are part of what was measured: sets whose runs of one
workload differ in ``smoke``, ``seconds`` or ``rows`` are refused (2).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from .metrics import END_TO_END


def _medians(runs: list[dict]) -> dict[tuple[str, str], tuple[float, int]]:
    samples: dict[tuple[str, str], list[float]] = defaultdict(list)
    for run in runs:
        for name, metric in run["end_to_end"].items():
            if metric["value"] is not None:
                samples[(run["workload"], name)].append(metric["value"])
    return {k: (statistics.median(v), len(v)) for k, v in samples.items()}


def _mixed_settings(runs: list[dict]) -> list[str]:
    """One message per workload measured under more than one setting."""
    settings: dict[str, set] = defaultdict(set)
    for run in runs:
        settings[run["workload"]].add((run["smoke"], run["seconds"], run["rows"]))
    return [
        f"{workload}: runs differ in (smoke, seconds, rows): {sorted(seen, key=repr)}"
        for workload, seen in settings.items()
        if len(seen) > 1
    ]


def worse_by(reference: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is, as a share of ``reference``. A
    reference of 0 (failed_share, a workload with no backend query) makes
    any worsening infinite and anything else 0."""
    delta = candidate - reference if better == "lower" else reference - candidate
    if reference == 0:
        return float("inf") if delta > 0 else 0.0
    return delta / abs(reference)


def main(path_a: Path, path_b: Path) -> int:
    runs_a, runs_b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    mixed = _mixed_settings(runs_a + runs_b)
    if mixed:
        print("not comparable:", *mixed, sep="\n  ")
        return 2
    a, b = _medians(runs_a), _medians(runs_b)
    regressions = 0
    print(f"{'workload':<15}{'metric':<24}{'A median':>12}{'B median':>12}"
          f"{'worse by':>10}{'bound':>8}  runs")
    for metric in END_TO_END:
        for workload in metric.on:
            key = (workload, metric.name)
            if key not in a or key not in b:
                continue
            (ref, n_a), (cand, n_b) = a[key], b[key]
            worse = worse_by(ref, cand, metric.better)
            verdict = ""
            if worse > metric.bound:
                verdict = "  REGRESSION"
                regressions += 1
            print(f"{workload:<15}{metric.name:<24}{ref:>12.5g}{cand:>12.5g}"
                  f"{worse:>+10.1%}{metric.bound:>8.0%}  {n_a}/{n_b}{verdict}")
    print(f"{regressions} metric(s) beyond their bound")
    return 1 if regressions else 0
