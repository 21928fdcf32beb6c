"""Self-test of the instrument, not of the program.

Run it explicitly (tier-1 ``testpaths`` does not reach here)::

    PYTHONPATH=src python -m pytest benchmarks/e25/test_selftest.py -q
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from time import perf_counter

import pytest

import repro.core.pipeline
import repro.queries.compile
from repro.queries.spec import QuerySpec
from repro.tde.storage.table import Table

from . import cli, compare
from .harness import percentile
from .metrics import ALL, END_TO_END, PER_LAYER, SIMDB, WARM, WORKLOADS
from .trace import ALWAYS, ENGINE_ONLY, ENGINE_QUERY, ENGINE_ROOT, Tracer
from .workloads import WORKLOAD_CLASSES

REPO = Path(__file__).resolve().parents[2]


def _one_op(tracer: Tracer, fn) -> float:
    start = perf_counter()
    tracer.begin_op(start)
    fn()
    end = perf_counter()
    tracer.end_op(end)
    return end - start


def test_self_time_and_conservation_nested_and_two_threads():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.002), "leaf")
    worker = tracer.wrap(lambda: time.sleep(0.004), "worker")

    def parent_body():
        leaf()
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
        leaf()

    parent = tracer.wrap(parent_body, "parent")
    wall = _one_op(tracer, parent)
    leaf_t, worker_t, parent_t = (tracer.totals[n] for n in ("leaf", "worker", "parent"))
    assert (leaf_t.count, worker_t.count, parent_t.count) == (2, 1, 1)
    # Self time is the span minus its same-thread children ...
    assert parent_t.self_s == pytest.approx(parent_t.dur_s - leaf_t.dur_s)
    # ... and a worker thread's span is a root, charged to nobody: the
    # parent waited for it, so that wait is the parent's own time.
    assert parent_t.self_s >= worker_t.dur_s >= 0.004
    spans = {s[0]: s for s in tracer.raw}
    assert spans["worker"][5] == 0 and spans["worker"][7] != spans["parent"][7]
    assert spans["leaf"][5] == spans["parent"][4]
    # The calling thread's self times sum to the op's wall.
    caller = sum(s[3] for s in tracer.raw if s[7] == spans["parent"][7])
    assert caller == pytest.approx(wall, rel=1e-9)
    assert tracer.conservation_error < 1e-9


def test_engine_only_spans_need_the_engine_or_a_worker_root():
    tracer = Tracer()
    storage = tracer.wrap(lambda: sum(range(20_000)), "tde.storage.call", ENGINE_ONLY)
    post_ops = tracer.wrap(storage, "post_ops", ALWAYS)
    engine = tracer.wrap(storage, ENGINE_QUERY, ENGINE_ROOT)

    def fragment():
        thread = threading.Thread(target=storage)
        thread.start()
        thread.join(timeout=5)

    _one_op(tracer, post_ops)
    assert "tde.storage.call" not in tracer.totals
    assert tracer.engine_cpu_s == 0
    _one_op(tracer, engine)
    calls = tracer.totals["tde.storage.call"]
    assert calls.count == 1
    # The engine's CPU is the query span's, its children included once ...
    in_query = tracer.totals[ENGINE_QUERY].cpu_s
    assert tracer.engine_cpu_s == in_query >= calls.cpu_s > 0
    _one_op(tracer, fragment)
    assert calls.count == 2
    # ... plus what the root span of a fragment thread burnt.
    assert tracer.engine_cpu_s == pytest.approx(in_query + tracer.raw[-2][9])
    assert tracer.raw[-2][0] == "tde.storage.call" and tracer.raw[-2][5] == 0


def test_percentile_refuses_a_tail_it_cannot_support():
    assert percentile(list(range(1, 201)), 95) == 190
    with pytest.raises(ValueError, match="ten samples beyond"):
        percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        percentile([1.0] * 12, 90)


def test_patches_are_restored_after_a_traced_run():
    originals = (
        QuerySpec.__dict__["canonical"],
        Table.__dict__["concat"],
        repro.core.pipeline.compile_spec,
    )
    record = cli.run_workload(WARM, 5, trace=True, smoke=True)
    assert record["failed"] == 0
    layers = record["per_layer"]
    assert layers["trace.conservation_error"]["value"] <= 0.01
    assert layers["queries.spec.canonical_calls_per_op"]["value"] > 100
    # The cache-read path never enters the data engine.
    assert all(m["value"] == 0 for name, m in layers.items() if name.startswith("tde."))
    assert originals == (
        QuerySpec.__dict__["canonical"],
        Table.__dict__["concat"],
        repro.core.pipeline.compile_spec,
    )
    assert repro.core.pipeline.compile_spec is repro.queries.compile.compile_spec
    assert isinstance(Table.__dict__["concat"], staticmethod)


_EXACT = (
    "core.cache.intelligent.exact_hit_share",
    "core.cache.intelligent.subsumption_hit_share",
    "core.cache.distributed.l1_hit_share",
    "core.cache.distributed.l2_hit_share",
    "core.pipeline.remote_queries_per_op",
    "queries.spec.canonical_calls_per_op",
)


def test_same_seed_repeats_exactly_and_another_seed_does_not():
    cls = WORKLOAD_CLASSES[SIMDB]
    assert len(cls(3, smoke=True).script()) <= 40  # --smoke's op budget
    assert cls(3, smoke=True).script() == cls(3, smoke=True).script()
    assert cls(3, smoke=True).script() != cls(4, smoke=True).script()
    first, again = (
        cli.run_workload(SIMDB, 3, trace=True, smoke=True) for _ in range(2)
    )
    assert first["failed"] == again["failed"] == 0
    for record in (first, again):
        assert record["end_to_end"]["backend_queries_per_op"]["value"] > 0
    assert (first["end_to_end"]["backend_queries_per_op"]
            == again["end_to_end"]["backend_queries_per_op"])
    for name in _EXACT:
        assert first["per_layer"][name] == again["per_layer"][name], name
    a, b = cls(3, smoke=True), cls(4, smoke=True)
    a.setup(), b.setup()
    try:
        assert a.dataset.flights["dep_delay"] != b.dataset.flights["dep_delay"]
    finally:
        a.close(), b.close()


def test_compare_flags_only_what_is_beyond_its_bound(tmp_path, capsys):
    def runs(ops_per_s: float, failed_share: float, seconds: float = 15) -> list[dict]:
        return [{
            "workload": WARM,
            "smoke": False,
            "seconds": seconds,
            "rows": 20_000,
            "end_to_end": {
                "ops_per_s": {"value": ops_per_s * f, "unit": "1/s", "n": 100},
                "failed_share": {"value": failed_share, "unit": "ratio", "n": 100},
                "local_op_ms_p95": {"value": None, "unit": "ms", "n": 5},
            },
        } for f in (0.99, 1.0, 1.01)]

    paths = {}
    for label, args in {"base": (100, 0), "slower": (70, 0), "faster": (130, 0),
                        "wrong": (100, 0.01), "shorter": (100, 0, 5)}.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(runs(*args)))
    assert compare.main(paths["base"], paths["base"]) == 0
    assert compare.main(paths["base"], paths["faster"]) == 0
    assert compare.main(paths["base"], paths["slower"]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert compare.main(paths["base"], paths["wrong"]) == 1
    # Run length is part of what was measured.
    assert compare.main(paths["base"], paths["shorter"]) == 2
    assert "not comparable" in capsys.readouterr().out
    assert compare.worse_by(0, 0, "lower") == 0


def test_driver_line_counts_every_run_and_keeps_only_gated_metrics():
    last = {"end_to_end": {
        "setup_s": {"value": 1.5, "unit": "s", "n": 3},
        "failed_share": {"value": 0.0, "unit": "ratio", "n": 8},
    }}
    # A failure in an earlier run of the command shows on the last line.
    line = json.loads(cli._driver_line(last, trace=False, attempted=40, failed=1))
    assert line == {"correct": False, "attempted": 40, "failed": 1,
                    "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}


def test_benchmark_json_matches_the_tables():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e25"]
    assert spec["run_seconds"] == cli.DEFAULT_SECONDS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert tuple(WORKLOADS) == ALL
    gated = [m for m in END_TO_END if m.gated]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in gated
    ]
    assert all(m.on == ALL and 0 < m.bound <= 0.25 for m in gated)
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    assert len(names) == len(set(names))
