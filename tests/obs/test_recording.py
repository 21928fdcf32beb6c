"""PerformanceRecording export + BENCH_*.json schema validation."""

import json

import pytest

from repro.clock import VirtualTimeClock
from repro.obs import (
    SCHEMA_VERSION,
    MetricsRegistry,
    PerformanceRecording,
    Tracer,
)
from repro.sim.metrics import Recorder


def make_recording():
    clock = VirtualTimeClock()
    tracer = Tracer(clock=clock)
    metrics = MetricsRegistry()
    with tracer.span("pipeline.run_batch", specs=2):
        with tracer.span("pipeline.cache_probe"):
            clock.advance(0.010)
        with tracer.span("pipeline.remote_execution"):
            with tracer.span("executor.query", rows=5):
                clock.advance(0.100)
            with tracer.span("executor.query", rows=7):
                clock.advance(0.300)
    metrics.counter("cache.hits").inc(3)
    metrics.histogram("executor.query_s").observe(0.1)
    metrics.histogram("executor.query_s").observe(0.3)
    return PerformanceRecording(tracer, metrics)


class TestPerformanceRecording:
    def test_find_and_phase_summary(self):
        rec = make_recording()
        assert rec.find("pipeline.cache_probe").duration_s == pytest.approx(0.010)
        assert len(rec.find_all("executor.query")) == 2
        phases = rec.phase_summary()
        q = phases["executor.query"]
        assert q["count"] == 2
        assert q["total_s"] == pytest.approx(0.4)
        assert q["mean_s"] == pytest.approx(0.2)
        assert q["max_s"] == pytest.approx(0.3)
        assert phases["pipeline.run_batch"]["total_s"] == pytest.approx(0.410)

    def test_render_timeline(self):
        rec = make_recording()
        text = rec.render()
        assert "== Performance Recording ==" in text
        assert "pipeline.run_batch" in text
        # Children are indented below the root, with offsets and durations.
        assert "\n  [" in text
        assert "rows=5" in text
        assert "-- metrics --" in text
        assert "cache.hits: 3" in text
        # max_depth prunes the executor spans (depth 2) from the timeline;
        # the metric lines still mention the histogram by name.
        shallow = rec.render(max_depth=1)
        timeline = shallow.split("-- metrics --")[0]
        assert "executor.query" not in timeline
        assert "pipeline.remote_execution" in timeline

    def test_render_empty(self):
        rec = PerformanceRecording(Tracer())
        assert "(no spans recorded)" in rec.render()

    def test_to_dict_and_json(self):
        rec = make_recording()
        d = rec.to_dict()
        assert d["schema_version"] == SCHEMA_VERSION
        assert [s["name"] for s in d["spans"]] == ["pipeline.run_batch"]
        assert "executor.query" in d["phases"]
        assert d["metrics"]["cache.hits"]["value"] == 3
        # to_json round-trips.
        assert json.loads(rec.to_json())["schema_version"] == SCHEMA_VERSION


class TestBenchJsonSchema:
    """The benchmark harness artifact: series + trace, schema-versioned."""

    def test_record_writes_schema_valid_bench_json(self, tmp_path, monkeypatch, capsys):
        import benchmarks.conftest as bench

        monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
        recorder = Recorder("E1 demo", columns=["iteration", "ms"])
        recorder.add(1, 12.5)
        recorder.add(2, 0.8)
        bench.record("demo_exp", recorder, trace=make_recording())
        capsys.readouterr()  # swallow the emitted table

        assert (tmp_path / "demo_exp.txt").exists()
        payload = json.loads((tmp_path / "BENCH_demo_exp.json").read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["experiment"] == "demo_exp"
        series = payload["series"]
        assert series["title"] == "E1 demo"
        assert series["columns"] == ["iteration", "ms"]
        assert series["rows"] == [[1, 12.5], [2, 0.8]]
        trace = payload["trace"]
        assert set(trace) == {"phases", "metrics", "events", "event_counts"}
        assert trace["phases"]["executor.query"]["count"] == 2
        assert trace["metrics"]["cache.hits"] == {"type": "counter", "value": 3}

    def test_record_without_trace_writes_null(self, tmp_path, monkeypatch, capsys):
        import benchmarks.conftest as bench

        monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
        recorder = Recorder("bare", columns=["x"])
        recorder.add(1)
        bench.record("bare_exp", recorder)
        capsys.readouterr()
        payload = json.loads((tmp_path / "BENCH_bare_exp.json").read_text())
        assert payload["trace"] is None
