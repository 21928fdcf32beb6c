"""E5 (§3.5): concurrent query execution over multiple connections.

"Our experiments show that using multiple connections to handle
concurrent workloads boosts performance, often dramatically, across the
architectures supported by Tableau. Obviously, the positive effect is
observable if idle resources are available and can be utilized."

We submit a 12-query batch over 1..12 connections against three backend
architectures:

* serial-per-query  — 4 workers, each query uses 1 (headroom: 4×);
* parallel-plans    — 4 workers, a lone query already uses all 4, so
  extra connections help much less (the paper's resource-allocation
  discussion);
* throttled         — admission control caps concurrency at 2.

Expected shape: near-linear gains up to the worker count for the serial
backend, early saturation for the parallel backend, hard ceiling ~2× for
the throttled one.
"""


from repro.connectors.simdb import ServerProfile
from repro.core.pipeline import PipelineOptions, QueryPipeline
from repro.queries import CategoricalFilter
from repro.sim.metrics import Recorder

from .conftest import COUNT, SUM_DELAY, make_backend, record, spec

from .conftest import BENCH_WORK_UNIT_S

PROFILES = {
    "serial-per-query": ServerProfile(
        name="serial-db", workers=4, per_query_parallelism=1, work_unit_time_s=BENCH_WORK_UNIT_S
    ),
    "parallel-plans": ServerProfile(
        name="parallel-db", workers=4, per_query_parallelism=4, work_unit_time_s=BENCH_WORK_UNIT_S
    ),
    "throttled": ServerProfile(
        name="throttled-db",
        workers=4,
        per_query_parallelism=1,
        max_concurrent_queries=2,
        work_unit_time_s=BENCH_WORK_UNIT_S,
    ),
}

CONNECTIONS = (1, 2, 4, 8, 12)


def _batch():
    return [
        spec(
            dimensions=("carrier_name",),
            measures=(("n", COUNT), ("s", SUM_DELAY)),
            filters=(CategoricalFilter("market_id", (i % 12, (i + 3) % 12, (i + 7) % 12)),),
        )
        for i in range(12)
    ]


def _options(n_connections: int) -> PipelineOptions:
    return PipelineOptions(
        enable_intelligent_cache=False,
        enable_literal_cache=False,
        enable_fusion=False,
        enable_batch_graph=False,
        enrich_for_reuse=False,
        concurrent=n_connections > 1,
        max_connections=n_connections,
    )


def test_e5_concurrent_connections(benchmark, dataset, model):
    recorder = Recorder(
        "E5: connection sweep x backend architecture (12-query batch)",
        columns=["backend", "connections", "elapsed_ms", "speedup_vs_1"],
    )
    curves: dict[str, list[float]] = {}
    for arch, profile in PROFILES.items():
        _db, source = make_backend(dataset, profile, name=profile.name)
        elapsed = []
        for n_conn in CONNECTIONS:
            pipeline = QueryPipeline(source, model, options=_options(n_conn))
            result = pipeline.run_batch(_batch())
            pipeline.close()
            elapsed.append(result.elapsed_s)
            recorder.add(arch, n_conn, result.elapsed_s * 1000, elapsed[0] / result.elapsed_s)
        curves[arch] = elapsed
    record("e5_concurrent_connections", recorder)

    def speedup(arch, idx):
        return curves[arch][0] / curves[arch][idx]

    four = CONNECTIONS.index(4)
    last = len(CONNECTIONS) - 1
    # Serial-per-query backend: dramatic gains up to the worker count.
    assert speedup("serial-per-query", four) > 2.0
    # Parallel-plan backend: a single connection already exploits the
    # workers, so extra connections help far less.
    assert speedup("parallel-plans", four) < speedup("serial-per-query", four) * 0.7
    # Throttled backend: admission control caps the benefit around 2x.
    assert speedup("throttled", last) < 3.0
    # More connections never make things dramatically worse.
    for arch in PROFILES:
        assert curves[arch][last] <= curves[arch][0] * 1.3

    _db, source = make_backend(dataset, PROFILES["serial-per-query"], name="bench-serial")
    pipeline = QueryPipeline(source, model, options=_options(8))
    result = benchmark.pedantic(lambda: pipeline.run_batch(_batch()), rounds=3, iterations=1)
    assert len(result.tables) == 12
