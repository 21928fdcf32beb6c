"""The benchmark's workload, end-to-end and per-layer tables, as data.

``BENCHMARK.json`` holds the subset the driver's schema has room for
(names, units, directions, bounds); the columns it cannot hold — which
workloads a metric is reported on, which public call a layer metric
wraps, which end-to-end metric it should move and where — live here, and
the self-test checks the two stay in step.
"""

from __future__ import annotations

from dataclasses import dataclass

TDE_COLD, WARM, SIMDB, CHURN = "tde_cold_load", "warm_load", "simdb_session", "refresh_churn"
ALL = (TDE_COLD, WARM, SIMDB, CHURN)

#: name -> one-line reason the workload exists (BENCHMARK.json ``why``).
WORKLOADS: dict[str, str] = {
    TDE_COLD: (
        "Fig-1 over the TDE, 100k rows, fresh pipeline per load: every cache is "
        "bypassed, so tde.exec and tde.storage do >=90% of the work"
    ),
    WARM: (
        "Fig-1 over the TDE, 20k rows, one warmed pipeline, each op a second-user "
        "load: the cache-read path only; the backend does nothing"
    ),
    SIMDB: (
        "2-node VizServer + replicated tier over the simulated SQL backend, seeded "
        "load/select sessions: the paper's 3.1-3.5 path with parallel remote queries"
    ),
    CHURN: (
        "2-node VizServer + tier over a 5k-row TDE, refresh/load/load/select/clear "
        "cycles: cache writes, invalidation and cold plan compiles, not reads"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the reference median by which the metric may worsen.
    bound: float
    on: tuple[str, ...]
    definition: str
    #: Listed in BENCHMARK.json: reported on every workload and never 0.
    gated: bool = False


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "data generation + load + server/tier construction + warm-up "
             "(median of the run's set-ups)", gated=True),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25, ALL,
             "timed ops / summed wall of every timed step (refreshes included); "
             "median over rounds", gated=True),
    EndToEnd("cpu_ms_per_op", "ms", "lower", 0.25, ALL,
             "process_time over the timed steps / timed ops: real CPU in our code, "
             "all threads; modeled simdb/KV sleeps burn none; median over rounds", gated=True),
    EndToEnd("op_ms_p50", "ms", "lower", 0.25, ALL,
             "median wall of remote ops (the loads a user waits for), or of local ops "
             "on the workload that sends no backend query (warm_load): the one latency "
             "defined everywhere", gated=True),
    EndToEnd("local_op_ms_p50", "ms", "lower", 0.25, (WARM, SIMDB, CHURN),
             "median wall of ops that sent no backend query"),
    EndToEnd("local_op_ms_p95", "ms", "lower", 0.25, (WARM, SIMDB, CHURN),
             "p95 wall of local ops (needs >= 200 samples)"),
    EndToEnd("remote_op_ms_p50", "ms", "lower", 0.25, (TDE_COLD, SIMDB, CHURN),
             "median wall of ops that sent >= 1 backend query; no tail is claimed"),
    EndToEnd("backend_queries_per_op", "count", "lower", 0.0, ALL,
             "backend queries sent / ops, from RenderResult.remote_queries; exact per seed"),
    EndToEnd("failed_share", "ratio", "lower", 0.0, ALL,
             "ops that raised, came back degraded, or failed the oracle / ops attempted"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15, ALL,
             "ru_maxrss when the timed phase ends, the high-water mark having been reset "
             "after set-up: loaded data + what the timed ops grow (the oracle's memory is "
             "not counted)",
             gated=True),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: The public call the benchmark wraps, or the public counter it reads.
    source: str
    #: The end-to-end metric this should move ...
    moves: str
    #: ... on these workloads ...
    on: tuple[str, ...]
    #: ... and the paired "no change" prediction.
    no_effect_on: tuple[str, ...] = ()


def _rows(prefix: str, names: str, unit: str, better: str, source: str, moves: str,
          on: tuple[str, ...], no_effect_on: tuple[str, ...] = ()) -> tuple[PerLayer, ...]:
    return tuple(
        PerLayer(f"{prefix}.{n}", unit, better, source, moves, on, no_effect_on)
        for n in names.split()
    )


_TDE3 = (TDE_COLD, WARM, CHURN)

PER_LAYER: tuple[PerLayer, ...] = (
    *_rows("workloads", "generate_s load_s", "s", "lower",
           "generate_flights; FlightsDataset.load_into_engine / load_into_simdb",
           "setup_s", ALL),
    *_rows("server.vizserver", "self_ms_per_op", "ms", "lower",
           "VizServer.load, VizServer.select", "local_op_ms_p50",
           (SIMDB, CHURN), (TDE_COLD, WARM)),
    *_rows("dashboard.render", "self_ms_per_op", "ms", "lower",
           "DashboardSession.render", "local_op_ms_p50", (WARM,), (TDE_COLD,)),
    *_rows("dashboard.render", "iterations_per_op zones_queried_per_op", "count", "lower",
           "RenderResult.iterations, RenderResult.total_queries",
           "local_op_ms_p50", (WARM,), (TDE_COLD,)),
    *_rows("core.pipeline", "self_ms_per_op", "ms", "lower",
           "QueryPipeline.run_batch", "local_op_ms_p50", (WARM,)),
    *_rows("core.pipeline",
           "cache_hits_per_op derived_hits_per_op literal_hits_per_op "
           "fused_away_per_op batch_local_per_op", "count", "higher",
           "BatchResult fields", "backend_queries_per_op", (SIMDB,)),
    *_rows("core.pipeline", "remote_queries_per_op", "count", "lower",
           "BatchResult.remote_queries", "backend_queries_per_op", (SIMDB,)),
    *_rows("core.pipeline", "invalidate_ms_per_cycle", "ms", "lower",
           "QueryPipeline.invalidate", "ops_per_s", (CHURN,), (TDE_COLD, WARM, SIMDB)),
    *_rows("core.cache.intelligent", "lookup_ms_per_op enrich_ms_per_op", "ms", "lower",
           "IntelligentCache.lookup, enrich_spec", "local_op_ms_p50",
           (WARM, SIMDB), (TDE_COLD,)),
    *_rows("core.cache.intelligent", "lookups_per_op", "count", "lower",
           "IntelligentCache.lookup", "local_op_ms_p50", (WARM, SIMDB), (TDE_COLD,)),
    *_rows("core.cache.intelligent", "exact_hit_share subsumption_hit_share",
           "ratio", "higher", "IntelligentCacheStats.snapshot()", "local_op_ms_p95",
           (WARM, SIMDB), (TDE_COLD,)),
    *_rows("core.cache.intelligent", "put_ms_per_op", "ms", "lower",
           "IntelligentCache.put", "remote_op_ms_p50", (CHURN,), (WARM,)),
    *_rows("core.cache.distributed",
           "get_ms_per_op put_ms_per_op serialize_ms_per_op deserialize_ms_per_op",
           "ms", "lower",
           "DistributedQueryCache.get/put, serialize_table, deserialize_table",
           "local_op_ms_p95", (CHURN,), (TDE_COLD, WARM)),
    *_rows("core.cache.distributed", "bytes_put_per_op", "bytes", "lower",
           "len(serialize_table(...))", "remote_op_ms_p50", (CHURN,), (TDE_COLD, WARM)),
    *_rows("core.cache.distributed", "l1_hit_share l2_hit_share", "ratio", "higher",
           "VizServer.cache_summary()", "local_op_ms_p95", (CHURN,), (TDE_COLD, WARM)),
    *_rows("core.cache.replicated",
           "get_ms_per_op put_ms_per_op modeled_ms_per_op", "ms", "lower",
           "ReplicatedStore.get/put; modeled = KeyValueStore round trips x latency_s "
           "+ MB x per_mb_s", "local_op_ms_p95", (CHURN,), (TDE_COLD, WARM)),
    *_rows("core.cache.replicated", "invalidate_prefix_ms_per_cycle", "ms", "lower",
           "ReplicatedStore.invalidate_prefix", "ops_per_s", (CHURN,), (TDE_COLD, WARM)),
    *_rows("core.cache.replicated", "hit_share", "ratio", "higher",
           'ReplicatedStore.statz()["fleet"]', "local_op_ms_p95", (CHURN,),
           (TDE_COLD, WARM)),
    *_rows("core.batch", "self_ms_per_op", "ms", "lower", "build_batch_graph",
           "remote_op_ms_p50", (SIMDB,), (WARM,)),
    *_rows("core.fusion", "self_ms_per_op", "ms", "lower", "fuse_batch",
           "remote_op_ms_p50", (SIMDB,), (WARM,)),
    *_rows("core.executor", "wait_ms_per_op worker_busy_ms_per_op", "ms", "lower",
           "ConcurrentQueryExecutor.run_batch (caller's self time = waiting for the "
           "slowest part), .run_one (wall summed over the concurrent workers: up to "
           "7x the op)", "remote_op_ms_p50",
           (SIMDB, TDE_COLD), (WARM,)),
    *_rows("connectors.pool", "acquire_ms_per_op", "ms", "lower",
           "ConnectionPool.acquire", "remote_op_ms_p50", (SIMDB,), (WARM,)),
    *_rows("connectors.pool", "opened_per_op", "count", "lower", "PoolStats.opened",
           "remote_op_ms_p50", (SIMDB,), (WARM,)),
    *_rows("connectors.pool", "reused_share", "ratio", "higher", "PoolStats",
           "remote_op_ms_p50", (SIMDB,), (WARM,)),
    *_rows("connectors.connection", "execute_ms_per_op", "ms", "lower",
           "Connection.execute (wall summed over the concurrent workers, modeled sleep "
           "included)", "remote_op_ms_p50", (TDE_COLD, SIMDB, CHURN), (WARM,)),
    *_rows("connectors.simdb", "busy_s_per_op", "s", "lower",
           "SimulatedDatabase.stats.busy_seconds (modeled service time, not CPU)",
           "remote_op_ms_p50", (SIMDB,), _TDE3),
    *_rows("connectors.simdb", "queries_per_op rows_transferred_per_op", "count", "lower",
           "SimulatedDatabase.stats", "backend_queries_per_op", (SIMDB,), _TDE3),
    *_rows("queries.spec", "canonical_calls_per_op", "count", "lower",
           "QuerySpec.canonical", "cpu_ms_per_op", (WARM,), (TDE_COLD,)),
    *_rows("queries.spec", "canonical_ms_per_op", "ms", "lower",
           "QuerySpec.canonical", "local_op_ms_p50", (WARM,), (TDE_COLD,)),
    *_rows("queries.compile", "calls_per_op", "count", "lower", "compile_spec",
           "remote_op_ms_p50", (CHURN,), (WARM,)),
    *_rows("queries.compile", "self_ms_per_op", "ms", "lower", "compile_spec",
           "remote_op_ms_p50", (CHURN,), (WARM,)),
    *_rows("queries.postops", "calls_per_op", "count", "lower", "apply_post_ops",
           "local_op_ms_p50", (WARM, SIMDB), (TDE_COLD,)),
    *_rows("queries.postops", "self_ms_per_op", "ms", "lower",
           "apply_post_ops (its own operator and storage work included)",
           "local_op_ms_p50", (WARM, SIMDB), (TDE_COLD,)),
    *_rows("sql.generator", "self_ms_per_op", "ms", "lower", "generate_sql",
           "remote_op_ms_p50", (SIMDB,), _TDE3),
    *_rows("sql.parser", "self_ms_per_op", "ms", "lower", "parse_statement",
           "remote_op_ms_p50", (SIMDB,), _TDE3),
    *_rows("tde.engine", "query_ms_per_op", "ms", "lower",
           "DataEngine.query plus the wrapped calls at the root of the fragment threads "
           "it started; thread CPU time, the parent of every tde.exec / tde.storage row",
           "cpu_ms_per_op", (TDE_COLD, CHURN), (WARM,)),
    *_rows("tde.engine", "plan_ms_per_op", "ms", "lower",
           "DataEngine.plan; thread CPU time", "remote_op_ms_p50",
           (TDE_COLD, CHURN), (WARM,)),
    *_rows("tde.engine", "queries_per_op", "count", "lower", "DataEngine.query",
           "remote_op_ms_p50", (TDE_COLD, CHURN), (WARM,)),
    *_rows("tde.plancache", "hit_share", "ratio", "higher", "engine.plan_cache.stats()",
           "remote_op_ms_p50", (TDE_COLD, CHURN), (WARM,)),
    *_rows("tde.tql", "parse_ms_per_op", "ms", "lower", "parse_tql; thread CPU time",
           "remote_op_ms_p50", (CHURN,), (TDE_COLD,)),
    *_rows("tde.optimizer", "plan_query_ms_per_op", "ms", "lower",
           "plan_query; thread CPU time", "remote_op_ms_p50", (CHURN,), (TDE_COLD,)),
    *_rows("tde.optimizer", "fused_plan_share exchange_plan_share", "ratio", "higher",
           "render_plan(engine.plan(q)) over the run's distinct query texts",
           "remote_op_ms_p50", (TDE_COLD,)),
    *_rows("tde.exec", "self_ms_per_op", "ms", "lower",
           "execute_to_table under DataEngine.query, minus storage children; "
           "thread CPU time", "cpu_ms_per_op", (TDE_COLD, SIMDB), (WARM,)),
    *_rows("tde.storage",
           "concat_ms_per_op dictionary_encode_ms_per_op dictionary_decode_ms_per_op "
           "delta_materialize_ms_per_op", "ms", "lower",
           "Table.concat (re-encoding included), Dictionary.encode/decode, "
           "DeltaVector.materialize under DataEngine.query; thread CPU time",
           "cpu_ms_per_op", (TDE_COLD,), (WARM,)),
    *_rows("tde.storage", "slice_ms_per_op take_ms_per_op", "ms", "lower",
           "Table.slice/take minus the materializations they trigger; thread CPU time",
           "cpu_ms_per_op", (TDE_COLD,), (WARM,)),
    *_rows("tde.storage",
           "concat_calls_per_op dictionary_encode_values_per_op "
           "delta_materialize_calls_per_op slice_calls_per_op", "count", "lower",
           "the same calls, counted", "cpu_ms_per_op", (TDE_COLD,), (WARM,)),
    *_rows("trace", "overhead_ratio", "ratio", "lower",
           "traced / untraced median op wall (local ops where there are any)", "-", ALL),
    *_rows("trace", "conservation_error", "ratio", "lower",
           "max over ops of |sum of caller-thread self times - op wall| / op wall",
           "-", ALL),
)
