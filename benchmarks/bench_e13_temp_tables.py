"""E13 (§5.3, with §3.1's externalization — covers E15): temporary tables
for large enumerations, on Data Server and on the database.

"a filter on a large cardinality database field may be stored as a
temporary table on the database. Instead of issuing a query with a very
long and complicated filter ... the temporary table is used in the query.
The temporary data structures provide two different performance
improvements: (1) reduced network traffic between the client and the Data
Server if a temporary data structure is used repeatedly in subsequent
queries, and (2) improved query execution times on the database."

Sweep the filter cardinality: the *inline* client resends the IN-list
with every query; the *set-based* client ships it once and references a
handle. Expected shape: client→proxy bytes grow linearly with both list
size and query count for inline, but stay flat for sets; the externalized
temp-table join also beats a giant IN predicate on the backend.
"""


from repro.connectors.simdb import ServerProfile
from repro.core.pipeline import PipelineOptions
from repro.queries import CategoricalFilter
from repro.server import DataServer
from repro.sim.metrics import Recorder, time_call

from .conftest import BENCH_WORK_UNIT_S, COUNT, make_backend, record, spec

LIST_SIZES = (10, 100, 1_000, 10_000)
QUERIES_PER_SESSION = 5


def _values(k: int):
    return tuple(range(0, 3 * k, 3))  # distances exist in 120..2800 anyway


def _publish(dataset, model, name: str) -> DataServer:
    profile = ServerProfile(work_unit_time_s=BENCH_WORK_UNIT_S, name=name)
    _db, source = make_backend(dataset, profile, name=name)
    server = DataServer()
    # Externalize anything beyond 500 values; caches off to isolate the
    # temp-table effect itself.
    server.publish(
        "faa",
        model,
        source,
        options=PipelineOptions(
            enable_intelligent_cache=False,
            enable_literal_cache=False,
            enrich_for_reuse=False,
            externalize_threshold=500,
        ),
    )
    return server


def test_e13_temp_tables(benchmark, dataset, model):
    recorder = Recorder(
        "E13: temp tables for large filters (5 queries per session)",
        columns=["list_size", "inline_bytes", "set_bytes", "inline_ms", "set_ms"],
    )
    rows = []
    for k in LIST_SIZES:
        values = _values(k)
        base = spec(dimensions=("carrier_name",), measures=(("n", COUNT),))
        inline_spec = base.with_filters((CategoricalFilter("distance", values),))

        server = _publish(dataset, model, name=f"inline{k}")
        inline_session = server.connect("faa", "inline-user")
        inline_s, inline_out = time_call(
            lambda: [inline_session.query(inline_spec) for _ in range(QUERIES_PER_SESSION)],
            repeat=1,
        )
        server2 = _publish(dataset, model, name=f"sets{k}")
        set_session = server2.connect("faa", "set-user")
        set_session.create_set("big", "distance", values)
        set_s, set_out = time_call(
            lambda: [
                set_session.query(base, use_sets={"distance": "big"})
                for _ in range(QUERIES_PER_SESSION)
            ],
            repeat=1,
        )
        assert inline_out[-1].approx_equals(set_out[-1], ordered=False)
        recorder.add(
            k,
            inline_session.bytes_from_client,
            set_session.bytes_from_client,
            inline_s * 1000,
            set_s * 1000,
        )
        rows.append((k, inline_session.bytes_from_client, set_session.bytes_from_client))
    record("e13_temp_tables", recorder)

    # Traffic shape: inline reships the list with every query; sets ship
    # it once, so their total is bounded by roughly one inline query's
    # worth instead of five.
    small_inline, _small_set = rows[0][1], rows[0][2]
    big_inline, big_set = rows[-1][1], rows[-1][2]
    assert big_inline > small_inline * 100
    assert big_set < big_inline / (QUERIES_PER_SESSION - 1)

    # Backend effect (§5.3 improvement 2): a giant inline IN predicate is
    # evaluated per row; the externalized temp-table join is not.
    backend_rec = Recorder(
        "E13b: backend time, inline IN vs temp-table join (1000 values)",
        columns=["strategy", "elapsed_ms"],
    )
    values = _values(1_000)
    base = spec(dimensions=("carrier_name",), measures=(("n", COUNT),))
    filtered = base.with_filters((CategoricalFilter("distance", values),))
    server_inline = _publish(dataset, model, name="noext")
    server_inline.get("faa").pipeline.options.externalize_threshold = 10**9
    t_inline, r_inline = time_call(
        lambda: server_inline.connect("faa", "u").query(filtered), repeat=1
    )
    server_ext = _publish(dataset, model, name="ext")
    t_ext, r_ext = time_call(lambda: server_ext.connect("faa", "u").query(filtered), repeat=1)
    assert r_inline.approx_equals(r_ext, ordered=False)
    backend_rec.add("inline IN (1000 values)", t_inline * 1000)
    backend_rec.add("externalized temp table", t_ext * 1000)
    record("e13b_backend_effect", backend_rec)
    assert t_ext < t_inline / 2

    server = _publish(dataset, model, name="bench13")
    session = server.connect("faa", "bench-user")
    session.create_set("big", "distance", _values(10_000))
    base = spec(dimensions=("carrier_name",), measures=(("n", COUNT),))
    result = benchmark.pedantic(
        lambda: session.query(base, use_sets={"distance": "big"}), rounds=3, iterations=1
    )
    assert result.n_rows > 0
