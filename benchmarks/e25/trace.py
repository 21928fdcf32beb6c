"""Benchmark-owned spans around each layer's public calls.

The program under test is not edited: while a :class:`Tracer` is
installed, class methods are replaced on their class and module-level
functions in the namespace of every ``repro`` module that imported them,
and everything is put back on exit. A span is ``(name, start, end,
self, id, parent, op, thread, weight, cpu, self_cpu)``; *self* time is
the span minus its same-thread children, kept online with a per-thread
stack, so the caller-thread self times of one op sum to the op's wall.

Spans opened on worker threads (executor workers, ``Exchange``
fragments) have no parent: they are attached to the current op — there
is one client, so there is one — and summed as busy time. Up to seven
queries and their fragments interleave under the GIL, so a worker span's
wall counts the time it waited for the interpreter; spans inside the data
engine therefore also carry ``time.thread_time`` (CPU burnt by that call
on its thread), which adds up across threads and compares with
``cpu_ms_per_op``. Every ``tde.*_ms`` row of the layer table is that CPU
time, so ``tde.engine.query_ms_per_op`` and the rows beneath it share one
clock and the children can be subtracted from the parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from contextlib import contextmanager
from time import perf_counter, thread_time

from repro.connectors.connection import Connection
from repro.connectors.pool import ConnectionPool
from repro.core.batch import build_batch_graph
from repro.core.cache.distributed import (
    DistributedQueryCache,
    KeyValueStore,
    deserialize_table,
    serialize_table,
)
from repro.core.cache.intelligent import IntelligentCache, enrich_spec
from repro.core.cache.replicated import ReplicatedStore
from repro.core.executor import ConcurrentQueryExecutor
from repro.core.fusion import fuse_batch
from repro.core.pipeline import QueryPipeline
from repro.dashboard import DashboardSession
from repro.queries.compile import compile_spec
from repro.queries.postops import apply_post_ops
from repro.queries.spec import QuerySpec
from repro.server.vizserver import VizServer
from repro.sql.generator import generate_sql
from repro.sql.parser import parse_statement
from repro.tde.engine import DataEngine, render_plan
from repro.tde.exec.physical import execute_to_table
from repro.tde.optimizer.planner import plan_query
from repro.tde.storage.dictionary import Dictionary
from repro.tde.storage.table import Table
from repro.tde.storage.vectors import DeltaVector
from repro.tde.tql.parser import parse_tql

#: Raw spans are kept (and written to the span file) for this many ops;
#: later ops are folded into the totals only, or warm_load's ~250 spans
#: per 2 ms op would not fit in memory.
KEEP_RAW_OPS = 25

ROOT = "bench.op"
ENGINE_QUERY = "tde.engine.query"

#: How a wrapper decides whether to record. ALWAYS records whenever an op
#: is open. ENGINE_ROOT also marks "inside the data engine". ENGINE_ONLY
#: records only inside the engine or at the root of a worker thread (an
#: ``Exchange`` fragment): ``apply_post_ops`` reuses the TDE's operators
#: and storage on the cache-read path, and that work belongs to
#: ``queries.postops``, not to ``tde.*``.
ALWAYS, ENGINE_ROOT, ENGINE_ONLY = 0, 1, 2

_FAILED = object()


def _payload_len(tracer, args, result):
    return len(args[2])


def _result_len(tracer, args, result):
    return len(result) if result is not None else 0


def _values_len(tracer, args, result):
    return len(args[1])


def _note_query(tracer, args, result):
    """Remember each distinct query an engine ran (text, or the logical
    plan the SQL parser produced) for the plan-shape shares."""
    engine, query = args[0], args[1]
    key = query if isinstance(query, str) else repr(query)
    if key not in tracer.queries:
        tracer.queries[key] = (engine, query)
    return 0


#: (owner, attribute) -> (span name, scope, weigh). ``weigh(tracer, args,
#: result)`` runs after the span has ended and is summed per span name:
#: bytes through the KV store, values encoded.
_METHODS = {
    (VizServer, "load"): ("server.vizserver.load", ALWAYS, None),
    (VizServer, "select"): ("server.vizserver.select", ALWAYS, None),
    (DashboardSession, "render"): ("dashboard.render.render", ALWAYS, None),
    (QueryPipeline, "run_batch"): ("core.pipeline.run_batch", ALWAYS, None),
    (QueryPipeline, "invalidate"): ("core.pipeline.invalidate", ALWAYS, None),
    (IntelligentCache, "lookup"): ("core.cache.intelligent.lookup", ALWAYS, None),
    (IntelligentCache, "put"): ("core.cache.intelligent.put", ALWAYS, None),
    (DistributedQueryCache, "get"): ("core.cache.distributed.get", ALWAYS, None),
    (DistributedQueryCache, "put"): ("core.cache.distributed.put", ALWAYS, None),
    (KeyValueStore, "get"): ("core.cache.distributed.kv_get", ALWAYS, _result_len),
    (KeyValueStore, "put"): ("core.cache.distributed.kv_put", ALWAYS, _payload_len),
    (ReplicatedStore, "get"): ("core.cache.replicated.get", ALWAYS, None),
    (ReplicatedStore, "put"): ("core.cache.replicated.put", ALWAYS, None),
    (ReplicatedStore, "invalidate_prefix"): (
        "core.cache.replicated.invalidate_prefix", ALWAYS, None),
    (ConcurrentQueryExecutor, "run_batch"): ("core.executor.run_batch", ALWAYS, None),
    (ConcurrentQueryExecutor, "run_one"): ("core.executor.run_one", ALWAYS, None),
    (ConnectionPool, "acquire"): ("connectors.pool.acquire", ALWAYS, None),
    (Connection, "execute"): ("connectors.connection.execute", ALWAYS, None),
    (QuerySpec, "canonical"): ("queries.spec.canonical", ALWAYS, None),
    (DataEngine, "query"): (ENGINE_QUERY, ENGINE_ROOT, _note_query),
    (DataEngine, "plan"): ("tde.engine.plan", ENGINE_ROOT, None),
    (Table, "concat"): ("tde.storage.concat", ENGINE_ONLY, None),
    (Table, "slice"): ("tde.storage.slice", ENGINE_ONLY, None),
    (Table, "take"): ("tde.storage.take", ENGINE_ONLY, None),
    (Dictionary, "encode"): ("tde.storage.dictionary_encode", ENGINE_ONLY, _values_len),
    (Dictionary, "decode"): ("tde.storage.dictionary_decode", ENGINE_ONLY, None),
    (DeltaVector, "materialize"): ("tde.storage.delta_materialize", ENGINE_ONLY, None),
}

_FUNCTIONS = {
    enrich_spec: ("core.cache.intelligent.enrich", ALWAYS, None),
    serialize_table: ("core.cache.distributed.serialize", ALWAYS, _result_len),
    deserialize_table: ("core.cache.distributed.deserialize", ALWAYS, None),
    build_batch_graph: ("core.batch.build_batch_graph", ALWAYS, None),
    fuse_batch: ("core.fusion.fuse_batch", ALWAYS, None),
    compile_spec: ("queries.compile.compile_spec", ALWAYS, None),
    apply_post_ops: ("queries.postops.apply_post_ops", ALWAYS, None),
    generate_sql: ("sql.generator.generate_sql", ALWAYS, None),
    parse_statement: ("sql.parser.parse_statement", ALWAYS, None),
    parse_tql: ("tde.tql.parse_tql", ENGINE_ONLY, None),
    plan_query: ("tde.optimizer.plan_query", ENGINE_ONLY, None),
    execute_to_table: ("tde.exec.execute_to_table", ENGINE_ONLY, None),
}


class SpanTotals:
    """Per-span-name sums over the ops folded so far."""

    __slots__ = ("count", "self_s", "dur_s", "weight", "cpu_s", "self_cpu_s")

    def __init__(self) -> None:
        self.count = 0
        self.self_s = 0.0
        self.dur_s = 0.0
        self.weight = 0
        self.cpu_s = 0.0
        self.self_cpu_s = 0.0


class Tracer:
    """Records spans while an op is open; folds them when it closes."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: Finished spans of the open op. ``list.append`` is atomic, so
        #: worker threads share it without a lock.
        self._done: list[tuple] = []
        self._op: int | None = None
        self._caller = threading.get_ident()
        self._undo: list[tuple] = []
        self.totals: dict[str, SpanTotals] = {}
        self.raw: list[tuple] = []
        self.ops = 0
        self.conservation_error = 0.0
        #: Thread CPU the data engine burnt for the ops folded so far: the
        #: ``DataEngine.query`` spans, which mostly wait, plus the spans at
        #: the root of the fragment threads they started, which work.
        self.engine_cpu_s = 0.0
        #: Distinct queries handed to ``DataEngine.query`` (text, or the
        #: logical plan the SQL parser produced), with their engine.
        self.queries: dict[str, tuple] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.engine = 0
            return local.stack

    def wrap(self, fn, name: str, scope: int = ALWAYS, weigh=None):
        local = self._local
        done = self._done
        ids = self._ids
        get_stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            stack = get_stack()
            if scope == ENGINE_ONLY and stack and not local.engine:
                return fn(*args, **kwargs)
            # [id, parent id, wall covered by children, CPU of children]
            rec = [next(ids), stack[-1][0] if stack else 0, 0.0, 0.0]
            stack.append(rec)
            cpu = 0.0
            if scope:
                local.engine += 1
                cpu = thread_time()
            result = _FAILED
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if scope:
                    cpu = thread_time() - cpu
                    local.engine -= 1
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                    stack[-1][3] += cpu
                weight = 0
                if weigh is not None and result is not _FAILED:
                    weight = weigh(self, args, result)
                done.append(
                    (name, start, end, dur - rec[2], rec[0], rec[1], op,
                     threading.get_ident(), weight, cpu, cpu - rec[3])
                )

        return wrapper

    def begin_op(self, start: float) -> None:
        """Open the next op's root span on the calling thread, at the
        instant the harness started the op's timer."""
        self._stack().append([next(self._ids), 0, 0.0, 0.0, start])
        self._op = self.ops

    def end_op(self, end: float) -> None:
        """Close the op at the instant the harness stopped its timer, fold
        its spans, and check that the calling thread's self times sum to
        the op's wall: they do unless a span outlived its parent."""
        op, self._op = self._op, None
        rec = self._stack().pop()
        dur = end - rec[4]
        self._done.append(
            (ROOT, rec[4], end, dur - rec[2], rec[0], 0, op, self._caller, 0, 0.0, 0.0)
        )
        spans = self._done[:]
        del self._done[: len(spans)]
        caller_self = 0.0
        for span in spans:
            name, start, end, self_s, _id, parent, _op, thread, weight, cpu, self_cpu = span
            totals = self.totals.get(name)
            if totals is None:
                totals = self.totals[name] = SpanTotals()
            totals.count += 1
            totals.self_s += self_s
            totals.dur_s += end - start
            totals.weight += weight
            totals.cpu_s += cpu
            totals.self_cpu_s += self_cpu
            if thread == self._caller:
                caller_self += self_s
            if name == ENGINE_QUERY or (
                parent == 0 and thread != self._caller and name.startswith("tde.")
            ):
                self.engine_cpu_s += cpu
        self.conservation_error = max(
            self.conservation_error, abs(caller_self - dur) / dur
        )
        if op < KEEP_RAW_OPS:
            self.raw.extend(spans)
        self.ops += 1

    # ------------------------------------------------------------------ #
    # Installing
    # ------------------------------------------------------------------ #
    @contextmanager
    def installed(self):
        """Patch every wrapped call in; put every original back on exit."""
        try:
            for (owner, attr), (name, scope, weigh) in _METHODS.items():
                self._patch_method(owner, attr, name, scope, weigh)
            for fn, (name, scope, weigh) in _FUNCTIONS.items():
                self._patch_function(fn, name, scope, weigh)
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    def _patch_method(self, owner, attr, name, scope, weigh) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            patched = type(raw)(self.wrap(raw.__func__, name, scope, weigh))
        else:
            patched = self.wrap(raw, name, scope, weigh)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def _patch_function(self, fn, name, scope, weigh) -> None:
        patched = self.wrap(fn, name, scope, weigh)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").partition(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, patched)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def plan_shares(self) -> tuple[float, float]:
        """Share of the run's distinct engine queries whose physical plan
        holds a fused pipeline, and an exchange."""
        if not self.queries:
            return 0.0, 0.0
        plans = [render_plan(engine.plan(query)) for engine, query in self.queries.values()]
        fused = sum("FusedPipeline" in p for p in plans)
        exchange = sum("Exchange" in p for p in plans)
        return fused / len(plans), exchange / len(plans)

    def write_spans(self, path) -> None:
        """One JSON object per span of the first ``KEEP_RAW_OPS`` ops."""
        keys = ("name", "start", "end", "self", "id", "parent", "op", "thread", "weight",
                "cpu", "self_cpu")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.raw:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(
    tracer: Tracer,
    *,
    ops: int,
    cycles: int,
    sums: dict,
    counters: dict,
    tier_model: tuple[float, float],
) -> dict[str, float]:
    """The per-layer table, from span totals, RenderResult sums and the
    deltas of the program's public counters over the traced phase."""
    ops = max(ops, 1)
    cycles = max(cycles, 1)
    empty = SpanTotals()

    def t(name: str) -> SpanTotals:
        return tracer.totals.get(name, empty)

    def self_ms(*names: str) -> float:
        return sum(t(n).self_s for n in names) * 1e3 / ops

    def dur_ms(name: str, per: int = ops) -> float:
        return t(name).dur_s * 1e3 / per

    # Work done inside the engine, wherever it ran: thread CPU time.
    def cpu_ms(name: str) -> float:
        return t(name).cpu_s * 1e3 / ops

    def self_cpu_ms(name: str) -> float:
        return t(name).self_cpu_s * 1e3 / ops

    def calls(name: str) -> float:
        return t(name).count / ops

    def share(part: str, *whole: str) -> float:
        total = sum(counters.get(k, 0) for k in whole)
        return counters.get(part, 0) / total if total else 0.0

    kv_trips = t("core.cache.distributed.kv_get").count + t("core.cache.distributed.kv_put").count
    kv_bytes = t("core.cache.distributed.kv_get").weight + t("core.cache.distributed.kv_put").weight
    latency_s, per_mb_s = tier_model
    fused_share, exchange_share = tracer.plan_shares()
    out = {
        "server.vizserver.self_ms_per_op": self_ms(
            "server.vizserver.load", "server.vizserver.select"),
        "dashboard.render.self_ms_per_op": self_ms("dashboard.render.render"),
        "dashboard.render.iterations_per_op": sums.get("iterations", 0) / ops,
        "dashboard.render.zones_queried_per_op": sums.get("total_queries", 0) / ops,
        "core.pipeline.self_ms_per_op": self_ms("core.pipeline.run_batch"),
        "core.pipeline.invalidate_ms_per_cycle": dur_ms("core.pipeline.invalidate", cycles),
        "core.cache.intelligent.lookup_ms_per_op": dur_ms("core.cache.intelligent.lookup"),
        "core.cache.intelligent.enrich_ms_per_op": dur_ms("core.cache.intelligent.enrich"),
        "core.cache.intelligent.lookups_per_op": calls("core.cache.intelligent.lookup"),
        "core.cache.intelligent.exact_hit_share": share(
            "ic.exact_hits", "ic.exact_hits", "ic.subsumption_hits", "ic.misses"),
        "core.cache.intelligent.subsumption_hit_share": share(
            "ic.subsumption_hits", "ic.exact_hits", "ic.subsumption_hits", "ic.misses"),
        "core.cache.intelligent.put_ms_per_op": dur_ms("core.cache.intelligent.put"),
        "core.cache.distributed.get_ms_per_op": dur_ms("core.cache.distributed.get"),
        "core.cache.distributed.put_ms_per_op": dur_ms("core.cache.distributed.put"),
        "core.cache.distributed.serialize_ms_per_op": dur_ms("core.cache.distributed.serialize"),
        "core.cache.distributed.deserialize_ms_per_op": dur_ms(
            "core.cache.distributed.deserialize"),
        "core.cache.distributed.bytes_put_per_op": t("core.cache.distributed.serialize").weight
        / ops,
        "core.cache.distributed.l1_hit_share": share(
            "dist.l1_hits", "dist.l1_hits", "dist.l2_hits", "dist.misses"),
        "core.cache.distributed.l2_hit_share": share(
            "dist.l2_hits", "dist.l1_hits", "dist.l2_hits", "dist.misses"),
        "core.cache.replicated.get_ms_per_op": dur_ms("core.cache.replicated.get"),
        "core.cache.replicated.put_ms_per_op": dur_ms("core.cache.replicated.put"),
        "core.cache.replicated.modeled_ms_per_op": (
            kv_trips * latency_s + kv_bytes / 1e6 * per_mb_s) * 1e3 / ops,
        "core.cache.replicated.invalidate_prefix_ms_per_cycle": dur_ms(
            "core.cache.replicated.invalidate_prefix", cycles),
        "core.cache.replicated.hit_share": share("tier.hits", "tier.gets"),
        "core.batch.self_ms_per_op": self_ms("core.batch.build_batch_graph"),
        "core.fusion.self_ms_per_op": self_ms("core.fusion.fuse_batch"),
        "core.executor.wait_ms_per_op": self_ms("core.executor.run_batch"),
        "core.executor.worker_busy_ms_per_op": dur_ms("core.executor.run_one"),
        "connectors.pool.acquire_ms_per_op": dur_ms("connectors.pool.acquire"),
        "connectors.pool.opened_per_op": counters.get("pool.opened", 0) / ops,
        "connectors.pool.reused_share": share("pool.reused", "pool.opened", "pool.reused"),
        "connectors.connection.execute_ms_per_op": dur_ms("connectors.connection.execute"),
        "connectors.simdb.busy_s_per_op": counters.get("simdb.busy_seconds", 0.0) / ops,
        "connectors.simdb.queries_per_op": counters.get("simdb.queries", 0) / ops,
        "connectors.simdb.rows_transferred_per_op": counters.get("simdb.rows_transferred", 0)
        / ops,
        "queries.spec.canonical_calls_per_op": calls("queries.spec.canonical"),
        "queries.spec.canonical_ms_per_op": dur_ms("queries.spec.canonical"),
        "queries.compile.calls_per_op": calls("queries.compile.compile_spec"),
        "queries.compile.self_ms_per_op": self_ms("queries.compile.compile_spec"),
        "queries.postops.calls_per_op": calls("queries.postops.apply_post_ops"),
        "queries.postops.self_ms_per_op": self_ms("queries.postops.apply_post_ops"),
        "sql.generator.self_ms_per_op": self_ms("sql.generator.generate_sql"),
        "sql.parser.self_ms_per_op": self_ms("sql.parser.parse_statement"),
        "tde.engine.query_ms_per_op": tracer.engine_cpu_s * 1e3 / ops,
        "tde.engine.plan_ms_per_op": cpu_ms("tde.engine.plan"),
        "tde.engine.queries_per_op": calls(ENGINE_QUERY),
        "tde.plancache.hit_share": share("plans.hits", "plans.hits", "plans.misses"),
        "tde.tql.parse_ms_per_op": cpu_ms("tde.tql.parse_tql"),
        "tde.optimizer.plan_query_ms_per_op": cpu_ms("tde.optimizer.plan_query"),
        "tde.optimizer.fused_plan_share": fused_share,
        "tde.optimizer.exchange_plan_share": exchange_share,
        "tde.exec.self_ms_per_op": self_cpu_ms("tde.exec.execute_to_table"),
        "tde.storage.concat_ms_per_op": cpu_ms("tde.storage.concat"),
        "tde.storage.dictionary_encode_ms_per_op": cpu_ms("tde.storage.dictionary_encode"),
        "tde.storage.dictionary_decode_ms_per_op": cpu_ms("tde.storage.dictionary_decode"),
        "tde.storage.delta_materialize_ms_per_op": cpu_ms("tde.storage.delta_materialize"),
        "tde.storage.slice_ms_per_op": self_cpu_ms("tde.storage.slice"),
        "tde.storage.take_ms_per_op": self_cpu_ms("tde.storage.take"),
        "tde.storage.concat_calls_per_op": calls("tde.storage.concat"),
        "tde.storage.dictionary_encode_values_per_op": t("tde.storage.dictionary_encode").weight
        / ops,
        "tde.storage.delta_materialize_calls_per_op": calls("tde.storage.delta_materialize"),
        "tde.storage.slice_calls_per_op": calls("tde.storage.slice"),
        "trace.conservation_error": tracer.conservation_error,
    }
    for field in ("cache_hits", "derived_hits", "literal_hits", "fused_away",
                  "batch_local", "remote_queries"):
        out[f"core.pipeline.{field}_per_op"] = sums.get(field, 0) / ops
    return out
