"""Concurrent execution of compiled queries over pooled connections
(paper 3.5).

"Remote queries are submitted for execution concurrently" — each query
checks out a connection from the pool (preferring one that already holds
its temporary structures), creates missing temp tables, runs the text,
and applies its local post-ops. A serial mode exists for the experiments
that compare the two strategies, and is what a batch against an
``in_process`` source (:class:`~repro.connectors.connection.DataSource`)
always gets: concurrency pays where callers *wait* for a server, and a
source computing on this interpreter's GIL gives threads nothing to
overlap — only a pool to start and locks to contend for.

Robustness: transient source failures (timeouts, blips, dead pool
members) are retried under a :class:`~repro.faults.retry.RetryPolicy`
with exponential backoff — each attempt checks out a *fresh* connection,
because the pool discards members that failed mid-flight. Breaker
rejections (:class:`~repro.errors.CircuitOpenError`) are deliberately not
retried. With ``capture_errors=True`` (the pipeline's mode) exhausted
failures come back inside the :class:`ExecutionOutcome` instead of
raising, so one dead source degrades its own specs, never the batch.

Observability: each query runs under an ``executor.query`` span. Because
``contextvars`` do not flow into pool workers by themselves, the batch
entry point wraps the worker body with :func:`repro.obs.bind`, which
captures the submitting thread's current span and re-attaches it inside
each worker, so executor spans nest under the pipeline's
``remote_execution`` phase. An ``executor.inflight`` gauge (high-water =
peak concurrency), an ``executor.queue_depth`` gauge and an
``executor.query_s`` latency histogram feed the metrics registry.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .. import obs
from ..clock import SYSTEM_CLOCK, Clock
from ..connectors.pool import ConnectionPool
from ..errors import SourceError
from ..faults.retry import NO_RETRY, RetryPolicy, call_with_retry
from ..queries.compile import CompiledQuery
from ..queries.postops import apply_post_ops
from ..tde.storage.table import Table


@dataclass
class ExecutionOutcome:
    """Result of one remote query plus accounting.

    Exactly one of ``table`` / ``error`` is set. ``attempts`` counts
    tries including the first (>1 means the retry machinery recovered or
    gave up).
    """

    table: Table | None
    elapsed_s: float
    from_literal_cache: bool = False
    error: SourceError | None = None
    attempts: int = 1
    #: Seconds of ``elapsed_s`` spent waiting to check a connection out
    #: of the pool (summed across attempts). The request ledger charges
    #: this to ``queue``, not ``execute`` — pool contention is admission
    #: pressure, not backend work.
    checkout_wait_s: float = 0.0

    @property
    def failed(self) -> bool:
        return self.error is not None


class ConcurrentQueryExecutor:
    """Runs batches of compiled queries against one data source pool."""

    def __init__(
        self,
        pool: ConnectionPool,
        *,
        literal_cache=None,
        retry: RetryPolicy | None = None,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.pool = pool
        self.literal_cache = literal_cache
        self.retry = retry or NO_RETRY
        # All outcome timings read the injected clock so a request
        # ledger (same clock) can subtract them without skew — virtual
        # time included.
        self.clock = clock
        self.remote_queries_sent = 0
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def run_one(
        self, compiled: CompiledQuery, *, capture_errors: bool = False
    ) -> ExecutionOutcome:
        """Execute one compiled query (literal cache → pool → post-ops)."""
        inflight = obs.gauge("executor.inflight")
        inflight.inc()
        try:
            with obs.span("executor.query", datasource=compiled.datasource) as sp:
                try:
                    outcome = self._run_one(compiled)
                except SourceError as exc:
                    if not capture_errors:
                        raise
                    outcome = ExecutionOutcome(None, 0.0, error=exc)
                    obs.counter("executor.failures").inc()
                    sp.set(error=type(exc).__name__)
                else:
                    sp.set(
                        rows=outcome.table.n_rows,
                        from_literal_cache=outcome.from_literal_cache,
                    )
        finally:
            inflight.dec()
        obs.histogram("executor.query_s").observe(outcome.elapsed_s)
        return outcome

    def _run_one(self, compiled: CompiledQuery) -> ExecutionOutcome:
        started = self.clock.monotonic()
        if self.literal_cache is not None:
            cached = self.literal_cache.get(compiled.literal_key)
            if cached is not None:
                result = apply_post_ops(cached, compiled.post_ops)
                return ExecutionOutcome(result, self.clock.monotonic() - started, True)

        attempts = [0]
        checkout = [0.0]

        def attempt() -> Table:
            attempts[0] += 1
            prefer = next(iter(compiled.temp_tables), None)
            # The pool's context manager discards the member (feeding the
            # breaker) when this attempt dies with a transient error, so
            # the next attempt starts from a fresh connection.
            t_checkout = self.clock.monotonic()
            with self.pool.connection(prefer_temp_table=prefer) as conn:
                checkout[0] += self.clock.monotonic() - t_checkout
                for name, table in compiled.temp_tables.items():
                    if not conn.has_temp_table(name):
                        conn.create_temp_table(name, table)
                with obs.span("executor.remote_fetch"):
                    return conn.execute(compiled.text)

        raw = call_with_retry(
            attempt,
            policy=self.retry,
            clock=self.clock,
            key=f"{compiled.datasource}:{compiled.literal_key[:12]}",
        )
        with self._stats_lock:
            self.remote_queries_sent += 1
        elapsed = self.clock.monotonic() - started
        if self.literal_cache is not None:
            self.literal_cache.put(
                compiled.literal_key, compiled.datasource, raw, cost_s=elapsed
            )
        result = apply_post_ops(raw, compiled.post_ops)
        return ExecutionOutcome(
            result,
            self.clock.monotonic() - started,
            attempts=attempts[0],
            checkout_wait_s=checkout[0],
        )

    def run_batch(
        self,
        compiled: list[CompiledQuery],
        *,
        concurrent: bool = True,
        capture_errors: bool = False,
    ) -> list[ExecutionOutcome]:
        """Execute a batch, concurrently by default (paper 3.3 phase two).

        In order on the calling thread when ``concurrent`` is off, the
        batch is one query, or the source is ``in_process``.
        """
        if not compiled:
            return []
        if not concurrent or len(compiled) == 1 or self.pool.source.in_process:
            return [self.run_one(c, capture_errors=capture_errors) for c in compiled]
        # A thread beyond the pool's size would only wait at checkout.
        workers = min(self.pool.max_connections, len(compiled))
        obs.gauge("executor.queue_depth").set(len(compiled))

        def work(query: CompiledQuery) -> ExecutionOutcome:
            return self.run_one(query, capture_errors=capture_errors)

        # obs.bind carries the submitting context's span into the pool
        # workers, so their spans join this trace instead of starting new
        # roots (and it is the identity function while tracing is off).
        with ThreadPoolExecutor(max_workers=workers) as tp:
            return list(tp.map(obs.bind(work), compiled))
