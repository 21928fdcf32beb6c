"""The end-to-end query batch pipeline (paper sections 3.2–3.5 combined).

For each batch of query specs:

1. **Intelligent cache probe** — specs answerable from the semantic cache
   are served locally.
2. **Batch graph** — remaining specs form the cache-hit opportunity graph;
   source nodes go remote, derivable nodes wait locally (3.3, Fig. 3).
3. **Query fusion** — each remote spec is enriched and compiled, and
   the compiled queries over one relation merge (3.4): one plain
   aggregate per grain, their measures unioned, or against an
   in-process TQL source one grouping-sets query, one scan for all.
4. **Concurrent execution** — the queries run concurrently over pooled
   connections, consulting the literal cache, creating temporary tables
   for externalized filters (3.5, 3.1).
5. **Reuse** — each fetched (optionally enriched) result is inserted
   into the intelligent cache, and its spec is answered from that fetch
   by the post-ops its plan proved; a local node is then a cache hit, or
   else its provider's answer through the batch graph's proof.

Steps 2–3 are one planning step whose :class:`BatchPlan` ``run_batch``
executes and ``explain_batch`` narrates.

Degradation: a source failure (retries exhausted, circuit breaker open,
pool member dead) never raises out of :meth:`QueryPipeline.run_batch`.
The failed spec is served from the :class:`~repro.core.stale.
StaleResultStore` — flagged via :attr:`BatchResult.stale_keys` — when a
last-known-good answer exists, and recorded in :attr:`BatchResult.errors`
otherwise, so one dead connector degrades its own zones instead of
failing the whole dashboard. Every degrade decision lands in the
``obs.events`` ring (``degrade.*``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .. import obs
from ..clock import SYSTEM_CLOCK, Clock
from ..connectors.pool import ConnectionPool
from ..errors import SourceError, SourceUnavailableError
from ..faults.breaker import CircuitBreaker
from ..faults.retry import RetryPolicy
from ..obs.ledger import NULL_BOOK, LedgerBook, NullLedgerBook, RequestLedger
from ..queries.compile import CompiledQuery, compile_spec
from ..queries.model import DataSourceModel
from ..queries.postops import PostOp, apply_post_ops
from ..queries.spec import QuerySpec
from ..tde.exec.grouping import slice_set
from ..tde.optimizer import provenance
from ..tde.storage.table import Table
from .batch import build_batch_graph
from .cache.intelligent import IntelligentCache, enrich_spec, match_specs
from .cache.literal import LiteralCache
from .coalesce import Flight, JoinTicket, SingleFlightRegistry
from .executor import ConcurrentQueryExecutor, ExecutionOutcome
from .fusion import MergedQuery, Split, fuse_batch
from .stale import StaleResultStore


@dataclass
class PipelineOptions:
    """What one pipeline does; every field is set by a test or a benchmark.

    The seven toggles from ``enable_intelligent_cache`` through
    ``enable_coalescing`` each turn off one of the paper's optimizations
    (all off is E25's oracle). ``max_connections`` sizes the pool, and
    with it the threads of a concurrent batch. The robustness knobs
    (retry/breaker/stale) default to no retries, no breaker and stale
    serves on: a failure with no history is an error either way, and one
    *with* history is a better user experience served stale."""

    enable_intelligent_cache: bool = True
    enable_literal_cache: bool = True
    enable_fusion: bool = True
    enable_batch_graph: bool = True
    concurrent: bool = True
    enrich_for_reuse: bool = True
    #: Pool size; a concurrent batch also runs at most this many threads.
    max_connections: int = 8
    externalize_threshold: int | None = None
    #: Retry/backoff for transient source errors (None = single attempt).
    retry: RetryPolicy | None = None
    #: Build a circuit breaker into the pool.
    enable_breaker: bool = False
    breaker_threshold: int = 5
    breaker_recovery_s: float = 30.0
    #: Serve last-known-good results (flagged stale) when a source is down.
    serve_stale: bool = True
    #: Single-flight coalescing: concurrent identical queries share one
    #: execution (leader runs, followers wait on its published result —
    #: also a leader whose spec *subsumes* the request, proved by
    #: ``match_specs``; that follower answers with post-ops).
    enable_coalescing: bool = True
    #: How long a follower waits on a leader before treating the flight
    #: as failed and retrying on its own.
    coalesce_wait_timeout_s: float = 30.0
    #: Attach a :class:`~repro.obs.ledger.RequestLedger` to every spec in
    #: every batch (also on whenever global observability is enabled);
    #: off, the batch books against the no-op ``NULL_BOOK``.
    enable_ledger: bool = False


@dataclass
class BatchResult:
    """Answers plus accounting for one processed batch."""

    tables: dict[str, Table]  # spec canonical -> result
    remote_queries: int = 0
    cache_hits: int = 0
    #: Derivations during result distribution (phases 4–5): a remote
    #: spec derived from its enriched (wider) fetch, which the intelligent
    #: cache now holds, or a local node served by a cache *derivation*.
    #: Kept separate from ``cache_hits`` (phase-0 probe hits) so hit-rate
    #: metrics stay truthful.
    derived_hits: int = 0
    batch_local: int = 0
    fused_away: int = 0
    literal_hits: int = 0
    #: Specs answered by waiting on another request's in-flight execution
    #: (single-flight coalescing) instead of going remote themselves.
    coalesced_hits: int = 0
    #: Total seconds this batch spent blocked on in-flight leaders (also
    #: observed per wait in the ``coalesce.wait_s`` histogram).
    coalesce_wait_s: float = 0.0
    elapsed_s: float = 0.0
    #: Canonical keys answered from the stale store because their source
    #: failed — the ``stale=True`` flag of a degraded serve.
    stale_keys: set[str] = field(default_factory=set)
    #: Canonical key -> error description for specs that could not be
    #: answered at all (no fresh result, no stale fallback).
    errors: dict[str, str] = field(default_factory=dict)
    #: Canonical key -> per-request latency attribution (only populated
    #: when ledgers are enabled; see ``PipelineOptions.enable_ledger``).
    ledgers: dict[str, RequestLedger] = field(default_factory=dict)

    def ledger_for(self, spec: QuerySpec) -> RequestLedger | None:
        return self.ledgers.get(spec.canonical())

    def table_for(self, spec: QuerySpec) -> Table:
        key = spec.canonical()
        if key not in self.tables and key in self.errors:
            raise SourceUnavailableError(self.errors[key])
        return self.tables[key]

    def is_stale(self, spec: QuerySpec) -> bool:
        """Whether this spec's answer was a degraded (stale) serve."""
        return spec.canonical() in self.stale_keys

    @property
    def stale_hits(self) -> int:
        return len(self.stale_keys)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass
class Derivation:
    """One spec answered locally from another query's result."""

    spec: QuerySpec
    key: str  # spec.canonical()
    #: Whose result answers it: the spec sent for it (itself, or its
    #: enrichment) or another spec of the batch (a batch-local node).
    provider: QuerySpec
    #: The operators that turn the provider's result into the answer,
    #: proved once by the plan: what the run applies and EXPLAIN prints.
    ops: tuple[PostOp, ...]


@dataclass
class Send(Derivation):
    """One remote spec, derived from the spec sent for it: that spec's
    compilation and, while it travels in a query merged with other
    sends, that query and the split that recovers its rows."""

    compiled: CompiledQuery
    merged: MergedQuery | None = None
    split: Split | None = None


@dataclass
class BatchPlan:
    """What a set of pending specs will do: the remote queries, and the
    batch-graph nodes derived locally from another pending spec's result.
    Built by :meth:`QueryPipeline._plan`; ``run_batch`` executes it,
    ``explain_batch`` narrates it."""

    sends: list[Send]
    local: list[Derivation]

    def wire(self) -> list[CompiledQuery]:
        """The queries that actually go out, in first-use order: every
        merged query once, in place of the sends riding on it."""
        out: dict[int, CompiledQuery] = {}
        for send in self.sends:
            query = send.merged or send.compiled
            out.setdefault(id(query), query)
        return list(out.values())


#: What an untraced plan opens in place of its phase spans.
_MUTE = obs.NULL_TRACER.span("")


def _distinct(specs: list[QuerySpec]) -> dict[str, QuerySpec]:
    """The batch's distinct specs by canonical key, in first-seen order."""
    distinct: dict[str, QuerySpec] = {}
    for spec in specs:
        distinct.setdefault(spec.canonical(), spec)
    return distinct


class QueryPipeline:
    """Processes query batches for one data source + model."""

    def __init__(
        self,
        source,
        model: DataSourceModel,
        *,
        options: PipelineOptions | None = None,
        intelligent_cache: IntelligentCache | None = None,
        literal_cache: LiteralCache | None = None,
        coalescer: SingleFlightRegistry | None = None,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.source = source
        self.model = model
        self.options = options or PipelineOptions()
        #: Ledger charges, executor timings, cache ages, batch elapsed and
        #: the render/server windows around a batch all read this one
        #: clock, so phase sums stay conserved under a virtual clock
        #: exactly as under the system clock.
        self.clock = clock
        breaker = None
        if self.options.enable_breaker:
            breaker = CircuitBreaker(
                failure_threshold=self.options.breaker_threshold,
                recovery_s=self.options.breaker_recovery_s,
                clock=clock,
                name=source.name,
            )
        self.pool = ConnectionPool(
            source,
            max_connections=self.options.max_connections,
            breaker=breaker,
            clock=clock,
        )
        self.intelligent_cache = intelligent_cache or IntelligentCache(clock=clock)
        self.literal_cache = literal_cache or LiteralCache(clock=clock)
        self.stale_store = (
            StaleResultStore(clock=clock) if self.options.serve_stale else None
        )
        # One registry per source; a VizServer passes the same instance to
        # every node's pipeline so coalescing works cluster-wide.
        self.coalescer = coalescer or SingleFlightRegistry(source.name, clock=clock)
        self.executor = ConcurrentQueryExecutor(
            self.pool,
            literal_cache=self.literal_cache if self.options.enable_literal_cache else None,
            retry=self.options.retry,
            clock=clock,
        )

    # ------------------------------------------------------------------ #
    def run_spec(self, spec: QuerySpec) -> Table:
        """Convenience wrapper: a batch of one."""
        return self.run_batch([spec]).table_for(spec)

    def run_batch(
        self, specs: list[QuerySpec], *, reuse_fields: frozenset[str] = frozenset()
    ) -> BatchResult:
        started = self.clock.monotonic()
        result = BatchResult({})
        book: LedgerBook | NullLedgerBook = NULL_BOOK
        if self.options.enable_ledger or obs.enabled():
            book = LedgerBook(self.clock)
            result.ledgers = book.ledgers
        with obs.span("pipeline.run_batch", specs=len(specs)) as batch_span:
            ordered = _distinct(specs)
            # Phase 0: serve from the intelligent cache.
            pending: list[QuerySpec] = []
            with obs.span("pipeline.cache_probe", specs=len(ordered)):
                for key, spec in ordered.items():
                    if self.options.enable_intelligent_cache:
                        t_probe = book.now()
                        cached = self.intelligent_cache.lookup(spec)
                        book.charge_since(t_probe, "cache_probe", key)
                        if cached is not None:
                            self._record_good(key, cached)
                            result.tables[key] = cached
                            result.cache_hits += 1
                            book.finish(key, "cache_hit")
                            continue
                    pending.append(spec)
            if pending:
                # Phase 0.5: single-flight coalescing across concurrent
                # batches. Leaders stay pending and execute; followers
                # wait on an in-flight leader's published result.
                flights, followers, leaders = self._coalesce_partition(pending)
                try:
                    if leaders:
                        self._run_pending(leaders, result, reuse_fields, book)
                finally:
                    # Resolve every owned flight even on unexpected
                    # failure — a leader that never publishes would hang
                    # its followers until their wait timeout.
                    self._resolve_flights(flights, result)
                if followers:
                    self._await_followers(followers, result, reuse_fields, book)
            result.elapsed_s = self.clock.monotonic() - started
            # The safety net for a path that answered without a finish.
            book.close()
            batch_span.set(
                remote_queries=result.remote_queries,
                cache_hits=result.cache_hits,
                derived_hits=result.derived_hits,
                fused_away=result.fused_away,
            )
            if result.coalesced_hits:
                batch_span.set(
                    coalesced_hits=result.coalesced_hits,
                    coalesce_wait_s=round(result.coalesce_wait_s, 6),
                )
            if result.stale_keys or result.errors:
                batch_span.set(
                    stale=len(result.stale_keys), failed=len(result.errors)
                )
        return result

    # ------------------------------------------------------------------ #
    # Single-flight coalescing (herd traffic, paper 3.2)
    # ------------------------------------------------------------------ #
    def _coalesce_partition(
        self, pending: list[QuerySpec]
    ) -> tuple[list[Flight], list[tuple[QuerySpec, JoinTicket]], list[QuerySpec]]:
        """Split pending specs into owned flights, follower joins, leaders."""
        if not self.options.enable_coalescing:
            return [], [], pending
        flights: list[Flight] = []
        followers: list[tuple[QuerySpec, JoinTicket]] = []
        leaders: list[QuerySpec] = []
        for spec in pending:
            # A spec never joins this batch's own flights: intra-batch
            # derivation is the batch graph's (non-blocking) job.
            flight, ticket = self.coalescer.lead_or_join(
                spec, exclude=frozenset(f.key for f in flights)
            )
            if ticket is not None:
                followers.append((spec, ticket))
            else:
                flights.append(flight)
                leaders.append(spec)
        return flights, followers, leaders

    def _resolve_flights(self, flights: list[Flight], result: BatchResult) -> None:
        """Publish each owned flight's outcome to any waiting followers.

        Only *fresh* results are shared. A leader that degraded (stale
        serve) or failed propagates a :class:`SourceError` so followers
        retry or degrade independently — a follower never inherits a
        stale flag it didn't earn from its own stale store.
        """
        for flight in flights:
            key = flight.key
            if key in result.stale_keys:
                reason = f"leader for {key!r} degraded to a stale serve"
            elif key in result.tables:
                self.coalescer.publish(flight, result.tables[key])
                continue
            else:
                reason = result.errors.get(
                    key, "leader execution did not produce a result"
                )
            self.coalescer.fail(flight, SourceUnavailableError(reason))

    def _await_followers(
        self,
        followers: list[tuple[QuerySpec, JoinTicket]],
        result: BatchResult,
        reuse_fields: frozenset[str],
        book: LedgerBook | NullLedgerBook,
    ) -> None:
        """Collect coalesced answers; on leader failure, retry/degrade solo."""
        retry_specs: list[QuerySpec] = []
        with obs.span("pipeline.coalesce_wait", followers=len(followers)) as wait_span:
            for spec, ticket in followers:
                key = spec.canonical()
                # The wait's latency belongs to whichever request is
                # leading the flight: record the causal edge so the
                # critical-path analyzer charges the leader's work.
                wait_span.add_link("coalesce.leader", ticket.flight.ctx, key=key)
                t_wait = book.now()
                outcome = ticket.wait(
                    self.options.coalesce_wait_timeout_s, clock=self.coalescer.clock
                )
                # Charged from the book's own clock (not the registry's
                # ``waited_s``) so the conservation invariant holds even
                # when the two run on different clocks.
                book.charge_since(t_wait, "coalesce_wait", key)
                result.coalesce_wait_s += outcome.waited_s
                obs.histogram("coalesce.wait_s").observe(outcome.waited_s)
                if outcome.ok:
                    t_post = book.now()
                    table = outcome.table
                    if ticket.post_ops:
                        table = apply_post_ops(table, ticket.post_ops)
                    result.tables[key] = table
                    result.coalesced_hits += 1
                    self._record_good(key, table)
                    if self.options.enable_intelligent_cache:
                        # The leader's table is the (possibly wider) answer
                        # to the leader's spec; remember it locally so the
                        # next request on this node hits without waiting.
                        self.intelligent_cache.put(
                            ticket.flight.spec, outcome.table, cost_s=outcome.waited_s
                        )
                    book.charge_since(t_post, "post_ops", key)
                    book.finish(key, "coalesced")
                else:
                    obs.counter("coalesce.leader_failures").inc()
                    if obs.events_enabled():
                        obs.event(
                            "coalesce.follower_retry",
                            "retrying",
                            "in-flight leader failed "
                            f"({type(outcome.error).__name__}: {outcome.error}); "
                            "retrying this spec independently",
                            spec=key,
                            leader=ticket.leader_key,
                        )
                    retry_specs.append(spec)
            wait_span.set(
                coalesced=result.coalesced_hits, retried=len(retry_specs)
            )
        if retry_specs:
            # The independent retry: execute directly (no re-coalescing —
            # the failed herd must not re-form behind another doomed
            # leader). _run_pending degrades per spec on repeat failure,
            # so each follower earns its own stale flag or error.
            self._run_pending(retry_specs, result, reuse_fields, book)

    # ------------------------------------------------------------------ #
    # Planning (phases 1-3) and execution (phases 4-5)
    # ------------------------------------------------------------------ #
    def _plan(
        self, pending: list[QuerySpec], reuse_fields: frozenset[str], *, traced: bool = True
    ) -> BatchPlan:
        """Phases 1–3: decide what ``pending`` will do; runs no query and
        touches no cache. EXPLAIN plans untraced: a dry run outside any
        request must not mint trace roots or tick a virtual trace clock."""
        # Phase 1: batch analysis — partition into remote and local.
        with (obs.span("pipeline.batch_graph", pending=len(pending)) if traced else _MUTE) as span:
            remote_specs, local = list(pending), []
            if self.options.enable_batch_graph and len(pending) > 1:
                graph = build_batch_graph(pending)
                remote_specs = [pending[i] for i in graph.remote]
                local = [
                    Derivation(pending[j], pending[j].canonical(), pending[i], graph.edges[i, j])
                    for j, i in graph.provider_of.items()
                ]
            span.set(remote=len(remote_specs), local=len(local))
        # Phase 2: enrich and compile each remote spec.
        with obs.span("pipeline.compile", queries=len(remote_specs)) if traced else _MUTE:
            sends: list[Send] = []
            for spec in remote_specs:
                sent, ops = spec, ()
                if self.options.enrich_for_reuse:
                    enriched = enrich_spec(spec, reuse_fields=reuse_fields)
                    match = match_specs(enriched, spec)
                    # Unless no derivation is provable (two filters on one field).
                    if match is not None:
                        sent, ops = enriched, match.post_ops
                compiled = compile_spec(
                    sent,
                    self.model,
                    self.source,
                    externalize_threshold=self.options.externalize_threshold,
                )
                sends.append(Send(spec, spec.canonical(), sent, ops, compiled))
        # Phase 3: merge the compiled queries over one relation (3.4).
        with (obs.span("pipeline.fusion", queries=len(sends)) if traced else _MUTE) as span:
            if self.options.enable_fusion and len(sends) > 1:
                by_part = {id(send.compiled): send for send in sends}
                merged = fuse_batch([send.compiled for send in sends], self.model, self.source)
                for query in merged:
                    for part, split in zip(query.parts, query.splits):
                        by_part[id(part)].merged, by_part[id(part)].split = query, split
                span.set(merged=len(merged))
        return BatchPlan(sends, local)

    def _run_pending(
        self,
        pending: list[QuerySpec],
        result: BatchResult,
        reuse_fields: frozenset[str],
        book: LedgerBook | NullLedgerBook,
    ) -> None:
        t_plan = book.now()
        plan = self._plan(pending, reuse_fields)
        keys = [send.key for send in plan.sends]
        # Batch analysis, compilation and fusion all happened while every
        # remote spec waited: each gets the full duration.
        book.charge_since(t_plan, "compile", *keys)
        wire = plan.wire()
        result.fused_away += len(keys) - len(wire)
        with obs.span("pipeline.remote_execution", queries=len(wire)):
            outcomes = self._fetch(plan, wire, result)
        # Phase 4: populate caches and answer each remote spec.
        with obs.span("pipeline.post_processing", queries=len(outcomes)):
            for send, outcome in zip(plan.sends, outcomes):
                key, table = send.key, outcome.table
                if outcome.failed:
                    self._degrade(key, outcome.error, result, book)
                    continue
                if self.options.enable_intelligent_cache:
                    self.intelligent_cache.put(send.provider, table, cost_s=outcome.elapsed_s)
                # Pool checkout is admission pressure (queue); the rest
                # of the outcome's elapsed is backend execution — both on
                # the executor's clock, which is this book's clock.
                book.charge(key, "queue", outcome.checkout_wait_s)
                book.charge(key, "execute", max(outcome.elapsed_s - outcome.checkout_wait_s, 0.0))
                # The spec's answer is its own fetch through its plan's proof.
                t_derive = book.now()
                answer = apply_post_ops(table, send.ops)
                book.charge_since(t_derive, "post_ops", key)
                self._record_good(key, answer)
                result.tables[key] = answer
                book.finish(key, "fresh" if send.merged is None else "fused")
                if send.ops and self.options.enable_intelligent_cache:
                    # Derived from the (wider) result just cached.
                    result.derived_hits += 1
        # Phase 5: answer the local (derivable) nodes: a cache hit, else
        # the provider's answer through the batch graph's proof.
        with obs.span("pipeline.local_answers", nodes=len(plan.local)):
            for node in plan.local:
                key = node.key
                if key in result.tables or key in result.errors:
                    continue
                provider_key = node.provider.canonical()
                answer = None
                if self.options.enable_intelligent_cache:
                    t_probe = book.now()
                    answer = self.intelligent_cache.lookup(node.spec)
                    book.charge_since(t_probe, "cache_probe", key)
                hit = answer is not None
                if not hit:
                    if provider_key not in result.tables:
                        # The provider's fetch failed; this node inherits
                        # the failure and degrades on its own merits.
                        upstream = result.errors.get(provider_key, "provider query failed upstream")
                        self._degrade(key, SourceUnavailableError(upstream), result, book)
                        continue
                    t_derive = book.now()
                    answer = apply_post_ops(result.tables[provider_key], node.ops)
                    book.charge_since(t_derive, "post_ops", key)
                # Derived from a stale answer: stale itself.
                stale = not hit and provider_key in result.stale_keys
                if stale:
                    result.stale_keys.add(key)
                else:
                    self._record_good(key, answer)
                result.tables[key] = answer
                result.batch_local += 1
                result.derived_hits += hit
                book.finish(key, "stale" if stale else "derived" if hit else "batch_local")

    def _fetch(
        self, plan: BatchPlan, wire: list[CompiledQuery], result: BatchResult
    ) -> list[ExecutionOutcome]:
        """Run ``wire`` and return one outcome per send of ``plan``.

        A send riding a merged query gets the merged outcome with its own
        answer split out as the table. A merged query that failed (after
        the retry policy) is re-sent once as the queries it was made of,
        so a fault costs what it would have cost them: each succeeds or
        degrades on its own, and its send no longer rides the merge.
        """

        def run(queries: list[CompiledQuery]) -> dict[int, ExecutionOutcome]:
            outcomes = self.executor.run_batch(
                queries, concurrent=self.options.concurrent, capture_errors=True
            )
            for outcome in outcomes:
                if not outcome.failed:
                    result.remote_queries += 0 if outcome.from_literal_cache else 1
                    result.literal_hits += 1 if outcome.from_literal_cache else 0
            return {id(query): outcome for query, outcome in zip(queries, outcomes)}

        fetched = run(wire)
        broken = [q for q in wire if isinstance(q, MergedQuery) and fetched[id(q)].failed]
        if broken:
            if obs.events_enabled():
                for query in broken:
                    obs.event(
                        "degrade.unmerge",
                        "resent",
                        f"merged query failed ({fetched[id(query)].error}); sending "
                        f"its {len(query.parts)} parts singly",
                        members=[part.spec.canonical() for part in query.parts],
                    )
            parts = [part for query in broken for part in query.parts]
            result.fused_away -= len(parts) - len(broken)
            fetched.update(run(parts))
        outcomes = []
        for send in plan.sends:
            if send.merged is not None and fetched[id(send.merged)].failed:
                send.merged = None
            if send.merged is None:
                outcomes.append(fetched[id(send.compiled)])
                continue
            # One split for both forms: the part's set if it has one, its
            # columns under its own names, then its shape and post-ops.
            outcome, split = fetched[id(send.merged)], send.split
            rows = outcome.table
            if split.set is not None:
                rows = slice_set(rows, split.set, [column for _, column in split.columns])
            rows = Table({name: rows.column(column) for name, column in split.columns})
            outcomes.append(replace(outcome, table=apply_post_ops(rows, split.ops)))
        return outcomes

    # ------------------------------------------------------------------ #
    def _record_good(self, key: str, table: Table) -> None:
        """Remember a fresh answer as the degradation fallback for key."""
        if self.stale_store is not None:
            self.stale_store.put(key, table)

    def _degrade(
        self,
        key: str,
        error: SourceError,
        result: BatchResult,
        book: LedgerBook | NullLedgerBook,
    ) -> None:
        """Source is down for ``key``: stale serve if possible, else error.

        Never raises — the degradation contract is that one dead source
        costs its own specs, not the batch.
        """
        t_degrade = book.now()
        detail = f"{type(error).__name__}: {error}"
        stale = self.stale_store.get(key) if self.stale_store is not None else None
        if stale is not None:
            table, age_s = stale
            result.tables[key] = table
            result.stale_keys.add(key)
            obs.counter("pipeline.stale_serves").inc()
            if obs.events_enabled():
                obs.event(
                    "degrade.stale_serve",
                    "stale",
                    f"source failed ({detail}); serving the last good "
                    f"result from {age_s:.1f}s ago flagged stale",
                    spec=key,
                    age_s=round(age_s, 3),
                )
        else:
            result.errors[key] = detail
            obs.counter("pipeline.spec_failures").inc()
            if obs.events_enabled():
                obs.event(
                    "degrade.error",
                    "failed",
                    f"source failed ({detail}) and no stale result exists; "
                    "reporting a per-spec error instead of failing the batch",
                    spec=key,
                )
        book.charge_since(t_degrade, "degrade", key)
        book.finish(key, "stale" if stale is not None else "error")

    # ------------------------------------------------------------------ #
    def explain_batch(
        self,
        specs: list[QuerySpec],
        *,
        analyze: bool = False,
        assume_cold: bool = False,
        reuse_fields: frozenset[str] = frozenset(),
    ) -> list[dict]:
        """Per-request plan report: what ``run_batch`` would do, and why.

        Probes the intelligent cache, peeks at the single-flight
        registry, and narrates the :class:`BatchPlan` of the specs still
        pending — the plan ``run_batch`` would execute. ``assume_cold``
        skips probe and peek: the slow-query log captures its EXPLAIN
        *after* the real serve has warmed the caches, when a probe would
        just say "answered from the intelligent cache". Nothing is
        transferred or cached; probes count as uses, as a request's do.

        Returns one dict per distinct spec: ``spec`` (canonical form),
        ``decision`` (routing outcome), and for remote queries
        ``language``/``text``, ``post_ops`` (operator types run locally
        over the fetched result) and ``plan`` — the in-process backend
        engine's :class:`~repro.tde.explain.ExplainResult` (ANALYZE, run
        once on that engine, with ``analyze=True``), else None, and under
        ``compile`` the compiler's provenance notes, if it made any. A spec
        whose query travels inside a merged query reports that query's
        text and plan, and under ``merged`` its form, its set (None for a
        plain aggregate), the columns split out for it under its own
        names, the ``post_ops`` that finish those rows into what its own
        query would have returned (``post_ops`` proper then apply, as
        ever) and the specs sharing the query.
        """
        reports: dict[str, dict] = {}
        pending: list[QuerySpec] = []
        for key, spec in _distinct(specs).items():
            entry = reports[key] = {"spec": key}
            if not assume_cold and self.options.enable_intelligent_cache:
                if self.intelligent_cache.lookup(spec) is not None:
                    entry["decision"] = "answered from the intelligent cache"
                    continue
            if not assume_cold and self.options.enable_coalescing:
                ticket = self.coalescer.peek(spec)
                if ticket is not None:
                    entry["coalesce"] = (
                        f"would join the in-flight leader {ticket.leader_key!r} "
                        + (
                            "(subsumed: wait, then derive locally with post-ops)"
                            if ticket.subsumed
                            else "(identical query: wait for its result)"
                        )
                    )
            pending.append(spec)
        with provenance.collect() as collected:
            plan = self._plan(pending, reuse_fields, traced=False)
        for node in plan.local:
            reports[node.key]["decision"] = (
                f"batch-local: derivable from the result of {node.provider.canonical()}"
            )
        backend = self.backend_engine()
        breaker = getattr(self.pool, "breaker", None)
        described = {id(q): self._describe(q, backend, breaker, analyze) for q in plan.wire()}
        for send in plan.sends:
            report = reports[send.key]
            report.update(
                decision="sent remote",
                post_ops=[type(op).__name__ for op in send.ops],
                **described[id(send.merged or send.compiled)],
            )
            notes = [n for n in collected.notes if n.attributes.get("spec") is send.compiled.spec]
            if notes:
                report["compile"] = [str(n) for n in notes]
            merged, split = send.merged, send.split
            if merged is not None:
                report["decision"] += (
                    f" in one {merged.form} query shared by {len(merged.parts)} queries"
                    + ("" if split.set is None else f", as set {split.set}")
                )
                report["merged"] = {
                    "form": merged.form,
                    "set": split.set,
                    "columns": [name for name, _ in split.columns],
                    "post_ops": [type(op).__name__ for op in split.ops],
                    "with": [p.spec.canonical() for p in merged.parts if p is not send.compiled],
                }
        return list(reports.values())

    def explain_cold(self, spec: QuerySpec) -> dict:
        """A slow-log EXPLAIN capture: one spec's plan as-if cold, as text."""
        report = self.explain_batch([spec], assume_cold=True)[0]
        plan = report.get("plan")
        return {
            "spec": report["spec"],
            "decision": report.get("decision"),
            "query": report.get("text"),
            "plan": str(plan) if plan is not None else None,
        }

    def _describe(self, compiled: CompiledQuery, backend, breaker, analyze: bool) -> dict:
        """What EXPLAIN says about one query on the wire."""
        shared = {"language": compiled.language, "text": compiled.text, "plan": None}
        if backend is not None and not compiled.temp_tables:
            shared["plan"] = backend.explain(compiled.plan, analyze=analyze)
        # A distributed literal cache can say where a key's replicas
        # sit (primary miss -> replica fallback, lagging copies ->
        # repair); surface that placement per zone so EXPLAIN answers
        # "why was this served from a replica?" without a debugger.
        if self.options.enable_literal_cache:
            placement = self.literal_cache.describe(compiled.literal_key)
            if placement is not None:
                shared["cache_tier"] = placement["note"]
        if breaker is not None and breaker.state != "closed":
            shared["degradation"] = (
                f"circuit breaker is {breaker.state}: this query would be "
                "rejected fast and degraded (stale serve or per-spec error)"
            )
        return shared

    def backend_engine(self):
        """The in-process DataEngine behind the source, if inspectable."""
        engine = getattr(self.source, "engine", None)
        if engine is None:
            engine = getattr(getattr(self.source, "db", None), "engine", None)
        return engine

    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Purge caches for this source (connection close/refresh, 3.2).

        Intelligent-cache entries are keyed by the *model* name (the view
        specs are written against); literal entries by the backend name.
        The stale store deliberately survives: "the last result before
        the refresh" is exactly what a degraded serve wants if the source
        dies right after invalidation.

        When the source exposes an in-process DataEngine, its compiled
        physical plans are dropped too — a refreshed extract may have new
        tables/encodings, so cached plans would execute against stale
        storage objects.
        """
        self.intelligent_cache.invalidate(self.model.name)
        self.literal_cache.invalidate(self.source.name)
        backend = self.backend_engine()
        if backend is not None:
            backend.invalidate_plans("refresh")

    def close(self) -> None:
        self.pool.close()
