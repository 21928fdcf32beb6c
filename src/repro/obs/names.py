"""The span-name registry: every span name used in ``src/`` lives here.

Attribution is only as good as its labels. The critical-path analyzer
(:mod:`repro.obs.critpath`) charges each segment of a request's wall
time to a *component* — "backend", "cache", "executor" — and that
mapping is keyed by span name. A drive-by span with an unregistered
name would silently land in the catch-all bucket and rot the aggregate
report, so a lint test (``tests/obs/test_span_registry.py``) greps
``src/`` for ``span("...")`` literals and asserts each one appears in
:data:`SPAN_REGISTRY` below.

To add a span: pick ``<area>.<verb>`` (matching the existing style),
register it here with the component that should be *charged* for its
self-time, and say in the description what the span brackets.
"""

from __future__ import annotations

#: span name -> (component charged for its self-time, what it brackets).
SPAN_REGISTRY: dict[str, tuple[str, str]] = {
    # -- server entry points ------------------------------------------- #
    "vizserver.request": ("server", "one VizServer load/select request end to end"),
    "dataserver.query": ("server", "one DataServer session query end to end"),
    "cluster.query": ("server", "one TdeCluster query dispatched to a TDE node"),
    "dashboard.render": ("render", "a full dashboard render (all zones)"),
    "dashboard.iteration": ("render", "one render iteration over the zone list"),
    # -- query pipeline phases ----------------------------------------- #
    "pipeline.run_batch": ("pipeline", "a query batch through phases 0-5"),
    "pipeline.cache_probe": ("cache", "phase 0: intelligent-cache probe"),
    "pipeline.coalesce_wait": ("coalesce", "follower waiting on another request's leader"),
    "pipeline.batch_graph": ("pipeline", "phase 1: batch dependency graph"),
    "pipeline.compile": ("compile", "phase 2: enrich and compile each remote spec"),
    "pipeline.fusion": ("pipeline", "phase 3: merge compiled queries over one relation (3.4)"),
    "pipeline.remote_execution": ("executor", "phase 4: remote execution fan-out"),
    "pipeline.post_processing": ("pipeline", "phase 5: post-ops over fetched tables"),
    "pipeline.local_answers": ("cache", "answering derivable specs from cached results"),
    # -- executor / connectors ----------------------------------------- #
    "executor.query": ("executor", "one spec through the remote executor"),
    "executor.remote_fetch": ("backend", "the remote engine executing the compiled text"),
    "pool.connect": ("pool", "establishing a new pooled connection"),
    "simdb.select": ("backend", "simdb parsing + serving one SELECT"),
    "simdb.service": ("backend", "simdb's modeled service time (queue + work)"),
    "tde.execute": ("engine", "the local TDE engine executing a physical plan"),
    # -- background / resilience --------------------------------------- #
    "prefetch.warm": ("prefetch", "background prefetch warming predicted specs"),
    "retry.attempt": ("retry", "a retry attempt after a transient failure"),
}

#: Component charged when a span name is missing from the registry.
#: The lint test exists so this stays unused in practice.
UNKNOWN_COMPONENT = "other"


def component_of(span_name: str) -> str:
    """The component charged for a span's self-time on the critical path."""
    entry = SPAN_REGISTRY.get(span_name)
    if entry is not None:
        return entry[0]
    # Unregistered names fall into one catch-all bucket instead of
    # minting ad-hoc components that would fragment aggregate reports.
    return UNKNOWN_COMPONENT


#: Decision-event kinds (obs.event / Telemetry._emit) — every event kind
#: emitted in ``src/`` must be registered here with a one-line meaning,
#: mirroring the span registry above. A lint test greps ``src/`` for
#: ``event("...")`` literals and asserts each appears below, so slow-query
#: forensics and dashboards never see an undocumented event kind.
EVENT_REGISTRY: dict[str, str] = {
    # -- circuit breaker ----------------------------------------------- #
    "breaker.open": "failure threshold crossed; breaker now rejects fast",
    "breaker.half_open": "recovery window elapsed; probing with one trial request",
    "breaker.closed": "trial succeeded; breaker reset to normal operation",
    "breaker.rejected": "request rejected fast while the breaker is open",
    # -- caches --------------------------------------------------------- #
    "cache.subsumption": "intelligent-cache derivation decision (hit/derive/miss)",
    "cache.literal": "literal cache hit/miss for an exact query text",
    "cache.eviction": "cache eviction policy dropped an entry",
    # -- plan cache ----------------------------------------------------- #
    "plan_cache.hit": "compiled physical plan reused for a normalized-equal query",
    "plan_cache.miss": "no cached plan; query pays parse/rewrite/optimize",
    "plan_cache.evict": "LRU capacity pushed out the least-recent plan",
    "plan_cache.invalidate": "plans dropped (extract refresh, DDL) or a stale put refused",
    # -- query rewriting ------------------------------------------------ #
    "fusion": "compiled queries over one relation merged (form, sets) or one sent alone (why)",
    "fuse.pipeline": "planner collapsed a filter/project/aggregate chain into one fused operator",
    # -- coalescing ----------------------------------------------------- #
    "coalesce.lead": "request became the leader executing for a herd",
    "coalesce.join": "request joined an in-flight leader instead of executing",
    "coalesce.publish": "leader published its result to waiting followers",
    "coalesce.leader_failed": "leader failed; followers notified to retry",
    "coalesce.follower_retry": "follower retrying independently after leader failure",
    # -- degradation ---------------------------------------------------- #
    "degrade.stale_serve": "source down; served the last good result flagged stale",
    "degrade.stale_extract": "shadow extract served while the live source is down",
    "degrade.error": "source down and no stale fallback; per-spec error",
    "degrade.unmerge": "merged query failed; its parts re-sent singly",
    # -- resilience / background ---------------------------------------- #
    "fault.injected": "fault plan injected an error or latency",
    "retry.attempt": "transient failure; backing off and retrying",
    "retry.succeeded": "retry attempt succeeded after earlier failures",
    "retry.gave_up": "retry budget exhausted; failing the operation",
    "pool": "connection pool lifecycle decision (grow/evict/recycle)",
    "prefetch": "background prefetch decision (warmed or skipped)",
    # -- SLO monitoring ------------------------------------------------- #
    "slo.breach": "windowed latency crossed the SLO burn threshold",
    "slo.recovered": "windowed latency returned under the SLO threshold",
    # -- cache-tier ring topology ---------------------------------------- #
    "ring.join": "a cache node joined the hash ring (warm-up may follow)",
    "ring.leave": "a cache node is draining its keys and leaving the ring",
    "ring.kill": "a cache node crashed off the ring, losing its data",
    "ring.fail": "a cache node became unreachable (data retained)",
    "ring.recover": "an unreachable cache node is back; repair converges it",
    # -- cache-tier replication ------------------------------------------ #
    "replica.fallback": "primary replica missed; a later replica served the read",
    "replica.read_repair": "a missing or stale replica was back-filled with the newest version",
    "replica.under_quorum": "a write was acked by fewer replicas than the quorum",
    "replica.expired": "a TTL'd entry outlived its deadline and was dropped on read",
    "replica.invalidate": "an invalidation (refresh/DDL) fanned out across the tier",
    # -- cache-tier resharding ------------------------------------------- #
    "reshard.plan": "a join, leave or repair sweep began converging its keys onto their owners",
    "reshard.copy": "one key range migrated to its new owner",
    "reshard.done": "a migration, drain, or repair sweep finished",
}

#: Causal link kinds (Span.add_link) — documented here so traceview and
#: the docs can render them; the registry test asserts these too.
LINK_KINDS: dict[str, str] = {
    "coalesce.leader": "follower inherited latency from another request's leader flight",
    "cache.populated_by": "cache hit served a result another trace paid to produce",
    "prefetch.triggered_by": "background warm work caused by an earlier interaction",
    "retry.prior_attempt": "this attempt follows a failed earlier attempt",
    "breaker.opened_by": "request rejected by a breaker another trace tripped",
    "pool.waited_behind": "connection checkout waited behind another trace's holder",
}
