"""The intelligent (semantic) query cache (paper 3.2).

"The intelligent cache maps the internal query structure to a key that is
associated with the query results. When a new query is to be executed, a
cache key is generated and the intelligent cache is searched for a match.
When looking for matches, we attempt to prove that results of the stored
query subsume the requested data. ... The latter [post-processing]
includes roll-up, filtering, calculation projection, and column
restriction."

The subsumption proof (:func:`match_specs`) is deliberately conservative:
it returns a post-processing plan only when the derivation is sound, and
``None`` otherwise. The property tests compare cache-served answers with
direct evaluation over every accepted match.

``choose_best=True`` enables the future-work behaviour the paper sketches
("we plan to choose the entry that requires the least post-processing");
the default takes the first match, as shipped in Tableau 9.0.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ... import obs
from ...clock import SYSTEM_CLOCK, Clock
from ...datatypes import LogicalType
from ...expr.ast import AggExpr, Expr, columns_used, conjoin
from ...queries.postops import (
    LocalFilter,
    LocalSort,
    LocalTopN,
    PostOp,
    PostOpPlan,
    TableMemo,
    apply_post_ops,
    compile_post_ops,
    derive_measures,
    rank_locally,
)
from ...queries.spec import CategoricalFilter, QuerySpec, RangeFilter, TopNFilter
from ...tde.exec.kernels import ROLLUP
from ...tde.storage.table import Table
from .eviction import CacheEntry, EvictionPolicy
from .index import CacheIndex


@dataclass
class MatchResult:
    """A successful subsumption proof: how to derive request from entry."""

    post_ops: tuple[PostOp, ...]


# ---------------------------------------------------------------------- #
# Subsumption proof between two specs
# ---------------------------------------------------------------------- #
def match_specs(
    provider: QuerySpec, request: QuerySpec, table: Table | None = None
) -> MatchResult | None:
    """Prove that ``provider``'s result can answer ``request`` locally.

    Returns the post-op chain (roll-up, filtering, projection, ordering)
    or ``None`` when no sound derivation exists. ``table``, the
    provider's result, types its measures: without it no Top-N is ranked
    by a SUM of the provider's.
    """
    proof = _proof(provider, request, table)
    return proof if isinstance(proof, MatchResult) else None


def explain_mismatch(provider: QuerySpec, request: QuerySpec) -> str:
    """Why :func:`match_specs` returned None, as a human-readable reason:
    the first gate the pair failed. Only called on the slow path
    (decision-event emission)."""
    proof = _proof(provider, request, None)
    return proof if isinstance(proof, str) else "no mismatch found (the pair matches)"


def _proof(provider: QuerySpec, request: QuerySpec, table: Table | None) -> MatchResult | str:
    """The derivation, or the reason there is none."""
    if provider.datasource != request.datasource:
        return "cached entry belongs to a different data source"
    if provider.canonical() == request.canonical():
        return MatchResult(())
    # A truncated provider result (LIMIT) cannot answer anything else.
    if provider.limit is not None:
        return "cached result is LIMIT-truncated and cannot answer anything else"
    # A ranked provider answers only the Top-N filters it ranked by.
    if _topn_signature(provider) != _topn_signature(request):
        return _ranked_locally(provider, request, table)
    if not set(request.dimensions) <= set(provider.dimensions):
        missing = sorted(set(request.dimensions) - set(provider.dimensions))
        return f"requested dimensions {missing} are absent from the cached grain"
    extra_predicates = _filter_difference(provider, request)
    if extra_predicates is None:
        return (
            "request rows are not provably a subset of cached rows "
            "(a cached filter is not implied by the request's)"
        )
    if extra_predicates and _topn_signature(provider):
        # A top-n filter's surviving set depends on the other filters:
        # narrowing them would demand re-ranking, which post-processing
        # cannot do soundly from the truncated provider result.
        return "narrowing filters under a top-n filter would require re-ranking"
    for pred_field in _fields_of(extra_predicates):
        if pred_field not in provider.dimensions:
            return f"cannot post-filter on {pred_field!r}: not grouped in the cached result"
    measure_ops = derive_measures(provider, request)
    if measure_ops is None:
        return (
            "a requested measure cannot be derived from the cached one "
            "(not additive across groups, or its components are missing)"
        )
    post_ops: list[PostOp] = []
    if extra_predicates:
        post_ops.append(LocalFilter(conjoin(extra_predicates)))
    post_ops.extend(measure_ops)
    if request.order_by and request.limit is not None:
        post_ops.append(LocalTopN(request.limit, request.order_by))
    elif request.order_by:
        post_ops.append(LocalSort(request.order_by))
    elif request.limit is not None:
        post_ops.append(LocalTopN(request.limit, tuple()))
    return MatchResult(tuple(post_ops))


def _ranked_locally(provider: QuerySpec, request: QuerySpec, table: Table | None) -> MatchResult | str:
    """``request``'s lone Top-N filter ranked over ``provider``, which
    carries none: ``provider`` answers the ranked spec (the request's
    grain plus the filter's field, under its other filters), and the
    ranking by an aggregate that re-aggregates exactly (counts, MIN, MAX,
    an INT SUM) ranks, rolls up and shapes it (:func:`rank_locally`)."""
    topn = [f for f in request.filters if isinstance(f, TopNFilter)]
    if len(topn) != 1 or _topn_signature(provider):
        return "top-n filter signatures differ (top-n is not relaxable)"
    (tf,) = topn
    by = next((alias for alias, agg in provider.measures if agg == tf.by), None)
    exact = tf.by.func in ("count", "min", "max") or (
        tf.by.func == "sum" and table is not None and table.schema().get(by) is LogicalType.INT
    )
    chain = rank_locally(request, tf) if exact else None
    if chain is None:
        return "the top-n ranking or a measure does not re-aggregate exactly from the cached grain"
    ranked, ops = chain
    proof = _proof(provider, ranked, table)
    return proof if isinstance(proof, str) else MatchResult((*proof.post_ops, *ops))


def _topn_signature(spec: QuerySpec) -> frozenset[str]:
    return frozenset(f.canonical() for f in spec.filters if isinstance(f, TopNFilter))


def _fields_of(predicates: list[Expr]) -> set[str]:
    out: set[str] = set()
    for pred in predicates:
        out |= columns_used(pred)
    return out


def _filter_difference(provider: QuerySpec, request: QuerySpec) -> list[Expr] | None:
    """Predicates to apply on top of the provider's result, or None.

    Soundness requires: request rows ⊆ provider rows, i.e. every provider
    filter is implied by some request filter on the same field; request
    filters that are strictly stronger (or on unfiltered fields) become
    local predicates.
    """
    provider_simple = {
        f.field: f for f in provider.filters if not isinstance(f, TopNFilter)
    }
    request_simple = {f.field: f for f in request.filters if not isinstance(f, TopNFilter)}
    if len(provider_simple) != sum(
        1 for f in provider.filters if not isinstance(f, TopNFilter)
    ) or len(request_simple) != sum(
        1 for f in request.filters if not isinstance(f, TopNFilter)
    ):
        return None  # multiple filters on one field: out of scope, be safe
    extra: list[Expr] = []
    for field_name, pf in provider_simple.items():
        rf = request_simple.get(field_name)
        if rf is None or not _implies(rf, pf):
            return None
        if not _implies(pf, rf):
            extra.append(rf.predicate())
    for field_name, rf in request_simple.items():
        if field_name not in provider_simple:
            extra.append(rf.predicate())
    return extra


def _implies(stronger, weaker) -> bool:
    """Whether satisfying ``stronger`` implies satisfying ``weaker``."""
    if type(stronger) is not type(weaker) or stronger.field != weaker.field:
        return False
    if isinstance(stronger, CategoricalFilter):
        if stronger.exclude != weaker.exclude:
            return False
        if stronger.exclude:
            return set(weaker.values) <= set(stronger.values)
        return set(stronger.values) <= set(weaker.values)
    if isinstance(stronger, RangeFilter):
        low_ok = weaker.low is None or (
            stronger.low is not None and stronger.low >= weaker.low
        )
        high_ok = weaker.high is None or (
            stronger.high is not None and stronger.high <= weaker.high
        )
        return low_ok and high_ok
    return False


# ---------------------------------------------------------------------- #
# Spec enrichment for reuse
# ---------------------------------------------------------------------- #
def enrich_spec(spec: QuerySpec, *, reuse_fields: frozenset[str] = frozenset()) -> QuerySpec:
    """Adjust a spec before sending "to make the results more useful for
    future reuse" (paper 3.2).

    * filter fields join the dimension list, so later interactions that
      change the selection can be answered by local filtering ("the
      intelligent cache will be able to filter out the necessary rows ...
      as long as the filtering columns are included");
    * ``reuse_fields`` — fields the caller expects future filters on
      (e.g. a dashboard's action fields) — join the dimensions too;
    * a measure of several parts (AVG: SUM and COUNT, by ``ROLLUP``) is
      accompanied by each part so the result can be rolled up later;
    * ORDER BY / LIMIT are dropped from the remote query (re-applied
      locally) so the cached result is not truncated.
    """
    dims = list(spec.dimensions)
    # A measure with no partial (COUNT DISTINCT) does not roll up, so a
    # wider grain could not answer the original request; keep the grain.
    widenable = all(agg.func in ROLLUP for _a, agg in spec.measures)
    if widenable:
        for f in spec.filters:
            if isinstance(f, TopNFilter):
                continue
            if f.field not in dims:
                dims.append(f.field)
        for field_name in sorted(reuse_fields):
            if field_name not in dims:
                dims.append(field_name)
    measures = list(spec.measures)
    present = {agg for _a, agg in measures}
    for _alias, agg in spec.measures:
        parts = ROLLUP.get(agg.func, ())
        if len(parts) > 1:
            for part in parts:
                extra = AggExpr(part.partial, agg.arg)
                if extra not in present:
                    measures.append((f"__reuse{len(measures)}", extra))
                    present.add(extra)
    return QuerySpec(spec.datasource, tuple(dims), tuple(measures), spec.filters)


# ---------------------------------------------------------------------- #
# The cache proper
# ---------------------------------------------------------------------- #
#: Most subsumption proofs one cache remembers between two mutations.
MAX_PROOFS = 1024


class IntelligentCacheStats:
    def __init__(self) -> None:
        self.exact_hits = 0
        self.subsumption_hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0

    @property
    def hits(self) -> int:
        return self.exact_hits + self.subsumption_hits

    def snapshot(self) -> dict[str, int]:
        return {
            "exact_hits": self.exact_hits,
            "subsumption_hits": self.subsumption_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }


class IntelligentCache:
    """Semantic result cache with subsumption matching.

    ``choose_best`` and ``use_index`` are the two future-work behaviours
    paper 3.2 sketches; both default off to match the shipped Tableau 9.0
    behaviour ("currently we accept the first match", "we are planning to
    maintain an index"). Experiment E17 ablates them.
    """

    def __init__(
        self,
        policy: EvictionPolicy | None = None,
        *,
        choose_best: bool = False,
        use_index: bool = False,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.policy = policy or EvictionPolicy()
        self.clock = clock
        self.choose_best = choose_best
        self.use_index = use_index
        self.index = CacheIndex() if use_index else None
        self.stats = IntelligentCacheStats()
        self._entries: dict[str, CacheEntry] = {}
        self._specs: dict[str, QuerySpec] = {}
        #: key -> TraceContext of the request that paid to produce the
        #: entry (only populated while tracing is on). A later hit links
        #: ``cache.populated_by`` to it, so a prefetch-warmed hit's
        #: provenance — *whose* work it reused — is first-class.
        self._origins: dict[str, "obs.TraceContext"] = {}
        #: request key -> (provider entry, compiled derivation) of a
        #: subsumption hit. Every put (where eviction happens too) and
        #: every invalidate empties it: between two mutations the
        #: candidates, their order and their specs are fixed and the proof
        #: is deterministic, so a remembered proof is what a search would
        #: find. A derivation is bound to its provider's table: what is its
        #: own (a filter's kept rows) sits in its plan, and the group ids
        #: and key columns it shares with other derivations in the entry's
        #: ``memo``, counted in the entry's ``size_bytes`` and gone with it.
        self._proofs: dict[str, tuple[CacheEntry, PostOpPlan]] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    def put(self, spec: QuerySpec, result: Table, *, cost_s: float = 0.0) -> None:
        key = spec.canonical()
        origin = obs.current_trace_context() if obs.enabled() else None
        with self._lock:
            self._proofs.clear()
            now = self.clock.monotonic()
            self._entries[key] = CacheEntry(
                key, spec.datasource, result, result.nbytes, now, cost_s, memo=TableMemo()
            )
            self._specs[key] = spec
            if origin is not None:
                self._origins[key] = origin
            else:
                self._origins.pop(key, None)
            if self.index is not None:
                self.index.add(key, spec)
            for evicted in self.policy.purge(self._entries, now):
                self._specs.pop(evicted, None)
                self._origins.pop(evicted, None)
                if self.index is not None:
                    self.index.remove(evicted)
                self.stats.evictions += 1
            self.stats.puts += 1

    def _candidate_keys(self, spec: QuerySpec) -> list[str]:
        if self.index is not None:
            return self.index.candidates(spec)
        return [
            k for k, e in self._entries.items() if e.datasource == spec.datasource
        ]

    def lookup(self, spec: QuerySpec) -> Table | None:
        """Serve ``spec`` from cache, post-processing as needed."""
        key = spec.canonical()
        with self._lock:
            exact = self._entries.get(key)
            if exact is not None:
                exact.touch(self.clock.monotonic())
                self.stats.exact_hits += 1
                self._link_origin(key)
                obs.counter("cache.intelligent.exact_hits").inc()
                obs.event(
                    "cache.subsumption",
                    "accepted",
                    "exact match: the cached query has the same canonical form",
                    spec=key,
                )
                return exact.value
            proof, tried = self._proofs.get(key), 0
            if proof is None:
                proof, tried = self._prove(spec, key)
                if proof is None:
                    return None
            entry, plan = proof
            entry.touch(self.clock.monotonic())
            self.stats.subsumption_hits += 1
            self._link_origin(entry.key)
            obs.counter("cache.intelligent.subsumption_hits").inc()
            if obs.events_enabled():
                ops = [type(op).__name__ for op in plan.ops]
                obs.event(
                    "cache.subsumption",
                    "accepted",
                    "cached result proven to subsume the request; deriving via "
                    + (" -> ".join(ops) if ops else "no post-processing"),
                    spec=key,
                    provider=entry.key,
                    post_ops=ops,
                    proof="search" if tried else "memo",
                    candidates=tried,
                )
        return apply_post_ops(entry.value, plan)

    def _prove(
        self, spec: QuerySpec, key: str
    ) -> tuple[tuple[CacheEntry, PostOpPlan] | None, int]:
        """Search the candidates for a provider of ``spec``; remember the
        winner's compiled derivation, or count a miss. Returns the proof
        (None on a miss) and how many candidates were tried."""
        best: tuple[MatchResult, CacheEntry] | None = None
        candidates = self._candidate_keys(spec)
        tried = 0
        for entry_key in candidates:
            entry = self._entries.get(entry_key)
            if entry is None:
                continue
            tried += 1
            match = match_specs(self._specs[entry_key], spec, entry.value)
            if match is None:
                continue
            if not self.choose_best:
                best = (match, entry)
                break
            if best is None or self._work(match, entry) < self._work(*best):
                best = (match, entry)
        if best is None:
            self.stats.misses += 1
            obs.counter("cache.intelligent.misses").inc()
            if obs.events_enabled():
                if not candidates:
                    reason = "no cached entries for this data source"
                else:
                    # The nearest miss: the first entry whose grain covers the request.
                    dims = set(spec.dimensions)
                    near = [k for k in candidates if dims <= set(self._specs[k].dimensions)]
                    sample = explain_mismatch(self._specs[(near or candidates)[0]], spec)
                    reason = (
                        f"none of {tried} candidate(s) subsume the "
                        f"request; e.g. {sample}"
                    )
                obs.event(
                    "cache.subsumption",
                    "rejected",
                    reason,
                    spec=key,
                    candidates=tried,
                )
            return None, tried
        match, entry = best
        held = entry.memo.nbytes
        plan = compile_post_ops(entry.value.schema(), match.post_ops, entry.value, entry.memo)
        entry.size_bytes += entry.memo.nbytes - held
        proof = (entry, plan)
        if len(self._proofs) >= MAX_PROOFS:
            del self._proofs[next(iter(self._proofs))]
        self._proofs[key] = proof
        return proof, tried

    def _link_origin(self, key: str) -> None:
        """Link the current span to the trace that populated ``key``."""
        if not obs.enabled():
            return
        origin = self._origins.get(key)
        if origin is None:
            return
        span = obs.current_span()
        if span is not None and span.trace_id and span.trace_id != origin.trace_id:
            span.add_link("cache.populated_by", origin, key=key)

    @staticmethod
    def _work(match: MatchResult, entry: CacheEntry) -> tuple[int, int]:
        """Post-processing effort: rows to chew through, then op count.

        This is the "entry that requires the least post-processing" metric
        of the paper's future-work note — a narrower cached result beats a
        wider one even when both need the same operator chain.
        """
        rows = entry.value.n_rows if match.post_ops else 0
        return (rows, len(match.post_ops))

    def probe(self, spec: QuerySpec) -> bool:
        """Would lookup succeed? (No stats side effects on the answer.)"""
        key = spec.canonical()
        with self._lock:
            if key in self._entries:
                return True
            return any(
                entry.datasource == spec.datasource
                and match_specs(self._specs[k], spec, entry.value) is not None
                for k, entry in self._entries.items()
            )

    # ------------------------------------------------------------------ #
    def invalidate(self, datasource: str | None = None) -> int:
        """Purge entries (all, or one data source's on refresh/close)."""
        with self._lock:
            self._proofs.clear()
            if datasource is None:
                n = len(self._entries)
                self._entries.clear()
                self._specs.clear()
                self._origins.clear()
                if self.index is not None:
                    self.index.clear()
                return n
            doomed = [k for k, e in self._entries.items() if e.datasource == datasource]
            for k in doomed:
                del self._entries[k]
                del self._specs[k]
                self._origins.pop(k, None)
                if self.index is not None:
                    self.index.remove(k)
            return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> list[tuple[QuerySpec, Table]]:
        with self._lock:
            return [(self._specs[k], e.value) for k, e in self._entries.items()]

    def size_bytes(self) -> int:
        with self._lock:
            return sum(e.size_bytes for e in self._entries.values())
