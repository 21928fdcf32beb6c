"""Cache index: fast candidate pruning for intelligent-cache lookups.

Paper 3.2 (future work): "even though the matching logic is designed to
be fast, we are planning to maintain an index over the cache to minimize
the lookup time" — citing the filter-tree approach of Goldstein &
Larson's view matching [29].

The index exploits the *necessary* conditions of a subsumption match:

* the request's dimensions must be a subset of the entry's — inverted
  postings per dimension give the candidate intersection;
* every simple filter field of the entry must also be filtered by the
  request — a cheap per-entry subset check;
* top-n signatures must agree and the entry must be untruncated.

Only the survivors go through the full (expensive) proof in
``match_specs``. The index never changes results, only lookup cost —
experiment E17 measures the effect.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...queries.spec import QuerySpec, TopNFilter


@dataclass
class _EntryFacts:
    """Pre-extracted match-relevant facts about one cached entry."""

    datasource: str
    dimensions: frozenset[str]
    filter_fields: frozenset[str]
    topn_signature: frozenset[str]
    truncated: bool


def _facts(spec: QuerySpec) -> _EntryFacts:
    return _EntryFacts(
        datasource=spec.datasource,
        dimensions=frozenset(spec.dimensions),
        filter_fields=frozenset(
            f.field for f in spec.filters if not isinstance(f, TopNFilter)
        ),
        topn_signature=frozenset(
            f.canonical() for f in spec.filters if isinstance(f, TopNFilter)
        ),
        truncated=spec.limit is not None,
    )


class CacheIndex:
    """Inverted index over cached specs for candidate pruning."""

    def __init__(self) -> None:
        self._facts: dict[str, _EntryFacts] = {}
        # datasource -> dimension name -> entry keys containing it
        self._dim_postings: dict[str, dict[str, set[str]]] = {}
        self._by_datasource: dict[str, set[str]] = {}
        self.lookups = 0
        self.candidates_examined = 0

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def add(self, key: str, spec: QuerySpec) -> None:
        facts = _facts(spec)
        self._facts[key] = facts
        self._by_datasource.setdefault(facts.datasource, set()).add(key)
        postings = self._dim_postings.setdefault(facts.datasource, {})
        for dim in facts.dimensions:
            postings.setdefault(dim, set()).add(key)

    def remove(self, key: str) -> None:
        facts = self._facts.pop(key, None)
        if facts is None:
            return
        self._by_datasource.get(facts.datasource, set()).discard(key)
        postings = self._dim_postings.get(facts.datasource, {})
        for dim in facts.dimensions:
            postings.get(dim, set()).discard(key)

    def clear(self, datasource: str | None = None) -> None:
        if datasource is None:
            self._facts.clear()
            self._dim_postings.clear()
            self._by_datasource.clear()
            return
        for key in list(self._by_datasource.get(datasource, ())):
            self.remove(key)

    def __len__(self) -> int:
        return len(self._facts)

    # ------------------------------------------------------------------ #
    # Candidate retrieval
    # ------------------------------------------------------------------ #
    def candidates(self, spec: QuerySpec) -> list[str]:
        """Entry keys that *could* subsume ``spec`` (necessary conditions).

        Returned in no particular order; the caller still runs the full
        proof on each. Entries pruned here are guaranteed non-matches.
        """
        self.lookups += 1
        request = _facts(spec)
        pool = self._by_datasource.get(request.datasource)
        if not pool:
            return []
        postings = self._dim_postings.get(request.datasource, {})
        candidate_set: set[str] | None = None
        for dim in request.dimensions:
            keys = postings.get(dim)
            if not keys:
                return []
            candidate_set = set(keys) if candidate_set is None else candidate_set & keys
            if not candidate_set:
                return []
        if candidate_set is None:  # dimensionless request: anything may fit
            candidate_set = set(pool)
        survivors = []
        for key in candidate_set:
            facts = self._facts[key]
            self.candidates_examined += 1
            if facts.truncated:
                continue
            if facts.topn_signature != request.topn_signature:
                continue
            if not facts.filter_fields <= request.filter_fields:
                continue
            survivors.append(key)
        return survivors
