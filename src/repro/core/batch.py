"""Query batch analysis: the cache-hit opportunity graph (paper 3.3).

"Consider a query batch B=[q1..qn] ... consider a directed graph G with
the queries as nodes and edges pointing from qi to qj iff the result of qj
can be computed from the results of qi. ... we analyze it and partition
the nodes of G into two sets. One set contains queries that need to be
sent to the remote back-ends; they correspond to the source nodes, i.e.
the nodes without incoming edges. The second set contains queries that
are cache hits that can be processed locally."

Edges are decided by the same matching logic the intelligent cache uses
(:func:`match_specs`), and each keeps its proof: the post-ops that derive
the consumer from the provider's result. Mutually derivable (equivalent)
specs would form 2-cycles; the earlier node is treated as the provider,
so the partition remains well-founded.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..queries.postops import PostOp
from ..queries.spec import QuerySpec
from .cache.intelligent import match_specs


@dataclass
class BatchGraph:
    """The analyzed batch: nodes, derivability edges, and the partition."""

    specs: list[QuerySpec]
    edges: dict[tuple[int, int], tuple[PostOp, ...]]  # (provider, consumer) -> proof
    remote: list[int]
    local: list[int]
    provider_of: dict[int, int]  # consumer -> chosen provider

    def describe(self) -> str:
        lines = [f"batch of {len(self.specs)}: {len(self.remote)} remote, {len(self.local)} local"]
        for j in self.local:
            lines.append(f"  q{j} <- q{self.provider_of[j]}")
        return "\n".join(lines)


def build_batch_graph(specs: list[QuerySpec]) -> BatchGraph:
    """Build G and partition it into remote sources and local hits."""
    n = len(specs)
    proofs = {(i, j): match_specs(specs[i], specs[j]) for i in range(n) for j in range(n) if i != j}
    edges: dict[tuple[int, int], tuple[PostOp, ...]] = {}
    incoming: dict[int, list[int]] = {j: [] for j in range(n)}
    for (i, j), match in proofs.items():
        # Of two equivalent specs, only the earlier one provides.
        if match is not None and not (j < i and proofs[j, i] is not None):
            edges[i, j] = match.post_ops
            incoming[j].append(i)
    remote = [j for j in range(n) if not incoming[j]]
    local = [j for j in range(n) if incoming[j]]
    provider_of: dict[int, int] = {}
    remote_set = set(remote)
    for j in local:
        # Prefer a provider that is itself remote (available earliest).
        candidates = incoming[j]
        direct = [i for i in candidates if i in remote_set]
        provider_of[j] = direct[0] if direct else candidates[0]
    return BatchGraph(list(specs), edges, remote, local, provider_of)
