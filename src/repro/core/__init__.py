"""The paper's headline contribution: query processing for dashboards.

* ``repro.core.cache`` — two-level query caching: the *intelligent*
  (semantic, view-matching) cache with subsumption proofs and local
  post-processing, and the *literal* cache keyed on query text (3.2);
  persistence (Desktop) and a distributed layer (Server).
* ``repro.core.fusion`` — query fusion: merging the compiled queries of
  a batch that aggregate one relation into one query (3.4).
* ``repro.core.batch`` — the cache-hit opportunity graph and the
  local/remote partition of a query batch (3.3, Figure 3).
* ``repro.core.executor`` — concurrent execution of remote queries over
  pooled connections (3.5).
* ``repro.core.coalesce`` — single-flight coalescing of concurrent
  identical (or subsumable) queries: the herd-traffic answer to 3.2's
  "saturated by initial load requests".
* ``repro.core.pipeline`` — the end-to-end batch pipeline gluing the
  above together.
"""

from .cache.intelligent import IntelligentCache, enrich_spec, match_specs
from .coalesce import CoalesceStats, CoalesceTimeoutError, SingleFlightRegistry
from .cache.index import CacheIndex
from .cache.literal import LiteralCache
from .cache.eviction import EvictionPolicy
from .cache.distributed import KeyValueStore, DistributedQueryCache
from .fusion import fuse_batch
from .batch import BatchGraph, build_batch_graph
from .executor import ConcurrentQueryExecutor
from .pipeline import BatchResult, PipelineOptions, QueryPipeline
from .prefetch import InteractionPrefetcher

__all__ = [
    "IntelligentCache",
    "LiteralCache",
    "EvictionPolicy",
    "KeyValueStore",
    "DistributedQueryCache",
    "enrich_spec",
    "match_specs",
    "fuse_batch",
    "BatchGraph",
    "build_batch_graph",
    "ConcurrentQueryExecutor",
    "QueryPipeline",
    "PipelineOptions",
    "BatchResult",
    "CacheIndex",
    "InteractionPrefetcher",
    "SingleFlightRegistry",
    "CoalesceStats",
    "CoalesceTimeoutError",
]
