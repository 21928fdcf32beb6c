"""Parallel plan generation helpers (paper 4.2).

The planner follows the paper's bottom-up scheme: TableScan decides the
degree of parallelism from metadata and the expression cost profile, flow
operators inherit it, stop-and-go operators close it with an Exchange.
This module holds the pieces the planner composes:

* :func:`decide_dop` — the degree-of-parallelism decision;
* :func:`split_local_global` — local/global aggregation rewriting
  (paper 4.2.3, Figure 5);
* :func:`close_fragments` — Exchange insertion.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...datatypes import LogicalType
from ...expr.ast import Call, ColumnRef, Expr
from ..exec.exchange import PExchange
from ..exec.kernels import COUNTS, ROLLUP, AggSpec
from ..exec.physical import PhysNode
from . import provenance


@dataclass
class PlannerOptions:
    """Knobs of the physical planner and parallelizer.

    ``min_work_per_fraction`` is in cost-model work units; a scan only
    splits when each fraction gets at least this much pipeline work, which
    is how the expression cost profile "affects the decision of the
    parallelization" (paper 4.2.2).
    """

    #: Most fractions a scan splits into; 1 plans every scan unsplit.
    max_dop: int = 4
    min_work_per_fraction: float = 32768.0
    enable_rle_index: bool = True
    enable_local_global_agg: bool = True
    enable_range_partition_agg: bool = True
    enable_streaming_agg: bool = True
    #: Collapse adjacent Filter/Project/HashAggregate chains into one
    #: PFusedPipeline per-batch pass (paper 4.1: avoid materializing
    #: intermediates between operators).
    enable_pipeline_fusion: bool = True
    #: Evaluate predicates on dictionary codes (once per dictionary
    #: entry) and per-RLE-run instead of per row inside fused pipelines.
    enable_code_space: bool = True
    #: Physical-plan cache capacity (entries) on the engine's string
    #: query path; 0 disables caching.
    plan_cache_size: int = 64


@dataclass
class Fragments:
    """A pipeline region: N parallel fragments plus partition provenance.

    ``range_partitioned_on`` names the output column (post-renames) whose
    values are guaranteed not to straddle fragments — the Lemma 2 property
    that lets the planner drop the global aggregation.
    """

    nodes: list[PhysNode]
    range_partitioned_on: str | None = None

    @property
    def degree(self) -> int:
        return len(self.nodes)


def decide_dop(rows: int, row_cost_hint: float, options: PlannerOptions) -> int:
    """Choose how many fractions a scan should split into."""
    if options.max_dop <= 1:
        provenance.note("parallel.decide_dop", False, "max_dop=1: scans are not split")
        return 1
    work = rows * max(1.0, 1.0 + row_cost_hint)
    dop = max(1, min(options.max_dop, int(work // options.min_work_per_fraction)))
    if provenance.active():
        if dop > 1:
            detail = (
                f"split into {dop} fractions: {rows} rows x cost hint "
                f"{row_cost_hint:.2f} = {work:.0f} work units "
                f">= {options.min_work_per_fraction:.0f}/fraction"
            )
        else:
            detail = (
                f"serial scan: {work:.0f} work units, under the "
                f"{2 * options.min_work_per_fraction:.0f} two fractions need"
            )
        provenance.note(
            "parallel.decide_dop", dop > 1, detail, rows=rows, dop=dop
        )
    return dop


def close_fragments(frags: Fragments) -> PhysNode:
    """Insert the Exchange that ends a parallel region (paper Fig. 3)."""
    if frags.degree == 1:
        return frags.nodes[0]
    return PExchange(list(frags.nodes))


def split_local_global(
    groupby: list[str], specs: list[AggSpec], prefix: str = ""
) -> tuple[list[AggSpec], list[AggSpec], list[tuple[str, Expr]], bool] | None:
    """Rewrite aggregates into local/global phases (paper 4.2.3) by
    :data:`~repro.tde.exec.kernels.ROLLUP`.

    Returns ``(local_specs, global_specs, final_items, needs_final)`` or
    ``None`` when an aggregate has no partial to merge (COUNT DISTINCT,
    without group-disjoint partitions). Partial columns are named
    ``prefix`` + their global names; a part of an aggregate of several is
    named ``__l<initial of its partial>_<name>``. A group's merge always
    has a partial row (a scalar partial is one row per fragment), so no
    count needs coalescing.
    """
    local: list[AggSpec] = []
    global_: list[AggSpec] = []
    final: list[tuple[str, Expr]] = [(g, ColumnRef(g)) for g in groupby]
    needs_final = False
    for spec in specs:
        parts = ROLLUP.get(spec.func)
        if parts is None:
            return None
        several = len(parts) > 1
        names = []
        for part in parts:
            name = f"__l{part.partial[0]}_{spec.name}" if several else spec.name
            ltype = LogicalType.INT if part.partial in COUNTS else spec.result_type
            local.append(AggSpec(prefix + name, part.partial, spec.arg, ltype))
            global_.append(AggSpec(name, part.merge, prefix + name, ltype))
            names.append(ColumnRef(name))
        final.append((spec.name, Call("/", tuple(names)) if several else names[0]))
        needs_final |= several
    return local, global_, final, needs_final
