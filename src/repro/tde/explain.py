"""EXPLAIN / EXPLAIN ANALYZE rendering for TDE physical plans.

The paper's methodology was "measure, explain, then optimize": every
optimization in sections 3–4 started from understanding why a specific
query was slow. This module is that explanation surface:

* ``EXPLAIN`` (``analyze=False``) — the physical operator tree, one line
  per operator with its estimated cardinality, followed by the optimizer
  provenance: which rewrite/culling/parallelization rules fired or
  declined for this query and why (see
  :mod:`repro.tde.optimizer.provenance`).
* ``EXPLAIN ANALYZE`` (``analyze=True``) — additionally executes the
  plan with a per-node :class:`~repro.tde.exec.physical.OpRecorder` and
  annotates every operator with actual rows, batch count and inclusive
  wall time, so estimated-vs-actual skew is visible per operator.

Output is deterministic for a fixed engine state: operators are numbered
in pre-order (``#0`` is the root), children render in plan order, and no
object identities or addresses appear in the text — node identities are
translated to plan positions before rendering.
"""

from __future__ import annotations

import json
from typing import Any

from .exec.exchange import PExchange, SharedBuild
from .exec.fused import PFusedPipeline
from .exec.grouping import PGroupingSet, PGroupingSets, PSharedInput
from .exec.physical import (
    ExecContext,
    OpRecorder,
    PFilter,
    PHashAggregate,
    PHashJoin,
    PIndexedRleScan,
    PLimit,
    PProject,
    PScan,
    PSort,
    PStreamAggregate,
    PTopN,
    PhysNode,
    execute_to_table,
)
from .optimizer import provenance
from .optimizer.cost import operator_work
from .optimizer.planner import plan_query


class ExplainResult(str):
    """EXPLAIN output: a plain string that also carries structured data.

    Subclassing ``str`` keeps every existing caller working (``"Scan" in
    engine.explain(q)``); :meth:`to_dict`/:meth:`to_json` expose the
    machine-readable plan for tools.
    """

    _data: dict[str, Any]

    def __new__(cls, text: str, data: dict[str, Any]) -> "ExplainResult":
        obj = super().__new__(cls, text)
        obj._data = data
        return obj

    def to_dict(self) -> dict[str, Any]:
        return self._data

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self._data, indent=indent, default=str)


def _node_label(node: PhysNode) -> str:
    if isinstance(node, PScan):
        stop = node.table.n_rows if node.stop is None else node.stop
        pred = " filtered" if node.predicate is not None else ""
        return f"Scan[{node.start}:{stop}]{pred} {node.table.name or ''}".rstrip()
    if isinstance(node, PFusedPipeline):
        ops = "+".join(node.fused_ops)
        if node.table is not None:
            stop = node.table.n_rows if node.stop is None else node.stop
            where = f"[{node.start}:{stop}] {node.table.name or ''}".rstrip()
            return f"FusedPipeline({ops}) {where}".rstrip()
        return f"FusedPipeline({ops})"
    if isinstance(node, PIndexedRleScan):
        return f"IndexedRleScan({node.column}) {node.table.name or ''}".rstrip()
    if isinstance(node, PFilter):
        return "Filter"
    if isinstance(node, PProject):
        return f"Project({', '.join(n for n, _ in node.items)})"
    if isinstance(node, PHashJoin):
        conds = ", ".join(f"{l}={r}" for l, r in node.conditions)
        return f"HashJoin[{node.kind}]({conds})"
    if isinstance(node, PHashAggregate):
        return f"HashAggregate(by {', '.join(node.groupby) or '<none>'})"
    if isinstance(node, PStreamAggregate):
        return f"StreamAggregate(by {', '.join(node.groupby) or '<none>'})"
    if isinstance(node, PSort):
        return f"Sort({', '.join(k for k, _ in node.keys)})"
    if type(node).__name__ == "PWindow":
        return f"Window({', '.join(i.alias for i in node.items)})"
    if isinstance(node, PTopN):
        return f"TopN({node.n})"
    if isinstance(node, PLimit):
        return f"Limit({node.n})"
    if isinstance(node, PExchange):
        return f"Exchange(degree={node.degree})"
    if isinstance(node, SharedBuild):
        return "SharedTable"
    if isinstance(node, PGroupingSets):
        return (
            f"GroupingSets({len(node.sets)} sets, {len(node.partials)} partials "
            f"over {len(node.fragments)} fragments; shared keys {', '.join(node.shared_keys) or '<none>'})"
        )
    if isinstance(node, PGroupingSet):
        by, aggs = ", ".join(node.groupby) or "<none>", ", ".join(node.aggs) or "<none>"
        return f"Set(by {by}: {aggs}; partial {node.grain})"
    if isinstance(node, PSharedInput):
        what = "partial results" if node.columns is None else ", ".join(node.columns)
        return f"SharedInput({what})"
    return type(node).__name__


# ---------------------------------------------------------------------- #
# Tree building and rendering
# ---------------------------------------------------------------------- #
def _build_tree(
    node: PhysNode,
    counter: list[int],
    stats: dict[int, dict[str, float]] | None,
) -> dict[str, Any]:
    """Pre-order tree of plain dicts; ``op`` is the stable plan position."""
    index = counter[0]
    counter[0] += 1
    entry: dict[str, Any] = {"op": index, "label": _node_label(node)}
    children = [_build_tree(child, counter, stats) for child in node.children()]
    # Estimated rows: the cost model's row formula, which the simulator
    # replays too, over the children's estimates.
    entry["est_rows"] = int(operator_work(node, [c["est_rows"] for c in children])[1])
    if stats is not None:
        acc = stats.get(id(node))
        entry["actual"] = (
            None if acc is None else dict(acc, rows=int(acc["rows"]), batches=int(acc["batches"]))
        )
    entry["children"] = children
    return entry


def _render_tree(entry: dict[str, Any], indent: int, lines: list[str], analyze: bool) -> None:
    pad = "  " * indent
    annot = f"est={entry['est_rows']} rows"
    if analyze:
        acc = entry.get("actual")
        if acc is None:
            annot += "; not executed"
        else:
            annot += (
                f"; actual={acc['rows']} rows, {acc['batches']} batches, "
                f"{acc['seconds'] * 1000.0:.2f}ms"
            )
            if "keys_s" in acc:
                annot += f", keys coded in {acc['keys_s'] * 1000.0:.2f}ms"
    lines.append(f"{pad}#{entry['op']} {entry['label']}  ({annot})")
    for child in entry["children"]:
        _render_tree(child, indent + 1, lines, analyze)


def _render_provenance(notes, lines: list[str]) -> None:
    lines.append("== optimizer provenance ==")
    fired = [n for n in notes if n.fired]
    declined = [n for n in notes if not n.fired]
    lines.append("fired:")
    if fired:
        lines.extend(f"  {n.rule} — {n.detail}" for n in fired)
    else:
        lines.append("  (none)")
    lines.append("declined:")
    if declined:
        lines.extend(f"  {n.rule} — {n.detail}" for n in declined)
    else:
        lines.append("  (none)")


def explain_query(
    engine,
    query,
    *,
    analyze: bool = False,
    options=None,
) -> ExplainResult:
    """EXPLAIN (optionally ANALYZE) a TQL query against a DataEngine.

    Planning runs under a fresh provenance collector so the output lists
    exactly the rules consulted for *this* query. With ``analyze=True``
    the plan is executed once with a per-node recorder; timings are
    inclusive (an operator's time contains its children's, as in any
    Volcano-style profile).
    """
    logical = engine.parse(query) if isinstance(query, str) else query
    with provenance.collect() as collector:
        physical = plan_query(logical, engine.catalog, options or engine.options)

    stats: dict[int, dict[str, float]] | None = None
    result_rows: int | None = None
    elapsed: float | None = None
    if analyze:
        recorder = OpRecorder(per_node=True)
        ctx = ExecContext(batch_size=engine.batch_size, recorder=recorder)
        started = recorder.clock.monotonic()
        result = execute_to_table(physical, ctx)
        elapsed = recorder.clock.monotonic() - started
        result_rows = result.n_rows
        stats = recorder.node_stats()

    tree = _build_tree(physical, [0], stats)
    lines: list[str] = ["== physical plan =="]
    _render_tree(tree, 0, lines, analyze)
    _render_provenance(collector.notes, lines)
    if analyze:
        lines.append("== analyze ==")
        lines.append(
            f"result: {result_rows} rows in {elapsed * 1000.0:.2f}ms "
            "(operator times are inclusive of their children)"
        )
    data: dict[str, Any] = {
        "analyze": analyze,
        "plan": tree,
        "provenance": [n.to_dict() for n in collector.notes],
    }
    if isinstance(query, str):
        data["query"] = query
    if analyze:
        data["result_rows"] = result_rows
        data["elapsed_s"] = elapsed
    return ExplainResult("\n".join(lines), data)
