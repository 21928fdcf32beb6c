"""Optimizer decision provenance: which rules fired, declined, and why.

The paper's workflow for every optimization was "explain *why* a query
was slow" — which requires the optimizer to say what it did. This module
is the recording channel: rewrite rules, the culling pass, the RLE index
chooser and the parallelizer call :func:`note` at each decision point,
and :func:`collect` gathers the notes for one planning run.

The channel is a ``contextvars.ContextVar`` holding the active collector
(default ``None``), so the planner's normal path pays one contextvar read
per decision and allocates nothing — provenance only materializes inside
``engine.explain()`` (or any caller that opens :func:`collect`).
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class RuleNote:
    """One optimizer decision: rule name, fired-or-declined, and why."""

    rule: str  # e.g. "pushdown_selects", "culling.dimension_removal"
    fired: bool
    detail: str  # human-readable reason / description of the effect
    attributes: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        verdict = "fired" if self.fired else "declined"
        return f"{self.rule}: {verdict} — {self.detail}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "fired": self.fired,
            "detail": self.detail,
            "attributes": dict(self.attributes),
        }


class ProvenanceCollector:
    """Accumulates :class:`RuleNote` for one planning run (single thread)."""

    def __init__(self) -> None:
        self.notes: list[RuleNote] = []

    def note(self, rule: str, fired: bool, detail: str, **attributes: Any) -> None:
        self.notes.append(RuleNote(rule, fired, detail, attributes))

    def fired(self) -> list[RuleNote]:
        return [n for n in self.notes if n.fired]

    def declined(self) -> list[RuleNote]:
        return [n for n in self.notes if not n.fired]


_COLLECTOR: contextvars.ContextVar[ProvenanceCollector | None] = contextvars.ContextVar(
    "tde-optimizer-provenance", default=None
)


def note(rule: str, fired: bool, detail: str, **attributes: Any) -> None:
    """Record one decision if a collector is active; free otherwise."""
    collector = _COLLECTOR.get()
    if collector is not None:
        collector.note(rule, fired, detail, **attributes)


def active() -> bool:
    """Whether provenance is being collected (guards costly detail text)."""
    return _COLLECTOR.get() is not None


class collect:
    """Context manager installing a fresh collector; yields it."""

    def __init__(self) -> None:
        self.collector = ProvenanceCollector()

    def __enter__(self) -> ProvenanceCollector:
        self._token = _COLLECTOR.set(self.collector)
        return self.collector

    def __exit__(self, exc_type, exc, tb) -> bool:
        _COLLECTOR.reset(self._token)
        return False
