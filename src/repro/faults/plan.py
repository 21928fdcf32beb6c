"""Deterministic, seed-driven fault schedules.

A :class:`FaultPlan` decides, for every instrumented connector operation,
whether that call fails, times out, stalls, or loses its connection. Two
properties make the schedules usable as test oracles (IDEBench-style
adverse-condition evaluation, but reproducible):

* **Determinism.** Random sampling is keyed on
  ``(seed, op, source, n)`` where ``n`` is the per-``(op, source)`` call
  index — *not* on global arrival order — so the decision for "the 3rd
  ``execute`` against ``warehouse``" is identical no matter how executor
  threads interleave. Seeding uses :class:`random.Random` with a string
  key, which hashes with SHA-512 internally and is therefore independent
  of ``PYTHONHASHSEED``.
* **Replayability.** Every non-clean decision is recorded in the plan's
  schedule; :meth:`export` returns it in a canonical order and
  :meth:`digest` fingerprints it, so "same seed ⇒ byte-identical fault
  schedule" is directly assertable.

Scripted rules (:class:`FaultRule`) take precedence over sampling and
express outages ("``execute`` calls 2–5 against ``warehouse`` fail") or
time windows on the virtual clock ("the source is down between t=1 and
t=5").
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
from dataclasses import dataclass

from ..errors import (
    ConnectionDiedError,
    SourceTimeoutError,
    SourceUnavailableError,
)

#: Decision kinds, in the order sampling weights are applied.
KINDS = ("error", "timeout", "disconnect", "latency")

#: Default mix of fault kinds when sampling (must sum to 1).
DEFAULT_WEIGHTS = {"error": 0.4, "timeout": 0.2, "disconnect": 0.2, "latency": 0.2}


@dataclass(frozen=True)
class FaultDecision:
    """What happens to one connector call.

    ``kind`` is one of ``"none"`` (clean call), ``"error"`` (the source
    reports itself unavailable), ``"timeout"`` (the call exceeds the
    connector's timeout), ``"disconnect"`` (the connection dies
    mid-flight) or ``"latency"`` (the call is delayed by ``latency_s``
    but succeeds — unless the delay itself breaches the timeout).
    """

    kind: str
    latency_s: float = 0.0
    message: str = ""

    @property
    def clean(self) -> bool:
        return self.kind == "none"

    def to_error(self, op: str, source: str):
        """The exception this decision injects (None for clean/latency)."""
        detail = self.message or f"injected {self.kind} on {op} against {source}"
        if self.kind == "error":
            return SourceUnavailableError(detail)
        if self.kind == "timeout":
            return SourceTimeoutError(detail)
        if self.kind == "disconnect":
            return ConnectionDiedError(detail)
        return None


CLEAN = FaultDecision("none")


@dataclass(frozen=True)
class FaultRule:
    """A scripted fault: matched before any random sampling.

    ``op`` / ``source`` of ``None`` match anything. ``first``/``last``
    bound the per-``(op, source)`` call index (0-based, inclusive;
    ``last=None`` means forever). ``t_from``/``t_until`` bound the plan
    clock's time, enabling outage windows on a virtual clock.
    """

    kind: str
    op: str | None = None
    source: str | None = None
    first: int = 0
    last: int | None = None
    t_from: float | None = None
    t_until: float | None = None
    latency_s: float = 0.0
    message: str = ""

    def matches(self, op: str, source: str, n: int, now: float | None) -> bool:
        if self.op is not None and self.op != op:
            return False
        if self.source is not None and self.source != source:
            return False
        if n < self.first or (self.last is not None and n > self.last):
            return False
        if self.t_from is not None or self.t_until is not None:
            if now is None:
                return False
            if self.t_from is not None and now < self.t_from:
                return False
            if self.t_until is not None and now >= self.t_until:
                return False
        return True

    def decision(self) -> FaultDecision:
        return FaultDecision(self.kind, latency_s=self.latency_s, message=self.message)


@dataclass(frozen=True)
class ScheduledFault:
    """One realized (non-clean) decision, for export/replay assertions."""

    op: str
    source: str
    n: int
    kind: str
    latency_s: float

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "source": self.source,
            "n": self.n,
            "kind": self.kind,
            "latency_s": round(self.latency_s, 9),
        }


class FaultPlan:
    """Decides faults for connector operations, deterministically.

    ``rate`` is the default probability that any instrumented call
    faults; ``rates`` overrides it per operation name (``"connect"``,
    ``"execute"``, ``"create_temp_table"``, ``"simdb.query"``, ...).
    ``weights`` splits faulting calls between kinds; ``latency_s`` is the
    (lo, hi) range latency spikes are drawn from. ``rules`` are scripted
    faults checked first. A plan with ``rate=0`` and no rules is inert.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        rate: float = 0.0,
        rates: dict[str, float] | None = None,
        weights: dict[str, float] | None = None,
        latency_s: tuple[float, float] = (0.05, 0.25),
        rules: tuple[FaultRule, ...] | list[FaultRule] = (),
        clock=None,
    ):
        self.seed = seed
        self.rate = rate
        self.rates = dict(rates or {})
        self.weights = dict(weights or DEFAULT_WEIGHTS)
        self.latency_range_s = latency_s
        self.rules = tuple(rules)
        self.clock = clock
        self.schedule: list[ScheduledFault] = []
        self._counters: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @classmethod
    def scripted(cls, rules: list[FaultRule], *, clock=None) -> "FaultPlan":
        """A plan that only follows the given script (no sampling)."""
        return cls(rules=rules, clock=clock)

    # ------------------------------------------------------------------ #
    def decide(self, op: str, source: str) -> FaultDecision:
        """The (recorded) fate of the next ``op`` call against ``source``."""
        now = self.clock.monotonic() if self.clock is not None else None
        with self._lock:
            key = (op, source)
            n = self._counters.get(key, 0)
            self._counters[key] = n + 1
        decision = self._scripted_decision(op, source, n, now)
        if decision is None:
            decision = self._sampled_decision(op, source, n)
        if not decision.clean:
            with self._lock:
                self.schedule.append(
                    ScheduledFault(op, source, n, decision.kind, decision.latency_s)
                )
        return decision

    def _scripted_decision(
        self, op: str, source: str, n: int, now: float | None
    ) -> FaultDecision | None:
        for rule in self.rules:
            if rule.matches(op, source, n, now):
                return rule.decision()
        return None

    def _sampled_decision(self, op: str, source: str, n: int) -> FaultDecision:
        rate = self.rates.get(op, self.rate)
        if rate <= 0.0:
            return CLEAN
        rng = random.Random(f"{self.seed}|{op}|{source}|{n}")
        if rng.random() >= rate:
            return CLEAN
        pick = rng.random() * sum(self.weights.get(k, 0.0) for k in KINDS)
        acc = 0.0
        kind = "error"
        for candidate in KINDS:
            acc += self.weights.get(candidate, 0.0)
            if pick < acc:
                kind = candidate
                break
        lo, hi = self.latency_range_s
        latency = lo + (hi - lo) * rng.random() if kind in ("latency", "timeout") else 0.0
        return FaultDecision(kind, latency_s=latency)

    # ------------------------------------------------------------------ #
    def calls(self, op: str | None = None) -> int:
        """Instrumented calls seen so far (optionally for one op)."""
        with self._lock:
            if op is None:
                return sum(self._counters.values())
            return sum(v for (o, _s), v in self._counters.items() if o == op)

    def export(self) -> list[dict]:
        """The realized fault schedule in canonical (replayable) order."""
        with self._lock:
            snapshot = list(self.schedule)
        return [f.to_dict() for f in sorted(snapshot, key=lambda f: (f.op, f.source, f.n))]

    def digest(self) -> str:
        """A stable fingerprint of the realized schedule."""
        payload = json.dumps(self.export(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def reset(self) -> None:
        """Forget counters and the realized schedule (fresh replay)."""
        with self._lock:
            self._counters.clear()
            self.schedule.clear()
