"""Per-request latency attribution: where did *this* request's time go?

Aggregate histograms (``repro.obs.metrics``) say the p95 regressed;
a :class:`RequestLedger` says why one request was slow: it decomposes a
single spec's wall time into exclusive, conserved phases —

* ``queue`` — admission: time not attributable to any named phase
  (waiting for sibling queries in a concurrent batch, connection
  checkout, loop overhead). Computed as the residual at finish time, so
  **the phases always sum exactly to the measured wall time** — the
  conservation invariant the tests assert.
* ``cache_probe`` — intelligent-cache lookups (phase-0 probe and
  derivation lookups during result distribution).
* ``coalesce_wait`` — blocked on another request's in-flight execution
  (single-flight follower).
* ``compile`` — batch-graph analysis, fusion and query compilation.
* ``execute`` — the backend fetch itself (connection checkout is split
  out into ``queue`` via ``ExecutionOutcome.checkout_wait_s``).
* ``post_ops`` — local post-operations: deriving a member's answer from
  a fused/cached/leader result.
* ``degrade`` — deciding and serving the stale fallback (or the error).
* ``render`` — dashboard-side work after the pipeline answered.

Ledgers read the pipeline's :class:`~repro.clock.Clock`, so fault/chaos
tests can drive them deterministically on a ``VirtualTimeClock``. The
pipeline books every batch against one object: a fresh
:class:`LedgerBook` when ledgers are on, the shared :data:`NULL_BOOK`
when they are off — same calls, no clock reads, nothing allocated.
"""

from __future__ import annotations

from typing import Any

from ..clock import Clock

#: The exclusive phase taxonomy, in pipeline order.
PHASES = (
    "queue",
    "cache_probe",
    "coalesce_wait",
    "compile",
    "execute",
    "post_ops",
    "degrade",
    "render",
)

_PHASE_SET = frozenset(PHASES)


class RequestLedger:
    """The attribution record for one spec within one request."""

    __slots__ = ("key", "outcome", "started_s", "wall_s", "_charges", "_finished")

    def __init__(self, key: str, started_s: float):
        self.key = key
        self.outcome = "open"
        self.started_s = started_s
        self.wall_s = 0.0
        self._charges: dict[str, float] = {}
        self._finished = False

    # ------------------------------------------------------------------ #
    def charge(self, phase: str, seconds: float) -> None:
        """Attribute ``seconds`` of this request's wall time to ``phase``."""
        if phase not in _PHASE_SET:
            raise ValueError(f"unknown ledger phase {phase!r}")
        if seconds > 0.0:
            self._charges[phase] = self._charges.get(phase, 0.0) + seconds

    def finish(self, now: float, outcome: str) -> None:
        """Close the ledger: wall time is measured, ``queue`` absorbs the
        residual so the phases sum exactly to the wall time."""
        if self._finished:
            return
        self._finished = True
        self.outcome = outcome
        self.wall_s = max(now - self.started_s, 0.0)
        residual = self.wall_s - sum(self._charges.values())
        if residual != 0.0:
            self._charges["queue"] = self._charges.get("queue", 0.0) + residual

    def close_out(self, request_start: float, request_end: float) -> None:
        """Widen the ledger to a surrounding request window.

        Time before the batch opened the ledger (routing, session lock
        wait) lands in ``queue``; time after it finished (rendering,
        response assembly) lands in ``render``. Conservation holds by
        construction, and calling again with a yet-wider window only adds
        the new margins — so a dashboard render and the server request
        around it can each close out the same ledger.
        """
        end = self.started_s + self.wall_s
        pre = self.started_s - request_start
        if pre > 0.0:
            self._charges["queue"] = self._charges.get("queue", 0.0) + pre
            self.started_s = request_start
            self.wall_s += pre
        post = request_end - end
        if post > 0.0:
            self._charges["render"] = self._charges.get("render", 0.0) + post
            self.wall_s += post

    # ------------------------------------------------------------------ #
    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def phases(self) -> dict[str, float]:
        """Every phase (zero-filled), in canonical order."""
        return {phase: self._charges.get(phase, 0.0) for phase in PHASES}

    @property
    def active_s(self) -> float:
        """Wall time spent doing work (everything but queue and render) —
        the slow-query log uses this to pick a request's worst zone."""
        return sum(
            v for k, v in self._charges.items() if k not in ("queue", "render")
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "outcome": self.outcome,
            "wall_s": self.wall_s,
            "phases": self.phases,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        charged = {k: round(v, 6) for k, v in self._charges.items()}
        return (
            f"RequestLedger({self.key!r}, outcome={self.outcome!r}, "
            f"wall={self.wall_s:.6f}, {charged})"
        )


class LedgerBook:
    """Per-batch ledger factory: one ledger per spec, one shared clock.

    The pipeline opens a book at batch start (every ledger's window
    starts there — a spec's time waiting for its phase *is* queue time)
    and finishes each ledger on its serving path. ``close()`` is the
    safety net for paths that produced an answer without an explicit
    finish.
    """

    __slots__ = ("now", "t0", "ledgers")

    def __init__(self, clock: Clock):
        self.now = clock.monotonic
        self.t0 = self.now()
        self.ledgers: dict[str, RequestLedger] = {}

    def open(self, key: str) -> RequestLedger:
        ledger = self.ledgers.get(key)
        if ledger is None:
            ledger = RequestLedger(key, self.t0)
            self.ledgers[key] = ledger
        return ledger

    def charge(self, key: str, phase: str, seconds: float) -> None:
        self.open(key).charge(phase, seconds)

    def charge_since(self, since: float, phase: str, *keys: str) -> None:
        """Charge the time elapsed since ``since`` (an earlier ``now()``)
        to ``phase`` of every key — work several requests all waited on
        costs each of them its full duration."""
        seconds = self.now() - since
        for key in keys:
            self.charge(key, phase, seconds)

    def finish(self, key: str, outcome: str) -> None:
        self.open(key).finish(self.now(), outcome)

    def close(self, default_outcome: str = "fresh") -> dict[str, RequestLedger]:
        """Finish any straggler ledgers and return the full map."""
        now = self.now()
        for ledger in self.ledgers.values():
            if not ledger.finished:
                ledger.finish(now, default_outcome)
        return self.ledgers


class NullLedgerBook:
    """The book when ledgers are off: ``now()`` is a constant rather than
    a clock read and every charge is a no-op, so the pipeline books
    unconditionally and the disabled path allocates nothing."""

    __slots__ = ()

    def now(self) -> float:
        return 0.0

    def charge(self, *args: Any, **kwargs: Any) -> None:
        pass

    charge_since = finish = close = charge


NULL_BOOK = NullLedgerBook()
