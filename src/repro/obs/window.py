"""Rolling time-windowed metrics and burn-rate SLO monitoring.

The cumulative histograms in :mod:`repro.obs.metrics` answer "what was
the p95 since startup?" — useless for steering a server that has been up
for a week. This module adds the time axis:

* :class:`WindowedHistogram` — a ring of fixed sub-window
  :class:`~repro.obs.metrics.Histogram` buckets. Observations land in
  the bucket for the current sub-window (stale cells are lazily
  recycled); reads merge the live cells via the existing
  ``Histogram.merge``, yielding percentiles over the trailing window at
  the cost of one small merge per read instead of any per-observation
  bookkeeping.
* :class:`WindowSet` — windowed histograms keyed by a dimension value
  (per-session, per-backend, per-dashboard), with a bounded key space.
* :class:`SLOMonitor` — a latency objective (fraction of requests under
  a threshold) evaluated as **error-budget burn rate** over two windows:
  a fast window for detection speed and a slow window for confidence
  (the multi-window burn-rate alerting recipe). Breach and recovery emit
  ``slo.breach`` / ``slo.recovered`` decision events.

* :class:`Telemetry` — the per-server bundle of the above plus the
  slow-query log and the trace buffer. :meth:`Telemetry.record` is the
  one place a served request is recorded, and :func:`compose_statz` the
  one way a server's ``statz()`` is built.

Everything reads the server's :class:`~repro.clock.Clock`, which makes
the whole layer virtual-time compatible: chaos tests drive deterministic
breach→recovery timelines in microseconds of real time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..clock import SYSTEM_CLOCK, Clock
from .critpath import slowlog_path
from .metrics import Histogram
from .sampling import SamplingPolicy, TraceBuffer
from .slowlog import SlowQueryEntry, SlowQueryLog


class WindowedHistogram:
    """Percentiles over a trailing time window, via a sub-window ring."""

    def __init__(
        self,
        name: str,
        *,
        window_s: float = 60.0,
        buckets: int = 12,
        clock: Clock = SYSTEM_CLOCK,
    ):
        if window_s <= 0 or buckets < 1:
            raise ValueError("window_s must be > 0 and buckets >= 1")
        self.name = name
        self.window_s = float(window_s)
        self.buckets = buckets
        self.span_s = self.window_s / buckets
        self.clock = clock
        self._lock = threading.Lock()
        #: slot -> [epoch, Histogram, exemplar]; a cell is live iff its
        #: epoch is within the trailing window of the current epoch. The
        #: exemplar is ``(value, trace_id)`` of the worst observation in
        #: the cell — how a p99 read points at a real trace.
        self._ring: list[list] = [[-1, None, None] for _ in range(buckets)]
        self.observed = 0

    # ------------------------------------------------------------------ #
    def observe(self, value: float, *, trace_id: str | None = None) -> None:
        epoch = int(self.clock.monotonic() // self.span_s)
        slot = epoch % self.buckets
        with self._lock:
            cell = self._ring[slot]
            if cell[0] != epoch:
                cell[0] = epoch
                cell[1] = Histogram(f"{self.name}[{epoch}]")
                cell[2] = None
            self.observed += 1
            if trace_id and (cell[2] is None or value > cell[2][0]):
                cell[2] = (value, trace_id)
        # The cell histogram has its own lock; observing outside ours
        # keeps the windowed lock hold time to the rotation check.
        cell[1].observe(value)

    # ------------------------------------------------------------------ #
    def merged(self, horizon_s: float | None = None) -> Histogram:
        """The live cells folded into one histogram (trailing window)."""
        horizon = self.window_s if horizon_s is None else min(horizon_s, self.window_s)
        now_epoch = int(self.clock.monotonic() // self.span_s)
        oldest = now_epoch - int(horizon / self.span_s)
        out = Histogram(self.name)
        with self._lock:
            cells = [(cell[0], cell[1]) for cell in self._ring]
        for epoch, hist in cells:
            if hist is not None and oldest < epoch <= now_epoch:
                out.merge(hist)
        return out

    def exemplar(self, horizon_s: float | None = None) -> dict[str, Any] | None:
        """The worst traced observation in the window: p99's "go look here"."""
        horizon = self.window_s if horizon_s is None else min(horizon_s, self.window_s)
        now_epoch = int(self.clock.monotonic() // self.span_s)
        oldest = now_epoch - int(horizon / self.span_s)
        worst: tuple[float, str] | None = None
        with self._lock:
            for epoch, _hist, cell_exemplar in self._ring:
                if cell_exemplar is None or not oldest < epoch <= now_epoch:
                    continue
                if worst is None or cell_exemplar[0] > worst[0]:
                    worst = cell_exemplar
        if worst is None:
            return None
        return {"value": worst[0], "trace_id": worst[1]}

    def snapshot(self, horizon_s: float | None = None) -> dict[str, Any]:
        snap = self.merged(horizon_s).snapshot()
        snap["window_s"] = self.window_s
        snap["observed_total"] = self.observed
        exemplar = self.exemplar(horizon_s)
        if exemplar is not None:
            snap["exemplar"] = exemplar
        return snap


class WindowSet:
    """Windowed histograms keyed by dimension value, with a key cap.

    Dimensions like "session" are unbounded in production; the cap keeps
    a soak from growing the registry forever. Overflowed observations
    are counted (never silently dropped from the accounting) but get no
    per-key window.
    """

    def __init__(
        self,
        name: str,
        *,
        window_s: float = 60.0,
        buckets: int = 12,
        max_keys: int = 64,
        clock: Clock = SYSTEM_CLOCK,
    ):
        self.name = name
        self.window_s = window_s
        self.buckets = buckets
        self.max_keys = max_keys
        self.clock = clock
        self._lock = threading.Lock()
        self._windows: dict[str, WindowedHistogram] = {}
        self.overflowed = 0

    def observe(self, key: str, value: float) -> None:
        window = self._windows.get(key)
        if window is None:
            with self._lock:
                window = self._windows.get(key)
                if window is None:
                    if len(self._windows) >= self.max_keys:
                        self.overflowed += 1
                        return
                    window = WindowedHistogram(
                        f"{self.name}.{key}",
                        window_s=self.window_s,
                        buckets=self.buckets,
                        clock=self.clock,
                    )
                    self._windows[key] = window
        window.observe(value)

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._windows)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            windows = dict(self._windows)
        return {
            "overflowed": self.overflowed,
            "keys": {key: windows[key].snapshot() for key in sorted(windows)},
        }


# ---------------------------------------------------------------------- #
# SLO burn-rate monitoring
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SLOObjective:
    """A latency objective: ``objective`` of requests under ``threshold_s``.

    ``burn_threshold`` is how fast the error budget must burn in the
    fast window to page: 2.0 means "at this rate the whole budget is
    gone in half the slow window".
    """

    name: str = "latency"
    threshold_s: float = 0.25
    objective: float = 0.95
    fast_window_s: float = 30.0
    slow_window_s: float = 300.0
    burn_threshold: float = 2.0


#: Counter cells in an SLO ring; each spans a 30th of the slow window.
SLO_CELLS = 30


class SLOMonitor:
    """Evaluates an :class:`SLOObjective` over fast/slow burn windows.

    A ring of ``SLO_CELLS`` ``[epoch, good, bad]`` counter cells spans the
    slow window; the fast burn reads only the cells inside the fast window,
    so a fast window must span at least one cell.
    Breach requires *both* windows burning (fast ≥ ``burn_threshold``
    and slow ≥ 1.0): the fast window gives detection latency, the slow
    window stops a single bad second from paging. Recovery is when the
    fast burn drops under 1.0 — the budget has stopped burning.
    """

    def __init__(self, objective: SLOObjective | None = None, *, clock: Clock = SYSTEM_CLOCK):
        self.objective = objective or SLOObjective()
        if self.objective.fast_window_s > self.objective.slow_window_s:
            raise ValueError("fast window must not exceed the slow window")
        self.span_s = self.objective.slow_window_s / SLO_CELLS
        if self.objective.fast_window_s < self.span_s:
            raise ValueError(
                f"fast window must span at least one ring cell ({self.span_s:g}s)"
            )
        self.clock = clock
        self._lock = threading.Lock()
        self._ring: list[list] = [[-1, 0, 0] for _ in range(SLO_CELLS)]
        self.state = "ok"
        self.breaches = 0
        self.last_transition_t: float | None = None
        self.good_total = 0
        self.bad_total = 0

    # ------------------------------------------------------------------ #
    def record(self, latency_s: float) -> str:
        """Record one request and re-evaluate; returns the current state."""
        good = latency_s <= self.objective.threshold_s
        now = self.clock.monotonic()
        epoch = int(now // self.span_s)
        slot = epoch % SLO_CELLS
        with self._lock:
            cell = self._ring[slot]
            if cell[0] != epoch:
                cell[0], cell[1], cell[2] = epoch, 0, 0
            cell[1 if good else 2] += 1
            if good:
                self.good_total += 1
            else:
                self.bad_total += 1
        return self.evaluate(now)

    def _burn(self, horizon_s: float, now_epoch: int) -> float:
        """Error-budget burn rate over the trailing ``horizon_s``."""
        oldest = now_epoch - int(horizon_s / self.span_s)
        good = bad = 0
        for epoch, g, b in self._ring:
            if oldest < epoch <= now_epoch:
                good += g
                bad += b
        total = good + bad
        if total == 0:
            return 0.0
        budget = max(1.0 - self.objective.objective, 1e-9)
        return (bad / total) / budget

    def evaluate(self, now: float | None = None) -> str:
        """Re-evaluate burn rates (also handles recovery by time passing)."""
        if now is None:
            now = self.clock.monotonic()
        now_epoch = int(now // self.span_s)
        with self._lock:
            fast = self._burn(self.objective.fast_window_s, now_epoch)
            slow = self._burn(self.objective.slow_window_s, now_epoch)
            previous = self.state
            if previous == "ok" and fast >= self.objective.burn_threshold and slow >= 1.0:
                self.state = "breach"
                self.breaches += 1
                self.last_transition_t = now
            elif previous == "breach" and fast < 1.0:
                self.state = "ok"
                self.last_transition_t = now
            transition = (previous, self.state)
        if transition == ("ok", "breach"):
            self._emit(
                "slo.breach",
                "breach",
                f"{self.objective.name}: fast burn {fast:.2f}x >= "
                f"{self.objective.burn_threshold}x and slow burn {slow:.2f}x >= 1.0 "
                f"(objective: {self.objective.objective:.0%} under "
                f"{self.objective.threshold_s}s)",
                fast_burn=round(fast, 3),
                slow_burn=round(slow, 3),
            )
        elif transition == ("breach", "ok"):
            self._emit(
                "slo.recovered",
                "ok",
                f"{self.objective.name}: fast burn {fast:.2f}x dropped under 1.0; "
                "the error budget stopped burning",
                fast_burn=round(fast, 3),
                slow_burn=round(slow, 3),
            )
        return self.state

    @staticmethod
    def _emit(kind: str, outcome: str, reason: str, **attributes) -> None:
        from repro import obs  # cycle: repro.obs/__init__ imports this module

        obs.event(kind, outcome, reason, **attributes)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, Any]:
        now_epoch = int(self.clock.monotonic() // self.span_s)
        with self._lock:
            fast = self._burn(self.objective.fast_window_s, now_epoch)
            slow = self._burn(self.objective.slow_window_s, now_epoch)
            return {
                "name": self.objective.name,
                "threshold_s": self.objective.threshold_s,
                "objective": self.objective.objective,
                "state": self.state,
                "breaches": self.breaches,
                "fast_burn": fast,
                "slow_burn": slow,
                "good_total": self.good_total,
                "bad_total": self.bad_total,
                "last_transition_t": self.last_transition_t,
            }


# ---------------------------------------------------------------------- #
# The serving-layer telemetry hub
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TelemetryOptions:
    """Configuration for a server's :class:`Telemetry` plane.

    Its windows are :class:`WindowedHistogram`'s and :class:`WindowSet`'s
    defaults: 60 s in 12 cells, at most 64 keys per dimension.
    """

    slo: SLOObjective | None = None
    #: Worst-N slow-query log size and admission floor.
    slowlog_capacity: int = 16
    slow_threshold_s: float = 0.0
    #: Tail-based trace retention policy; None uses the default
    #: :class:`~repro.obs.sampling.SamplingPolicy` (the trace buffer
    #: only fills while tracing itself is enabled, so it is free for
    #: telemetry-only deployments).
    sampling: Any = None


class Telemetry:
    """Windowed metrics + SLO + slow-log, bundled for one serving surface.

    ``VizServer``, ``DataServer`` and ``TdeCluster`` each own one;
    :meth:`record` is the single per-request entry point. ``observe`` is
    its metrics half: it returns whether the request is a slow-log
    candidate, so the capture is only assembled when it will be kept.
    """

    def __init__(self, options: TelemetryOptions | None = None, *, clock: Clock = SYSTEM_CLOCK):
        self.options = options or TelemetryOptions()
        self.clock = clock
        self.requests = WindowedHistogram("request_s", clock=clock)
        self.slo = SLOMonitor(self.options.slo, clock=clock)
        self.slowlog = SlowQueryLog(
            self.options.slowlog_capacity,
            threshold_s=self.options.slow_threshold_s,
        )
        self.traces = TraceBuffer(
            self.options.sampling
            if self.options.sampling is not None
            else SamplingPolicy(
                slow_threshold_s=self.options.slow_threshold_s or 0.25
            )
        )
        self._dimensions: dict[str, WindowSet] = {}
        self._lock = threading.Lock()
        self.total = 0
        self.degraded = 0
        self.failed = 0

    # ------------------------------------------------------------------ #
    def window(self, dimension: str) -> WindowSet:
        window_set = self._dimensions.get(dimension)
        if window_set is None:
            with self._lock:
                window_set = self._dimensions.get(dimension)
                if window_set is None:
                    window_set = WindowSet(dimension, clock=self.clock)
                    self._dimensions[dimension] = window_set
        return window_set

    def observe(
        self,
        wall_s: float,
        *,
        dimensions: dict[str, str] | None = None,
        degraded: bool = False,
        failed: bool = False,
        trace_id: str | None = None,
    ) -> bool:
        """Count one request in the windows; True if it's a slow-log candidate.

        ``trace_id`` (present only while tracing is enabled) flows into
        the window's worst-observation exemplar, so ``statz()``'s p99
        names a real retained trace.
        """
        with self._lock:
            self.total += 1
            if degraded:
                self.degraded += 1
            if failed:
                self.failed += 1
        self.requests.observe(wall_s, trace_id=trace_id)
        if dimensions:
            for dimension, key in dimensions.items():
                self.window(dimension).observe(key, wall_s)
        self.slo.record(wall_s)
        return self.slowlog.would_admit(wall_s)

    def record(
        self,
        root,
        *,
        started: float,
        elapsed: float,
        cursor: int,
        key: str,
        dimensions: dict[str, str],
        ledgers: Mapping[str, Any] | None = None,
        context: Callable[[], dict[str, Any]] | None = None,
        degraded: bool = False,
        failed: bool = False,
        explain: Callable[[], dict | None] | None = None,
    ) -> None:
        """Record one served request: trace, ledgers, windows, slow log.

        ``root`` is the closed root span (null or None while tracing is
        off); ``cursor`` is where the request starts in the event ring;
        ``ledgers`` are widened to the request window. ``context`` and
        ``explain`` are callbacks so a request that is not admitted builds
        neither.
        """
        trace_id = getattr(root, "trace_id", "") or None
        outcome = "failed" if failed else "degraded" if degraded else "ok"
        if trace_id is not None:
            # Tail-based sampling: errors and degraded serves are always
            # kept; the rest compete on latency or the 1-in-N sample.
            force = {"failed": "error", "degraded": "stale"}.get(outcome)
            self.traces.offer(root, force=force)
        ledgers = ledgers or {}
        for ledger in ledgers.values():
            ledger.close_out(started, started + elapsed)
        if not self.observe(
            elapsed, dimensions=dimensions, degraded=degraded, failed=failed, trace_id=trace_id
        ):
            return
        from . import get_events  # cycle: repro.obs/__init__ imports this module

        events, _next = get_events().events(since_seq=cursor)
        self.slowlog.admit(
            SlowQueryEntry(
                key=key,
                wall_s=elapsed,
                t_s=started,
                outcome=outcome,
                context=context() if context is not None else {},
                ledgers={
                    name: ledger.to_dict() for name, ledger in sorted(ledgers.items())
                },
                events=[ev.to_dict() for ev in events],
                explain=explain() if explain is not None else None,
                trace_id=trace_id,
                critical_path=slowlog_path(root, self.traces),
            )
        )

    # ------------------------------------------------------------------ #
    def statz(self) -> dict[str, Any]:
        with self._lock:
            dims = dict(self._dimensions)
            counters = {
                "total": self.total,
                "degraded": self.degraded,
                "failed": self.failed,
            }
        return {
            "requests": counters,
            "window": self.requests.snapshot(),
            "dimensions": {name: dims[name].snapshot() for name in sorted(dims)},
            "slo": self.slo.snapshot(),
            "slowlog": self.slowlog.snapshot(),
            "traces": self.traces.snapshot(),
        }


def make_telemetry(
    telemetry: TelemetryOptions | bool | None, *, clock: Clock = SYSTEM_CLOCK
) -> Telemetry | None:
    """The plane a server's ``telemetry=`` asks for (True: default options)."""
    if not telemetry:
        return None
    options = telemetry if isinstance(telemetry, TelemetryOptions) else None
    return Telemetry(options, clock=clock)


def compose_statz(skeleton: dict[str, Any], telemetry: Telemetry | None) -> dict[str, Any]:
    """A server's ``statz()``: its always-present skeleton, then — when
    ``telemetry_enabled`` — the sections of :meth:`Telemetry.statz`.
    """
    snap = {"telemetry_enabled": telemetry is not None, **skeleton}
    if telemetry is not None:
        snap.update(telemetry.statz())
    return snap
