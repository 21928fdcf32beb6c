"""repro.faults — deterministic fault injection and robustness machinery.

The paper's response-time features (intelligent caching 3.2, query fusion
3.3, connection pooling 3.5) assume data sources that never fail
mid-flight. This package supplies the adverse-conditions half the system
needs at production scale, in two parts:

* **Injection** — :class:`FaultPlan` (seed-driven or scripted schedules
  of errors, latency spikes, timeouts, connection deaths),
  :class:`FaultyDataSource` (wraps any data source and realizes the
  plan), both on :mod:`repro.clock`'s ``VirtualTimeClock`` in tests (so
  every schedule — each backoff wait too — replays byte-identically).
* **Robustness** — :class:`RetryPolicy` / :func:`call_with_retry`
  (exponential backoff with deterministic jitter, used by the executor)
  and :class:`CircuitBreaker` (wired into the connection pool). The
  graceful-degradation side (stale serves, per-zone errors) lives in
  :mod:`repro.core.pipeline` and :mod:`repro.dashboard.render`.

Every retry, trip and injected fault is emitted into the
:mod:`repro.obs` decision-event ring, so a performance recording of a
degraded run explains *why* each request was slow, stale or failed.
"""

from __future__ import annotations

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .injector import FaultyDataSource
from .plan import CLEAN, FaultDecision, FaultPlan, FaultRule, ScheduledFault
from .retry import NO_RETRY, RetryPolicy, call_with_retry

__all__ = [
    "CLEAN",
    "CLOSED",
    "CircuitBreaker",
    "FaultDecision",
    "FaultPlan",
    "FaultRule",
    "FaultyDataSource",
    "HALF_OPEN",
    "NO_RETRY",
    "OPEN",
    "RetryPolicy",
    "ScheduledFault",
    "call_with_retry",
]
