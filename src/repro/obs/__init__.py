"""repro.obs — the Performance Recorder substrate (tracing + metrics +
decision events).

Tableau answers "why was this dashboard slow?" with its Performance
Recorder: a timeline of compile / cache / query / render events. This
package is our equivalent, shared by every layer of the stack:

* :mod:`repro.obs.trace` — contextvar-propagated spans with a pluggable
  (virtual-time capable) clock;
* :mod:`repro.obs.metrics` — counters, gauges, latency histograms
  (p50/p95/p99);
* :mod:`repro.obs.events` — the bounded decision-event log: *why* the
  caches hit or missed, what was evicted and for what score, what fused;
* :mod:`repro.obs.recording` — the exporter: text timeline + JSON;
* :mod:`repro.obs.window` — the servers' telemetry plane and ``statz()``.

The package imports only the standard library and itself (a test walks
every import); EXPLAIN lives with its engine, in :mod:`repro.tde.explain`.

Observability is **off by default** and free when off: the module-level
:func:`span`, :func:`counter`, :func:`gauge`, :func:`histogram` and
:func:`event` helpers dispatch to shared null singletons until
:func:`enable` (or the :func:`recording` context manager) installs live
instances.

Typical benchmark usage::

    from repro import obs

    with obs.recording() as rec:
        pipeline.run_batch(specs)
    print(rec.render())          # the timeline + decision log
    rec.events("cache")          # typed queries over the decisions
    rec.to_json()                # machine-readable, for BENCH_*.json
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from ..clock import SYSTEM_CLOCK, Clock
from .events import NULL_EVENTS, DecisionEvent, EventLog, NullEventLog
from .ledger import PHASES, LedgerBook, RequestLedger
from .metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from .critpath import Segment, aggregate_report, critical_path, link_resolver
from .names import LINK_KINDS, SPAN_REGISTRY, component_of
from .recording import SCHEMA_VERSION, PerformanceRecording
from .sampling import SamplingPolicy, TraceBuffer
from .slowlog import SlowQueryEntry, SlowQueryLog
from .trace import (
    NULL_TRACER,
    Link,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    stitch,
)
from .window import (
    SLOMonitor,
    SLOObjective,
    Telemetry,
    TelemetryOptions,
    WindowedHistogram,
    WindowSet,
)

__all__ = [
    "Counter",
    "DecisionEvent",
    "EventLog",
    "Gauge",
    "Histogram",
    "LINK_KINDS",
    "LedgerBook",
    "Link",
    "MetricsRegistry",
    "NullEventLog",
    "NullMetricsRegistry",
    "NullTracer",
    "PHASES",
    "PerformanceRecording",
    "RequestLedger",
    "SCHEMA_VERSION",
    "SLOMonitor",
    "SLOObjective",
    "SPAN_REGISTRY",
    "SamplingPolicy",
    "Segment",
    "SlowQueryEntry",
    "SlowQueryLog",
    "Span",
    "Telemetry",
    "TelemetryOptions",
    "TraceBuffer",
    "TraceContext",
    "Tracer",
    "WindowSet",
    "WindowedHistogram",
    "activate",
    "aggregate_report",
    "attach",
    "bind",
    "component_of",
    "counter",
    "critical_path",
    "current_span",
    "current_trace_context",
    "disable",
    "enable",
    "enabled",
    "event",
    "events_enabled",
    "gauge",
    "get_events",
    "get_metrics",
    "get_tracer",
    "histogram",
    "link_resolver",
    "recording",
    "set_events",
    "set_metrics",
    "set_tracer",
    "span",
    "stitch",
]

_tracer: Tracer | NullTracer = NULL_TRACER
_metrics: MetricsRegistry | NullMetricsRegistry = NULL_METRICS
_events: EventLog | NullEventLog = NULL_EVENTS


# ---------------------------------------------------------------------- #
# Global state
# ---------------------------------------------------------------------- #
def get_tracer() -> Tracer | NullTracer:
    return _tracer


def get_metrics() -> MetricsRegistry | NullMetricsRegistry:
    return _metrics


def get_events() -> EventLog | NullEventLog:
    return _events


def enabled() -> bool:
    """True when a live tracer is installed."""
    return _tracer.enabled


def events_enabled() -> bool:
    """True when a live event log is installed.

    Call sites whose *reason* computation is not free (e.g. re-proving a
    failed subsumption to name the failing condition) guard it with this.
    """
    return _events.enabled


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` globally; returns the previous one."""
    global _tracer
    previous, _tracer = _tracer, tracer
    return previous


def set_metrics(
    metrics: MetricsRegistry | NullMetricsRegistry,
) -> MetricsRegistry | NullMetricsRegistry:
    """Install ``metrics`` globally; returns the previous registry."""
    global _metrics
    previous, _metrics = _metrics, metrics
    return previous


def set_events(events: EventLog | NullEventLog) -> EventLog | NullEventLog:
    """Install ``events`` globally; returns the previous log."""
    global _events
    previous, _events = _events, events
    return previous


def enable(
    clock: Clock = SYSTEM_CLOCK,
    *,
    sink: Callable[[Span], Any] | None = None,
) -> PerformanceRecording:
    """Turn observability on; returns the recording being captured.

    ``sink`` diverts completed trace roots out of the tracer (e.g. to a
    bounded :class:`TraceBuffer` via ``buffer.offer``) so a long-lived
    process does not accumulate every trace for the recording's lifetime.
    """
    tracer = Tracer(clock=clock)
    if sink is not None:
        tracer.set_sink(sink)
    metrics = MetricsRegistry()
    events = EventLog(clock=clock)
    set_tracer(tracer)
    set_metrics(metrics)
    set_events(events)
    return PerformanceRecording(tracer, metrics, events)


def disable() -> None:
    """Restore the free no-op instrumentation and clear live state.

    Symmetric to :func:`enable`: the outgoing live tracer, registry and
    event log are *reset* before the null singletons are reinstalled, so
    obs state cannot leak between tests (or between recordings taken
    without the :func:`recording` context manager). Recordings whose data
    must outlive ``disable()`` should snapshot (``to_dict()``) first.
    """
    previous_tracer = set_tracer(NULL_TRACER)
    previous_metrics = set_metrics(NULL_METRICS)
    previous_events = set_events(NULL_EVENTS)
    previous_tracer.reset()
    previous_metrics.reset()
    previous_events.reset()


@contextmanager
def recording(clock: Clock = SYSTEM_CLOCK) -> Iterator[PerformanceRecording]:
    """Enable observability for a block, restoring prior state after.

    Yields the :class:`PerformanceRecording`, which stays readable after
    the block exits (the tracer/registry/events it references are kept
    alive).
    """
    previous_tracer, previous_metrics, previous_events = _tracer, _metrics, _events
    rec = enable(clock)
    try:
        yield rec
    finally:
        set_tracer(previous_tracer)
        set_metrics(previous_metrics)
        set_events(previous_events)


# ---------------------------------------------------------------------- #
# Hot-path helpers (dispatch to the installed tracer/registry/log)
# ---------------------------------------------------------------------- #
def span(name: str, **attributes: Any):
    """Open a span under the current one (no-op context when disabled)."""
    return _tracer.span(name, **attributes)


def current_span() -> Span | None:
    """The innermost open span, for explicit cross-thread hand-off."""
    return _tracer.current()


def attach(parent: Span | None):
    """Adopt ``parent`` as the current span inside a worker thread."""
    return _tracer.attach(parent)


def current_trace_context() -> TraceContext | None:
    """The current trace identity: the open span's, or an activated wire's.

    This is what request envelopes serialize (``ctx.to_wire()``) and
    what causal link sites capture — free (None) when tracing is off.
    """
    return _tracer.context()


def activate(context: TraceContext | None):
    """Enter a trace context received across a node hop.

    The next span opened in the block roots a new tree carrying the
    sender's trace_id (stitched later by :func:`stitch`); ``None`` — an
    envelope without trace headers — is a transparent no-op.
    """
    return _tracer.activate(context)


def bind(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Make ``fn`` carry the *current* span into whatever thread runs it.

    The fan-out ergonomics fix: ``pool.map(obs.bind(work), items)``
    replaces hand-written capture/attach pairs at every submission site.
    Returns ``fn`` unchanged when tracing is off, so the disabled path
    keeps zero wrapper overhead.
    """
    tracer = _tracer
    if not tracer.enabled:
        return fn
    parent = tracer.current()

    def bound(*args: Any, **kwargs: Any) -> Any:
        with tracer.attach(parent):
            return fn(*args, **kwargs)

    return bound


def counter(name: str):
    return _metrics.counter(name)


def gauge(name: str):
    return _metrics.gauge(name)


def histogram(name: str):
    return _metrics.histogram(name)


def event(kind: str, outcome: str, reason: str, **attributes: Any) -> None:
    """Record one decision event (no-op when observability is off)."""
    _events.emit(kind, outcome, reason, **attributes)
