"""End-to-end tracing: the substrate of the Performance Recorder.

Tableau's practical answer to "why was this dashboard slow?" is the
Performance Recorder — a timeline of compile/cache/query/render events.
This module provides the span machinery behind our equivalent: a
:class:`Tracer` whose :meth:`~Tracer.span` context manager opens a named,
attributed span under the current one. The current span propagates
through ``contextvars``, so nested calls — pipeline phase → executor →
connector — form a tree without threading a handle through every
signature.

Beyond the tree, every span carries **explicit identity**: a
``trace_id`` shared by the whole request and its own ``span_id``, both
minted from per-tracer counters so seeded (serial / virtual-time) runs
produce byte-identical ids. Identity is what survives where contextvars
cannot:

* **Node hops.** A caller serializes :meth:`Span.context` via
  :meth:`TraceContext.to_wire`; the far side runs under
  :meth:`Tracer.activate`, which detaches the local span stack (this is
  a process boundary, simulated or not) and makes the next root adopt
  the wire context's ``trace_id`` with ``parent_span_id`` pointing back
  across the hop. :func:`stitch` later reassembles the pieces into one
  tree by identity.
* **Causality across requests.** A request whose latency was *inherited*
  from another request (a coalesce follower waiting on a leader, a cache
  hit on an entry some prefetch populated, a breaker opened by earlier
  failures) records a :class:`Link` — a typed edge to the other trace —
  via :meth:`Span.add_link`. The critical-path analyzer
  (:mod:`repro.obs.critpath`) follows links to attribute waited-on time
  to the components that actually spent it.

Two properties matter for a tracer that lives on the hot path:

* **The disabled path is free.** The default tracer is
  :data:`NULL_TRACER`; its ``span()`` returns a shared no-op context
  manager, so instrumented code allocates nothing and takes no locks
  when recording is off. All identity/link surfaces exist on the null
  objects as no-ops.
* **Worker threads join the trace explicitly.** ``contextvars`` do not
  flow into ``ThreadPoolExecutor`` workers on their own; fan-out sites
  wrap worker bodies with :func:`repro.obs.bind` (which captures
  :meth:`Tracer.current` at submit time and re-attaches it inside the
  worker).

A :class:`~repro.clock.Clock` (default the system clock) timestamps
spans; tests pass ``Tracer(clock=VirtualTimeClock())`` so their traces
are deterministic.
"""

from __future__ import annotations

import itertools
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..clock import SYSTEM_CLOCK, Clock


@dataclass(frozen=True)
class TraceContext:
    """The portable identity of a point in a trace.

    Small enough to serialize into any request envelope; JSON-safe via
    :meth:`to_wire`. Deterministic under seeded runs because ids come
    from per-tracer counters, not entropy.
    """

    trace_id: str
    span_id: str

    def to_wire(self) -> dict[str, str]:
        """A plain JSON-able dict for cross-node request envelopes."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, wire: dict | None) -> "TraceContext | None":
        """Parse a wire dict; tolerant of missing/foreign envelopes."""
        if not wire:
            return None
        trace_id = wire.get("trace_id")
        span_id = wire.get("span_id")
        if not trace_id or not span_id:
            return None
        return cls(str(trace_id), str(span_id))


class Link:
    """A typed causal edge from one span to a point in another trace.

    Links mark latency *inherited* from other requests — the coalesce
    follower → leader flight, the cache hit → the trace that populated
    the entry, a retry attempt → its prior attempt, a breaker rejection
    → the trace whose failure tripped it.
    """

    __slots__ = ("kind", "trace_id", "span_id", "attributes")

    def __init__(self, kind: str, trace_id: str, span_id: str, attributes: dict | None = None):
        self.kind = kind
        self.trace_id = trace_id
        self.span_id = span_id
        self.attributes = attributes or {}

    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Link":
        return cls(
            data["kind"],
            data["trace_id"],
            data["span_id"],
            dict(data.get("attributes") or {}),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.kind!r} -> {self.trace_id}/{self.span_id})"


class Span:
    """One timed, named, attributed interval in a trace tree."""

    __slots__ = (
        "name",
        "start_s",
        "end_s",
        "attributes",
        "children",
        "parent",
        "trace_id",
        "span_id",
        "parent_span_id",
        "links",
    )

    def __init__(self, name: str, start_s: float, parent: "Span | None" = None):
        self.name = name
        self.start_s = start_s
        self.end_s: float | None = None
        self.attributes: dict[str, Any] = {}
        self.children: list[Span] = []
        self.parent = parent
        self.trace_id = ""
        self.span_id = ""
        #: The id of the parent span — set even when ``parent`` is None
        #: because the parent lives across a node hop (stitching key).
        self.parent_span_id: str | None = None
        #: Causal cross-trace edges; lazily allocated (most spans have none).
        self.links: list[Link] | None = None

    # ------------------------------------------------------------------ #
    @property
    def duration_s(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return 0.0 if self.end_s is None else self.end_s - self.start_s

    @property
    def context(self) -> TraceContext | None:
        """This span's portable identity (None before a tracer minted ids)."""
        if not self.trace_id:
            return None
        return TraceContext(self.trace_id, self.span_id)

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def add_link(
        self, kind: str, context: "TraceContext | None", **attributes: Any
    ) -> "Span":
        """Record a causal edge to ``context`` (no-op when it is None)."""
        if context is None:
            return self
        if self.links is None:
            self.links = []
        self.links.append(Link(kind, context.trace_id, context.span_id, attributes))
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) with ``name``, or None."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (attributes stringified as-is)."""
        out: dict[str, Any] = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }
        if self.parent_span_id is not None:
            out["parent_span_id"] = self.parent_span_id
        if self.links:
            out["links"] = [link.to_dict() for link in self.links]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output (JSONL import)."""
        span = cls(data["name"], float(data["start_s"]))
        span.end_s = float(data["start_s"]) + float(data.get("duration_s") or 0.0)
        span.trace_id = data.get("trace_id", "")
        span.span_id = data.get("span_id", "")
        span.parent_span_id = data.get("parent_span_id")
        span.attributes = dict(data.get("attributes") or {})
        for link_data in data.get("links") or ():
            if span.links is None:
                span.links = []
            span.links.append(Link.from_dict(link_data))
        for child_data in data.get("children") or ():
            child = cls.from_dict(child_data)
            child.parent = span
            span.children.append(child)
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s * 1000:.3f}ms, children={len(self.children)})"


def stitch(roots: list[Span]) -> list[Span]:
    """Reassemble multi-node traces into trees, by identity, in place.

    Roots whose ``parent_span_id`` names a span present in another root
    (the near side of a node hop) are re-attached as that span's
    children. Returns the true roots — spans whose parent is genuinely
    unknown. Children are ordered by start time afterwards so a stitched
    timeline renders chronologically.
    """
    index: dict[tuple[str, str], Span] = {}
    for root in roots:
        for span in root.walk():
            if span.span_id:
                index[(span.trace_id, span.span_id)] = span
    stitched: list[Span] = []
    for root in roots:
        parent = None
        if root.parent_span_id is not None:
            parent = index.get((root.trace_id, root.parent_span_id))
        if parent is not None and parent is not root:
            parent.children.append(root)
            parent.children.sort(key=lambda s: s.start_s)
            root.parent = parent
        else:
            stitched.append(root)
    return stitched


class _SpanContext:
    """Context manager opening one span on a tracer."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_token", "_rooted")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        tracer = self._tracer
        parent = tracer._current.get()
        span = Span(self._name, tracer.clock.monotonic(), parent=parent)
        span.span_id = tracer._mint_span_id()
        if self._attributes:
            span.attributes.update(self._attributes)
        self._rooted = False
        if parent is None:
            remote = tracer._remote.get()
            if remote is not None:
                # The far side of a node hop: adopt the wire identity so
                # stitch() can hang this tree under the caller's span.
                span.trace_id = remote.trace_id
                span.parent_span_id = remote.span_id
            else:
                span.trace_id = tracer._mint_trace_id()
            if tracer._sink is None:
                with tracer._lock:
                    tracer._roots.append(span)
                self._rooted = True
        else:
            span.trace_id = parent.trace_id
            span.parent_span_id = parent.span_id
            # list.append is atomic under the GIL; concurrent workers
            # attached to the same parent interleave children safely.
            parent.children.append(span)
        self._token = tracer._current.set(span)
        self._span = span
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.end_s = self._tracer.clock.monotonic()
        if exc_type is not None:
            span.attributes.setdefault("error", repr(exc))
        self._tracer._current.reset(self._token)
        if span.parent is None and not self._rooted:
            sink = self._tracer._sink
            if sink is not None:
                sink(span)
        return False


class _AttachContext:
    """Context manager adopting ``parent`` as the current span."""

    __slots__ = ("_tracer", "_parent", "_token")

    def __init__(self, tracer: "Tracer", parent: Span | None):
        self._tracer = tracer
        self._parent = parent

    def __enter__(self) -> Span | None:
        self._token = self._tracer._current.set(self._parent)
        return self._parent

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._current.reset(self._token)
        return False


class _ActivateContext:
    """Context manager entering a remote (wire) trace context.

    Simulates a process boundary: the local span stack is detached (the
    next span is a *root*, even in-process) and the wire context becomes
    the root's trace identity and remote parent.
    """

    __slots__ = ("_tracer", "_context", "_span_token", "_remote_token")

    def __init__(self, tracer: "Tracer", context: TraceContext):
        self._tracer = tracer
        self._context = context

    def __enter__(self) -> TraceContext:
        self._span_token = self._tracer._current.set(None)
        self._remote_token = self._tracer._remote.set(self._context)
        return self._context

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._remote.reset(self._remote_token)
        self._tracer._current.reset(self._span_token)
        return False


class Tracer:
    """Collects span trees; one instance per recording.

    Ids are minted from per-tracer counters (``itertools.count`` — an
    atomic next() under the GIL): runs whose spans open in a
    deterministic order (serial drivers, virtual time) get byte-identical
    trace/span ids, which is what makes exported traces diffable across
    seeded runs.
    """

    enabled = True

    def __init__(self, clock: Clock = SYSTEM_CLOCK):
        self.clock = clock
        self._current: ContextVar[Span | None] = ContextVar("repro-obs-span", default=None)
        self._remote: ContextVar[TraceContext | None] = ContextVar(
            "repro-obs-remote", default=None
        )
        self._roots: list[Span] = []
        self._lock = threading.Lock()
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        #: When set, completed roots are handed here instead of
        #: accumulating in ``_roots`` — the memory bound a long-lived
        #: server needs (see :class:`repro.obs.sampling.TraceBuffer`).
        self._sink: Callable[[Span], Any] | None = None

    def _mint_trace_id(self) -> str:
        return f"{next(self._trace_ids):016x}"

    def _mint_span_id(self) -> str:
        return f"{next(self._span_ids):012x}"

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Open a child of the current span (or a new root)."""
        return _SpanContext(self, name, attributes)

    def current(self) -> Span | None:
        """The innermost open span in this context, if any."""
        return self._current.get()

    def context(self) -> TraceContext | None:
        """The current trace identity: the open span's, or the wire's."""
        span = self._current.get()
        if span is not None and span.trace_id:
            return TraceContext(span.trace_id, span.span_id)
        return self._remote.get()

    def attach(self, parent: Span | None) -> _AttachContext:
        """Join a worker thread (or task) to an existing span.

        Capture ``tracer.current()`` where the work is *submitted*, then
        run the worker body under ``with tracer.attach(captured):`` so its
        spans nest under the submitter's.
        """
        return _AttachContext(self, parent)

    def activate(self, context: TraceContext | None):
        """Enter a trace context received over the wire (a node hop).

        The next span opened inside the block becomes a root carrying
        ``context``'s trace_id with ``parent_span_id`` pointing back at
        the sender — :func:`stitch` reassembles the full tree later.
        ``activate(None)`` is a transparent no-op, so receivers can pass
        whatever the envelope carried without checking.
        """
        if context is None:
            return _NOOP_CONTEXT
        return _ActivateContext(self, context)

    def set_sink(self, sink: Callable[[Span], Any] | None) -> None:
        """Divert completed roots to ``sink`` instead of ``_roots``.

        Installing a sink is how a long-lived server bounds trace
        memory: roots flow to a bounded buffer as they complete rather
        than accumulating for the recording's lifetime.
        """
        self._sink = sink

    @property
    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def reset(self) -> None:
        with self._lock:
            self._roots.clear()


class _NoopContext:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullSpan:
    """Inert span handed out while tracing is disabled."""

    __slots__ = ()
    name = ""
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0
    attributes: dict[str, Any] = {}
    children: list[Span] = []
    parent = None
    trace_id = ""
    span_id = ""
    parent_span_id = None
    links = None
    context = None

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def add_link(self, kind: str, context, **attributes: Any) -> "_NullSpan":
        return self

    def walk(self) -> Iterator[Span]:
        return iter(())

    def find(self, name: str) -> None:
        return None

    def find_all(self, name: str) -> list[Span]:
        return []

    def to_dict(self) -> dict[str, Any]:
        return {}


_NULL_SPAN = _NullSpan()
_NOOP_CONTEXT = _NoopContext()


class NullTracer:
    """The default tracer: every operation is a shared no-op."""

    enabled = False
    roots: tuple = ()

    def span(self, name: str, **attributes: Any) -> _NoopContext:
        return _NOOP_CONTEXT

    def current(self) -> None:
        return None

    def context(self) -> None:
        return None

    def attach(self, parent: Span | None) -> _NoopContext:
        return _NOOP_CONTEXT

    def activate(self, context: TraceContext | None) -> _NoopContext:
        return _NOOP_CONTEXT

    def set_sink(self, sink) -> None:
        pass

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()
