"""Trace identity: deterministic ids, wire round-trips, activate, stitch, bind."""

from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.clock import VirtualTimeClock
from repro.obs import Span, TraceContext, Tracer, stitch


def _workload(tracer: Tracer, clock: VirtualTimeClock) -> list[Span]:
    """A fixed serial span shape; identical on every run."""
    for _ in range(3):
        with tracer.span("vizserver.request"):
            clock.advance(0.01)
            with tracer.span("pipeline.run_batch"):
                clock.advance(0.02)
                with tracer.span("executor.query"):
                    clock.advance(0.03)
    return tracer.roots


class TestDeterministicIdentity:
    def test_ids_are_counters_not_entropy(self):
        tracer = Tracer(clock=VirtualTimeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        a, c = tracer.roots
        assert a.trace_id == f"{1:016x}"
        assert c.trace_id == f"{2:016x}"
        assert a.span_id == f"{1:012x}"
        assert a.children[0].span_id == f"{2:012x}"
        assert a.children[0].trace_id == a.trace_id
        assert a.children[0].parent_span_id == a.span_id

    def test_two_seeded_runs_are_byte_identical(self):
        runs = []
        for _ in range(2):
            clock = VirtualTimeClock()
            roots = _workload(Tracer(clock=clock), clock)
            runs.append([r.to_dict() for r in roots])
        assert runs[0] == runs[1]

    def test_distinct_requests_get_distinct_trace_ids(self):
        clock = VirtualTimeClock()
        roots = _workload(Tracer(clock=clock), clock)
        ids = [r.trace_id for r in roots]
        assert len(set(ids)) == 3


class TestWireFormat:
    def test_round_trip(self):
        ctx = TraceContext("00ab", "cd12")
        wire = ctx.to_wire()
        assert wire == {"trace_id": "00ab", "span_id": "cd12"}
        assert TraceContext.from_wire(wire) == ctx

    def test_tolerant_of_missing_or_foreign_envelopes(self):
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire({}) is None
        assert TraceContext.from_wire({"trace_id": "x"}) is None
        assert TraceContext.from_wire({"span_id": "y"}) is None
        assert TraceContext.from_wire({"trace_id": "", "span_id": "y"}) is None

    def test_span_context_property(self):
        tracer = Tracer(clock=VirtualTimeClock())
        with tracer.span("a") as sp:
            ctx = sp.context
        assert ctx == TraceContext(sp.trace_id, sp.span_id)
        orphan = Span("loose", 0.0)
        assert orphan.context is None


class TestActivate:
    def test_next_root_adopts_wire_identity(self):
        tracer = Tracer(clock=VirtualTimeClock())
        with tracer.span("vizserver.request") as near:
            wire = near.context.to_wire()
        remote = TraceContext.from_wire(wire)
        with tracer.activate(remote):
            with tracer.span("cluster.query"):
                pass
        far = tracer.roots[1]
        assert far.trace_id == near.trace_id
        assert far.parent_span_id == near.span_id

    def test_activate_detaches_the_local_stack(self):
        tracer = Tracer(clock=VirtualTimeClock())
        with tracer.span("outer") as outer:
            with tracer.activate(TraceContext("00ff", "aa")):
                assert tracer.current() is None
                assert tracer.context() == TraceContext("00ff", "aa")
                with tracer.span("hop") as hop:
                    assert hop.parent is None  # a root, even in-process
            # state restored on exit
            assert tracer.current() is outer
        assert tracer.roots[1].trace_id == "00ff"

    def test_activate_none_is_a_transparent_noop(self):
        tracer = Tracer(clock=VirtualTimeClock())
        with tracer.span("outer") as outer:
            with tracer.activate(None):
                with tracer.span("inner") as inner:
                    assert inner.parent is outer
        assert len(tracer.roots) == 1

    def test_stitch_reassembles_the_hop(self):
        tracer = Tracer(clock=VirtualTimeClock())
        with tracer.span("vizserver.request") as near:
            wire = near.context.to_wire()
            with tracer.activate(TraceContext.from_wire(wire)):
                with tracer.span("dataserver.query"):
                    pass
        roots = stitch(tracer.roots)
        assert len(roots) == 1
        assert [s.name for s in roots[0].walk()] == [
            "vizserver.request",
            "dataserver.query",
        ]
        assert {s.trace_id for s in roots[0].walk()} == {near.trace_id}

    def test_stitch_leaves_unknown_parents_alone(self):
        orphan = Span("far", 0.0)
        orphan.trace_id, orphan.span_id = "0a", "01"
        orphan.parent_span_id = "unknown"
        orphan.end_s = 1.0
        assert stitch([orphan]) == [orphan]


class TestModuleSurfaces:
    def test_bind_is_identity_when_off(self):
        def fn():
            return 42

        assert obs.bind(fn) is fn

    def test_bind_carries_the_span_into_workers(self):
        clock = VirtualTimeClock()
        with obs.recording(clock=clock):
            with obs.span("pipeline.remote_execution") as parent:

                def work(i):
                    with obs.span("executor.query", i=i):
                        clock.advance(0.01)
                    return i

                with ThreadPoolExecutor(max_workers=2) as tp:
                    list(tp.map(obs.bind(work), range(4)))
            root = obs.get_tracer().roots[0]
        assert len(root.find_all("executor.query")) == 4
        assert {c.trace_id for c in root.children} == {parent.trace_id}

    def test_current_trace_context_is_none_when_off(self):
        assert obs.current_trace_context() is None
        assert obs.current_span() is None

    def test_null_span_link_and_identity_surfaces(self):
        with obs.span("anything") as sp:  # tracing off: the null span
            assert sp.trace_id == ""
            assert sp.context is None
            assert sp.add_link("coalesce.leader", TraceContext("a", "b")) is sp
            assert sp.links is None

    def test_enable_with_sink_diverts_roots(self):
        seen = []
        obs.enable(VirtualTimeClock(), sink=seen.append)
        try:
            with obs.span("vizserver.request"):
                pass
            assert [s.name for s in seen] == ["vizserver.request"]
            assert obs.get_tracer().roots == []  # not double-kept
        finally:
            obs.disable()
