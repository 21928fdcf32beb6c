"""Tracer: span nesting, contextvar propagation, virtual clock, no-op path."""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.clock import VirtualTimeClock
from repro.obs import NULL_TRACER, Tracer


class TestSpanNesting:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("root", kind="test") as root:
            with tracer.span("child1"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child2"):
                pass
        assert [r.name for r in tracer.roots] == ["root"]
        assert [c.name for c in root.children] == ["child1", "child2"]
        assert root.children[0].children[0].name == "grandchild"
        assert root.attributes == {"kind": "test"}
        assert [s.name for s in root.walk()] == ["root", "child1", "grandchild", "child2"]

    def test_siblings_after_exit_attach_to_parent_not_sibling(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            assert tracer.current() is root
        assert tracer.current() is None
        assert len(root.children) == 1

    def test_find_and_durations(self):
        clock = VirtualTimeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.25)
        outer = tracer.roots[0]
        assert outer.duration_s == 1.25
        assert outer.find("inner").duration_s == 0.25
        assert outer.find("nope") is None
        assert len(outer.find_all("inner")) == 1

    def test_exception_closes_span_and_records_error(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        span = tracer.roots[0]
        assert span.end_s is not None
        assert "error" in span.attributes
        assert tracer.current() is None

    def test_to_dict_shape(self):
        tracer = Tracer(clock=VirtualTimeClock())
        with tracer.span("a", n=1):
            with tracer.span("b"):
                pass
        d = tracer.roots[0].to_dict()
        assert d["name"] == "a"
        assert d["attributes"] == {"n": 1}
        assert d["children"][0]["name"] == "b"


class TestThreadPropagation:
    def test_attach_joins_worker_threads_to_the_trace(self):
        tracer = Tracer()
        with tracer.span("submit") as parent:
            captured = tracer.current()

            def work(i):
                # Without attach, contextvars don't cross thread pools.
                assert tracer.current() is None
                with tracer.attach(captured):
                    with tracer.span(f"task{i}"):
                        pass
                assert tracer.current() is None

            with ThreadPoolExecutor(max_workers=4) as tp:
                list(tp.map(work, range(8)))
        assert len(parent.children) == 8
        assert {c.name for c in parent.children} == {f"task{i}" for i in range(8)}
        assert len(tracer.roots) == 1

    def test_threads_have_isolated_current_span(self):
        tracer = Tracer()
        seen = []

        def work():
            seen.append(tracer.current())
            with tracer.span("in-thread"):
                seen.append(tracer.current().name)

        with tracer.span("main"):
            t = threading.Thread(target=work)
            t.start()
            t.join()
        # The raw thread saw no inherited span and opened its own root.
        assert seen == [None, "in-thread"]
        assert {r.name for r in tracer.roots} == {"main", "in-thread"}


class TestDisabledPath:
    def test_null_tracer_is_free_and_shared(self):
        ctx1 = NULL_TRACER.span("anything", big=list(range(3)))
        ctx2 = NULL_TRACER.span("other")
        assert ctx1 is ctx2  # shared singleton: no allocation per span
        with ctx1 as span:
            assert span.set(x=1) is span
            assert span.find("x") is None
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.roots == ()

    def test_module_helpers_default_to_noop(self):
        assert not obs.enabled()
        with obs.span("free") as span:
            span.set(a=1)
        assert obs.current_span() is None

    def test_recording_restores_previous_state(self):
        assert not obs.enabled()
        with obs.recording() as rec:
            assert obs.enabled()
            with obs.span("x"):
                pass
        assert not obs.enabled()
        assert [s.name for s in rec.spans] == ["x"]
