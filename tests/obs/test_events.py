"""The decision-event log: ring buffer, queries, wiring, null path."""

from repro import obs
from repro.clock import VirtualTimeClock
from repro.obs import NULL_EVENTS, DecisionEvent, EventLog


class TestEventLog:
    def test_emit_and_order(self):
        log = EventLog()
        log.emit("cache.literal", "miss", "cold")
        log.emit("cache.subsumption", "accepted", "exact match", spec="q1")
        events = log.events()
        assert [e.kind for e in events] == ["cache.literal", "cache.subsumption"]
        assert [e.seq for e in events] == [0, 1]
        assert events[1].attributes == {"spec": "q1"}

    def test_ring_is_bounded(self):
        log = EventLog(maxlen=3)
        for i in range(5):
            log.emit("k", "o", f"r{i}")
        events = log.events()
        assert len(events) == 3
        assert [e.reason for e in events] == ["r2", "r3", "r4"]
        assert log.dropped == 2
        # Sequence numbers keep counting across rotation.
        assert [e.seq for e in events] == [2, 3, 4]

    def test_kind_prefix_query(self):
        log = EventLog()
        log.emit("cache.literal", "hit", "x")
        log.emit("cache.subsumption", "rejected", "y")
        log.emit("cachemonger", "hit", "decoy: prefix must respect dots")
        log.emit("fusion", "fused", "z")
        assert len(log.events("cache")) == 2
        assert len(log.events("cache.literal")) == 1
        assert len(log.events("cache", outcome="rejected")) == 1
        assert len(log.events(outcome="hit")) == 2
        assert len(log.events("fusion")) == 1

    def test_kinds_summary(self):
        log = EventLog()
        log.emit("b", "o", "r")
        log.emit("a", "o", "r")
        log.emit("b", "o", "r")
        assert log.kinds() == {"a": 1, "b": 2}

    def test_str_and_to_dict(self):
        log = EventLog(clock=VirtualTimeClock(1.5))
        log.emit("pool", "opened", "no idle connection", source="db", n=2)
        ev = log.events()[0]
        assert isinstance(ev, DecisionEvent)
        assert str(ev) == "[pool] opened: no idle connection  source=db n=2"
        assert ev.to_dict() == {
            "seq": 0,
            "t_s": 1.5,
            "kind": "pool",
            "outcome": "opened",
            "reason": "no idle connection",
            "attributes": {"source": "db", "n": 2},
        }


class TestCursorDrain:
    """Incremental consumption: events(since_seq=...) -> (new, cursor)."""

    def test_drain_returns_only_new_events_and_next_cursor(self):
        log = EventLog()
        log.emit("a", "o", "r0")
        cursor = log.cursor()
        log.emit("b", "o", "r1")
        log.emit("c", "o", "r2")
        fresh, next_cursor = log.events(since_seq=cursor)
        assert [e.kind for e in fresh] == ["b", "c"]
        assert next_cursor == 3
        again, final = log.events(since_seq=next_cursor)
        assert again == [] and final == next_cursor

    def test_drain_composes_with_kind_filters(self):
        log = EventLog()
        log.emit("cache.literal", "hit", "old")
        cursor = log.cursor()
        log.emit("cache.literal", "miss", "new")
        log.emit("fusion", "fused", "new")
        fresh, _next = log.events("cache", since_seq=cursor)
        assert [e.reason for e in fresh] == ["new"]

    def test_cursor_survives_ring_rotation(self):
        """Events that rotated out are simply gone; the drain never
        double-counts or fails on a stale cursor."""
        log = EventLog(maxlen=3)
        log.emit("a", "o", "r")
        cursor = log.cursor()  # 1
        for i in range(5):
            log.emit("b", "o", f"r{i}")
        fresh, next_cursor = log.events(since_seq=cursor)
        assert [e.reason for e in fresh] == ["r2", "r3", "r4"]
        assert next_cursor == 6

    def test_null_log_drain_is_empty(self):
        assert NULL_EVENTS.cursor() == 0
        assert NULL_EVENTS.events(since_seq=0) == ([], 0)


class TestNullPath:
    def test_null_log_discards(self):
        NULL_EVENTS.emit("k", "o", "r")
        assert NULL_EVENTS.events() == []
        assert not NULL_EVENTS.enabled

    def test_module_helper_is_noop_when_disabled(self):
        assert not obs.events_enabled()
        obs.event("cache.literal", "hit", "should vanish")
        assert obs.get_events().events() == []

    def test_disable_is_symmetric(self):
        obs.enable()
        assert obs.events_enabled()
        obs.event("k", "o", "r")
        assert len(obs.get_events().events()) == 1
        obs.disable()
        assert not obs.events_enabled()
        assert obs.get_events() is NULL_EVENTS


class TestRecordingIntegration:
    def test_recording_captures_and_renders_events(self):
        with obs.recording() as rec:
            with obs.span("work"):
                obs.event("fusion", "fused", "2 queries merged", members=2)
        events = rec.events("fusion")
        assert len(events) == 1
        assert events[0].reason == "2 queries merged"
        rendered = rec.render()
        assert "-- decision events --" in rendered
        assert "[fusion] fused: 2 queries merged" in rendered

    def test_to_dict_includes_events_and_counts(self):
        with obs.recording() as rec:
            obs.event("cache.literal", "miss", "cold")
            obs.event("cache.literal", "hit", "warm")
        data = rec.to_dict()
        assert data["schema_version"] == obs.SCHEMA_VERSION
        assert data["event_counts"] == {"cache.literal": 2}
        assert [e["outcome"] for e in data["events"]] == ["miss", "hit"]
