"""Unit tests for the retry/backoff policy and the circuit breaker."""

from __future__ import annotations

import pytest

from repro.errors import (
    CircuitOpenError,
    ConnectionDiedError,
    SourceError,
    SourceTimeoutError,
    TransientSourceError,
)
from repro.clock import VirtualTimeClock
from repro.faults import (
    CLOSED,
    HALF_OPEN,
    NO_RETRY,
    OPEN,
    CircuitBreaker,
    RetryPolicy,
    call_with_retry,
)


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0
        )
        assert policy.delay_for(1) == pytest.approx(0.1)
        assert policy.delay_for(2) == pytest.approx(0.2)
        assert policy.delay_for(3) == pytest.approx(0.4)
        assert policy.delay_for(4) == pytest.approx(0.5)  # capped
        assert policy.delay_for(9) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.2, seed=9)
        first = [policy.delay_for(i, "warehouse:abc") for i in (1, 2, 3)]
        second = [policy.delay_for(i, "warehouse:abc") for i in (1, 2, 3)]
        assert first == second
        for i, delay in enumerate(first, start=1):
            raw = min(0.1 * 2.0 ** (i - 1), policy.max_delay_s)
            assert raw * 0.8 <= delay <= raw * 1.2
        assert first != [policy.delay_for(i, "other-key") for i in (1, 2, 3)]


class TestCallWithRetry:
    def test_recovers_after_transient_failures(self):
        clock = VirtualTimeClock()
        calls = [0]

        def flaky():
            calls[0] += 1
            if calls[0] < 3:
                raise ConnectionDiedError("boom")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.1, jitter=0.0)
        assert call_with_retry(flaky, policy=policy, clock=clock) == "ok"
        assert calls[0] == 3
        # Two backoffs slept on the virtual clock: 0.1 + 0.2.
        assert clock.monotonic() == pytest.approx(0.3)

    def test_gives_up_after_max_attempts(self):
        clock = VirtualTimeClock()
        calls = [0]

        def always_fails():
            calls[0] += 1
            raise SourceTimeoutError("slow")

        with pytest.raises(SourceTimeoutError):
            call_with_retry(
                always_fails,
                policy=RetryPolicy(max_attempts=3, jitter=0.0),
                clock=clock,
            )
        assert calls[0] == 3

    def test_permanent_errors_are_not_retried(self):
        calls = [0]

        def permanent():
            calls[0] += 1
            raise SourceError("bad credentials")

        with pytest.raises(SourceError):
            call_with_retry(
                permanent, policy=RetryPolicy(max_attempts=5), clock=VirtualTimeClock()
            )
        assert calls[0] == 1

    def test_breaker_rejections_are_not_retried(self):
        """CircuitOpenError is deliberately permanent: retrying a rejection
        would defeat the breaker's purpose."""
        assert not issubclass(CircuitOpenError, TransientSourceError)
        calls = [0]

        def rejected():
            calls[0] += 1
            raise CircuitOpenError("open")

        with pytest.raises(CircuitOpenError):
            call_with_retry(
                rejected, policy=RetryPolicy(max_attempts=5), clock=VirtualTimeClock()
            )
        assert calls[0] == 1

    def test_no_retry_policy_is_single_attempt(self):
        assert NO_RETRY.max_attempts == 1


class TestCircuitBreaker:
    def _breaker(self, clock, **kwargs):
        defaults = dict(failure_threshold=3, recovery_s=10.0, name="test")
        defaults.update(kwargs)
        return CircuitBreaker(clock=clock, **defaults)

    def test_trips_after_consecutive_failures(self):
        breaker = self._breaker(VirtualTimeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = self._breaker(VirtualTimeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_open_rejects_with_retry_after(self):
        clock = VirtualTimeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        with pytest.raises(CircuitOpenError) as exc_info:
            breaker.admit()
        assert exc_info.value.retry_after_s == pytest.approx(10.0)
        clock.advance(4.0)
        with pytest.raises(CircuitOpenError) as exc_info:
            breaker.admit()
        assert exc_info.value.retry_after_s == pytest.approx(6.0)
        assert breaker.rejections == 2

    def test_half_open_probe_success_closes(self):
        clock = VirtualTimeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        breaker.admit()  # the probe slot
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = VirtualTimeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.admit()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 2
        # The recovery window restarted at the re-trip.
        clock.advance(9.9)
        with pytest.raises(CircuitOpenError):
            breaker.admit()

    def test_half_open_extra_probes_rejected(self):
        clock = VirtualTimeClock()
        breaker = self._breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.admit()
        with pytest.raises(CircuitOpenError):
            breaker.admit()

    def test_snapshot(self):
        breaker = self._breaker(VirtualTimeClock())
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED
        assert snap["failures"] == 1
        assert snap["name"] == "test"

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
