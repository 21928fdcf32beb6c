"""Retry with exponential backoff and deterministic jitter.

Transient connector failures (:class:`~repro.errors.TransientSourceError`)
are retried with capped exponential backoff. Jitter is drawn from a
seeded generator keyed on ``(seed, key, attempt)``, so a replayed failure
schedule waits the exact same virtual milliseconds on every run — the
determinism contract the chaos tests assert — while still de-correlating
real deployments that use distinct seeds per process.

Every attempt, wait and give-up is emitted as a ``retry.*`` decision
event so a recording shows *why* a request was slow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, TypeVar

from .. import obs
from ..clock import SYSTEM_CLOCK, Clock
from ..errors import TransientSourceError

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff parameters (delays are deterministic per key).

    ``max_attempts`` counts the first try: 3 means one try plus two
    retries. ``jitter`` is the ± fraction applied to each delay.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = min(
            self.base_delay_s * self.multiplier ** (attempt - 1), self.max_delay_s
        )
        if self.jitter <= 0:
            return raw
        rng = random.Random(f"{self.seed}|{key}|{attempt}")
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


#: Retry disabled: a single attempt, no waits.
NO_RETRY = RetryPolicy(max_attempts=1)


def call_with_retry(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy,
    clock: Clock = SYSTEM_CLOCK,
    key: str = "",
    retry_on: tuple[type[BaseException], ...] = (TransientSourceError,),
) -> T:
    """Run ``fn`` under ``policy``, sleeping backoff on the given clock.

    Only ``retry_on`` exceptions are retried; anything else (permanent
    source errors, breaker-open rejections, programming errors)
    propagates immediately. The last transient error propagates once
    attempts are exhausted.
    """
    attempt = 0
    prior_ctx = None
    while True:
        attempt += 1
        try:
            if attempt == 1 or not obs.enabled():
                # The first try is the hot path: no extra span, no link.
                result = fn()
            else:
                if prior_ctx is None:
                    # The chain starts at the context attempt 1 failed in.
                    prior_ctx = obs.current_trace_context()
                with obs.span("retry.attempt", attempt=attempt, key=key) as attempt_span:
                    attempt_span.add_link("retry.prior_attempt", prior_ctx)
                    prior_ctx = attempt_span.context
                    result = fn()
        except retry_on as exc:
            if attempt >= policy.max_attempts:
                if obs.events_enabled():
                    obs.event(
                        "retry.gave_up",
                        "error",
                        f"attempt {attempt}/{policy.max_attempts} failed with "
                        f"{type(exc).__name__}: {exc}; no attempts left",
                        key=key,
                        attempts=attempt,
                    )
                raise
            delay = policy.delay_for(attempt, key)
            if obs.events_enabled():
                obs.event(
                    "retry.attempt",
                    "retrying",
                    f"attempt {attempt}/{policy.max_attempts} failed with "
                    f"{type(exc).__name__}: {exc}; backing off "
                    f"{delay * 1000.0:.1f}ms",
                    key=key,
                    attempt=attempt,
                    delay_s=round(delay, 6),
                )
            obs.counter("retry.attempts").inc()
            obs.histogram("retry.backoff_s").observe(delay)
            clock.sleep(delay)
            continue
        if attempt > 1:
            obs.counter("retry.recoveries").inc()
            if obs.events_enabled():
                obs.event(
                    "retry.succeeded",
                    "recovered",
                    f"succeeded on attempt {attempt}/{policy.max_attempts} "
                    "after transient failures",
                    key=key,
                    attempts=attempt,
                )
        return result
