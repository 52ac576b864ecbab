"""The resilient invocation path shared by every enactment strategy.

``ResilientInvoker.invoke`` wraps one ``Service.invoke`` round trip
with the full policy stack: circuit-breaker admission, bounded retries
with exponential backoff + full jitter, and a wall-clock deadline that
spans all attempts.  Service-backed processors route their calls
through ``Processor.invoke_service`` to the invoker of the run that
fires them, so every enactment path exercises exactly this code path —
resilience behaviour cannot diverge between them.  The invoker carries
its :class:`ResilienceConfig`, so it is the whole policy: the
execution core also reads the config's ``on_failure`` rules from it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.observability import get_registry
from repro.resilience.breaker import CircuitBreakerRegistry, CircuitOpenError
from repro.resilience.config import ResilienceConfig
from repro.resilience.policy import DeadlineExceeded, RetryPolicy
from repro.services.interface import Service


def _endpoint_counter(name: str, help: str, endpoint: str):
    """One per-endpoint resilience counter child from the registry."""
    return get_registry().counter(
        name, help, labels=("endpoint",)
    ).labels(endpoint=endpoint)


@dataclass(frozen=True)
class InvokerStatsSnapshot:
    """One immutable reading of an invoker's counters."""

    invocations: int
    successes: int
    failures: int
    retries: int
    exhausted: int
    deadline_exceeded: int
    breaker_rejections: int

    @property
    def first_try_successes(self) -> int:
        """Invocations that never needed a retry."""
        return max(0, self.successes - self.retries)


class InvokerStats:
    """Thread-safe accumulator behind :class:`InvokerStatsSnapshot`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.invocations = 0
        self.successes = 0
        self.failures = 0
        self.retries = 0
        self.exhausted = 0
        self.deadline_exceeded = 0
        self.breaker_rejections = 0

    def count(self, counter: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def snapshot(self) -> InvokerStatsSnapshot:
        with self._lock:
            return InvokerStatsSnapshot(
                invocations=self.invocations,
                successes=self.successes,
                failures=self.failures,
                retries=self.retries,
                exhausted=self.exhausted,
                deadline_exceeded=self.deadline_exceeded,
                breaker_rejections=self.breaker_rejections,
            )


class ResilientInvoker:
    """Retries, deadlines, and circuit breaking around service calls.

    One invoker is meant to be shared by every concurrent enactment of
    a deployment (its breaker registry *is* the endpoint health state);
    all methods are thread-safe.  Passing the framework's service
    registry publishes the breaker health through
    ``ServiceRegistry.health()``.  ``clock``/``sleep`` are injectable
    for tests.
    """

    def __init__(
        self,
        config: Optional[ResilienceConfig] = None,
        services: Optional[Any] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = (config or ResilienceConfig()).validated()
        self.policy = RetryPolicy(
            max_attempts=self.config.max_attempts,
            backoff_base=self.config.backoff_base,
            backoff_cap=self.config.backoff_cap,
            seed=self.config.jitter_seed,
        )
        self.breakers = CircuitBreakerRegistry(
            threshold=self.config.breaker_threshold,
            reset_after=self.config.breaker_reset_after,
            probes=self.config.breaker_probes,
            clock=clock,
        )
        self.stats = InvokerStats()
        self._clock = clock
        self._sleep = sleep
        if services is not None:
            services.health_registry = self.breakers

    def invoke(
        self,
        service: Service,
        dataset: Any,
        amap: Any,
        context: Optional[Mapping[str, Any]] = None,
    ) -> Any:
        """One service call under the full resilience policy.

        Raises :class:`CircuitOpenError` without attempting the call
        when the endpoint's breaker is open, the last ``ServiceFault``
        when retries are exhausted, and :class:`DeadlineExceeded` when
        the remaining budget cannot cover the next backoff.
        """
        endpoint = service.endpoint or service.name
        breaker = self.breakers.breaker(endpoint)
        deadline = (
            None
            if self.config.deadline is None
            else self._clock() + self.config.deadline
        )
        self.stats.count("invocations")
        started = time.perf_counter()
        failures = 0
        try:
            while True:
                try:
                    breaker.allow()
                except CircuitOpenError:
                    self.stats.count("breaker_rejections")
                    _endpoint_counter(
                        "repro_resilience_breaker_rejections_total",
                        "Invocations refused because the breaker was open.",
                        endpoint,
                    ).inc()
                    self._count_outcome(endpoint, "breaker_open")
                    raise
                try:
                    result = service.invoke(dataset, amap, context=context)
                except Exception as error:
                    breaker.record_failure()
                    if not self.policy.retryable(error):
                        self._count_outcome(endpoint, "error")
                        raise
                    self.stats.count("failures")
                    failures += 1
                    if failures >= self.policy.max_attempts:
                        self.stats.count("exhausted")
                        _endpoint_counter(
                            "repro_resilience_exhausted_total",
                            "Invocations that failed every allowed attempt.",
                            endpoint,
                        ).inc()
                        self._count_outcome(endpoint, "exhausted")
                        raise
                    delay = self.policy.backoff(failures)
                    if deadline is not None and self._clock() + delay > deadline:
                        self.stats.count("deadline_exceeded")
                        _endpoint_counter(
                            "repro_resilience_deadline_exceeded_total",
                            "Invocations abandoned because the deadline "
                            "could not cover the next backoff.",
                            endpoint,
                        ).inc()
                        self._count_outcome(endpoint, "deadline")
                        raise DeadlineExceeded(
                            service.name,
                            f"deadline of {self.config.deadline}s exhausted "
                            f"after {failures} failed attempt(s)",
                            endpoint=service.endpoint,
                            cause=error,
                        ) from error
                    self.stats.count("retries")
                    _endpoint_counter(
                        "repro_resilience_retries_total",
                        "Per-invocation retries after a retryable fault.",
                        endpoint,
                    ).inc()
                    if delay > 0:
                        _endpoint_counter(
                            "repro_resilience_backoff_seconds_total",
                            "Seconds spent sleeping in retry backoff.",
                            endpoint,
                        ).inc(delay)
                        self._sleep(delay)
                else:
                    breaker.record_success()
                    self.stats.count("successes")
                    self._count_outcome(endpoint, "success")
                    return result
        finally:
            get_registry().histogram(
                "repro_resilience_invocation_seconds",
                "Wall-clock seconds of one invocation, all attempts and "
                "backoffs included.",
                labels=("endpoint",),
            ).labels(endpoint=endpoint).observe(time.perf_counter() - started)

    def _count_outcome(self, endpoint: str, outcome: str) -> None:
        get_registry().counter(
            "repro_resilience_invocations_total",
            "Finished invocations by endpoint and outcome.",
            labels=("endpoint", "outcome"),
        ).labels(endpoint=endpoint, outcome=outcome).inc()

    def snapshot(self) -> InvokerStatsSnapshot:
        """A point-in-time reading of the invocation counters."""
        return self.stats.snapshot()

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"<ResilientInvoker {snap.invocations} invocations, "
            f"{snap.retries} retries, {len(self.breakers)} breakers>"
        )
