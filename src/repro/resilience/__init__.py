"""Fault-tolerant service invocation for quality views.

The paper's quality views compile into chains of remote WSDL quality
services, and the reproduction originally assumed every invocation
succeeds on the first try — one ``ServiceFault`` aborted the whole
enactment.  This subsystem makes partial failure a first-class,
testable condition:

* :mod:`~repro.resilience.faults` — deterministic (seeded) fault
  injection: :class:`FaultInjector` plans per-service faults, timeouts
  and extra latency; :class:`FlakyService` wraps ad-hoc services;
* :mod:`~repro.resilience.policy` — :class:`RetryPolicy` with
  exponential backoff + full jitter and per-invocation deadlines;
* :mod:`~repro.resilience.breaker` — per-endpoint
  :class:`CircuitBreaker` (closed -> open -> half-open) with health
  counters surfaced via ``ServiceRegistry.health()``;
* :mod:`~repro.resilience.invoker` — :class:`ResilientInvoker`, the
  single invocation code path and, with its config, a run's policy;
* :mod:`~repro.resilience.config` — :class:`ResilienceConfig`,
  including per-processor ``on_failure`` degradation policies
  (``fail`` | ``skip`` | ``default_annotation``).

Wire-up paths (the policy travels with the run, never with the plan):
``QualityView.with_resilience(invoker)`` for stand-alone and
incremental runs; ``RuntimeConfig(resilience=...)`` for a runtime's
jobs and serving delta sessions, taking precedence over the view's
(and adding per-job retries, a dead-letter list, and resilience
counters in its ``RuntimeStats``).
"""

from repro.resilience.breaker import (
    BreakerSnapshot,
    BreakerState,
    CircuitBreaker,
    CircuitBreakerRegistry,
    CircuitOpenError,
)
from repro.resilience.config import (
    ON_FAILURE_DEFAULT,
    ON_FAILURE_FAIL,
    ON_FAILURE_POLICIES,
    ON_FAILURE_SKIP,
    ResilienceConfig,
)
from repro.resilience.faults import (
    FaultCounters,
    FaultInjector,
    FaultPlan,
    FlakyService,
    InjectedFault,
    InjectedTimeout,
)
from repro.resilience.invoker import (
    InvokerStats,
    InvokerStatsSnapshot,
    ResilientInvoker,
)
from repro.resilience.policy import DeadlineExceeded, RetryPolicy

__all__ = [
    "BreakerSnapshot",
    "BreakerState",
    "CircuitBreaker",
    "CircuitBreakerRegistry",
    "CircuitOpenError",
    "DeadlineExceeded",
    "FaultCounters",
    "FaultInjector",
    "FaultPlan",
    "FlakyService",
    "InjectedFault",
    "InjectedTimeout",
    "InvokerStats",
    "InvokerStatsSnapshot",
    "ON_FAILURE_DEFAULT",
    "ON_FAILURE_FAIL",
    "ON_FAILURE_POLICIES",
    "ON_FAILURE_SKIP",
    "ResilienceConfig",
    "ResilientInvoker",
    "RetryPolicy",
]
