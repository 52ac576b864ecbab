"""Configuration of the concurrent execution runtime."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.resilience.config import ResilienceConfig

#: Admission-control policies for a full job queue.
POLICY_BLOCK = "block"
POLICY_REJECT = "reject"

#: Execution backends an :class:`RuntimeConfig` can select.
BACKEND_THREAD = "thread"
BACKEND_PROCESS = "process"

#: Environment override of the default backend, mirroring
#: ``REPRO_STORAGE_BACKEND``: ``REPRO_RUNTIME_BACKEND=process`` makes
#: every default-constructed runtime multi-process, which is how the CI
#: tier re-runs the runtime/stream test files against the process pool.
BACKEND_ENV = "REPRO_RUNTIME_BACKEND"


def default_backend() -> str:
    """The backend selected by the environment (``thread`` if unset)."""
    return os.environ.get(BACKEND_ENV, BACKEND_THREAD)


def default_workers() -> int:
    """A sensible worker-pool width for this machine."""
    return min(8, os.cpu_count() or 4)


@dataclass(frozen=True)
class RuntimeConfig:
    """Tunables of one runtime (either backend).

    ``workers``
        Threads draining the job queue (each runs whole enactments).
    ``queue_size``
        Jobs admitted beyond the backend's slots (worker threads or
        shard processes): a submit is admitted while fewer than
        ``queue_size + slots`` jobs are outstanding; ``0`` means
        unbounded (no backpressure).
    ``queue_policy``
        What a submit against a full queue does: ``"block"`` waits for
        a job to finish, ``"reject"`` raises ``QueueFullError``
        immediately.
    ``parallel_enactment``
        When true, each job is enacted by a wavefront
        :class:`~repro.runtime.parallel.ParallelEnactor` (independent
        processors of the compiled DAG fire concurrently); when false
        jobs use the serial enactor and concurrency comes only from the
        worker pool.
    ``enactment_workers``
        Wavefront width of the per-job parallel enactor.
    ``job_retries``
        Whole-job re-runs after a failed enactment before the job is
        failed and dead-lettered (``0`` = fail on the first error; the
        finer-grained per-invocation retries live in ``resilience``).
    ``resilience``
        Optional :class:`repro.resilience.ResilienceConfig`; when set,
        the service builds one shared
        :class:`~repro.resilience.ResilientInvoker` and fires every
        submitted view/workflow under it (retries with backoff,
        deadlines, per-endpoint circuit breakers, ``on_failure``
        degradation policies).
    ``backend``
        ``"thread"`` (the default) runs jobs on an in-process worker
        pool; ``"process"`` runs the shardable stages of each job on a
        pool of forked worker processes
        (:class:`repro.runtime.process.ProcessExecutionService`), with
        consolidation and other collection-scoped stages in the parent.
        The default honours the ``REPRO_RUNTIME_BACKEND`` environment
        variable.
    ``shards``
        Worker processes of the process backend, each owning a hash
        partition of the data items and their annotation repositories;
        ``0`` (the default) means "same as ``workers``".
    ``chunk_size``
        Items per streaming chunk on the process backend: the unit of
        hand-off between the worker's annotate/enrich/assert stages
        and of partial results shipped back to the parent.
    ``worker_timeout``
        Seconds the process backend's watchdog waits for a worker to
        exit at shutdown before terminating it (also bounds the join).
    """

    workers: int = 4
    queue_size: int = 64
    queue_policy: str = POLICY_BLOCK
    parallel_enactment: bool = False
    enactment_workers: int = 4
    job_retries: int = 0
    resilience: Optional[ResilienceConfig] = None
    name: str = "runtime"
    backend: str = field(default_factory=default_backend)
    shards: int = 0
    chunk_size: int = 32
    worker_timeout: float = 10.0

    def effective_shards(self) -> int:
        """The worker-process count the process backend actually runs."""
        return self.shards if self.shards > 0 else self.workers

    def validated(self) -> "RuntimeConfig":
        """Range-check every field; returns self for chaining."""
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_size < 0:
            raise ValueError(
                f"queue_size must be >= 0 (0 = unbounded), got {self.queue_size}"
            )
        if self.queue_policy not in (POLICY_BLOCK, POLICY_REJECT):
            raise ValueError(
                f"unknown queue_policy {self.queue_policy!r}; "
                f"valid: {POLICY_BLOCK!r}, {POLICY_REJECT!r}"
            )
        if self.enactment_workers < 1:
            raise ValueError(
                f"enactment_workers must be >= 1, got {self.enactment_workers}"
            )
        if self.job_retries < 0:
            raise ValueError(
                f"job_retries must be >= 0, got {self.job_retries}"
            )
        if self.backend not in (BACKEND_THREAD, BACKEND_PROCESS):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"valid: {BACKEND_THREAD!r}, {BACKEND_PROCESS!r}"
            )
        if self.shards < 0:
            raise ValueError(
                f"shards must be >= 0 (0 = same as workers), "
                f"got {self.shards}"
            )
        if self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.worker_timeout <= 0:
            raise ValueError(
                f"worker_timeout must be > 0, got {self.worker_timeout}"
            )
        if self.resilience is not None:
            self.resilience.validated()
        return self

    def with_overrides(self, **overrides) -> "RuntimeConfig":
        """A copy with the given fields replaced (and re-validated)."""
        return replace(self, **overrides).validated()
