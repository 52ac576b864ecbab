"""The concurrent quality-view execution runtime.

The paper enacts one compiled quality view at a time; this subsystem
turns that per-call facade into a throughput-oriented service:

* :class:`~repro.runtime.parallel.ParallelEnactor` — wavefront
  scheduling over the compiled workflow DAG, output-identical to the
  serial enactor;
* :class:`~repro.runtime.frontend.RuntimeFrontEnd` — the one front
  end both backends share: job handles/futures, batched submission,
  admission control (block/reject backpressure, counted in jobs),
  stats, dead letters, graceful draining shutdown, and the single step
  that settles a finished or failed job;
* :class:`~repro.runtime.service.ExecutionService` — the thread
  backend, whose run step is a worker pool enacting whole jobs;
* :mod:`~repro.runtime.metrics` — per-job measurements (queue wait,
  enactment wall time, per-processor timings, annotation-cache hits)
  and aggregate :class:`~repro.runtime.metrics.RuntimeStats`.

Fault tolerance: configure ``RuntimeConfig(resilience=...)`` with a
:class:`repro.resilience.ResilienceConfig` and the service routes every
service invocation through one shared
:class:`~repro.resilience.ResilientInvoker` (retries with backoff,
deadlines, circuit breakers, ``on_failure`` degradation);
``job_retries`` adds whole-job re-runs, with permanently failed jobs
collected on ``ExecutionService.dead_letters``.

CPU-bound workloads can switch to the sharded process pool —
:class:`~repro.runtime.process.ProcessExecutionService`, selected via
``RuntimeConfig(backend="process", shards=N)`` or
``REPRO_RUNTIME_BACKEND=process`` — the same front end over a different
run step: it streams the item-partitionable stages of each view
(annotate/enrich/item-local QA) through forked worker processes, each
owning one hash partition (:mod:`~repro.runtime.shard`) of the data and
of the annotation repositories, with collection-scoped stages back in
the parent.

Obtain a configured engine via ``QuratorFramework.runtime()``.
"""

from repro.runtime.config import (
    BACKEND_PROCESS,
    BACKEND_THREAD,
    RuntimeConfig,
)
from repro.runtime.jobs import (
    JobBatch,
    JobCancelledError,
    JobHandle,
    JobStatus,
)
from repro.runtime.metrics import JobMetrics, RuntimeStats, RuntimeStatsSnapshot
from repro.runtime.parallel import ParallelEnactor
from repro.runtime.process import ProcessExecutionService, WorkerLostError
from repro.runtime.service import (
    ExecutionService,
    QueueFullError,
    RuntimeClosedError,
)
from repro.runtime.shard import ShardSpec, owners, partition, shard_of

__all__ = [
    "BACKEND_PROCESS",
    "BACKEND_THREAD",
    "ExecutionService",
    "JobBatch",
    "JobCancelledError",
    "JobHandle",
    "JobMetrics",
    "JobStatus",
    "ParallelEnactor",
    "ProcessExecutionService",
    "QueueFullError",
    "RuntimeClosedError",
    "RuntimeConfig",
    "RuntimeStats",
    "RuntimeStatsSnapshot",
    "ShardSpec",
    "WorkerLostError",
    "owners",
    "partition",
    "shard_of",
]
