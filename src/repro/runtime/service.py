"""The execution service: the thread backend of the runtime.

This is the throughput layer over the per-call facade: callers submit
quality-view executions (or raw workflow enactments) as *jobs* and get
back :class:`~repro.runtime.jobs.JobHandle` futures.  Admission,
handles, stats, draining and job settlement are the shared
:class:`~repro.runtime.frontend.RuntimeFrontEnd`; this backend's run
step is a pool of worker threads, each enacting whole jobs with inline
whole-job retries.

Concurrency contract: all jobs of one service share the framework's
annotation repositories.  Writes are serialized by the RDF store's
index lock (see ``repro.rdf.graph``), and annotator evidence is keyed
per data item, so jobs over distinct items compose; per-execution
cache *clearing* however is batch-scoped — the service clears
transient repositories at submission time (``clear_cache=True``),
never while other jobs are in flight mid-batch.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, List, Mapping, Optional

from repro.observability import current_span
from repro.rdf import URIRef
from repro.runtime.config import RuntimeConfig
from repro.runtime.frontend import (  # noqa: F401  (re-exported)
    STOP,
    QueueFullError,
    RuntimeClosedError,
    RuntimeFrontEnd,
)
from repro.runtime.jobs import Job, JobHandle
from repro.runtime.parallel import ParallelEnactor
from repro.workflow.enactor import Enactor
from repro.workflow.model import Workflow

if TYPE_CHECKING:
    from repro.core.framework import QuratorFramework
    from repro.core.quality_view import QualityView


class ExecutionService(RuntimeFrontEnd):
    """Concurrent quality-view execution over one framework instance.

    Usually obtained via :meth:`QuratorFramework.runtime`; usable as a
    context manager (drains and shuts down on exit).
    """

    def __init__(
        self,
        framework: "QuratorFramework",
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        super().__init__(framework, config)
        if self.config.parallel_enactment:
            self._enactor: Enactor = ParallelEnactor(
                max_workers=self.config.enactment_workers
            )
        else:
            self._enactor = Enactor()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"{self.config.name}-worker-{i}",
                daemon=True,
            )
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    def submit_workflow(
        self,
        workflow: Workflow,
        inputs: Optional[Mapping[str, Any]] = None,
        *,
        name: str = "",
        timeout: Optional[float] = None,
    ) -> JobHandle:
        """Queue a raw workflow enactment; the result is its outputs."""
        handle = self._new_handle(name or f"wf-{workflow.name}")
        inputs = dict(inputs or {})
        policy = self.invoker

        def thunk():
            enacted = self._enactor.enact(workflow, inputs, policy)
            return enacted.outputs, enacted.trace

        self._enqueue(Job(handle, thunk, submitter_span=current_span()), timeout)
        return handle

    # -- the run step ------------------------------------------------------

    def _view_job(
        self,
        handle: JobHandle,
        view: "QualityView",
        workflow: Workflow,
        items: List[URIRef],
        policy,
    ) -> Job:
        def thunk():
            enacted = self._enactor.enact(workflow, {"dataSet": items}, policy)
            result = view._package(items, workflow, enacted.outputs)
            result.metrics = handle.metrics
            return result, enacted.trace

        return Job(handle, thunk, submitter_span=current_span())

    def _worker_loop(self) -> None:
        while True:
            job = self._take()
            if job is STOP:
                return
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        handle = job.handle
        # Whole-job retries run inline on this worker (never re-enqueued,
        # so a bounded queue cannot deadlock on its own retries).
        attempts = 1 + self.config.job_retries
        value: Any = None
        error: Optional[BaseException] = None
        with self._job_span(job) as span:
            for attempt in range(1, attempts + 1):
                # Reset the worker thread's trace slot so a failure
                # before this attempt's trace exists cannot fold a
                # previous run's timings in.
                self._enactor.last_trace = None
                try:
                    value, trace = job.thunk()
                except Exception as exc:  # noqa: BLE001 - job fault boundary
                    handle.metrics.record_trace(self._enactor.last_trace)
                    if attempt < attempts:
                        handle.metrics.retries += 1
                        self.stats.on_job_retry()
                        continue
                    error = exc
                except BaseException as exc:  # noqa: BLE001 - never retried
                    handle.metrics.record_trace(self._enactor.last_trace)
                    error = exc
                else:
                    handle.metrics.record_trace(trace)
                break
            if error is not None:
                span.end(status="error")
        handle.metrics.cache_lookups = int(span.counter("cache.lookups"))
        handle.metrics.cache_hits = int(span.counter("cache.hits"))
        self._settle(handle, value, error)

    def _stop(self, timeout: Optional[float]) -> None:
        for _ in self._workers:
            self._queue.put(STOP)
        for worker in self._workers:
            worker.join(timeout)
