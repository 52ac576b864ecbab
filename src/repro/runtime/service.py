"""The execution service: a job queue drained by a worker pool.

This is the throughput layer over the per-call facade: callers submit
quality-view executions (or raw workflow enactments) as *jobs* and get
back :class:`~repro.runtime.jobs.JobHandle` futures.  A bounded queue
provides admission control with a configurable full-queue policy
(block until a slot frees, or reject immediately); ``submit_many``
pushes N datasets through one compiled view, sharing one compilation
and one annotation-repository session; ``shutdown`` drains gracefully.

Concurrency contract: all jobs of one service share the framework's
annotation repositories.  Writes are serialized by the RDF store's
index lock (see ``repro.rdf.graph``), and annotator evidence is keyed
per data item, so jobs over distinct items compose; per-execution
cache *clearing* however is batch-scoped — the service clears
transient repositories at submission time (``clear_cache=True``),
never while other jobs are in flight mid-batch.
"""

from __future__ import annotations

import queue
import threading
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from repro.observability import (
    current_span,
    get_event_log,
    get_registry,
    start_span,
    use_span,
)
from repro.rdf import URIRef
from repro.resilience import ResilientInvoker
from repro.runtime.config import POLICY_REJECT, RuntimeConfig
from repro.runtime.jobs import Job, JobBatch, JobHandle
from repro.runtime.metrics import RuntimeStats, RuntimeStatsSnapshot
from repro.runtime.parallel import ParallelEnactor
from repro.workflow.enactor import Enactor
from repro.workflow.model import Workflow

if TYPE_CHECKING:
    from repro.core.framework import QuratorFramework
    from repro.core.quality_view import QualityView

#: Queue sentinel telling one worker to exit.
_STOP = object()


class QueueFullError(RuntimeError):
    """Admission refused: the job queue is at capacity.

    Carries the refusal machine-readably so callers (the serving
    layer's 429 path, CLI batch) can surface backpressure without
    parsing the message: ``reason`` is ``"queue_full"`` (reject policy)
    or ``"queue_timeout"`` (block policy that timed out), and
    ``queue_depth``/``capacity`` describe the queue at refusal time.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "queue_full",
        queue_depth: int = 0,
        capacity: int = 0,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.queue_depth = queue_depth
        self.capacity = capacity

    def details(self) -> Dict[str, Any]:
        """The refusal as one JSON-ready dict."""
        return {
            "reason": self.reason,
            "queue_depth": self.queue_depth,
            "capacity": self.capacity,
        }


class RuntimeClosedError(RuntimeError):
    """The service no longer accepts submissions."""


class ExecutionService:
    """Concurrent quality-view execution over one framework instance.

    Usually obtained via :meth:`QuratorFramework.runtime`; usable as a
    context manager (drains and shuts down on exit).
    """

    def __init__(
        self,
        framework: "QuratorFramework",
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.framework = framework
        self.config = (config or RuntimeConfig()).validated()
        self.stats = RuntimeStats(self.config.name)
        get_registry().gauge(
            "repro_runtime_worker_pool_size",
            "Configured worker threads of the execution service.",
            labels=("runtime",),
        ).labels(runtime=self.config.name).set(self.config.workers)
        #: Jobs that failed permanently (their ``job_retries`` budget —
        #: possibly zero — exhausted); inspect after a batch to triage.
        self.dead_letters: List[JobHandle] = []
        self.invoker: Optional[ResilientInvoker] = None
        if self.config.resilience is not None:
            # One shared invoker: all jobs see the same circuit breakers
            # and the same resilience counters.
            self.invoker = ResilientInvoker(
                self.config.resilience, services=framework.services
            )
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.config.queue_size)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._outstanding = 0
        self._closed = False
        self._job_counter = 0
        if self.config.parallel_enactment:
            self._enactor: Enactor = ParallelEnactor(
                max_workers=self.config.enactment_workers,
                invoker=self.invoker,
            )
        else:
            self._enactor = Enactor(self.invoker)
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

    # -- submission --------------------------------------------------------

    def submit(
        self,
        view: "QualityView",
        items: Sequence[URIRef],
        *,
        clear_cache: bool = False,
        name: str = "",
        timeout: Optional[float] = None,
    ) -> JobHandle:
        """Queue one quality-view execution; returns its handle.

        The view is compiled eagerly (compilation errors surface at
        submission, not on the worker).  ``clear_cache=True`` resets
        transient repositories *now*, at admission — only safe when no
        other job is mid-flight against the same framework.
        """
        view.compile()
        if clear_cache:
            self.framework.repositories.clear_transient()
        dataset = list(items)
        handle = self._new_handle(name or f"qv-{view.name}")

        def thunk():
            result = view.run(dataset, enactor=self._enactor, clear_cache=False)
            result.metrics = handle.metrics
            return result, self._enactor.last_trace

        self._enqueue(Job(handle, thunk, submitter_span=current_span()), timeout)
        return handle

    def submit_many(
        self,
        view: "QualityView",
        datasets: Sequence[Sequence[URIRef]],
        *,
        clear_cache: bool = True,
        name: str = "",
        timeout: Optional[float] = None,
    ) -> JobBatch:
        """Push N datasets through one view as one batch of jobs.

        The compilation and the annotation-repository session are
        shared: the view compiles once, transient repositories clear
        once (before any job starts), and every job enacts the same
        compiled workflow over its own dataset.
        """
        view.compile()
        if clear_cache:
            self.framework.repositories.clear_transient()
        prefix = name or f"qv-{view.name}"
        handles = [
            self.submit(
                view,
                dataset,
                clear_cache=False,
                name=f"{prefix}[{index}]",
                timeout=timeout,
            )
            for index, dataset in enumerate(datasets)
        ]
        return JobBatch(handles)

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

        def thunk():
            enacted = self._enactor.enact(workflow, inputs)
            return enacted.outputs, enacted.trace

        self._enqueue(Job(handle, thunk, submitter_span=current_span()), timeout)
        return handle

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until no job is queued or running; False on timeout."""
        with self._idle:
            return self._idle.wait_for(
                lambda: self._outstanding == 0, timeout
            )

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop the service.

        ``drain=True`` completes every accepted job first; otherwise
        queued jobs are cancelled (running ones still finish).  Either
        way no new submissions are accepted afterwards.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            self.drain(timeout)
        else:
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(job, Job):
                    job.handle.cancel()
                    self._job_done()
                self._queue.task_done()
        for _ in self._workers:
            self._queue.put(_STOP)
        for worker in self._workers:
            worker.join(timeout)

    def __enter__(self) -> "ExecutionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=exc_info[0] is None)

    @property
    def closed(self) -> bool:
        """Whether the service still accepts submissions."""
        with self._lock:
            return self._closed

    @property
    def outstanding(self) -> int:
        """Jobs accepted and not yet finished (queued + running)."""
        with self._lock:
            return self._outstanding

    def queue_depth(self) -> int:
        """Jobs sitting in the queue right now (approximate under load).

        Exposed for external admission control (the serving layer's
        ``/healthz`` and 429 bodies); prefer :meth:`snapshot` for a
        consistent multi-counter reading.
        """
        return self._queue.qsize()

    def snapshot(self) -> RuntimeStatsSnapshot:
        """A point-in-time reading of the runtime's counters."""
        with self._lock:
            outstanding = self._outstanding
        return self.stats.snapshot(
            invoker=self.invoker, outstanding=outstanding
        )

    # -- internals ---------------------------------------------------------

    def _new_handle(self, name: str) -> JobHandle:
        with self._lock:
            self._job_counter += 1
            job_id = self._job_counter
        handle = JobHandle(job_id, name=f"{name}#{job_id}")
        handle._on_cancel = self.stats.on_cancel
        return handle

    def _enqueue(self, job: Job, timeout: Optional[float]) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeClosedError(
                    f"runtime {self.config.name!r} is shut down"
                )
            self._outstanding += 1
        try:
            if self.config.queue_policy == POLICY_REJECT:
                try:
                    self._queue.put_nowait(job)
                except queue.Full:
                    raise QueueFullError(
                        f"job queue is full ({self.config.queue_size}); "
                        f"retry later or use queue_policy='block'",
                        reason="queue_full",
                        queue_depth=self._queue.qsize(),
                        capacity=self.config.queue_size,
                    ) from None
            else:
                try:
                    self._queue.put(job, timeout=timeout)
                except queue.Full:
                    raise QueueFullError(
                        f"job queue stayed full for {timeout}s",
                        reason="queue_timeout",
                        queue_depth=self._queue.qsize(),
                        capacity=self.config.queue_size,
                    ) from None
        except QueueFullError:
            self._job_done()
            self.stats.on_reject()
            raise
        self.stats.on_submit()

    def _job_done(self) -> None:
        with self._idle:
            self._outstanding -= 1
            if self._outstanding == 0:
                self._idle.notify_all()

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            try:
                self._run_job(item)
            finally:
                self._job_done()
                self._queue.task_done()

    def _run_job(self, job: Job) -> None:
        handle = job.handle
        if not handle._try_start():
            return  # cancelled while queued
        self.stats.on_start()
        # Whole-job retries run inline on this worker (never re-enqueued,
        # so a bounded queue cannot deadlock on its own retries).
        attempts = 1 + self.config.job_retries
        failed = False
        # The job span is `always=True`: it must exist even with tracing
        # off, because every annotation-store read below attributes onto
        # it (exact per-job cache counts — no cross-talk between
        # overlapping jobs, unlike the old repository-wide window
        # deltas).  Re-activating the submitter's span first parents the
        # job under the trace that queued it.
        with use_span(job.submitter_span):
            with start_span(
                f"job:{handle.name}",
                always=True,
                boundary=True,
                job=handle.name,
                runtime=self.config.name,
            ) as span:
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
                        failed = True
                        handle._fail(exc)
                    except BaseException as exc:  # noqa: BLE001 - never retried
                        failed = True
                        handle.metrics.record_trace(self._enactor.last_trace)
                        handle._fail(exc)
                    else:
                        handle.metrics.record_trace(trace)
                        handle._finish(value)
                    break
                if failed:
                    span.end(status="error")
        if failed:
            with self._lock:
                self.dead_letters.append(handle)
            self.stats.on_dead_letter()
        handle.metrics.cache_lookups = int(span.counter("cache.lookups"))
        handle.metrics.cache_hits = int(span.counter("cache.hits"))
        self.stats.on_finish(handle.metrics, failed=failed)
        get_event_log().emit(
            "job.finished",
            job=handle.name,
            runtime=self.config.name,
            outcome="failed" if failed else "completed",
            retries=handle.metrics.retries,
            cache_lookups=handle.metrics.cache_lookups,
            cache_hits=handle.metrics.cache_hits,
        )
