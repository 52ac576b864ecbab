"""The runtime front end: everything a caller of either backend sees.

Both execution backends — the thread
:class:`~repro.runtime.service.ExecutionService` and the process
:class:`~repro.runtime.process.ProcessExecutionService` — extend
:class:`RuntimeFrontEnd`.  The front end owns config validation, the
shared resilient invoker, admission control under the block/reject
policies, job handles, :class:`~repro.runtime.metrics.RuntimeStats`,
dead letters, ``submit``/``submit_many``, ``drain``, ``shutdown``,
``snapshot``, and :meth:`RuntimeFrontEnd._settle`, the one place a
started job leaves the runtime.  A backend supplies only its run step:
the queue entry that runs one view job (``_view_job``), the threads
that consume the queue, and how they (and any processes) stop
(``_stop``).

Admission counts jobs, not queue slots: a submit is admitted while
fewer than ``queue_size + slots`` jobs are outstanding (queued or
running), where ``slots`` is the backend's worker threads or shard
processes; ``queue_size == 0`` means unbounded.  Control entries a
backend puts on the queue (the process backend's cache-clear marker)
never count.
"""

from __future__ import annotations

import contextlib
import queue
import threading
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence

from repro.observability import get_event_log, get_registry, start_span, use_span
from repro.rdf import URIRef
from repro.resilience import ResilientInvoker
from repro.runtime.config import POLICY_REJECT, RuntimeConfig
from repro.runtime.jobs import JobBatch, JobHandle
from repro.runtime.metrics import RuntimeStats, RuntimeStatsSnapshot

if TYPE_CHECKING:
    from repro.core.framework import QuratorFramework
    from repro.core.quality_view import QualityView

#: Queue sentinel telling one run-step thread to exit.
STOP = object()


class QueueFullError(RuntimeError):
    """Admission refused: the runtime holds as many jobs as it admits.

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


class RuntimeFrontEnd:
    """Admission, handles, stats and settlement shared by both backends.

    Usable as a context manager (drains and shuts down on exit).
    Queue entries carrying a ``handle`` attribute are jobs; anything
    else is a backend control entry.
    """

    def __init__(
        self,
        framework: "QuratorFramework",
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.framework = framework
        self.config = (config or RuntimeConfig()).validated()
        #: Jobs the run step works on at once; admission allows this
        #: many beyond ``queue_size``.
        self.slots = self._slot_count()
        self.stats = RuntimeStats(self.config.name)
        get_registry().gauge(
            "repro_runtime_worker_pool_size",
            "Configured worker threads of the execution service.",
            labels=("runtime",),
        ).labels(runtime=self.config.name).set(self.slots)
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
        #: Admitted jobs and control entries awaiting the run step.
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._outstanding = 0
        self._closed = False
        self._job_counter = 0

    def _slot_count(self) -> int:
        """Jobs the run step works on at once: its worker threads."""
        return self.config.workers

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

        The view compiles (and the backend plans it) eagerly, so those
        errors surface at submission, not on a worker.  The job runs
        under the runtime's invoker, else the view's own
        (:meth:`QualityView.with_resilience`).  ``clear_cache=True``
        resets transient repositories at admission — only safe when no
        other job is mid-flight against the same framework.
        """
        workflow = view.compile()
        handle = self._new_handle(name or f"qv-{view.name}")
        job = self._view_job(
            handle, view, workflow, list(items), self.invoker or view.invoker
        )
        self._enqueue(job, timeout, clear_cache)
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
            with self._lock:
                self._check_open()
            self._clear_cache()
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

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until no job is queued or running; False on timeout."""
        with self._changed:
            return self._changed.wait_for(
                lambda: self._outstanding == 0, timeout
            )

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop the service.

        ``drain=True`` completes every accepted job first; otherwise
        queued jobs are cancelled (running ones still finish).  Either
        way no new submissions are accepted afterwards, and a submitter
        blocked on a full queue gets :class:`RuntimeClosedError`.
        """
        with self._changed:
            if self._closed:
                return
            self._closed = True
            self._changed.notify_all()
        if drain:
            self.drain(timeout)
        else:
            while True:
                try:
                    entry = self._queue.get_nowait()
                except queue.Empty:
                    break
                handle = getattr(entry, "handle", None)
                if handle is not None:
                    handle.cancel()
                    self._release()
        self._stop(timeout)

    def __enter__(self) -> "RuntimeFrontEnd":
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
        """Admitted jobs beyond what the run step's slots hold.

        Exposed for external admission control (the serving layer's
        ``/healthz`` and 429 bodies); it reads the same on both
        backends.  Prefer :meth:`snapshot` for a consistent
        multi-counter reading.
        """
        with self._lock:
            return self._depth()

    def snapshot(self) -> RuntimeStatsSnapshot:
        """A point-in-time reading of the runtime's counters.

        Resilience counters are the runtime invoker's; on the process
        backend that covers the parent's residual stages only, and
        worker-side invocation retries surface through the
        ``repro_runtime_proc_*`` chunk records instead.
        """
        with self._lock:
            outstanding = self._outstanding
        return self.stats.snapshot(
            invoker=self.invoker, outstanding=outstanding
        )

    # -- admission ---------------------------------------------------------

    def _check_open(self) -> None:
        """Raise :class:`RuntimeClosedError` once shut down (lock held)."""
        if self._closed:
            raise RuntimeClosedError(
                f"runtime {self.config.name!r} is shut down"
            )

    def _depth(self) -> int:
        return max(0, self._outstanding - self.slots)

    def _new_handle(self, name: str) -> JobHandle:
        with self._lock:
            self._job_counter += 1
            job_id = self._job_counter
        handle = JobHandle(job_id, name=f"{name}#{job_id}")
        handle._on_cancel = self.stats.on_cancel
        return handle

    def _enqueue(
        self, job: Any, timeout: Optional[float], clear_cache: bool = False
    ) -> None:
        """Admit one job under the queue policy, then queue it."""
        capacity = self.config.queue_size
        limit = capacity + self.slots
        reject = self.config.queue_policy == POLICY_REJECT
        with self._changed:
            if capacity and not reject:
                self._changed.wait_for(
                    lambda: self._closed or self._outstanding < limit, timeout
                )
            self._check_open()
            full = bool(capacity) and self._outstanding >= limit
            if not full:
                self._outstanding += 1
            depth = self._depth()
        if full:
            self.stats.on_reject()
            if reject:
                message = (
                    f"job queue is full ({capacity}); "
                    f"retry later or use queue_policy='block'"
                )
            else:
                message = f"job queue stayed full for {timeout}s"
            raise QueueFullError(
                message,
                reason="queue_full" if reject else "queue_timeout",
                queue_depth=depth,
                capacity=capacity,
            )
        self.stats.on_submit()
        if clear_cache:
            self._clear_cache()
        self._queue.put(job)

    def _clear_cache(self) -> None:
        """Reset the framework's transient repositories."""
        self.framework.repositories.clear_transient()

    def _release(self) -> None:
        """One admitted job left the runtime: free its admission."""
        with self._changed:
            self._outstanding -= 1
            self._changed.notify_all()

    # -- the run step's side -----------------------------------------------

    def _take(self) -> Any:
        """The run step's next queue entry, skipping cancelled jobs.

        A job comes back started (RUNNING, counted by
        ``stats.on_start``); :data:`STOP` and control entries come back
        as they are.
        """
        while True:
            entry = self._queue.get()
            handle = getattr(entry, "handle", None)
            if handle is None:
                return entry
            if handle._try_start():
                self.stats.on_start()
                return entry
            self._release()  # cancelled while queued

    @contextlib.contextmanager
    def _job_span(self, job: Any) -> Iterator[Any]:
        """The job's span, parented under the span that submitted it.

        The span is ``always=True``: it must exist even with tracing
        off, because every annotation-store read inside it attributes
        onto it (exact per-job cache counts, no cross-talk between
        overlapping jobs).  Re-activating the submitter's span first
        parents the job under the trace that queued it.
        """
        handle = job.handle
        with use_span(job.submitter_span):
            with start_span(
                f"job:{handle.name}",
                always=True,
                boundary=True,
                job=handle.name,
                runtime=self.config.name,
            ) as span:
                yield span

    def _settle(
        self,
        handle: JobHandle,
        value: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Finish a started job, or fail and dead-letter it on ``error``.

        The one place a started job leaves the runtime: the handle's
        terminal state, the dead letter, ``stats.on_finish``, the
        ``job.finished`` event and the admission release.
        """
        failed = error is not None
        if failed:
            handle._fail(error)
            with self._lock:
                self.dead_letters.append(handle)
            self.stats.on_dead_letter()
        else:
            handle._finish(value)
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
        self._release()

    # -- supplied by each backend ------------------------------------------

    def _view_job(
        self, handle: JobHandle, view: "QualityView", workflow: Any,
        items: List[URIRef], policy: Optional[ResilientInvoker],
    ) -> Any:
        """The queue entry that runs one view job under ``policy``."""
        raise NotImplementedError

    def _stop(self, timeout: Optional[float]) -> None:
        """Stop the run step's threads (and processes) after shutdown."""
        raise NotImplementedError
