"""Multi-process sharded execution: the process-pool backend.

The thread :class:`~repro.runtime.service.ExecutionService` scales I/O
concurrency but leaves CPU-heavy annotation scoring and assertion
checking serialized on the GIL.  This backend runs the *shardable*
prefix of each compiled quality view — annotate -> enrich ->
item-local QA -> filter (see :func:`repro.qv.backend.stage_chain`) —
on a pool of forked worker processes, each owning a hash partition of
the data items and therefore of the annotation repositories (the memo
table): no cross-process locking, ever.  Collection-scoped stages
(classifier QAs, consolidation, actions) run in the parent over the
merged frontier.

Data flow, per job::

    submit()                      parent
      |  partition items by blake2b(data_id) % shards
      |  chunk each partition (config.chunk_size)
      v
    worker[shard] inbox  --wire-->  annotate -> enrich -> assert
      (mp.Queue, bytes)             (stage threads, streaming chunks)
      |                                          |
      |   <--wire-- part/stat/error messages  <--+
      v
    parent collector[shard]: merge frontier values in dataset order,
    run residual stages, package the QualityViewResult.

Chunks stream: a worker ships each chunk's frontier back as soon as it
clears the last shardable stage, while later chunks are still being
annotated — there is no per-wavefront barrier anywhere on the shardable
path.  Worker and residual stages fire through the execution core
(:func:`repro.workflow.enactor.fire_in_order`).  Every inter-process
payload crosses as a deterministic ``serving/wire.py`` message; the
serial enactor remains the byte-equal differential oracle
(``tests/test_runtime_process.py``).

Crash isolation: queues are per *worker generation*.  A worker that
dies abruptly (``os._exit``, OOM kill, segfault) can take a queue's
internal semaphore down with it, so its inbox/outbox pair is abandoned
wholesale and the respawned worker gets fresh queues plus a fresh
parent-side collector thread — a wedged queue can never spread beyond
the generation that wedged it.  In-flight jobs touching the lost shard
are retried (within ``job_retries``) or dead-lettered with a
machine-readable :class:`WorkerLostError`, and the loss is emitted as a
structured ``runtime.worker_lost`` event.

Everything a caller sees — admission under block/reject, handles,
stats, ``drain``/``shutdown``, dead-lettering and the ``job.finished``
event — is the shared :class:`~repro.runtime.frontend.RuntimeFrontEnd`;
this module supplies only the run step: the dispatcher, the collectors,
the watchdog, the residual ``_assemble``, the ordered cache-clear
marker and the worker stop.  A job runs under the runtime's invoker,
else its view's: the parent fires residual stages under it, and the
view's :class:`~repro.resilience.ResilienceConfig` travels with the
``view`` message so workers build the same policy.
``submit_workflow`` is not supported (raw workflows carry no stage
plan); services must be registered on the framework *before* the
runtime is built (workers inherit the framework at fork time); and
``clear_cache`` broadcasts an ordered barrier so every worker resets
its transient repositories between batches, never mid-chunk.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import queue
import threading
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.annotation.map import AnnotationMap
from repro.observability import current_span, get_registry
from repro.observability.forwarding import (
    publish_chunk_record,
    publish_worker_event,
    set_worker_gauge,
)
from repro.rdf import URIRef
from repro.runtime.config import RuntimeConfig
from repro.runtime.frontend import STOP, RuntimeFrontEnd
from repro.runtime.jobs import JobHandle
from repro.runtime.shard import ShardSpec, chunked, partition
from repro.serving import wire
from repro.workflow.enactor import (
    EnactmentError,
    EnactmentTrace,
    collect_workflow_outputs,
    enactment_telemetry,
    fire_in_order,
)

if TYPE_CHECKING:
    from repro.core.framework import QuratorFramework
    from repro.core.quality_view import QualityView

#: Enactment-strategy label of the parent's residual stages.
KIND_PROCESS = "process"

#: Parent-queue marker: workers reset their transient repositories
#: after every chunk queued before it.
_CLEAR = object()

#: Watchdog poll interval, seconds.
_WATCH_INTERVAL = 0.2

#: Collector poll interval, seconds (bounds generation turnover).
_POLL_INTERVAL = 0.25

#: Worker respawns per shard before the shard is declared dead.
_MAX_RESTARTS = 5


class WorkerLostError(RuntimeError):
    """A worker process died with chunks of this job outstanding.

    Machine-readable like :class:`QueueFullError`: ``details()`` names
    the shard, pid, and exit code so dead-letter triage and the CLI's
    stderr summary need no message parsing.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int,
        pid: Optional[int] = None,
        exitcode: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.pid = pid
        self.exitcode = exitcode

    def details(self) -> Dict[str, Any]:
        """The loss as one JSON-ready dict."""
        return {
            "reason": "worker_lost",
            "shard": self.shard,
            "pid": self.pid,
            "exitcode": self.exitcode,
        }


def _empty_stage_value(port: str) -> Any:
    """The merged value of a boundary port no chunk reported on.

    Happens only for empty datasets (no chunks at all): annotation-map
    ports merge to an empty map, data-set ports to an empty list —
    exactly what the serial enactor produces over zero items.
    """
    if port.startswith("annotationMap"):
        return AnnotationMap()
    return []


def _resilience_document(config) -> Dict[str, Any]:
    """A :class:`~repro.resilience.ResilienceConfig` as a wire-safe dict;
    ``ResilienceConfig(**document)`` rebuilds it on a worker."""
    document = {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(config)
    }
    document["on_failure_overrides"] = dict(config.on_failure_overrides)
    return document


class _PendingJob:
    """Parent-side state of one dispatched job (one attempt at a time)."""

    def __init__(
        self,
        handle: JobHandle,
        view: "QualityView",
        workflow,
        items: List[URIRef],
        shardable: Tuple[str, ...],
        attempts_left: int,
        submitter_span: Any,
        policy: Any,
        resilience: Optional[Dict[str, Any]],
    ) -> None:
        self.handle = handle
        self.view = view
        self.workflow = workflow
        self.items = items
        self.shardable = shardable
        self.attempts_left = attempts_left
        self.submitter_span = submitter_span
        #: The job's invoker, fired by the parent's residual stages.
        self.policy = policy
        #: The view's policy for the workers, when the runtime has none.
        self.resilience = resilience
        #: Names the view message on the workers; a view policy is part
        #: of it, so a later ``with_resilience`` ships a fresh message.
        self.fingerprint: str = workflow.source_fingerprint or workflow.name
        if resilience is not None:
            digest = hashlib.blake2b(wire.dumps(resilience), digest_size=8)
            self.fingerprint += "+" + digest.hexdigest()
        self.attempt = 0
        self.expected = 0
        self.received = 0
        self.shards_used: Set[int] = set()
        self.cache_lookups = 0
        self.cache_hits = 0
        #: Worker-side processors whose firing degraded on some chunk.
        self.degraded: Set[str] = set()
        #: (proc, port) -> {item -> the chunk map that owns it}.
        self.maps: Dict[Tuple[str, str], Dict[URIRef, AnnotationMap]] = {}
        #: (proc, port) -> surviving-item set (dataSet-kind frontiers).
        self.sets: Dict[Tuple[str, str], Set[URIRef]] = {}

    def reset_attempt(self) -> None:
        """Drop one attempt's partial state before a re-dispatch."""
        self.expected = 0
        self.received = 0
        self.shards_used.clear()
        self.cache_lookups = 0
        self.cache_hits = 0
        self.degraded.clear()
        self.maps.clear()
        self.sets.clear()

    def absorb_part(self, document: Mapping[str, Any]) -> None:
        """Fold one worker part message into the accumulators."""
        for proc, port, value_doc in document["frontier"]:
            value = wire.decode_stage_value(value_doc)
            key = (proc, port)
            if isinstance(value, AnnotationMap):
                holders = self.maps.setdefault(key, {})
                for item in value.items():
                    holders[item] = value
            elif isinstance(value, list):
                self.sets.setdefault(key, set()).update(value)
        self.cache_lookups += int(document.get("cache_lookups", 0))
        self.cache_hits += int(document.get("cache_hits", 0))
        self.degraded.update(document.get("degraded", ()))
        self.received += 1

    def merged_value(self, key: Tuple[str, str]) -> Any:
        """One boundary port's chunks merged back in dataset order."""
        if key in self.maps:
            holders = self.maps[key]
            merged = AnnotationMap()
            for item in self.items:
                chunk_map = holders.get(item)
                if chunk_map is None:
                    continue
                merged.add_item(item)
                for etype, value in chunk_map.evidence_for(item).items():
                    merged.set_evidence(item, etype, value)
                for name, tag in chunk_map.tags_for(item).items():
                    merged.set_tag(
                        item, name, tag.value,
                        syn_type=tag.syn_type, sem_type=tag.sem_type,
                    )
            return merged
        if key in self.sets:
            surviving = self.sets[key]
            return [item for item in self.items if item in surviving]
        return _empty_stage_value(key[1])


class ProcessExecutionService(RuntimeFrontEnd):
    """Concurrent quality-view execution on a sharded process pool.

    Same caller-facing front end as the thread
    :class:`~repro.runtime.service.ExecutionService` — obtained via
    ``framework.runtime(backend="process", shards=N)``, usable as a
    context manager, draining on exit.
    """

    def __init__(
        self,
        framework: "QuratorFramework",
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        super().__init__(framework, config)
        self.shards = self.slots
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "the process execution backend requires the 'fork' start "
                "method (workers inherit the framework); this platform "
                "does not provide it — use backend='thread'"
            ) from None
        #: (job_id, attempt) -> _PendingJob, for part/error routing.
        self._pending: Dict[Tuple[int, int], _PendingJob] = {}
        #: Per shard: view fingerprints already shipped to that worker.
        self._shard_views: List[Set[str]] = [set() for _ in range(self.shards)]
        self._shard_dead: List[bool] = [False] * self.shards
        self._restarts = [0] * self.shards
        #: Queue generation per shard; bumped on respawn so stale
        #: collector threads retire and stale queues are abandoned.
        self._generation = [0] * self.shards
        self._inboxes: List[Any] = [None] * self.shards
        self._workers: List[Any] = [None] * self.shards
        #: Set once the shutdown path has reaped every worker process;
        #: collectors use it as their drain-complete exit signal.
        self._reaped = threading.Event()
        for shard in range(self.shards):
            self._spawn(shard)
        set_worker_gauge(self.config.name, self.shards)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"{self.config.name}-dispatch", daemon=True,
        )
        self._watchdog_stop = threading.Event()
        self._watchdog = threading.Thread(
            target=self._watch_loop,
            name=f"{self.config.name}-watchdog", daemon=True,
        )
        self._dispatcher.start()
        self._watchdog.start()

    def _slot_count(self) -> int:
        return self.config.effective_shards()

    def submit_workflow(self, workflow, inputs=None, **kwargs):
        """Unsupported here: raw workflows carry no shardable stage plan."""
        raise NotImplementedError(
            "the process backend runs quality-view jobs only; submit raw "
            "workflow enactments through backend='thread'"
        )

    # -- the run step ------------------------------------------------------

    def _view_job(
        self,
        handle: JobHandle,
        view: "QualityView",
        workflow,
        items: List[URIRef],
        policy,
    ) -> _PendingJob:
        from repro.qv.backend import shardable_processors

        # Workers build the runtime's own policy from the config they
        # inherited; only a view's policy has to travel.
        resilience = None
        if self.invoker is None and policy is not None:
            resilience = _resilience_document(policy.config)
        return _PendingJob(
            handle,
            view,
            workflow,
            items,
            shardable_processors(workflow),
            attempts_left=self.config.job_retries,
            submitter_span=current_span(),
            policy=policy,
            resilience=resilience,
        )

    def _clear_cache(self) -> None:
        """Clear the parent's repositories and queue an ordered marker,
        so workers clear theirs after every previously queued job's
        chunks and before the next one's."""
        super()._clear_cache()
        self._queue.put(_CLEAR)

    def _stop(self, timeout: Optional[float]) -> None:
        self._queue.put(STOP)
        self._watchdog_stop.set()
        for shard in range(self.shards):
            if not self._shard_dead[shard]:
                self._send(shard, {"kind": "stop"})
        deadline = time.monotonic() + self.config.worker_timeout
        for worker in self._workers:
            if worker is None:
                continue
            worker.join(max(0.0, deadline - time.monotonic()))
            if worker.is_alive():
                worker.terminate()
                worker.join(1.0)
        self._reaped.set()
        self._dispatcher.join(self.config.worker_timeout)
        self._watchdog.join(self.config.worker_timeout)
        set_worker_gauge(self.config.name, 0)

    # -- worker pool -------------------------------------------------------

    def _spawn(self, shard: int) -> None:
        """Start a worker for a shard on a fresh queue generation."""
        spec = ShardSpec(index=shard, count=self.shards)
        inbox = self._ctx.Queue()
        outbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(spec, self.config, self.framework, inbox, outbox),
            name=f"{self.config.name}-shard-{shard}",
            daemon=True,
        )
        process.start()
        with self._lock:
            generation = self._generation[shard]
            self._inboxes[shard] = inbox
            self._workers[shard] = process
        collector = threading.Thread(
            target=self._collect_loop,
            args=(shard, generation, outbox),
            name=f"{self.config.name}-collect-{shard}-g{generation}",
            daemon=True,
        )
        collector.start()

    def _send(self, shard: int, document: Mapping[str, Any]) -> None:
        with self._lock:
            inbox = self._inboxes[shard]
        try:
            inbox.put(wire.encode_message(document))
        except (ValueError, OSError):
            # The shard's queue generation was retired mid-send; the
            # watchdog retries or dead-letters everything it carried.
            return
        self._count_message(str(document["kind"]), "sent")

    def _count_message(self, kind: str, direction: str) -> None:
        get_registry().counter(
            "repro_runtime_proc_messages_total",
            "Inter-process messages by kind and direction.",
            labels=("message", "direction"),
        ).labels(message=kind, direction=direction).inc()

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            job = self._take()
            if job is STOP:
                return
            if job is _CLEAR:
                for shard in range(self.shards):
                    if not self._shard_dead[shard]:
                        self._send(shard, {"kind": "clear"})
                continue
            try:
                self._dispatch(job)
            except Exception as exc:  # noqa: BLE001 - dispatch fault boundary
                self._handle_job_failure(job, exc)

    def _dispatch(self, job: _PendingJob) -> None:
        """Ship one attempt's chunks; finalize directly when empty.

        Chunk documents are fully built (attempt stamped) before the
        pending registration, so a concurrent worker-loss retry can
        never relabel in-flight messages of a superseded attempt.
        """
        job.attempt += 1
        job.reset_attempt()
        messages: List[Tuple[int, Dict[str, Any]]] = []
        if job.shardable:
            seq = 0
            for shard, shard_items in enumerate(
                partition(job.items, self.shards)
            ):
                if not shard_items:
                    continue
                job.shards_used.add(shard)
                for chunk in chunked(shard_items, self.config.chunk_size):
                    messages.append((shard, {
                        "kind": "chunk",
                        "job": job.handle.job_id,
                        "attempt": job.attempt,
                        "seq": seq,
                        "fingerprint": job.fingerprint,
                        "items": [str(item) for item in chunk],
                    }))
                    seq += 1
        job.expected = len(messages)
        views_needed: List[int] = []
        with self._lock:
            for shard in sorted(job.shards_used):
                if self._shard_dead[shard]:
                    raise WorkerLostError(
                        f"shard {shard} exceeded its restart budget",
                        shard=shard,
                    )
            if messages:
                self._pending[(job.handle.job_id, job.attempt)] = job
            for shard in sorted(job.shards_used):
                if job.fingerprint not in self._shard_views[shard]:
                    self._shard_views[shard].add(job.fingerprint)
                    views_needed.append(shard)
        if not messages:
            self._finalize(job)
            return
        for shard in views_needed:
            self._send(shard, {
                "kind": "view",
                "fingerprint": job.fingerprint,
                "xml": job.view.to_xml(),
                "processors": sorted(job.workflow.processors),
                "shardable": list(job.shardable),
                "resilience": job.resilience,
            })
        for shard, document in messages:
            self._send(shard, document)

    # -- collection --------------------------------------------------------

    def _collect_loop(self, shard: int, generation: int, outbox) -> None:
        """Drain one worker generation's outbox until it is retired."""
        while True:
            try:
                payload = outbox.get(timeout=_POLL_INTERVAL)
            except queue.Empty:
                with self._lock:
                    stale = self._generation[shard] != generation
                if stale or self._reaped.is_set():
                    return
                continue
            except (EOFError, OSError):  # pragma: no cover - queue torn down
                return
            try:
                document = wire.decode_message(payload)
            except wire.WireError:
                continue
            kind = document["kind"]
            self._count_message(kind, "received")
            if kind == "stop":
                return
            if kind == "stat":
                publish_chunk_record(document)
                continue
            if kind == "ready":
                continue
            if kind == "part":
                self._on_part(document)
            elif kind == "error":
                self._on_error(document)

    def _on_part(self, document: Mapping[str, Any]) -> None:
        key = (int(document["job"]), int(document["attempt"]))
        with self._lock:
            job = self._pending.get(key)
            if job is None:
                return
            job.absorb_part(document)
            complete = job.received >= job.expected
            if complete:
                self._pending.pop(key, None)
        if complete:
            self._finalize(job)

    def _on_error(self, document: Mapping[str, Any]) -> None:
        error_doc = document.get("error") or {}
        message = (
            f"{error_doc.get('type', 'Error')}: "
            f"{error_doc.get('message', 'worker stage failed')}"
        )
        if document.get("scope") == "view":
            # A view failed to compile on a worker: fail every pending
            # job that references the fingerprint, and forget it so a
            # retry re-ships the view message.
            fingerprint = document.get("fingerprint")
            with self._lock:
                jobs = [
                    (key, job) for key, job in self._pending.items()
                    if job.fingerprint == fingerprint
                ]
                for key, _ in jobs:
                    self._pending.pop(key, None)
                for views in self._shard_views:
                    views.discard(fingerprint)
            for _, job in jobs:
                self._handle_job_failure(job, RuntimeError(message))
            return
        key = (int(document["job"]), int(document["attempt"]))
        with self._lock:
            job = self._pending.pop(key, None)
            if job is not None and document.get("code") == "unknown_view":
                # The view message got lost with a dead queue; make the
                # retry re-ship it to this shard.
                self._shard_views[int(document["shard"])].discard(
                    job.fingerprint
                )
        if job is None:
            return
        processor = document.get("processor")
        if processor:
            message = f"processor {processor!r} failed on a worker: {message}"
        self._handle_job_failure(job, RuntimeError(message))

    def _handle_job_failure(self, job: _PendingJob, error: Exception) -> None:
        """Retry the whole job if budget remains, else dead-letter it."""
        if job.attempts_left > 0:
            job.attempts_left -= 1
            job.handle.metrics.retries += 1
            self.stats.on_job_retry()
            try:
                self._dispatch(job)
                return
            except Exception as exc:  # noqa: BLE001 - retry dispatch failed
                error = exc if isinstance(exc, WorkerLostError) else error
        self._settle(job.handle, error=error)

    def _finalize(self, job: _PendingJob) -> None:
        """Merge frontiers, run the residual stages, finish the handle."""
        handle = job.handle
        error: Optional[Exception] = None
        with self._job_span(job) as span:
            try:
                result, trace = self._assemble(job)
            except Exception as exc:  # noqa: BLE001 - residual boundary
                error = exc
                span.end(status="error")
        if error is not None:
            self._handle_job_failure(job, error)
            return
        handle.metrics.record_trace(trace)
        # A worker-side processor fires once per chunk; like the thread
        # backend's single firing, it counts once per job if any chunk
        # firing degraded.
        handle.metrics.degraded_firings += len(job.degraded)
        handle.metrics.cache_lookups = job.cache_lookups + int(
            span.counter("cache.lookups")
        )
        handle.metrics.cache_hits = job.cache_hits + int(
            span.counter("cache.hits")
        )
        result.metrics = handle.metrics
        self._settle(handle, result)

    def _assemble(self, job: _PendingJob):
        """The parent's residual enactment over the merged frontier."""
        workflow = job.workflow
        region = set(job.shardable)
        values: Dict[Tuple[str, str], Any] = {
            ("", "dataSet"): list(job.items)
        }
        for link in workflow.boundary_links(region):
            key = (link.source.processor, link.source.port)
            if key not in values:
                values[key] = job.merged_value(key)
        trace = EnactmentTrace(workflow.name)
        with enactment_telemetry(workflow.name, KIND_PROCESS):
            fire_in_order(
                workflow,
                [n for n in workflow.topological_order() if n not in region],
                values,
                trace,
                job.policy,
            )
        outputs = collect_workflow_outputs(workflow, values)
        result = job.view._package(list(job.items), workflow, outputs)
        return result, trace

    # -- watchdog ----------------------------------------------------------

    def _watch_loop(self) -> None:
        while not self._watchdog_stop.wait(_WATCH_INTERVAL):
            for shard in range(self.shards):
                worker = self._workers[shard]
                if worker is None or worker.is_alive():
                    continue
                if self._shard_dead[shard]:
                    continue
                with self._lock:
                    if self._closed:
                        return
                self._on_worker_lost(shard, worker)

    def _on_worker_lost(self, shard: int, worker) -> None:
        """Retire the shard's queues, respawn, retry its in-flight jobs."""
        error = WorkerLostError(
            f"worker process of shard {shard} died "
            f"(pid {worker.pid}, exit code {worker.exitcode})",
            shard=shard,
            pid=worker.pid,
            exitcode=worker.exitcode,
        )
        publish_worker_event(
            "runtime.worker_lost",
            runtime=self.config.name,
            shard=shard,
            pid=worker.pid,
            exitcode=worker.exitcode,
        )
        get_registry().counter(
            "repro_runtime_proc_worker_restarts_total",
            "Worker processes respawned after an unexpected death.",
            labels=("runtime",),
        ).labels(runtime=self.config.name).inc()
        with self._lock:
            lost = [
                (key, job) for key, job in self._pending.items()
                if shard in job.shards_used
            ]
            for key, _ in lost:
                self._pending.pop(key, None)
            # Retire the generation: the stale collector exits on its
            # next poll, and the (possibly wedged) queues are abandoned.
            self._generation[shard] += 1
            self._shard_views[shard] = set()
            old_inbox = self._inboxes[shard]
            self._restarts[shard] += 1
            exhausted = self._restarts[shard] > _MAX_RESTARTS
            self._shard_dead[shard] = exhausted
        if not exhausted:
            self._spawn(shard)
        if old_inbox is not None:
            # Retired only after the replacement is installed, so
            # concurrent sends never see a closed queue; closing stops
            # the feeder from blocking interpreter exit on messages the
            # dead worker will never read.
            old_inbox.close()
            old_inbox.cancel_join_thread()
        set_worker_gauge(
            self.config.name,
            sum(
                1 for index, process in enumerate(self._workers)
                if process is not None
                and process.is_alive()
                and not self._shard_dead[index]
            ),
        )
        for _, job in lost:
            self._handle_job_failure(job, error)


# -- worker process ----------------------------------------------------------


class _WorkerView:
    """One compiled view on a worker: workflow, stage plan, frontier,
    and the invoker its stages fire under."""

    def __init__(self, workflow, shardable: Sequence[str], invoker) -> None:
        from repro.qv.backend import STAGE_ORDER, stage_chain

        self.workflow = workflow
        self.invoker = invoker
        self.region = set(shardable)
        chain = stage_chain(workflow)
        self.stages = {stage: chain.get(stage, ()) for stage in STAGE_ORDER}
        seen: Set[Tuple[str, str]] = set()
        self.frontier: List[Tuple[str, str]] = []
        for link in workflow.boundary_links(self.region):
            key = (link.source.processor, link.source.port)
            if key not in seen:
                seen.add(key)
                self.frontier.append(key)


class _Chunk:
    """One chunk's state flowing through the worker stage chain."""

    __slots__ = ("job", "attempt", "seq", "view", "values", "stage_seconds",
                 "cache_lookups", "cache_hits", "degraded")

    def __init__(self, job: int, attempt: int, seq: int, view: _WorkerView,
                 items: List[URIRef]) -> None:
        self.job = job
        self.attempt = attempt
        self.seq = seq
        self.view = view
        self.values: Dict[Tuple[str, str], Any] = {("", "dataSet"): items}
        self.stage_seconds: Dict[str, float] = {}
        self.cache_lookups = 0
        self.cache_hits = 0
        #: Processors whose firing over this chunk degraded.
        self.degraded: List[str] = []


def _worker_main(spec, config, framework, inbox, outbox) -> None:
    """One shard worker: a streaming annotate -> enrich -> assert chain.

    Runs in a forked child.  The framework copy is private to this
    process; its annotation repositories hold exactly this shard's
    partition of the memo table (enforced by the repository manager's
    shard guard), so no lock is ever contended across processes.
    """
    from repro.observability import disable
    from repro.qv.backend import STAGE_ORDER

    # The forked registry/event-log would update counters nobody can
    # read (and could inherit a lock mid-acquisition from a parent
    # thread); telemetry leaves this process as wire records instead.
    disable()
    framework.repositories.configure_shard(spec)
    from repro.resilience import ResilienceConfig, ResilientInvoker

    runtime_invoker = None
    if config.resilience is not None:
        runtime_invoker = ResilientInvoker(
            config.resilience, services=framework.services
        )

    views: Dict[str, _WorkerView] = {}
    stage_queues = {stage: queue.Queue() for stage in STAGE_ORDER}
    first_stage = stage_queues[STAGE_ORDER[0]]

    def emit(document: Mapping[str, Any]) -> None:
        outbox.put(wire.encode_message(document))

    def emit_error(job, attempt, seq, failure: BaseException,
                   processor: str = "", **extra: Any) -> None:
        """Report one chunk's failure to the parent."""
        emit({
            "kind": "error",
            "shard": spec.index,
            "job": job,
            "attempt": attempt,
            "seq": seq,
            "processor": processor,
            "error": {"type": type(failure).__name__, "message": str(failure)},
            **extra,
        })

    def run_stage(stage: str, chunk: _Chunk) -> bool:
        """Fire one stage's processors over one chunk; False on error."""
        workflow = chunk.view.workflow
        started = time.perf_counter()
        before_lookups, before_hits = framework.repositories.lookup_stats()
        trace = EnactmentTrace(workflow.name)
        failure: Optional[Exception] = None
        try:
            fire_in_order(
                workflow, chunk.view.stages[stage], chunk.values, trace,
                chunk.view.invoker,
            )
        except Exception as exc:  # noqa: BLE001 - chunk fault boundary
            failure = exc
        for event in trace.degraded():
            chunk.degraded.append(event.processor)
            emit({
                "kind": "stat",
                "shard": spec.index,
                "job": chunk.job,
                "seq": chunk.seq,
                "items": 0,
                "status": "degraded",
                "stage_seconds": {},
                "cache_lookups": 0,
                "cache_hits": 0,
            })
        if failure is not None:
            processor = ""
            if isinstance(failure, EnactmentError):
                processor, failure = failure.processor, failure.cause
            emit_error(chunk.job, chunk.attempt, chunk.seq, failure, processor)
            return False
        after_lookups, after_hits = framework.repositories.lookup_stats()
        chunk.cache_lookups += after_lookups - before_lookups
        chunk.cache_hits += after_hits - before_hits
        chunk.stage_seconds[stage] = time.perf_counter() - started
        return True

    def ship(chunk: _Chunk) -> None:
        """Encode and send one finished chunk's frontier values."""
        try:
            frontier = [
                [proc, port,
                 wire.encode_stage_value(chunk.values.get((proc, port)))]
                for proc, port in chunk.view.frontier
            ]
        except wire.WireError as exc:
            emit_error(chunk.job, chunk.attempt, chunk.seq, exc)
            return
        emit({
            "kind": "part",
            "shard": spec.index,
            "job": chunk.job,
            "attempt": chunk.attempt,
            "seq": chunk.seq,
            "frontier": frontier,
            "cache_lookups": chunk.cache_lookups,
            "cache_hits": chunk.cache_hits,
            "degraded": chunk.degraded,
        })
        emit({
            "kind": "stat",
            "shard": spec.index,
            "job": chunk.job,
            "seq": chunk.seq,
            "items": len(chunk.values[("", "dataSet")]),
            "status": "completed",
            "stage_seconds": dict(chunk.stage_seconds),
            "cache_lookups": chunk.cache_lookups,
            "cache_hits": chunk.cache_hits,
        })

    def stage_worker(stage: str, downstream: Optional["queue.Queue"]) -> None:
        own = stage_queues[stage]
        while True:
            kind, payload = own.get()
            if kind in ("token", "stop"):
                if downstream is not None:
                    downstream.put((kind, payload))
                elif kind == "token":
                    payload.set()
                if kind == "stop":
                    return
                continue
            chunk: _Chunk = payload
            if not run_stage(stage, chunk):
                continue  # error already reported; drop the chunk
            if downstream is not None:
                downstream.put((kind, chunk))
            else:
                ship(chunk)

    threads = []
    for index, stage in enumerate(STAGE_ORDER):
        downstream = (
            stage_queues[STAGE_ORDER[index + 1]]
            if index + 1 < len(STAGE_ORDER) else None
        )
        thread = threading.Thread(
            target=stage_worker, args=(stage, downstream),
            name=f"shard{spec.index}-{stage}", daemon=True,
        )
        thread.start()
        threads.append(thread)

    def barrier() -> None:
        """Wait for every queued chunk to clear the whole chain."""
        done = threading.Event()
        first_stage.put(("token", done))
        done.wait()

    emit({"kind": "ready", "shard": spec.index})
    while True:
        try:
            document = wire.decode_message(inbox.get())
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        except wire.WireError:
            continue
        kind = document["kind"]
        if kind == "stop":
            barrier()
            first_stage.put(("stop", None))
            for thread in threads:
                thread.join(config.worker_timeout)
            return
        if kind == "clear":
            barrier()
            framework.repositories.clear_transient()
            continue
        if kind == "view":
            fingerprint = document["fingerprint"]
            if fingerprint in views:
                continue
            try:
                view = framework.quality_view(document["xml"])
                workflow = view.compile()
                if sorted(workflow.processors) != document["processors"]:
                    raise RuntimeError(
                        f"worker compile of view {fingerprint!r} emitted "
                        f"{sorted(workflow.processors)}, parent expected "
                        f"{document['processors']}; non-default compile "
                        f"options are not supported on the process backend"
                    )
                invoker = runtime_invoker
                if document.get("resilience") is not None:
                    invoker = ResilientInvoker(
                        ResilienceConfig(**document["resilience"]),
                        services=framework.services,
                    )
                views[fingerprint] = _WorkerView(
                    workflow, document["shardable"], invoker
                )
            except Exception as exc:  # noqa: BLE001 - compile boundary
                emit({
                    "kind": "error",
                    "scope": "view",
                    "shard": spec.index,
                    "fingerprint": fingerprint,
                    "error": {
                        "type": type(exc).__name__, "message": str(exc)
                    },
                })
            continue
        if kind == "chunk":
            view = views.get(document["fingerprint"])
            if view is None:
                emit_error(
                    document["job"], document["attempt"], document["seq"],
                    RuntimeError(
                        f"chunk references unknown view "
                        f"{document['fingerprint']!r}"
                    ),
                    code="unknown_view",
                )
                continue
            items = [URIRef(item) for item in document["items"]]
            first_stage.put((
                "chunk",
                _Chunk(
                    int(document["job"]),
                    int(document["attempt"]),
                    int(document["seq"]),
                    view,
                    items,
                ),
            ))
