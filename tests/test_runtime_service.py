"""The execution service: queueing, backpressure, metrics, stress.

Raw-workflow jobs (``submit_workflow``) exist on the thread backend
only, so those tests pin ``backend="thread"``; the view-job admission
contract in :class:`TestViewAdmission` runs on both backends.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.ispider import example_quality_view_xml, setup_framework
from repro.qv.compiler import ActionProcessor
from repro.rdf import Graph, Q, RDF, URIRef
from repro.runtime import (
    JobCancelledError,
    JobStatus,
    QueueFullError,
    RuntimeClosedError,
    RuntimeConfig,
)
from repro.workflow.enactor import Enactor
from repro.workflow.model import Port, Workflow
from repro.workflow.processors import PythonProcessor


@pytest.fixture(scope="module")
def qv_world(scenario, result_set):
    framework, holder = setup_framework(scenario)
    holder.set(result_set)
    view = framework.quality_view(example_quality_view_xml())
    view.compile()
    return framework, view, result_set


def _blocking_workflow(gate: threading.Event, started: threading.Event) -> Workflow:
    """A one-processor workflow that parks on ``gate`` when fired."""
    workflow = Workflow("blocker")
    workflow.add_input("x")
    workflow.add_output("y")

    def hold(x):
        started.set()
        assert gate.wait(10), "test gate never opened"
        return x

    workflow.add_processor(
        PythonProcessor(
            "hold", hold, input_ports={"x": 0}, output_ports={"out": 0}
        )
    )
    workflow.connect("", "x", "hold", "x")
    workflow.link(Port("hold", "out"), Port("", "y"))
    return workflow


class TestSubmission:
    def test_submit_matches_direct_run(self, qv_world):
        framework, view, results = qv_world
        items = results.items()
        framework.repositories.clear_transient()
        direct = view.run(items, enactor=Enactor(), clear_cache=False)
        with framework.runtime(workers=2) as service:
            handle = service.submit(view, items, clear_cache=True)
            outcome = handle.result(timeout=30)
        assert outcome.groups == direct.groups
        assert outcome.annotation_map == direct.annotation_map
        assert handle.status is JobStatus.SUCCEEDED

    def test_submit_many_shares_compilation(self, qv_world):
        framework, view, results = qv_world
        items = results.items()
        compiled_before = view.compile()
        with framework.runtime(workers=4) as service:
            batch = service.submit_many(
                view, [items[: len(items) // 2], items[len(items) // 2:]]
            )
            outcomes = batch.results(timeout=30)
        assert view.compile() is compiled_before
        assert len(outcomes) == 2
        # the two half-datasets partition the full item set
        assert sum(len(o.items) for o in outcomes) == len(items)

    def test_job_failure_surfaces_on_handle(self, qv_world):
        framework, _, __ = qv_world
        workflow = Workflow("fails")
        workflow.add_input("x")
        workflow.add_output("y")

        def boom(x):
            raise ValueError("job deliberately failed")

        workflow.add_processor(
            PythonProcessor(
                "bad", boom, input_ports={"x": 0}, output_ports={"out": 0}
            )
        )
        workflow.connect("", "x", "bad", "x")
        workflow.link(Port("bad", "out"), Port("", "y"))
        with framework.runtime(workers=1, backend="thread") as service:
            handle = service.submit_workflow(workflow, {"x": 1})
            assert handle.wait(10)
            assert handle.status is JobStatus.FAILED
            with pytest.raises(Exception, match="job deliberately failed"):
                handle.result()
            snap = service.snapshot()
        assert snap.failed == 1
        assert snap.completed == 0

    def test_metrics_populated(self, qv_world):
        framework, view, results = qv_world
        items = results.items()
        # Only the thread backend times every stage in this process; the
        # process backend's workers report theirs as chunk records.
        with framework.runtime(workers=1, backend="thread") as service:
            handle = service.submit(view, items, clear_cache=True)
            outcome = handle.result(timeout=30)
        metrics = handle.metrics
        assert outcome.metrics is metrics
        assert metrics.queue_wait is not None and metrics.queue_wait >= 0
        assert metrics.run_seconds is not None and metrics.run_seconds > 0
        # the Fig. 6 pipeline fired: annotator, DE, 3 QAs, consolidate, action
        assert "DataEnrichment" in metrics.processor_seconds
        assert len(metrics.processor_seconds) == 7
        assert metrics.iterations >= 7
        # DE read the cache repository the annotator just filled
        assert metrics.cache_lookups > 0
        assert metrics.cache_hits > 0


class TestAdmissionControl:
    def test_reject_policy_raises_when_full(self, qv_world):
        framework, _, __ = qv_world
        gate, started = threading.Event(), threading.Event()
        workflow = _blocking_workflow(gate, started)
        service = framework.runtime(
            workers=1, queue_size=1, queue_policy="reject", backend="thread"
        )
        try:
            running = service.submit_workflow(workflow, {"x": 1})
            assert started.wait(10)  # worker busy
            queued = service.submit_workflow(workflow, {"x": 2})
            with pytest.raises(QueueFullError):
                service.submit_workflow(workflow, {"x": 3})
            assert service.snapshot().rejected == 1
            gate.set()
            assert running.result(10) == {"y": 1}
            assert queued.result(10) == {"y": 2}
        finally:
            gate.set()
            service.shutdown()
        snap = service.snapshot()
        assert snap.completed == 2
        assert snap.rejected == 1

    def test_cancel_queued_job(self, qv_world):
        framework, _, __ = qv_world
        gate, started = threading.Event(), threading.Event()
        workflow = _blocking_workflow(gate, started)
        service = framework.runtime(workers=1, backend="thread")
        try:
            running = service.submit_workflow(workflow, {"x": 1})
            assert started.wait(10)
            queued = service.submit_workflow(workflow, {"x": 2})
            assert queued.cancel()
            assert queued.status is JobStatus.CANCELLED
            with pytest.raises(JobCancelledError):
                queued.result(10)
            # a running job cannot be cancelled
            assert not running.cancel()
            gate.set()
            assert running.result(10) == {"y": 1}
        finally:
            gate.set()
            service.shutdown()
        assert service.snapshot().cancelled == 1

    def test_closed_service_rejects_submission(self, qv_world):
        framework, view, results = qv_world
        service = framework.runtime(workers=1)
        service.shutdown()
        assert service.closed
        with pytest.raises(RuntimeClosedError):
            service.submit(view, results.items())

    def test_shutdown_without_drain_cancels_queued(self, qv_world):
        framework, _, __ = qv_world
        gate, started = threading.Event(), threading.Event()
        workflow = _blocking_workflow(gate, started)
        service = framework.runtime(workers=1, backend="thread")
        running = service.submit_workflow(workflow, {"x": 1})
        assert started.wait(10)
        queued = service.submit_workflow(workflow, {"x": 2})
        gate.set()
        service.shutdown(drain=False)
        assert running.result(10) == {"y": 1}
        assert queued.status is JobStatus.CANCELLED

    def test_drain_waits_for_all_jobs(self, qv_world):
        framework, view, results = qv_world
        items = results.items()
        service = framework.runtime(workers=2)
        try:
            batch = service.submit_many(
                view, [items[:4], items[4:8], items[8:12], items]
            )
            assert service.drain(timeout=60)
            assert all(handle.done() for handle in batch)
        finally:
            service.shutdown()

    def test_queue_full_error_is_machine_readable(self, qv_world):
        """Satellite: backpressure surfaces without string-parsing."""
        framework, _, __ = qv_world
        gate, started = threading.Event(), threading.Event()
        workflow = _blocking_workflow(gate, started)
        service = framework.runtime(
            workers=1, queue_size=1, queue_policy="reject", backend="thread"
        )
        try:
            service.submit_workflow(workflow, {"x": 1})
            assert started.wait(10)
            service.submit_workflow(workflow, {"x": 2})
            with pytest.raises(QueueFullError) as excinfo:
                service.submit_workflow(workflow, {"x": 3})
            error = excinfo.value
            assert error.reason == "queue_full"
            assert error.capacity == 1
            assert error.queue_depth == 1
            assert error.details() == {
                "reason": "queue_full",
                "queue_depth": 1,
                "capacity": 1,
            }
        finally:
            gate.set()
            service.shutdown()

    def test_queue_timeout_error_reason(self, qv_world):
        framework, _, __ = qv_world
        gate, started = threading.Event(), threading.Event()
        workflow = _blocking_workflow(gate, started)
        service = framework.runtime(
            workers=1, queue_size=1, queue_policy="block", backend="thread"
        )
        try:
            service.submit_workflow(workflow, {"x": 1})
            assert started.wait(10)
            service.submit_workflow(workflow, {"x": 2})
            with pytest.raises(QueueFullError) as excinfo:
                service.submit_workflow(workflow, {"x": 3}, timeout=0.05)
            assert excinfo.value.reason == "queue_timeout"
            assert excinfo.value.details()["capacity"] == 1
        finally:
            gate.set()
            service.shutdown()

    def test_queue_depth_and_outstanding_hooks(self, qv_world):
        """Satellite: live depth/outstanding readings for serving."""
        framework, _, __ = qv_world
        gate, started = threading.Event(), threading.Event()
        workflow = _blocking_workflow(gate, started)
        service = framework.runtime(workers=1, backend="thread")
        try:
            assert service.queue_depth() == 0
            assert service.outstanding == 0
            service.submit_workflow(workflow, {"x": 1})
            assert started.wait(10)
            queued = service.submit_workflow(workflow, {"x": 2})
            assert service.queue_depth() == 1
            assert service.outstanding == 2
            gate.set()
            assert queued.result(10) == {"y": 2}
            assert service.drain(10)
            assert service.queue_depth() == 0
            assert service.outstanding == 0
        finally:
            gate.set()
            service.shutdown()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            RuntimeConfig(workers=0).validated()
        with pytest.raises(ValueError, match="queue_policy"):
            RuntimeConfig(queue_policy="drop").validated()
        assert RuntimeConfig().validated().workers == 4


@pytest.fixture
def parked_action(monkeypatch):
    """Park every action firing on a gate: ``(gate, started)``.

    The action is a residual stage, so on the process backend it fires
    in the parent too: on a collector thread, or — for an empty dataset,
    which ships no chunks — on the dispatcher, which then leaves every
    later job queued.
    """
    gate, started = threading.Event(), threading.Event()
    original = ActionProcessor.fire

    def fire(self, inputs):
        started.set()
        assert gate.wait(30), "test gate never opened"
        return original(self, inputs)

    monkeypatch.setattr(ActionProcessor, "fire", fire)
    yield gate, started
    gate.set()


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestViewAdmission:
    """The admission contract for view jobs, identical on both backends:
    a submit is admitted while fewer than ``queue_size + slots`` jobs
    are outstanding (one slot here: one worker thread or one shard)."""

    def _runtime(self, framework, backend, **overrides):
        return framework.runtime(
            workers=1, shards=1, backend=backend,
            name=f"admission-{backend}", **overrides,
        )

    def test_reject_when_full(self, qv_world, parked_action, backend):
        framework, view, results = qv_world
        gate, started = parked_action
        items = results.items()[:4]
        service = self._runtime(
            framework, backend, queue_size=1, queue_policy="reject"
        )
        try:
            admitted = [service.submit(view, items)]
            assert started.wait(30)
            refusals = []
            for _ in range(4):
                try:
                    admitted.append(service.submit(view, items))
                except QueueFullError as exc:
                    refusals.append(exc.details())
                # Time for a backend to move admitted jobs on; the
                # bound counts jobs wherever they wait.
                time.sleep(0.01)
            assert len(admitted) == 2
            assert refusals == [
                {"reason": "queue_full", "queue_depth": 1, "capacity": 1}
            ] * 3
            assert service.outstanding == 2
            assert service.snapshot().rejected == 3
            gate.set()
            for handle in admitted:
                assert handle.result(30).items == list(items)
        finally:
            gate.set()
            service.shutdown()
        snap = service.snapshot()
        assert (snap.completed, snap.rejected) == (2, 3)

    def test_block_times_out_then_admits(
        self, qv_world, parked_action, backend
    ):
        framework, view, results = qv_world
        gate, started = parked_action
        items = results.items()[:4]
        service = self._runtime(
            framework, backend, queue_size=1, queue_policy="block"
        )
        try:
            service.submit(view, items)
            assert started.wait(30)
            service.submit(view, items)
            with pytest.raises(QueueFullError) as excinfo:
                service.submit(view, items, timeout=0.05)
            assert excinfo.value.details() == {
                "reason": "queue_timeout", "queue_depth": 1, "capacity": 1,
            }
            # A blocked submitter is admitted once a job finishes.
            admitted = []
            waiter = threading.Thread(
                target=lambda: admitted.append(
                    service.submit(view, items, timeout=30)
                )
            )
            waiter.start()
            gate.set()
            waiter.join(30)
            assert admitted and admitted[0].result(30).items == list(items)
        finally:
            gate.set()
            service.shutdown()
        snap = service.snapshot()
        assert (snap.completed, snap.rejected) == (3, 1)

    def test_queue_depth_and_outstanding(
        self, qv_world, parked_action, backend
    ):
        framework, view, results = qv_world
        gate, started = parked_action
        items = results.items()[:4]
        service = self._runtime(framework, backend)
        try:
            assert (service.queue_depth(), service.outstanding) == (0, 0)
            service.submit(view, items)
            assert started.wait(30)
            assert (service.queue_depth(), service.outstanding) == (0, 1)
            service.submit(view, items)
            service.submit(view, items)
            assert (service.queue_depth(), service.outstanding) == (2, 3)
            gate.set()
            assert service.drain(30)
            assert (service.queue_depth(), service.outstanding) == (0, 0)
        finally:
            gate.set()
            service.shutdown()

    def test_cancel_while_queued(self, qv_world, parked_action, backend):
        framework, view, results = qv_world
        gate, started = parked_action
        service = self._runtime(framework, backend)
        try:
            running = service.submit(view, [])
            assert started.wait(30)
            queued = service.submit(view, results.items()[:4])
            assert queued.cancel()
            assert queued.status is JobStatus.CANCELLED
            with pytest.raises(JobCancelledError):
                queued.result(1)
            assert not running.cancel()
            gate.set()
            assert running.result(30).items == []
            assert service.drain(30)
            assert service.outstanding == 0
        finally:
            gate.set()
            service.shutdown()
        snap = service.snapshot()
        assert (snap.completed, snap.cancelled) == (1, 1)

    def test_shutdown_without_drain_cancels_queued(
        self, qv_world, parked_action, backend
    ):
        framework, view, results = qv_world
        gate, started = parked_action
        service = self._runtime(framework, backend)
        running = service.submit(view, [])
        assert started.wait(30)
        queued = service.submit(view, results.items()[:4])
        # The stop waits for the parked job, so shut down alongside it.
        stopper = threading.Thread(
            target=service.shutdown, kwargs={"drain": False}
        )
        stopper.start()
        assert queued.wait(30)
        assert queued.status is JobStatus.CANCELLED
        with pytest.raises(RuntimeClosedError):
            service.submit(view, results.items()[:4])
        gate.set()
        stopper.join(30)
        assert not stopper.is_alive()
        assert running.result(30).items == []
        assert service.outstanding == 0


class TestSnapshotUnderRaces:
    """Satellite: snapshot() stays consistent under concurrent load.

    ``in_queue = outstanding - running`` is computed from two counters
    updated by different threads; these tests pin the invariants the
    arithmetic must hold at every observable instant.
    """

    def _noop_workflow(self) -> Workflow:
        workflow = Workflow("noop")
        workflow.add_input("x")
        workflow.add_output("y")
        workflow.add_processor(
            PythonProcessor(
                "id", lambda x: x, input_ports={"x": 0}, output_ports={"out": 0}
            )
        )
        workflow.connect("", "x", "id", "x")
        workflow.link(Port("id", "out"), Port("", "y"))
        return workflow

    def test_snapshot_invariants_under_concurrent_submit_drain(self, qv_world):
        framework, _, __ = qv_world
        workflow = self._noop_workflow()
        service = framework.runtime(workers=4, queue_size=8, backend="thread")
        stop = threading.Event()
        violations = []

        def reader() -> None:
            while not stop.is_set():
                snap = service.snapshot()
                if snap.in_queue < 0:
                    violations.append(f"in_queue {snap.in_queue} < 0")
                if snap.running < 0 or snap.running > 4:
                    violations.append(f"running {snap.running} outside pool")
                # _outstanding increments (and a worker may even finish
                # the job) before on_submit() runs, so with a single
                # submitter every derived count may lead ``submitted``
                # by at most one in-flight job.
                if snap.in_queue + snap.running > snap.submitted + 1:
                    violations.append(
                        f"live {snap.in_queue}+{snap.running} > "
                        f"submitted {snap.submitted} + 1"
                    )
                if snap.finished > snap.submitted + 1:
                    violations.append(
                        f"finished {snap.finished} > "
                        f"submitted {snap.submitted} + 1"
                    )

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            handles = [
                service.submit_workflow(workflow, {"x": i})
                for i in range(120)
            ]
            assert service.drain(timeout=60)
        finally:
            stop.set()
            for thread in readers:
                thread.join(10)
            service.shutdown()
        assert not violations, violations[:10]
        assert all(h.result(10) == {"y": h.job_id - handles[0].job_id}
                   for h in handles)
        final = service.snapshot()
        assert final.completed == 120
        assert final.in_queue == 0
        assert final.running == 0

    def test_blocked_submitters_never_exceed_the_admission_bound(
        self, qv_world
    ):
        """Concurrent submitters under ``block``: outstanding jobs never
        pass ``queue_size + workers`` and every job is admitted once."""
        framework, _, __ = qv_world
        workflow = self._noop_workflow()
        service = framework.runtime(
            workers=2, queue_size=2, queue_policy="block", backend="thread"
        )
        stop = threading.Event()
        peaks = []
        handles = []

        def reader() -> None:
            while not stop.is_set():
                peaks.append(service.outstanding)

        def submitter(base: int) -> None:
            for i in range(30):
                handles.append(
                    service.submit_workflow(workflow, {"x": base + i})
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        watcher = threading.Thread(target=reader)
        submitters = [
            threading.Thread(target=submitter, args=(100 * t,))
            for t in range(6)
        ]
        try:
            watcher.start()
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(60)
                assert not thread.is_alive()
            assert service.drain(60)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            watcher.join(10)
            service.shutdown()
        assert max(peaks) <= 4
        assert len(handles) == 180
        assert all(handle.result(10) is not None for handle in handles)
        assert service.snapshot().completed == 180

    def test_snapshot_in_queue_floors_at_zero_mid_transition(self, qv_world):
        """A worker can be between _try_start and on_start; the clamp
        keeps the published reading non-negative regardless."""
        framework, _, __ = qv_world
        gate, started = threading.Event(), threading.Event()
        workflow = _blocking_workflow(gate, started)
        service = framework.runtime(workers=2, backend="thread")
        try:
            service.submit_workflow(workflow, {"x": 1})
            assert started.wait(10)
            for _ in range(50):
                snap = service.snapshot()
                assert snap.in_queue >= 0
                assert snap.in_queue <= snap.submitted
        finally:
            gate.set()
            service.shutdown()


@pytest.mark.slow
class TestStress:
    def test_eight_concurrent_jobs_one_framework(self, qv_world):
        """≥8 QV jobs in flight against a single framework instance."""
        framework, view, results = qv_world
        datasets = [
            results.items_of_run(run_id)
            for run_id in sorted({results.run_id(i) for i in results.items()})
        ]
        # replicate the per-spot datasets until we have 16 jobs
        while len(datasets) < 16:
            datasets.append(datasets[len(datasets) % 6])

        # serial reference per dataset, one shared repository session
        framework.repositories.clear_transient()
        reference = [
            view.run(ds, enactor=Enactor(), clear_cache=False).groups
            for ds in datasets
        ]

        with framework.runtime(
            workers=8, parallel_enactment=True, enactment_workers=3
        ) as service:
            batch = service.submit_many(view, datasets)
            outcomes = batch.results(timeout=120)
            snap = service.snapshot()
        assert [o.groups for o in outcomes] == reference
        assert snap.completed == len(datasets)
        assert snap.failed == 0
        assert not batch.failures()


class TestGraphConcurrency:
    """Satellite: triple-store index updates are safe under threads."""

    def test_concurrent_adds_keep_indices_consistent(self):
        graph = Graph("stress")
        n_threads, per_thread = 8, 300
        barrier = threading.Barrier(n_threads)

        def writer(t: int) -> None:
            barrier.wait()
            for k in range(per_thread):
                node = URIRef(f"http://example.org/item/{t}/{k}")
                graph.add(node, RDF.type, Q.DataEntity)
                graph.add(node, Q.value, URIRef(f"http://example.org/v/{t}/{k}"))

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(graph) == n_threads * per_thread * 2
        # every triple is reachable through all three indices
        probe = URIRef("http://example.org/item/3/17")
        assert (probe, RDF.type, Q.DataEntity) in graph
        assert len(list(graph.triples((None, RDF.type, Q.DataEntity)))) == (
            n_threads * per_thread
        )

    def test_concurrent_duplicate_adds_count_once(self):
        graph = Graph("dupes")
        triple = (
            URIRef("http://example.org/s"),
            Q.value,
            URIRef("http://example.org/o"),
        )
        barrier = threading.Barrier(8)

        def writer() -> None:
            barrier.wait()
            for _ in range(200):
                graph.add(*triple)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(graph) == 1
