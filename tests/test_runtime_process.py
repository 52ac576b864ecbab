"""The sharded process-pool backend: routing, differentials, faults.

The load-bearing property of :mod:`repro.runtime.process` is that
distribution never changes an answer: every quality view enacted over
the pool must come back *byte-equal* to the serial enactor — same items
in the same order, same typed annotation terms, same routing groups —
across shard counts, across seeds, and under injected faults and
worker-process crashes.
"""

from __future__ import annotations

import os

import pytest

from repro.core.framework import QuratorFramework
from repro.core.ispider import (
    LiveImprintAnnotator,
    ResultSetHolder,
    example_quality_view_xml,
    setup_framework,
)
from repro.observability import get_event_log
from repro.proteomics import ProteomicsScenario
from repro.proteomics.results import ImprintResultSet
from repro.rdf import Q, URIRef
from repro.runtime import (
    ProcessExecutionService,
    RuntimeClosedError,
    RuntimeConfig,
    ShardSpec,
    WorkerLostError,
    owners,
    partition,
    shard_of,
)
from repro.runtime.config import BACKEND_ENV
from repro.serving import wire
from repro.workflow.enactor import Enactor


def assert_byte_equal(outcome, oracle) -> None:
    """Outcome == oracle down to wire bytes: items, terms, groups."""
    assert list(outcome.items) == list(oracle.items)
    assert wire.encode_typed_map(outcome.annotation_map) == \
        wire.encode_typed_map(oracle.annotation_map)
    assert outcome.groups == oracle.groups


def small_world(seed: int, *, crash=None, n_proteins: int = 12):
    """A compact scenario plus a framework wired to its results."""
    scenario = ProteomicsScenario.generate(
        seed=seed, n_proteins=n_proteins, n_spots=2
    )
    results = ImprintResultSet(scenario.identify_all())
    framework = QuratorFramework()
    framework.register_standard_services()
    holder = ResultSetHolder()
    annotator = (
        crash(holder) if crash is not None else LiveImprintAnnotator(holder)
    )
    framework.deploy_annotation_service("ImprintOutputAnnotator", annotator)
    holder.set(results)
    return framework, results


def serial_oracle(seed: int, items=None):
    """The single-process answer for one seed's whole result set."""
    framework, results = small_world(seed)
    view = framework.quality_view(example_quality_view_xml())
    return view.run(
        items if items is not None else results.items(), enactor=Enactor()
    )


class TestShardRouting:
    """Hash routing must be a pure function of (data_id, shards)."""

    # Frozen BLAKE2b-based assignments: any change here silently splits
    # annotation partitions written by earlier runs of the repository.
    FROZEN = {
        "urn:item:1": {1: 0, 2: 1, 3: 1, 4: 3, 8: 3},
        "urn:item:2": {1: 0, 2: 1, 3: 1, 4: 1, 8: 1},
        "lsid:imprint:spot:0007": {1: 0, 2: 1, 3: 2, 4: 1, 8: 5},
        "http://example.org/protein/P12345": {1: 0, 2: 1, 3: 1, 4: 3, 8: 3},
        "": {1: 0, 2: 0, 3: 0, 4: 0, 8: 4},
    }

    def test_assignment_is_frozen_across_runs(self):
        for data_id, expected in self.FROZEN.items():
            for shards, shard in expected.items():
                assert shard_of(data_id, shards) == shard

    @pytest.mark.parametrize("shards", range(1, 9))
    def test_partition_covers_and_preserves_order(self, result_set, shards):
        items = result_set.items()
        buckets = partition(items, shards)
        assert len(buckets) == shards
        # Exactly-once coverage, each item in its owning bucket.
        flat = [item for bucket in buckets for item in bucket]
        assert sorted(flat) == sorted(items)
        for index, bucket in enumerate(buckets):
            for item in bucket:
                assert shard_of(str(item), shards) == index
        # Relative dataset order survives within every bucket.
        position = {item: rank for rank, item in enumerate(items)}
        for bucket in buckets:
            ranks = [position[item] for item in bucket]
            assert ranks == sorted(ranks)

    @pytest.mark.parametrize("shards", range(1, 9))
    def test_assignment_identical_across_calls(self, result_set, shards):
        items = result_set.items()
        assert owners(items, shards) == owners(list(items), shards)
        assert partition(items, shards) == partition(list(items), shards)

    def test_shard_spec_owns_matches_routing(self, result_set):
        specs = [ShardSpec(index, 4) for index in range(4)]
        for item in result_set.items():
            owning = [spec.index for spec in specs if spec.owns(str(item))]
            assert owning == [shard_of(str(item), 4)]


class TestShardGuard:
    """Workers fail loudly on writes to a partition they don't own."""

    def test_store_rejects_foreign_item(self, framework):
        framework.repositories.configure_shard(ShardSpec(0, 4))
        foreign = next(
            URIRef(f"urn:test:item:{index}")
            for index in range(64)
            if shard_of(f"urn:test:item:{index}", 4) != 0
        )
        with pytest.raises(ValueError, match="does not own"):
            framework.cache.annotate(foreign, Q.HitRatio, 0.5)

    def test_guard_applies_to_future_stores(self, framework):
        framework.repositories.configure_shard(ShardSpec(1, 4))
        store = framework.repositories.get_or_create("late", persistent=False)
        owned = next(
            URIRef(f"urn:test:item:{index}")
            for index in range(64)
            if shard_of(f"urn:test:item:{index}", 4) == 1
        )
        store.annotate(owned, Q.HitRatio, 0.5)
        foreign = next(
            URIRef(f"urn:test:item:{index}")
            for index in range(64)
            if shard_of(f"urn:test:item:{index}", 4) != 1
        )
        with pytest.raises(ValueError, match="shard 1 of 4"):
            store.annotate(foreign, Q.HitRatio, 0.5)
        framework.repositories.configure_shard(None)
        store.annotate(foreign, Q.HitRatio, 0.5)


@pytest.fixture(scope="module")
def qv_world(scenario, result_set):
    framework, holder = setup_framework(scenario)
    holder.set(result_set)
    view = framework.quality_view(example_quality_view_xml())
    view.compile()
    return framework, view, result_set


class TestDifferential:
    """Process backend vs the serial enactor (and the thread backend)."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_byte_equal_to_serial_across_shards(self, qv_world, shards):
        framework, view, results = qv_world
        items = results.items()
        framework.repositories.clear_transient()
        oracle = view.run(items, enactor=Enactor(), clear_cache=False)
        with framework.runtime(
            backend="process", shards=shards, chunk_size=16
        ) as service:
            outcome = service.submit(view, items, clear_cache=True).result(60)
        assert_byte_equal(outcome, oracle)

    def test_byte_equal_to_thread_backend(self, qv_world):
        framework, view, results = qv_world
        items = results.items()
        with framework.runtime(backend="thread", workers=2) as service:
            threaded = service.submit(view, items, clear_cache=True).result(60)
        with framework.runtime(backend="process", shards=3) as service:
            processed = service.submit(view, items, clear_cache=True).result(60)
        assert_byte_equal(processed, threaded)

    def test_submit_many_matches_per_dataset_oracles(
        self, qv_world, imprint_runs
    ):
        framework, view, results = qv_world
        datasets = [
            results.items_of_run(run.run_id) for run in imprint_runs[:3]
        ]
        oracles = []
        for dataset in datasets:
            framework.repositories.clear_transient()
            oracles.append(view.run(dataset, enactor=Enactor(),
                                    clear_cache=False))
        with framework.runtime(backend="process", shards=2) as service:
            batch = service.submit_many(view, datasets)
            assert batch.wait(60)
            for handle, oracle in zip(batch, oracles):
                assert_byte_equal(handle.result(), oracle)
            snap = service.snapshot()
        assert snap.completed == len(datasets)
        assert snap.failed == 0

    def test_empty_dataset(self, qv_world):
        framework, view, _ = qv_world
        framework.repositories.clear_transient()
        oracle = view.run([], enactor=Enactor(), clear_cache=False)
        with framework.runtime(backend="process", shards=2) as service:
            outcome = service.submit(view, [], clear_cache=True).result(30)
        assert_byte_equal(outcome, oracle)

    def test_cache_metrics_match_thread_backend(self, qv_world):
        framework, view, results = qv_world
        items = results.items()
        with framework.runtime(backend="thread", workers=1) as service:
            reference = service.submit(view, items, clear_cache=True)
            reference.wait(60)
        with framework.runtime(backend="process", shards=2) as service:
            handle = service.submit(view, items, clear_cache=True)
            handle.wait(60)
        assert handle.metrics.cache_lookups > 0
        assert handle.metrics.cache_lookups == reference.metrics.cache_lookups
        assert handle.metrics.cache_hits == reference.metrics.cache_hits


FAST_SEEDS = range(6)
ALL_SEEDS = range(50)


def _differential_one_seed(seed: int, shards: int) -> None:
    oracle = serial_oracle(seed)
    framework, results = small_world(seed)
    view = framework.quality_view(example_quality_view_xml())
    with framework.runtime(
        backend="process", shards=shards, chunk_size=8
    ) as service:
        outcome = service.submit(
            view, results.items(), clear_cache=True
        ).result(60)
    assert_byte_equal(outcome, oracle)


class TestMultiSeedDifferential:
    """Seed sweeps: fresh scenario + framework per seed."""

    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_seeds_fast(self, seed):
        _differential_one_seed(seed, shards=2)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", ALL_SEEDS)
    def test_seeds_full(self, seed):
        _differential_one_seed(seed, shards=1 + seed % 4)


class TestFaultInjectionDifferential:
    """Injected service faults + worker-side retries stay byte-equal."""

    def _run(self, seed: int) -> None:
        from repro.resilience import FaultInjector, ResilienceConfig

        oracle = serial_oracle(seed)
        framework, results = small_world(seed)
        injector = FaultInjector(seed=seed)
        injector.plan_all(fault_rate=0.2)
        injector.attach_registry(framework.services)
        resilience = ResilienceConfig(max_attempts=4, jitter_seed=seed)
        with framework.runtime(
            backend="process", shards=2, chunk_size=8,
            resilience=resilience, job_retries=2,
        ) as service:
            outcome = service.submit(
                view := framework.quality_view(example_quality_view_xml()),
                results.items(), clear_cache=True,
            ).result(60)
            del view
        assert_byte_equal(outcome, oracle)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_faults_fast(self, seed):
        self._run(seed)

    def test_degraded_firings_count_like_the_thread_backend(self):
        """A worker-side degraded firing counts once per job.

        HRScore always fails under ``on_failure="skip"``: the thread
        backend records one degraded firing per job; the process backend
        fires HRScore once per chunk on the workers and must report the
        same count in the job metrics and the runtime snapshot.
        """
        from repro.resilience import FaultInjector, ResilienceConfig

        counts = {}
        for backend, sizing in (
            ("thread", {"workers": 1}),
            ("process", {"shards": 2, "chunk_size": 4}),
        ):
            framework, results = small_world(5)
            FaultInjector(seed=1).plan("HRScore", fault_rate=1.0).attach_registry(
                framework.services
            )
            resilience = ResilienceConfig(
                max_attempts=1, on_failure="skip", breaker_threshold=0
            )
            view = framework.quality_view(example_quality_view_xml())
            with framework.runtime(
                backend=backend, resilience=resilience, **sizing
            ) as service:
                handle = service.submit(view, results.items(), clear_cache=True)
                outcome = handle.result(60)
                snapshot = service.snapshot()
            amap = outcome.annotation_map
            assert all(amap.get_tag(item, "HR") is None for item in amap)
            counts[backend] = (
                handle.metrics.degraded_firings, snapshot.degraded_firings
            )
        assert counts["process"] == counts["thread"] == (1, 1)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(10))
    def test_faults_full(self, seed):
        self._run(seed)


class _CrashingAnnotator(LiveImprintAnnotator):
    """Kills its worker process; optionally only the first time ever."""

    flag_path: str = ""
    once: bool = False

    def annotate(self, items, evidence_types, context=None):
        if not self.once or not os.path.exists(self.flag_path):
            if self.once:
                open(self.flag_path, "w").close()
            os._exit(13)
        return super().annotate(items, evidence_types, context)


class TestWorkerLoss:
    """Crash containment: dead letters, events, retry recovery."""

    def _crash_world(self, tmp_path, once: bool):
        flag = str(tmp_path / "crashed-once")

        class Crash(_CrashingAnnotator):
            pass

        Crash.flag_path = flag
        Crash.once = once
        return small_world(21, crash=Crash)

    def test_permanent_crash_dead_letters_with_cause(self, tmp_path):
        from repro.observability.events import RingBufferSink

        ring = RingBufferSink()
        get_event_log().add_sink(ring)
        framework, results = self._crash_world(tmp_path, once=False)
        view = framework.quality_view(example_quality_view_xml())
        with framework.runtime(backend="process", shards=2) as service:
            handle = service.submit(view, results.items())
            assert handle.wait(60), "job never finished"
            error = handle.exception()
            assert isinstance(error, WorkerLostError)
            details = error.details()
            assert details["reason"] == "worker_lost"
            assert details["exitcode"] == 13
            assert details["shard"] in (0, 1)
            assert service.dead_letters == [handle]
            assert service.snapshot().dead_lettered == 1
        try:
            events = [
                event for event in ring.events()
                if event.get("event") == "runtime.worker_lost"
            ]
            assert events, "no runtime.worker_lost event emitted"
            assert events[-1]["exitcode"] == 13
            assert events[-1]["shard"] in (0, 1)
        finally:
            get_event_log().remove_sink(ring)

    def test_crash_once_recovers_byte_equal(self, tmp_path):
        oracle = serial_oracle(21)
        framework, results = self._crash_world(tmp_path, once=True)
        view = framework.quality_view(example_quality_view_xml())
        with framework.runtime(
            backend="process", shards=2, job_retries=3
        ) as service:
            handle = service.submit(view, results.items(), clear_cache=True)
            outcome = handle.result(timeout=90)
        assert handle.metrics.retries >= 1
        assert_byte_equal(outcome, oracle)


class TestServiceContract:
    """Admission and lifecycle parity with the thread backend."""

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process")
        framework, _ = small_world(2, n_proteins=4)
        service = framework.runtime(shards=2)
        try:
            assert isinstance(service, ProcessExecutionService)
        finally:
            service.shutdown()

    def test_closed_service_rejects_submissions(self):
        framework, results = small_world(2, n_proteins=4)
        view = framework.quality_view(example_quality_view_xml())
        service = framework.runtime(backend="process", shards=2)
        service.shutdown()
        assert service.closed
        with pytest.raises(RuntimeClosedError):
            service.submit(view, results.items())

    def test_submit_workflow_unsupported(self):
        framework, _ = small_world(2, n_proteins=4)
        with framework.runtime(backend="process", shards=2) as service:
            with pytest.raises(NotImplementedError, match="process backend"):
                service.submit_workflow(object())

    def test_config_round_trip(self):
        config = RuntimeConfig(backend="process", shards=3).validated()
        assert config.effective_shards() == 3
        assert RuntimeConfig(
            backend="process", workers=5
        ).effective_shards() == 5
        with pytest.raises(ValueError, match="shards"):
            RuntimeConfig(shards=-1).validated()
