"""Observability across the execution stack.

Pins the two cross-layer guarantees the subsystem exists for:

* **Exact per-job cache attribution** — two jobs running concurrently
  against the shared annotation repositories each report precisely
  their own lookup/hit counts (the old window-delta accounting
  cross-talked here), because every read accumulates on the reading
  job's span root across all thread hops.
* **Strategy-independent firing metrics** — the serial enactor and the
  wavefront ``ParallelEnactor`` publish identical per-processor firing
  counts for the same workflow, since both route through the shared
  ``traced_firing`` path.
"""

from __future__ import annotations

import pytest

from repro.core.ispider import example_quality_view_xml, setup_framework
from repro.observability import (
    MetricRegistry,
    clear_recorded_spans,
    recent_spans,
    set_default_registry,
    start_span,
)
from repro.runtime import ParallelEnactor, RuntimeConfig
from repro.workflow.enactor import Enactor


@pytest.fixture
def fresh_registry():
    registry = MetricRegistry()
    previous = set_default_registry(registry)
    yield registry
    set_default_registry(previous)


@pytest.fixture
def qv_world(scenario, result_set):
    framework, holder = setup_framework(scenario)
    holder.set(result_set)
    view = framework.quality_view(example_quality_view_xml())
    view.compile()
    return framework, view, result_set


def _firing_counts(registry):
    family = registry.get("repro_workflow_processor_firings_total")
    assert family is not None, "no firings were recorded"
    return {
        tuple(sorted(sample.labels.items())): sample.value
        for sample in family.snapshot().samples
    }


class TestExactCacheAttribution:
    """Satellite: span-attributed cache counts replace window deltas."""

    def _solo_counts(self, framework, view, dataset):
        with framework.runtime(RuntimeConfig(workers=1)) as service:
            handle = service.submit(view, dataset, clear_cache=True)
            handle.wait()
        return handle.metrics.cache_lookups, handle.metrics.cache_hits

    def test_two_concurrent_jobs_report_exact_counts(
        self, fresh_registry, qv_world
    ):
        framework, view, results = qv_world
        assert len(results.runs) >= 2, "need two runs for two jobs"
        dataset_a = results.items_of_run(results.runs[0].run_id)
        dataset_b = results.items_of_run(results.runs[1].run_id)

        # Ground truth: each dataset's counts when its job runs alone.
        solo_a = self._solo_counts(framework, view, dataset_a)
        solo_b = self._solo_counts(framework, view, dataset_b)
        assert solo_a[0] > 0 and solo_b[0] > 0

        # Slow every service call down so the two jobs demonstrably
        # overlap on the two workers, then assert their observed
        # windows really did overlap — the scenario the old
        # repository-wide window deltas could not attribute.
        for service_obj in framework.services:
            service_obj.with_latency(0.02)
        try:
            framework.repositories.clear_transient()
            with framework.runtime(RuntimeConfig(workers=2)) as service:
                handle_a = service.submit(view, dataset_a, clear_cache=False)
                handle_b = service.submit(view, dataset_b, clear_cache=False)
                handle_a.wait()
                handle_b.wait()
        finally:
            for service_obj in framework.services:
                service_obj.with_latency(0.0)

        metrics_a, metrics_b = handle_a.metrics, handle_b.metrics
        overlap_start = max(metrics_a.started_at, metrics_b.started_at)
        overlap_end = min(metrics_a.finished_at, metrics_b.finished_at)
        assert overlap_start < overlap_end, "jobs did not overlap"

        assert (metrics_a.cache_lookups, metrics_a.cache_hits) == solo_a
        assert (metrics_b.cache_lookups, metrics_b.cache_hits) == solo_b

    def test_concurrent_counts_partition_the_store_totals(
        self, fresh_registry, qv_world
    ):
        framework, view, results = qv_world
        datasets = [
            results.items_of_run(run.run_id) for run in results.runs[:2]
        ]
        before = framework.repositories.lookup_stats()
        framework.repositories.clear_transient()
        with framework.runtime(RuntimeConfig(workers=2)) as service:
            batch = service.submit_many(view, datasets, clear_cache=False)
            batch.wait()
        after = framework.repositories.lookup_stats()
        total_lookups = sum(h.metrics.cache_lookups for h in batch)
        total_hits = sum(h.metrics.cache_hits for h in batch)
        assert total_lookups == after[0] - before[0]
        assert total_hits == after[1] - before[1]


class TestDifferentialFiringCounts:
    """Satellite: serial and wavefront emit identical firing metrics."""

    def test_serial_and_wavefront_counts_are_identical(self, qv_world):
        framework, view, results = qv_world
        items = results.items()

        serial_registry = MetricRegistry()
        previous = set_default_registry(serial_registry)
        try:
            framework.repositories.clear_transient()
            view.run(items, enactor=Enactor(), clear_cache=False)
        finally:
            set_default_registry(previous)

        wavefront_registry = MetricRegistry()
        previous = set_default_registry(wavefront_registry)
        try:
            framework.repositories.clear_transient()
            view.run(
                items,
                enactor=ParallelEnactor(max_workers=4),
                clear_cache=False,
            )
        finally:
            set_default_registry(previous)

        serial_counts = _firing_counts(serial_registry)
        wavefront_counts = _firing_counts(wavefront_registry)
        assert serial_counts == wavefront_counts
        assert serial_counts, "expected at least one processor firing"
        assert all(
            dict(key)["status"] == "completed" for key in serial_counts
        )

    def test_enactments_total_labels_the_strategy(self, qv_world):
        framework, view, results = qv_world
        items = results.items()
        registry = MetricRegistry()
        previous = set_default_registry(registry)
        try:
            framework.repositories.clear_transient()
            view.run(items, enactor=Enactor(), clear_cache=False)
            framework.repositories.clear_transient()
            view.run(
                items, enactor=ParallelEnactor(max_workers=2),
                clear_cache=False,
            )
        finally:
            set_default_registry(previous)
        family = registry.get("repro_workflow_enactments_total")
        by_kind = {
            sample.labels["enactor"]: sample.value
            for sample in family.snapshot().samples
        }
        assert by_kind == {"serial": 1, "wavefront": 1}


class TestSpanPropagation:
    def test_job_span_parents_under_submitter_span(
        self, fresh_registry, qv_world
    ):
        framework, view, results = qv_world
        dataset = results.items_of_run(results.runs[0].run_id)
        clear_recorded_spans()
        with start_span("submitter") as submitter:
            with framework.runtime(RuntimeConfig(workers=1)) as service:
                handle = service.submit(view, dataset, clear_cache=True)
                handle.wait()
        job_spans = [
            span for span in recent_spans()
            if span["name"].startswith("job:")
        ]
        assert job_spans, "the job span was not recorded"
        job_span = job_spans[-1]
        assert job_span["trace_id"] == submitter.trace_id
        assert job_span["parent_id"] == submitter.span_id

        # ... and the firings that ran on worker/pool threads landed in
        # the same trace, through every hop.
        fire_spans = [
            span for span in recent_spans()
            if span["name"].startswith("fire:")
            and span["trace_id"] == submitter.trace_id
        ]
        assert fire_spans, "no firing spans joined the submitter's trace"

    def test_runtime_gauges_settle_to_idle(self, fresh_registry, qv_world):
        framework, view, results = qv_world
        datasets = [
            results.items_of_run(run.run_id) for run in results.runs[:2]
        ]
        with framework.runtime(RuntimeConfig(workers=2)) as service:
            service.submit_many(view, datasets, clear_cache=True).wait()
            service.drain()
        name = service.config.name
        queue_depth = fresh_registry.gauge(
            "repro_runtime_queue_depth", labels=("runtime",)
        ).labels(runtime=name)
        workers_busy = fresh_registry.gauge(
            "repro_runtime_workers_busy", labels=("runtime",)
        ).labels(runtime=name)
        assert queue_depth.value == 0
        assert workers_busy.value == 0
        jobs_total = fresh_registry.counter(
            "repro_runtime_jobs_total", labels=("runtime", "outcome")
        )
        assert jobs_total.labels(runtime=name, outcome="completed").value == 2
