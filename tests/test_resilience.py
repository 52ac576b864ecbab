"""The fault-tolerance layer: injection, retries, breakers, degradation.

The tentpole guarantee is the *chaos differential*: with deterministic
fault injection at a rate >= 0.3 and retries enabled, a batch of
quality-view jobs must produce results byte-identical to the fault-free
run — the resilience layer may only cost time, never change answers.
"""

from __future__ import annotations

import threading

import pytest

from repro.annotation.map import AnnotationMap
from repro.core.ispider import example_quality_view_xml, setup_framework
from repro.qv.compiler import DEGRADED_TAG
from repro.qv.passes import NO_PASSES
from repro.rdf import URIRef
from repro.resilience import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerRegistry,
    CircuitOpenError,
    DeadlineExceeded,
    FaultInjector,
    FaultPlan,
    FlakyService,
    InjectedFault,
    ON_FAILURE_DEFAULT,
    ON_FAILURE_SKIP,
    ResilienceConfig,
    ResilientInvoker,
    RetryPolicy,
)
from repro.runtime import JobStatus, RuntimeConfig
from repro.runtime.config import default_backend
from repro.serving import wire
from repro.services.interface import Service, ServiceFault
from repro.services.messages import AnnotationMapMessage, DataSetMessage
from repro.workflow.enactor import EnactmentError, Enactor
from repro.workflow.model import Port, Workflow
from repro.workflow.processors import (
    NestedWorkflowProcessor,
    PythonProcessor,
    WSDLProcessor,
)


class FakeClock:
    """A hand-advanced monotonic clock for sleep-free breaker tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class ScriptedService(Service):
    """A service that fails a scripted number of times, then succeeds."""

    def __init__(self, name: str, fail_times: int = 0, error=None) -> None:
        super().__init__(
            name, URIRef("http://example.org/c"),
            f"http://example.org/{name}",
        )
        self.fail_times = fail_times
        self.error = error
        self.calls = 0

    def invoke(self, dataset, amap, context=None):
        self.calls += 1
        if self.error is not None:
            raise self.error
        if self.calls <= self.fail_times:
            raise ServiceFault(
                self.name, f"scripted failure {self.calls}",
                endpoint=self.endpoint,
            )
        return amap


class EchoService(Service):
    """A minimal concrete service for injector/wrapper tests."""

    def invoke(self, dataset, amap, context=None):
        self._round_trip()
        return amap


def no_sleep(_seconds: float) -> None:
    pass


# -- retry policy ------------------------------------------------------------


class TestRetryPolicy:
    def test_ceiling_doubles_then_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5)
        assert policy.ceiling(1) == pytest.approx(0.1)
        assert policy.ceiling(2) == pytest.approx(0.2)
        assert policy.ceiling(3) == pytest.approx(0.4)
        assert policy.ceiling(4) == pytest.approx(0.5)
        assert policy.ceiling(10) == pytest.approx(0.5)

    def test_backoff_is_full_jitter_within_ceiling(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=1.0, seed=7)
        for failures in (1, 2, 3):
            for _ in range(50):
                delay = policy.backoff(failures)
                assert 0.0 <= delay <= policy.ceiling(failures)

    def test_seeded_schedules_replay(self):
        first = [RetryPolicy(seed=13).backoff(2) for _ in range(10)]
        again = [RetryPolicy(seed=13).backoff(2) for _ in range(10)]
        assert first == again

    def test_zero_base_means_no_delay(self):
        assert RetryPolicy(backoff_base=0.0).backoff(3) == 0.0

    def test_retryable_classification(self):
        policy = RetryPolicy()
        assert policy.retryable(ServiceFault("s", "boom"))
        assert not policy.retryable(DeadlineExceeded("s", "late"))
        assert not policy.retryable(ValueError("programming error"))

    def test_backoff_rejects_zero_failures(self):
        with pytest.raises(ValueError):
            RetryPolicy().ceiling(0)


# -- circuit breaker ---------------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, **kwargs) -> "tuple[CircuitBreaker, FakeClock]":
        clock = FakeClock()
        kwargs.setdefault("threshold", 3)
        kwargs.setdefault("reset_after", 10.0)
        breaker = CircuitBreaker("http://x/svc", clock=clock, **kwargs)
        return breaker, clock

    def test_opens_on_consecutive_failures(self):
        breaker, _ = self._breaker(threshold=3)
        for _ in range(2):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        with pytest.raises(CircuitOpenError) as error:
            breaker.allow()
        assert error.value.endpoint == "http://x/svc"
        assert breaker.snapshot().rejections == 1

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = self._breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_recloses_on_success(self):
        breaker, clock = self._breaker(threshold=1, reset_after=10.0)
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(10.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.allow()  # the probe is admitted
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # only `probes` calls may fly at once
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker, clock = self._breaker(threshold=1, reset_after=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.snapshot().opened_count == 2
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_threshold_zero_disables_breaking(self):
        breaker, _ = self._breaker(threshold=0)
        for _ in range(20):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.snapshot().failures == 20

    def test_registry_isolates_endpoints(self):
        clock = FakeClock()
        registry = CircuitBreakerRegistry(threshold=1, clock=clock)
        registry.breaker("http://x/bad").record_failure()
        assert registry.open_endpoints() == ["http://x/bad"]
        # the unrelated endpoint still admits calls
        registry.breaker("http://x/good").allow()
        assert len(registry) == 2
        snapshots = registry.snapshots()
        assert snapshots["http://x/bad"].state is BreakerState.OPEN
        assert snapshots["http://x/good"].state is BreakerState.CLOSED


# -- resilient invoker -------------------------------------------------------


class TestResilientInvoker:
    def _invoker(self, **overrides) -> ResilientInvoker:
        config = ResilienceConfig(backoff_base=0.0).with_overrides(**overrides)
        return ResilientInvoker(config, clock=FakeClock(), sleep=no_sleep)

    def test_retries_until_success(self):
        invoker = self._invoker(max_attempts=3)
        service = ScriptedService("flaky", fail_times=2)
        amap = AnnotationMap()
        assert invoker.invoke(service, DataSetMessage([]), amap) is amap
        snap = invoker.snapshot()
        assert service.calls == 3
        assert snap.retries == 2
        assert snap.successes == 1
        assert snap.exhausted == 0

    def test_exhaustion_raises_the_last_fault(self):
        invoker = self._invoker(max_attempts=2)
        service = ScriptedService("dead", fail_times=99)
        with pytest.raises(ServiceFault) as error:
            invoker.invoke(service, DataSetMessage([]), AnnotationMap())
        assert "scripted failure 2" in str(error.value)
        snap = invoker.snapshot()
        assert snap.exhausted == 1
        assert snap.retries == 1

    def test_non_service_faults_are_not_retried(self):
        invoker = self._invoker(max_attempts=5)
        service = ScriptedService("buggy", error=ValueError("not a fault"))
        with pytest.raises(ValueError):
            invoker.invoke(service, DataSetMessage([]), AnnotationMap())
        assert service.calls == 1
        assert invoker.snapshot().retries == 0

    def test_deadline_cuts_the_retry_loop(self):
        # backoff_base=10 with jitter_seed=0 draws a first delay of
        # several seconds, far beyond the 0.5 s budget.
        config = ResilienceConfig(
            max_attempts=5, backoff_base=10.0, backoff_cap=10.0,
            jitter_seed=0, deadline=0.5,
        )
        invoker = ResilientInvoker(config, clock=FakeClock(), sleep=no_sleep)
        service = ScriptedService("slow", fail_times=99)
        with pytest.raises(DeadlineExceeded) as error:
            invoker.invoke(service, DataSetMessage([]), AnnotationMap())
        assert isinstance(error.value.cause, ServiceFault)
        assert error.value.__cause__ is error.value.cause
        assert invoker.snapshot().deadline_exceeded == 1

    def test_open_breaker_rejects_without_invoking(self):
        invoker = self._invoker(max_attempts=1, breaker_threshold=1)
        bad = ScriptedService("bad", fail_times=99)
        good = ScriptedService("good")
        with pytest.raises(ServiceFault):
            invoker.invoke(bad, DataSetMessage([]), AnnotationMap())
        calls_before = bad.calls
        with pytest.raises(CircuitOpenError):
            invoker.invoke(bad, DataSetMessage([]), AnnotationMap())
        assert bad.calls == calls_before  # failed fast, no round trip
        assert invoker.snapshot().breaker_rejections == 1
        # an unrelated endpoint is unaffected by the open breaker
        invoker.invoke(good, DataSetMessage([]), AnnotationMap())
        assert invoker.breakers.open_endpoints() == [bad.endpoint]

    def test_registry_health_surfaces_breaker_state(self, framework):
        service = ScriptedService("probe", fail_times=99)
        framework.services.deploy(service)
        invoker = framework.resilient_invoker(
            ResilienceConfig(max_attempts=1, breaker_threshold=1,
                             backoff_base=0.0)
        )
        assert framework.services.health_registry is invoker.breakers
        with pytest.raises(ServiceFault):
            invoker.invoke(service, DataSetMessage([]), AnnotationMap())
        health = framework.services.health()
        assert health[service.endpoint].state is BreakerState.OPEN


# -- fault injection ---------------------------------------------------------


def _verdicts(injector: FaultInjector, service: Service, n: int) -> list:
    outcomes = []
    for _ in range(n):
        try:
            injector.on_invocation(service)
        except InjectedFault as fault:
            outcomes.append(type(fault).__name__)
        else:
            outcomes.append("ok")
    return outcomes


class TestFaultInjector:
    def _service(self, name: str = "svc") -> EchoService:
        return EchoService(
            name, URIRef("http://example.org/c"), f"http://example.org/{name}"
        )

    def test_same_seed_replays_the_same_verdicts(self):
        first = FaultInjector(seed=3).plan_all(fault_rate=0.5)
        second = FaultInjector(seed=3).plan_all(fault_rate=0.5)
        service = self._service()
        assert _verdicts(first, service, 40) == _verdicts(second, service, 40)
        assert "InjectedFault" in _verdicts(
            FaultInjector(seed=3).plan_all(fault_rate=0.5), service, 40
        )

    def test_per_service_streams_ignore_interleaving(self):
        a, b = self._service("a"), self._service("b")
        solo = FaultInjector(seed=9).plan_all(fault_rate=0.4)
        expected = _verdicts(solo, a, 30)
        mixed = FaultInjector(seed=9).plan_all(fault_rate=0.4)
        outcomes = []
        for index in range(30):
            # b's draws interleave arbitrarily with a's
            for _ in range(index % 3):
                try:
                    mixed.on_invocation(b)
                except InjectedFault:
                    pass
            try:
                mixed.on_invocation(a)
            except InjectedFault as fault:
                outcomes.append(type(fault).__name__)
            else:
                outcomes.append("ok")
        assert outcomes == expected

    def test_max_faults_budget(self):
        injector = FaultInjector(seed=0).plan_all(
            fault_rate=1.0, max_faults=2
        )
        service = self._service()
        verdicts = _verdicts(injector, service, 6)
        assert verdicts == ["InjectedFault", "InjectedFault", "ok", "ok",
                            "ok", "ok"]
        assert injector.total_injected() == 2

    def test_attach_preserves_concrete_type_and_detaches(self):
        service = self._service()
        injector = FaultInjector(seed=1).plan(service.name, fault_rate=1.0)
        injector.attach(service)
        assert isinstance(service, EchoService)
        with pytest.raises(InjectedFault):
            service.invoke(DataSetMessage([]), AnnotationMap())
        injector.detach(service)
        service.invoke(DataSetMessage([]), AnnotationMap())

    def test_timeouts_and_counters(self):
        injector = FaultInjector(seed=5).plan_all(timeout_rate=1.0)
        service = self._service()
        from repro.resilience import InjectedTimeout

        with pytest.raises(InjectedTimeout):
            injector.on_invocation(service)
        counters = injector.counters()[service.name]
        assert counters.invocations == 1
        assert counters.timeouts == 1
        assert counters.faults == 0

    def test_flaky_service_wraps_and_delegates(self):
        inner = self._service("wrapped")
        inner.marker = "reachable"
        injector = FaultInjector(seed=2).plan("wrapped", fault_rate=1.0)
        flaky = FlakyService(inner, injector)
        assert flaky.marker == "reachable"
        with pytest.raises(InjectedFault):
            flaky.invoke(DataSetMessage([]), AnnotationMap())

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(fault_rate=1.5).validated()
        with pytest.raises(ValueError):
            FaultPlan(fault_rate=0.6, timeout_rate=0.6).validated()
        with pytest.raises(ValueError):
            FaultPlan(extra_latency=-1.0).validated()


# -- degradation semantics ---------------------------------------------------


def _failing_view_world(scenario, result_set, on_failure=None,
                        overrides=None):
    """The example view with the HRScore service failing every call."""
    framework, holder = setup_framework(scenario)
    holder.set(result_set)
    injector = FaultInjector(seed=0).plan("HRScore", fault_rate=1.0)
    injector.attach(framework.services.by_name("HRScore"))
    config = ResilienceConfig(
        max_attempts=2, backoff_base=0.0, breaker_threshold=0,
        on_failure=on_failure or "fail",
        on_failure_overrides=overrides or {},
    )
    invoker = framework.resilient_invoker(config)
    view = framework.quality_view(example_quality_view_xml())
    view.with_resilience(invoker)
    return framework, view


class TestDegradation:
    def test_degraded_outputs_default_to_nothing(self):
        processor = PythonProcessor(
            "boomer", lambda x: 1 / 0, input_ports={"x": 0},
            output_ports={"out": 0, "items": 1},
        ).with_on_failure(ON_FAILURE_SKIP)
        workflow = Workflow("degrading")
        workflow.add_input("x")
        workflow.add_output("y")
        workflow.add_processor(processor)
        workflow.connect("", "x", "boomer", "x")
        workflow.link(Port("boomer", "out"), Port("", "y"))
        enacted = Enactor().enact(workflow, {"x": 1})
        assert enacted.outputs == {"y": None}
        degraded = enacted.trace.degraded()
        assert [event.processor for event in degraded] == ["boomer"]
        assert "ZeroDivisionError" in degraded[0].error

    def test_fail_policy_still_propagates(self):
        processor = PythonProcessor(
            "boomer", lambda x: 1 / 0, input_ports={"x": 0},
            output_ports={"out": 0},
        )
        workflow = Workflow("failing")
        workflow.add_input("x")
        workflow.add_output("y")
        workflow.add_processor(processor)
        workflow.connect("", "x", "boomer", "x")
        workflow.link(Port("boomer", "out"), Port("", "y"))
        with pytest.raises(EnactmentError):
            Enactor().run(workflow, {"x": 1})

    def test_skip_policy_completes_the_view_without_the_tag(
        self, scenario, result_set
    ):
        framework, view = _failing_view_world(
            scenario, result_set, overrides={"HR score": ON_FAILURE_SKIP}
        )
        result = view.run(result_set.items())
        trace = framework.enactor.last_trace
        assert [e.processor for e in trace.degraded()] == ["HR score"]
        assert not trace.failed()
        for item in result.items:
            assert "HR" not in result.annotation_map.tags_for(item)

    def test_default_annotation_tags_items_as_degraded(
        self, scenario, result_set
    ):
        framework, view = _failing_view_world(
            scenario, result_set, on_failure=ON_FAILURE_DEFAULT
        )
        result = view.run(result_set.items())
        trace = framework.enactor.last_trace
        assert [e.processor for e in trace.degraded()] == ["HR score"]
        for item in result.items:
            tags = result.annotation_map.tags_for(item)
            assert tags["HR"].value == DEGRADED_TAG
            # the healthy assertions still produced real tags
            assert tags["ScoreClass"].value != DEGRADED_TAG


# -- chaos differential (the tentpole acceptance test) -----------------------


def _run_batch(framework, view, datasets, *, parallel=False, backend=""):
    """Run one dataset-per-job batch; returns serialized results + stats."""
    config = RuntimeConfig(
        workers=4,
        parallel_enactment=parallel,
        resilience=ResilienceConfig(
            max_attempts=10, backoff_base=0.0, breaker_threshold=0,
            jitter_seed=1,
        ),
        backend=backend or default_backend(),
    )
    with framework.runtime(config) as service:
        batch = service.submit_many(view, datasets)
        outcomes = batch.results()
        snapshot = service.snapshot()
        dead = list(service.dead_letters)
    serialized = [
        (
            AnnotationMapMessage(outcome.annotation_map).to_xml(),
            outcome.groups,
        )
        for outcome in outcomes
    ]
    return serialized, snapshot, dead


@pytest.fixture(scope="module")
def chaos_datasets(result_set, imprint_runs):
    return [result_set.items_of_run(run.run_id) for run in imprint_runs]


class TestChaosDifferential:
    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["serial", "wavefront"])
    def test_faulty_run_is_byte_identical_to_fault_free(
        self, scenario, result_set, chaos_datasets, parallel
    ):
        baseline_framework, holder = setup_framework(scenario)
        holder.set(result_set)
        baseline_view = baseline_framework.quality_view(
            example_quality_view_xml()
        )
        baseline, base_snap, base_dead = _run_batch(
            baseline_framework, baseline_view, chaos_datasets,
            parallel=parallel,
        )
        assert base_snap.invocation_retries == 0
        assert not base_dead

        chaos_framework, holder = setup_framework(scenario)
        holder.set(result_set)
        injector = FaultInjector(seed=11).plan_all(fault_rate=0.35)
        injector.attach_registry(chaos_framework.services)
        chaos_view = chaos_framework.quality_view(example_quality_view_xml())
        chaos, snap, dead = _run_batch(
            chaos_framework, chaos_view, chaos_datasets, parallel=parallel
        )

        assert injector.total_injected() > 0
        assert snap.invocation_retries > 0
        assert snap.dead_lettered == 0
        assert snap.failed == 0
        assert not dead
        for (chaos_xml, chaos_groups), (base_xml, base_groups) in zip(
            chaos, baseline
        ):
            assert chaos_xml == base_xml
            assert chaos_groups == base_groups


class TestOptimizedPlanChaos:
    """Fault drill through an optimized (fused + gated) compiled plan.

    The staged compiler rewires the workflow — one fused HRScore
    invocation, a filter gate narrowing the data set — so resilience
    must keep its guarantees on that shape too: retries recover every
    injected fault and the surviving verdicts match both the fault-free
    optimized run (byte-identical) and the no-pass compilation.  Runs
    on the thread backend: the process backend refuses non-default
    compiles.
    """

    def _world(self, scenario, result_set, injector=None):
        from tests.test_compiler_ir import OBSERVED, PUSHDOWN_XML

        framework, holder = setup_framework(scenario)
        holder.set(result_set)
        if injector is not None:
            injector.attach_registry(framework.services)
        view = framework.quality_view(PUSHDOWN_XML)
        return framework, view, OBSERVED

    def test_faults_recover_and_verdicts_match_the_reference(
        self, scenario, result_set, chaos_datasets
    ):
        ref_framework, ref_view, _ = self._world(scenario, result_set)
        ref_view.compile(options=NO_PASSES)
        reference, _, _ = _run_batch(
            ref_framework, ref_view, chaos_datasets, parallel=True,
            backend="thread",
        )

        base_framework, base_view, observed = self._world(
            scenario, result_set
        )
        base_view.compile(options=observed)
        assert "HR score + HR score b" in base_view.compile().processors
        baseline, base_snap, base_dead = _run_batch(
            base_framework, base_view, chaos_datasets, parallel=True,
            backend="thread",
        )
        assert base_snap.invocation_retries == 0
        assert not base_dead

        injector = FaultInjector(seed=11).plan_all(fault_rate=0.35)
        chaos_framework, chaos_view, observed = self._world(
            scenario, result_set, injector=injector
        )
        chaos_view.compile(options=observed)
        chaos, snap, dead = _run_batch(
            chaos_framework, chaos_view, chaos_datasets, parallel=True,
            backend="thread",
        )

        assert injector.total_injected() > 0
        assert snap.invocation_retries > 0
        assert snap.failed == 0
        assert not dead
        for (chaos_xml, chaos_groups), (base_xml, base_groups) in zip(
            chaos, baseline
        ):
            assert chaos_xml == base_xml
            assert chaos_groups == base_groups
        # the filter verdicts agree with the no-pass plan's
        for (_, chaos_groups), (_, ref_groups) in zip(chaos, reference):
            assert chaos_groups == ref_groups


# -- runtime integration -----------------------------------------------------


def _flaky_workflow(fail_first: int, error=RuntimeError) -> Workflow:
    """A workflow whose only processor fails its first N enactments."""
    state = {"calls": 0}

    def sometimes(x):
        state["calls"] += 1
        if state["calls"] <= fail_first:
            raise error(f"transient {state['calls']}")
        return x + 1

    workflow = Workflow("flaky-job")
    workflow.add_input("x")
    workflow.add_output("y")
    workflow.add_processor(
        PythonProcessor(
            "sometimes", sometimes, input_ports={"x": 0},
            output_ports={"out": 0},
        )
    )
    workflow.connect("", "x", "sometimes", "x")
    workflow.link(Port("sometimes", "out"), Port("", "y"))
    return workflow


class TestRuntimeResilience:
    """Raw-workflow jobs run on the thread backend: the process backend
    accepts quality-view jobs only."""

    def test_job_retry_recovers_a_transient_failure(self, framework):
        with framework.runtime(
            workers=1, job_retries=2, backend="thread"
        ) as service:
            handle = service.submit_workflow(_flaky_workflow(1), {"x": 1})
            assert handle.result(timeout=10) == {"y": 2}
            snap = service.snapshot()
        assert handle.metrics.retries == 1
        assert snap.job_retries == 1
        assert snap.dead_lettered == 0
        assert service.dead_letters == []

    def test_exhausted_jobs_are_dead_lettered(self, framework):
        with framework.runtime(
            workers=1, job_retries=1, backend="thread"
        ) as service:
            handle = service.submit_workflow(_flaky_workflow(99), {"x": 1})
            handle.wait(timeout=10)
            snap = service.snapshot()
        assert isinstance(handle.exception(), EnactmentError)
        assert handle.metrics.retries == 1
        assert snap.job_retries == 1
        assert snap.dead_lettered == 1
        assert snap.failed == 1
        assert service.dead_letters == [handle]

    def test_open_endpoint_does_not_block_unrelated_jobs(self, framework):
        def service_workflow(name: str, service: Service) -> Workflow:
            workflow = Workflow(name)
            workflow.add_input("dataSet")
            workflow.add_output("annotationMap")
            workflow.add_processor(WSDLProcessor("call", service))
            workflow.connect("", "dataSet", "call", "dataSet")
            workflow.link(
                Port("call", "annotationMap"), Port("", "annotationMap")
            )
            return workflow

        bad = ScriptedService("down", fail_times=9999)
        good = ScriptedService("up")
        config = RuntimeConfig(
            workers=2,
            resilience=ResilienceConfig(
                max_attempts=2, backoff_base=0.0, breaker_threshold=2,
            ),
            backend="thread",
        )
        with framework.runtime(config) as service:
            first = service.submit_workflow(
                service_workflow("bad-wf", bad), {"dataSet": []}
            )
            first.wait(timeout=10)
            # the breaker for the failing endpoint is now open; a second
            # job against it fails fast without a round trip...
            calls_before = bad.calls
            second = service.submit_workflow(
                service_workflow("bad-wf-2", bad), {"dataSet": []}
            )
            second.wait(timeout=10)
            # ...while unrelated jobs keep flowing through the pool.
            healthy = [
                service.submit_workflow(
                    service_workflow(f"good-wf-{i}", good), {"dataSet": []}
                )
                for i in range(4)
            ]
            for handle in healthy:
                assert "annotationMap" in handle.result(timeout=10)
            snap = service.snapshot()
        assert isinstance(first.exception(), EnactmentError)
        assert bad.calls == calls_before  # rejected by the breaker
        assert snap.breaker_rejections >= 1
        assert snap.open_endpoints == 1
        assert snap.completed == 4
        assert service.invoker.breakers.open_endpoints() == [bad.endpoint]

    def test_service_fault_carries_endpoint_and_cause(self):
        class Exploding(Service):
            def invoke(self, dataset, amap, context=None):
                raise KeyError("missing evidence")

        service = Exploding(
            "exploder", URIRef("http://example.org/c"), "http://x/exploder"
        )
        with pytest.raises(ServiceFault) as error:
            service.invoke_xml(
                DataSetMessage([]).to_xml(), AnnotationMapMessage().to_xml()
            )
        fault = error.value
        assert fault.service == "exploder"
        assert fault.endpoint == "http://x/exploder"
        assert isinstance(fault.cause, KeyError)
        assert fault.__cause__ is fault.cause
        assert "http://x/exploder" in str(fault)

    def test_registry_replace_swaps_in_place(self, framework):
        original = ScriptedService("swappable")
        framework.services.deploy(original)
        endpoint = original.endpoint
        replacement = ScriptedService("swappable", fail_times=1)
        previous = framework.services.replace(replacement)
        assert previous is original
        assert framework.services.by_name("swappable") is replacement
        assert replacement.endpoint == endpoint
        assert framework.services.by_endpoint(endpoint) is replacement
        with pytest.raises(KeyError):
            framework.services.replace(ScriptedService("never-deployed"))


class TestFireTimeResilience:
    """The policy belongs to the run: it is resolved per processor at
    fire time and never written onto the compiled plan."""

    def test_only_service_backed_processors_get_the_invoker(self):
        def boom(dataSet):
            raise ZeroDivisionError("local failure")

        workflow = Workflow("mixed")
        workflow.add_input("dataSet")
        workflow.add_output("annotationMap")
        wsdl = WSDLProcessor("call", ScriptedService("svc", fail_times=9999))
        plain = PythonProcessor(
            "local", boom, input_ports={"dataSet": 1},
            output_ports={"out": 1},
        )
        workflow.add_processor(wsdl)
        workflow.add_processor(plain)
        workflow.connect("", "dataSet", "call", "dataSet")
        workflow.connect("", "dataSet", "local", "dataSet")
        workflow.link(Port("call", "annotationMap"), Port("", "annotationMap"))

        invoker = ResilientInvoker(
            ResilienceConfig(max_attempts=1, breaker_threshold=0,
                             on_failure=ON_FAILURE_SKIP,
                             on_failure_overrides={"local": ON_FAILURE_SKIP})
        )
        enacted = Enactor(invoker=invoker).enact(workflow, {"dataSet": []})
        # only the WSDL call went through the invoker...
        assert invoker.snapshot().invocations == 1
        # ...and both failures degraded: the service-backed default for
        # the call, the explicit override for the plain processor
        assert sorted(e.processor for e in enacted.trace.degraded()) == [
            "call", "local",
        ]
        # the config default alone never degrades a plain processor
        default_only = ResilientInvoker(
            ResilienceConfig(max_attempts=1, breaker_threshold=0,
                             on_failure=ON_FAILURE_SKIP)
        )
        with pytest.raises(EnactmentError, match="'local'"):
            Enactor(invoker=default_only).enact(workflow, {"dataSet": []})
        # nothing was written onto the processors
        assert "invoker" not in vars(wsdl) and "on_failure" not in vars(wsdl)
        assert "on_failure" not in vars(plain)

    def test_a_plain_runtime_does_not_inherit_another_runtimes_policy(
        self, scenario, result_set
    ):
        framework, holder = setup_framework(scenario)
        holder.set(result_set)
        FaultInjector(seed=0).plan("HRScore", fault_rate=1.0).attach(
            framework.services.by_name("HRScore")
        )
        view = framework.quality_view(example_quality_view_xml())
        items = result_set.items()
        skipping = RuntimeConfig(
            workers=1, backend="thread", name="skipping",
            resilience=ResilienceConfig(
                max_attempts=1, breaker_threshold=0,
                on_failure=ON_FAILURE_SKIP,
            ),
        )
        with framework.runtime(workers=1, backend="thread") as plain:
            first = plain.submit(view, items)
            assert first.wait(30) and first.status is JobStatus.FAILED
            with framework.runtime(skipping) as resilient:
                degraded = resilient.submit(view, items)
                assert degraded.wait(30)
                assert degraded.status is JobStatus.SUCCEEDED
            again = plain.submit(view, items)
            assert again.wait(30) and again.status is JobStatus.FAILED

    def test_nested_workflows_fire_under_the_outer_policy(self):
        def nested_over(service):
            inner = Workflow("inner")
            inner.add_input("dataSet")
            inner.add_output("annotationMap")
            inner.add_processor(WSDLProcessor("call", service))
            inner.connect("", "dataSet", "call", "dataSet")
            inner.link(Port("call", "annotationMap"), Port("", "annotationMap"))
            outer = Workflow("outer")
            outer.add_input("dataSet")
            outer.add_output("annotationMap")
            outer.add_processor(NestedWorkflowProcessor("nested", inner))
            outer.connect("", "dataSet", "nested", "dataSet")
            outer.link(
                Port("nested", "annotationMap"), Port("", "annotationMap")
            )
            return outer

        # Without a policy the flaky inner service fails the run...
        with pytest.raises(EnactmentError, match="'nested'"):
            Enactor().enact(
                nested_over(ScriptedService("flaky", fail_times=2)),
                {"dataSet": []},
            )
        # ...and the outer run's retries reach into the nested workflow.
        flaky = ScriptedService("flaky", fail_times=2)
        invoker = ResilientInvoker(ResilienceConfig(
            max_attempts=3, backoff_base=0.0, breaker_threshold=0,
        ))
        enacted = Enactor(invoker=invoker).enact(
            nested_over(flaky), {"dataSet": []}
        )
        assert isinstance(enacted.outputs["annotationMap"], AnnotationMap)
        assert flaky.calls == 3
        assert invoker.snapshot().retries == 2

    def test_a_view_policy_reaches_process_workers(
        self, scenario, result_set
    ):
        """A runtime without ``resilience`` runs a view under the view's
        own policy on both backends, with byte-equal results, and a
        later ``with_resilience`` replaces it on the workers too."""
        framework, view = _failing_view_world(
            scenario, result_set, on_failure=ON_FAILURE_SKIP
        )
        items = result_set.items()
        skipping = view.invoker
        failing = framework.resilient_invoker(ResilienceConfig(
            max_attempts=1, backoff_base=0.0, breaker_threshold=0,
        ))
        encoded = {}
        for backend in ("thread", "process"):
            view.with_resilience(skipping)
            with framework.runtime(
                workers=2, backend=backend, name=f"view-policy-{backend}"
            ) as service:
                outcome = service.submit(view, items, clear_cache=True)
                encoded[backend] = (
                    list(outcome.result(60).items),
                    wire.encode_typed_map(outcome.result().annotation_map),
                    outcome.result().groups,
                )
                view.with_resilience(failing)
                failed = service.submit(view, items, clear_cache=True)
                assert failed.wait(60) and failed.status is JobStatus.FAILED
                assert "HR score" in str(failed.exception())
        assert encoded["thread"] == encoded["process"]
        degraded = outcome.result().annotation_map  # the process run's
        assert all("HR" not in degraded.tags_for(item) for item in items)

    def test_runs_never_write_to_the_compiled_plan(self):
        from repro.stream import IncrementalEnactor
        from repro.stream.scenario import (
            build_stream_scenario,
            synthetic_records,
        )

        def plan_state(plan):
            return {
                name: dict(vars(processor))
                for name, processor in plan.processors.items()
            }

        scenario = build_stream_scenario()
        config = ResilienceConfig(
            max_attempts=2, backoff_base=0.0, breaker_threshold=0,
            on_failure=ON_FAILURE_SKIP,
        )
        plan = scenario.view.compile()
        before = plan_state(plan)
        scenario.view.with_resilience(ResilientInvoker(config))
        enactor = IncrementalEnactor(scenario.view, feed=scenario.table)
        for record in synthetic_records(items=12, steps=2, seed=3):
            enactor.apply(record.delta)
            assert plan_state(plan) == before
        runs = {
            "thread": {"backend": "thread"},
            "wavefront": {"backend": "thread", "parallel_enactment": True},
            "process": {"backend": "process", "shards": 2},
        }
        for kind, overrides in runs.items():
            runtime_config = RuntimeConfig(
                workers=2, resilience=config, name=f"immutable-{kind}",
                **overrides,
            )
            with scenario.framework.runtime(runtime_config) as service:
                service.submit(scenario.view, enactor.items).result(30)
            assert plan_state(plan) == before, kind
