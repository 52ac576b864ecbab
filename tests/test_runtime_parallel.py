"""Differential guarantee of the parallel enactor.

``ParallelEnactor`` must be *output-identical* to the serial
``Enactor``: same workflow outputs, same fired-processor set, same
failures — only the interleaving of trace events may differ.  Checked
over the compiled Sec. 5.1 example quality view and over
property-based random DAGs (hypothesis).
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ispider import example_quality_view_xml, setup_framework
from repro.runtime import ParallelEnactor
from repro.services.interface import ServiceFault
from repro.workflow.enactor import EnactmentError, Enactor
from repro.workflow.model import Port, Workflow
from repro.workflow.processors import PythonProcessor


@pytest.fixture(scope="module")
def qv_world(scenario, result_set):
    """A loaded framework plus the compiled Sec. 5.1 example view."""
    framework, holder = setup_framework(scenario)
    holder.set(result_set)
    view = framework.quality_view(example_quality_view_xml())
    view.compile()
    return framework, view, result_set


class TestExampleViewDifferential:
    def test_parallel_equals_serial_on_example_view(self, qv_world):
        framework, view, results = qv_world
        items = results.items()

        framework.repositories.clear_transient()
        serial = view.run(items, enactor=Enactor(), clear_cache=False)

        parallel_enactor = ParallelEnactor(max_workers=4)
        framework.repositories.clear_transient()
        parallel = view.run(items, enactor=parallel_enactor, clear_cache=False)

        assert parallel.groups == serial.groups
        assert parallel.annotation_map == serial.annotation_map
        assert [str(i) for i in parallel.items] == [str(i) for i in serial.items]

    def test_same_fired_processor_set(self, qv_world):
        framework, view, results = qv_world
        items = results.items()
        serial_enactor = Enactor()
        parallel_enactor = ParallelEnactor(max_workers=4)

        framework.repositories.clear_transient()
        view.run(items, enactor=serial_enactor, clear_cache=False)
        framework.repositories.clear_transient()
        view.run(items, enactor=parallel_enactor, clear_cache=False)

        assert set(parallel_enactor.last_trace.order()) == set(
            serial_enactor.last_trace.order()
        )
        # each processor fired exactly once in both strategies
        assert len(parallel_enactor.last_trace.order()) == len(
            serial_enactor.last_trace.order()
        )


# -- property-based random DAGs ---------------------------------------------


def _build_random_workflow(
    n_processors: int, edge_bits: list, control_bits: list
) -> Workflow:
    """A random-but-valid DAG of deterministic arithmetic processors.

    Processor ``i`` may read any ``j < i`` (edge bits row-major), so the
    graph is acyclic by construction; sources read the workflow input.
    Every sink feeds its own workflow output.  Feeding the ``seed``
    input a *list* exercises implicit iteration under the wavefront
    (each firing's output is then a list, compounding downstream).
    """
    workflow = Workflow("random-dag")
    workflow.add_input("seed")

    for i in range(n_processors):
        feeders = [j for j in range(i) if edge_bits[i * n_processors + j]]
        if not feeders:
            input_ports = {"seed": 0}
        else:
            input_ports = {f"in{j}": 0 for j in feeders}

        def fn(i=i, **values):
            total = 0
            for value in values.values():
                total = total * 31 + (value if isinstance(value, int) else sum(value))
            return total + i

        workflow.add_processor(
            PythonProcessor(
                f"p{i}", fn, input_ports=input_ports, output_ports={"out": 0}
            )
        )
        if not feeders:
            workflow.connect("", "seed", f"p{i}", "seed")
        else:
            for j in feeders:
                workflow.connect(f"p{j}", "out", f"p{i}", f"in{j}")

    fed = {
        link.source.processor
        for link in workflow.data_links
        if link.source.processor
    }
    for i in range(n_processors):
        if f"p{i}" not in fed:
            workflow.add_output(f"result{i}")
            workflow.link(Port(f"p{i}", "out"), Port("", f"result{i}"))

    for i in range(n_processors):
        for j in range(i):
            if control_bits[i * n_processors + j]:
                workflow.control(f"p{j}", f"p{i}")
    return workflow


@st.composite
def random_dags(draw):
    list_source = draw(st.booleans())
    # Iterated runs compound list lengths through cross products, so
    # keep those DAGs small to bound the firing count.
    n = draw(st.integers(min_value=2, max_value=4 if list_source else 7))
    edge_bits = draw(
        st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    )
    control_bits = draw(
        st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    )
    return (
        _build_random_workflow(n, edge_bits, control_bits),
        list_source,
    )


class TestRandomDagDifferential:
    @settings(max_examples=60, deadline=None)
    @given(dag=random_dags(), seed=st.integers(min_value=0, max_value=1000))
    def test_parallel_equals_serial(self, dag, seed):
        workflow, list_source = dag
        inputs = {"seed": [seed, seed + 1, seed + 2] if list_source else seed}
        serial_enactor = Enactor()
        parallel_enactor = ParallelEnactor(max_workers=4)
        serial = serial_enactor.enact(workflow, inputs)
        parallel = parallel_enactor.enact(workflow, inputs)
        assert parallel.outputs == serial.outputs
        assert set(parallel.trace.order()) == set(serial.trace.order())

    def test_failure_propagates_identically(self):
        workflow = Workflow("failing")
        workflow.add_input("x")
        workflow.add_output("y")

        def boom(x):
            raise ValueError("deliberate")

        workflow.add_processor(
            PythonProcessor(
                "ok", lambda x: x + 1, input_ports={"x": 0},
                output_ports={"out": 0},
            )
        )
        workflow.add_processor(
            PythonProcessor(
                "bad", boom, input_ports={"x": 0}, output_ports={"out": 0}
            )
        )
        workflow.connect("", "x", "ok", "x")
        workflow.connect("ok", "out", "bad", "x")
        workflow.add_processor(
            PythonProcessor(
                "after", lambda x: x, input_ports={"x": 0},
                output_ports={"out": 0},
            )
        )
        workflow.connect("bad", "out", "after", "x")
        workflow.link(Port("after", "out"), Port("", "y"))

        with pytest.raises(EnactmentError) as serial_error:
            Enactor().run(workflow, {"x": 1})
        with pytest.raises(EnactmentError) as parallel_error:
            ParallelEnactor(max_workers=3).run(workflow, {"x": 1})
        assert serial_error.value.processor == parallel_error.value.processor
        assert "deliberate" in str(parallel_error.value)


class TestWavefrontFaultPropagation:
    """Satellite: a ServiceFault in one branch fails the run cleanly.

    The wavefront must neither hang nor orphan in-flight siblings: the
    failing branch's error surfaces as one EnactmentError, concurrently
    running siblings finish their firing, nothing downstream of the
    failure is ever scheduled, and the run's thread pools shut down.
    """

    def _forked(self, sibling_delay: float = 0.0) -> Workflow:
        """input -> src -> {bad -> after_bad, slow_sibling} (two branches)."""
        workflow = Workflow("forked")
        workflow.add_input("x")
        workflow.add_output("y")

        def boom(x):
            raise ServiceFault("remote-qa", "endpoint down",
                               endpoint="http://x/qa")

        def slow(x):
            if sibling_delay:
                time.sleep(sibling_delay)
            return x * 2

        workflow.add_processor(
            PythonProcessor("src", lambda x: x + 1, input_ports={"x": 0},
                            output_ports={"out": 0})
        )
        workflow.add_processor(
            PythonProcessor("bad", boom, input_ports={"x": 0},
                            output_ports={"out": 0})
        )
        workflow.add_processor(
            PythonProcessor("after_bad", lambda x: x, input_ports={"x": 0},
                            output_ports={"out": 0})
        )
        workflow.add_processor(
            PythonProcessor("slow_sibling", slow, input_ports={"x": 0},
                            output_ports={"out": 0})
        )
        workflow.connect("", "x", "src", "x")
        workflow.connect("src", "out", "bad", "x")
        workflow.connect("bad", "out", "after_bad", "x")
        workflow.connect("src", "out", "slow_sibling", "x")
        workflow.link(Port("slow_sibling", "out"), Port("", "y"))
        return workflow

    def test_fault_surfaces_without_hanging(self):
        enactor = ParallelEnactor(max_workers=4)
        with pytest.raises(EnactmentError) as error:
            enactor.run(self._forked(), {"x": 1})
        assert error.value.processor == "bad"
        assert isinstance(error.value.cause, ServiceFault)
        assert error.value.cause.endpoint == "http://x/qa"

    def test_in_flight_sibling_completes_and_downstream_is_never_fired(self):
        enactor = ParallelEnactor(max_workers=4)
        with pytest.raises(EnactmentError):
            enactor.run(self._forked(sibling_delay=0.05), {"x": 1})
        trace = enactor.last_trace
        by_name = {event.processor: event for event in trace.events}
        # the sibling that was already in flight finished its firing
        assert by_name["slow_sibling"].status == "completed"
        # nothing downstream of the failure was ever scheduled
        assert "after_bad" not in by_name
        assert by_name["bad"].status == "failed"

    def test_executor_threads_are_shut_down(self):
        enactor = ParallelEnactor(max_workers=3)
        with pytest.raises(EnactmentError):
            enactor.run(self._forked(sibling_delay=0.02), {"x": 1})
        leftovers = [
            thread for thread in threading.enumerate()
            if thread.name.startswith(("enact-forked", "iter-forked"))
        ]
        assert leftovers == []


class TestTraceIsolation:
    """Satellite: concurrent callers never see each other's trace."""

    def _tiny(self, name: str) -> Workflow:
        workflow = Workflow(name)
        workflow.add_input("x")
        workflow.add_output("y")
        workflow.add_processor(
            PythonProcessor(
                "only", lambda x: x, input_ports={"x": 0},
                output_ports={"out": 0},
            )
        )
        workflow.connect("", "x", "only", "x")
        workflow.link(Port("only", "out"), Port("", "y"))
        return workflow

    def test_last_trace_is_per_thread(self):
        enactor = Enactor()
        seen = {}
        barrier = threading.Barrier(2)

        def run(name: str) -> None:
            workflow = self._tiny(name)
            barrier.wait()
            for _ in range(20):
                enactor.run(workflow, {"x": 1})
                assert enactor.last_trace.workflow == name
            seen[name] = enactor.last_trace.workflow

        threads = [
            threading.Thread(target=run, args=(f"wf-{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"wf-0": "wf-0", "wf-1": "wf-1"}

    def test_enact_returns_trace_attached_to_result(self):
        enactor = Enactor()
        workflow = self._tiny("attached")
        first = enactor.enact(workflow, {"x": 1})
        second = enactor.enact(workflow, {"x": 2})
        assert first.trace is not second.trace
        assert first.outputs == {"y": 1}
        assert second.outputs == {"y": 2}
        assert first.trace.order() == ["only"]
        # last_trace still works for backward compatibility
        assert enactor.last_trace is second.trace
