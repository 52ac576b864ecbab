"""Tests for the workflow environment: model, enactor, scavenger, SCUFL."""

import pathlib
import re

import pytest

from repro.annotation import AnnotationMap
from repro.annotation.functions import CallableAnnotationFunction
from repro.rdf import Q, URIRef
from repro.services import AnnotationService, ServiceRegistry
from repro.workflow import (
    Enactor,
    EnactmentError,
    Port,
    PythonProcessor,
    Scavenger,
    StringConstantProcessor,
    Workflow,
    WorkflowError,
)
from repro.workflow.scufl import workflow_from_xml, workflow_to_xml


def linear_workflow():
    wf = Workflow("linear")
    wf.add_input("x")
    wf.add_output("y")
    wf.add_processor(
        PythonProcessor("double", lambda v: v * 2,
                        input_ports={"v": 1}, output_ports={"out": 0})
    )
    wf.add_processor(
        PythonProcessor("inc", lambda v: v + 1,
                        input_ports={"v": 1}, output_ports={"out": 0})
    )
    wf.connect("", "x", "double", "v")
    wf.connect("double", "out", "inc", "v")
    wf.connect("inc", "out", "", "y")
    return wf


class TestModel:
    def test_duplicate_processor_rejected(self):
        wf = Workflow("w")
        wf.add_processor(StringConstantProcessor("c", "v"))
        with pytest.raises(WorkflowError):
            wf.add_processor(StringConstantProcessor("c", "v"))

    def test_link_validates_ports(self):
        wf = linear_workflow()
        with pytest.raises(WorkflowError):
            wf.connect("double", "nonexistent", "inc", "v")
        with pytest.raises(WorkflowError):
            wf.connect("ghost", "out", "inc", "v")
        with pytest.raises(WorkflowError):
            wf.connect("", "not_an_input", "inc", "v")

    def test_control_link_validates_names(self):
        wf = linear_workflow()
        with pytest.raises(WorkflowError):
            wf.control("double", "ghost")

    def test_topological_order_respects_data_links(self):
        order = linear_workflow().topological_order()
        assert order.index("double") < order.index("inc")

    def test_topological_order_respects_control_links(self):
        wf = Workflow("w")
        wf.add_processor(StringConstantProcessor("a", "1"))
        wf.add_processor(StringConstantProcessor("b", "2"))
        wf.control("b", "a")
        order = wf.topological_order()
        assert order.index("b") < order.index("a")

    def test_cycle_detected(self):
        wf = Workflow("w")
        wf.add_processor(PythonProcessor("a", lambda v: v,
                                         input_ports={"v": 1},
                                         output_ports={"out": 0}))
        wf.add_processor(PythonProcessor("b", lambda v: v,
                                         input_ports={"v": 1},
                                         output_ports={"out": 0}))
        wf.connect("a", "out", "b", "v")
        wf.connect("b", "out", "a", "v")
        with pytest.raises(WorkflowError, match="cycle"):
            wf.topological_order()

    def test_validate_rejects_double_fed_port(self):
        wf = linear_workflow()
        wf.add_processor(StringConstantProcessor("c", "v"))
        wf.data_links.append(
            type(wf.data_links[0])(Port("c", "value"), Port("inc", "v"))
        )
        with pytest.raises(WorkflowError, match="multiple data links"):
            wf.validate()

    def test_validate_rejects_unfed_output(self):
        wf = Workflow("w")
        wf.add_output("y")
        with pytest.raises(WorkflowError, match="exactly one"):
            wf.validate()


class TestEnactor:
    def test_linear_run(self):
        outputs = Enactor().run(linear_workflow(), {"x": 5})
        assert outputs == {"y": 11}

    def test_missing_input_rejected(self):
        with pytest.raises(WorkflowError, match="missing inputs"):
            Enactor().run(linear_workflow(), {})

    def test_processor_failure_wrapped(self):
        wf = Workflow("boom")
        wf.add_processor(
            PythonProcessor("bad", lambda: 1 / 0, output_ports={"out": 0})
        )
        with pytest.raises(EnactmentError) as info:
            Enactor().run(wf, {})
        assert info.value.processor == "bad"

    def test_trace_records_order_and_status(self):
        enactor = Enactor()
        enactor.run(linear_workflow(), {"x": 1})
        trace = enactor.last_trace
        assert trace.order() == ["double", "inc"]
        assert all(e.status == "completed" for e in trace.events)
        assert trace.failed() == []

    def test_implicit_iteration_over_scalar_port(self):
        wf = Workflow("iter")
        wf.add_input("xs")
        wf.add_output("ys")
        wf.add_processor(
            PythonProcessor("sq", lambda v: v * v,
                            input_ports={"v": 0}, output_ports={"out": 0})
        )
        wf.connect("", "xs", "sq", "v")
        wf.connect("sq", "out", "", "ys")
        assert Enactor().run(wf, {"xs": [1, 2, 3]})["ys"] == [1, 4, 9]

    def test_implicit_iteration_cross_product(self):
        wf = Workflow("cross")
        wf.add_input("a")
        wf.add_input("b")
        wf.add_output("c")
        wf.add_processor(
            PythonProcessor("pair", lambda x, y: (x, y),
                            input_ports={"x": 0, "y": 0},
                            output_ports={"out": 0})
        )
        wf.connect("", "a", "pair", "x")
        wf.connect("", "b", "pair", "y")
        wf.connect("pair", "out", "", "c")
        result = Enactor().run(wf, {"a": [1, 2], "b": ["u", "v"]})
        assert result["c"] == [(1, "u"), (1, "v"), (2, "u"), (2, "v")]

    def test_iteration_count_in_trace(self):
        wf = Workflow("iter")
        wf.add_input("xs")
        wf.add_output("ys")
        wf.add_processor(
            PythonProcessor("sq", lambda v: v,
                            input_ports={"v": 0}, output_ports={"out": 0})
        )
        wf.connect("", "xs", "sq", "v")
        wf.connect("sq", "out", "", "ys")
        enactor = Enactor()
        enactor.run(wf, {"xs": [1, 2, 3]})
        assert enactor.last_trace.events[0].iterations == 3


class TestScavenger:
    def make_registry(self):
        registry = ServiceRegistry()
        fn = CallableAnnotationFunction(
            Q["Imprint-output-annotation"],
            [Q.HitRatio],
            lambda item, ctx: {Q.HitRatio: 1.0},
        )
        registry.deploy(
            AnnotationService("AnnSvc", fn.function_class, "", fn)
        )
        return registry

    def test_scan_discovers_services(self):
        scavenger = Scavenger()
        found = scavenger.scan(self.make_registry())
        assert found == ["AnnSvc"]
        assert "AnnSvc" in scavenger

    def test_scan_is_incremental(self):
        registry = self.make_registry()
        scavenger = Scavenger()
        scavenger.scan(registry)
        assert scavenger.scan(registry) == []

    def test_processor_for_discovered_service(self):
        registry = self.make_registry()
        scavenger = Scavenger()
        scavenger.scan(registry)
        processor = scavenger.processor("AnnSvc")
        item = URIRef("urn:lsid:test:data:1")
        outputs = processor.fire(
            {"dataSet": [item], "annotationMap": AnnotationMap()}
        )
        assert outputs["annotationMap"].get_evidence(item, Q.HitRatio) == 1.0

    def test_unknown_service_raises(self):
        with pytest.raises(KeyError):
            Scavenger().processor("ghost")


class TestScufl:
    def test_structure_roundtrip(self):
        wf = linear_workflow()
        wf.control("double", "inc")
        restored = workflow_from_xml(workflow_to_xml(wf))
        assert set(restored.processors) == {"double", "inc"}
        assert restored.inputs == ["x"]
        assert restored.outputs == ["y"]
        assert len(restored.data_links) == 3
        assert len(restored.control_links) == 1
        assert restored.topological_order() == ["double", "inc"]

    def test_stub_processors_refuse_to_fire(self):
        restored = workflow_from_xml(workflow_to_xml(linear_workflow()))
        with pytest.raises(NotImplementedError):
            restored.processors["double"].fire({})

    def test_factory_supplies_implementations(self):
        def factory(name, type_name, inputs, outputs):
            return PythonProcessor(
                name, lambda v: v, input_ports=inputs, output_ports=outputs
            )

        restored = workflow_from_xml(
            workflow_to_xml(linear_workflow()), processor_factory=factory
        )
        assert Enactor().run(restored, {"x": 7}) == {"y": 7}


class TestExecutionCoreLint:
    """Only the execution core may call ``Processor.fire``: every
    enactment path (serial, wavefront, process worker, incremental)
    fires through ``repro.workflow.enactor.fire_processor``, so the
    invoker, retries, alternates and ``on_failure`` always apply."""

    PATTERN = re.compile(r"\.fire\(")
    ALLOWED = {pathlib.PurePosixPath("repro/workflow/enactor.py")}

    def test_no_direct_fire_outside_the_enactor(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            relative = pathlib.PurePosixPath(
                path.relative_to(src).as_posix()
            )
            if relative in self.ALLOWED:
                continue
            for line_no, line in enumerate(
                path.read_text("utf-8").splitlines(), start=1
            ):
                if self.PATTERN.search(line):
                    offenders.append(f"{relative}:{line_no}: {line.strip()}")
        assert not offenders, (
            "processors fired outside the execution core:\n"
            + "\n".join(offenders)
        )
