"""The extensible processor collection.

Taverna composes *processors*; new ones are added by scavenging WSDL
services, wrapping local code, or nesting workflows.  A processor
declares named input and output ports (with a depth: 0 = single value,
1 = list) and fires once its inputs are available.
"""

from __future__ import annotations

import abc
import copy
from contextvars import ContextVar
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.observability import get_registry, start_span

#: Degradation policies for failures absorbed at the firing boundary
#: (re-exported by ``repro.resilience.config``, defined here so the
#: workflow layer needs no resilience import).
ON_FAILURE_FAIL = "fail"
ON_FAILURE_SKIP = "skip"
ON_FAILURE_DEFAULT = "default_annotation"
ON_FAILURE_POLICIES = (ON_FAILURE_FAIL, ON_FAILURE_SKIP, ON_FAILURE_DEFAULT)

#: The run's :class:`repro.resilience.ResilientInvoker` (or ``None``),
#: set by :func:`repro.workflow.enactor.fire_once` around each
#: ``Processor.fire`` call in the firing thread.
ACTIVE_INVOKER: ContextVar = ContextVar("repro_active_invoker", default=None)


class Processor(abc.ABC):
    """A workflow step with named, depth-annotated ports.

    ``input_ports`` / ``output_ports`` map port name -> depth.  Depth 0
    ports given a list are implicitly iterated by the enactor (Taverna's
    implicit iteration); depth 1 ports consume the list whole.
    """

    #: How list-valued scalar inputs combine: 'cross' (cartesian
    #: product, Taverna's default) or 'dot' (element-wise zip).
    iteration_strategy: str = "cross"

    #: Re-invocations attempted after a failure before giving up.
    retries: int = 0

    #: Processor tried when this one (and its retries) failed.
    alternate: Optional["Processor"] = None

    #: What an unrecoverable firing failure does: ``"fail"`` propagates
    #: (the default), ``"skip"`` / ``"default_annotation"`` degrade to
    #: :meth:`degraded` outputs and mark the trace event as degraded.
    on_failure: str = ON_FAILURE_FAIL

    def __init__(
        self,
        name: str,
        input_ports: Optional[Mapping[str, int]] = None,
        output_ports: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.name = name
        self.input_ports: Dict[str, int] = dict(input_ports or {})
        self.output_ports: Dict[str, int] = dict(output_ports or {})

    def with_iteration(self, strategy: str) -> "Processor":
        """Set the iteration strategy; returns self for chaining."""
        if strategy not in ("cross", "dot"):
            raise ValueError(
                f"unknown iteration strategy {strategy!r}; "
                f"valid: 'cross', 'dot'"
            )
        self.iteration_strategy = strategy
        return self

    def with_fault_tolerance(
        self, retries: int = 0, alternate: Optional["Processor"] = None
    ) -> "Processor":
        """Configure Taverna-style retry / alternate-processor handling."""
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.retries = retries
        self.alternate = alternate
        return self

    def with_on_failure(self, policy: str) -> "Processor":
        """Set the degradation policy; returns self for chaining."""
        if policy not in ON_FAILURE_POLICIES:
            raise ValueError(
                f"unknown on_failure policy {policy!r}; "
                f"valid: {ON_FAILURE_POLICIES}"
            )
        self.on_failure = policy
        return self

    def invoke_service(
        self,
        service: Any,
        dataset: Any,
        amap: Any,
        context: Optional[Mapping[str, Any]] = None,
    ) -> Any:
        """Route one service call through the run's resilient invoker.

        Service-backed processors call this instead of
        ``service.invoke`` directly, so an enactment that fires with an
        invoker (see :data:`ACTIVE_INVOKER`) adds retry, deadline and
        circuit-breaker behaviour without touching firing semantics.
        """
        get_registry().counter(
            "repro_workflow_service_calls_total",
            "Service invocations issued by workflow processors.",
            labels=("processor",),
        ).labels(processor=self.name).inc()
        with start_span(
            f"service:{self.name}",
            processor=self.name,
            service=getattr(service, "name", ""),
        ):
            invoker = ACTIVE_INVOKER.get()
            if invoker is None:
                return service.invoke(dataset, amap, context=context)
            return invoker.invoke(service, dataset, amap, context=context)

    def degraded(self, inputs: Dict[str, Any], policy: str) -> Dict[str, Any]:
        """Fallback outputs when ``on_failure`` absorbs a failure.

        The default contribution is "nothing": an ``annotationMap``
        output passes the input map through unchanged (the processor
        added no annotations — evidence missing), list ports become
        empty lists, scalar ports ``None``.  Subclasses refine this
        (e.g. a QA tagging items as degraded under
        ``default_annotation``).
        """
        from repro.annotation.map import AnnotationMap

        outputs: Dict[str, Any] = {}
        for port, depth in self.output_ports.items():
            if port == "annotationMap":
                amap = inputs.get("annotationMap")
                outputs[port] = (
                    amap.copy() if isinstance(amap, AnnotationMap)
                    else AnnotationMap()
                )
            elif depth >= 1:
                outputs[port] = []
            else:
                outputs[port] = None
        return outputs

    @abc.abstractmethod
    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Consume one set of input values, produce all output values."""

    def with_name(self, name: str) -> "Processor":
        """A shallow clone under a new name (used when embedding)."""
        clone = copy.copy(self)
        clone.name = name
        clone.input_ports = dict(self.input_ports)
        clone.output_ports = dict(self.output_ports)
        return clone

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"in={sorted(self.input_ports)} out={sorted(self.output_ports)}>"
        )


class StringConstantProcessor(Processor):
    """Taverna's string-constant processor: no inputs, one constant output."""

    def __init__(self, name: str, value: str) -> None:
        super().__init__(name, input_ports={}, output_ports={"value": 0})
        self.value = value

    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Consume one set of inputs, produce all outputs."""

        return {"value": self.value}


class PythonProcessor(Processor):
    """A local-code processor (Taverna's beanshell analogue).

    The callable receives the input values as keyword arguments and
    returns a dict of outputs (or a single value if there is exactly one
    output port).
    """

    def __init__(
        self,
        name: str,
        fn: Callable[..., Any],
        input_ports: Optional[Mapping[str, int]] = None,
        output_ports: Optional[Mapping[str, int]] = None,
    ) -> None:
        super().__init__(
            name,
            input_ports=input_ports or {},
            output_ports=output_ports or {"output": 0},
        )
        self.fn = fn

    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Consume one set of inputs, produce all outputs."""

        result = self.fn(**inputs)
        if isinstance(result, dict) and set(result) == set(self.output_ports):
            return result
        if len(self.output_ports) == 1:
            only = next(iter(self.output_ports))
            return {only: result}
        raise ValueError(
            f"processor {self.name!r} returned {type(result).__name__}; "
            f"expected a dict with ports {sorted(self.output_ports)}"
        )


class AdapterProcessor(PythonProcessor):
    """A deployment adapter: converts between host and quality formats.

    Paper Sec. 6.2: "adapters typically account for differences in data
    formats; as they are Taverna processors themselves, their names are
    registered and can be used within the descriptor."
    """

    def __init__(
        self,
        name: str,
        fn: Callable[..., Any],
        input_port: str = "input",
        output_port: str = "output",
        depth: int = 1,
    ) -> None:
        super().__init__(
            name,
            fn,
            input_ports={input_port: depth},
            output_ports={output_port: depth},
        )
        self.input_port = input_port
        self.output_port = output_port


class WSDLProcessor(Processor):
    """A processor invoking a deployed Qurator service.

    Exposes the common interface as ports: ``dataSet`` (depth 1),
    ``annotationMap`` (depth 1 conceptually, transported whole), output
    ``annotationMap``.  ``config`` carries QA-operator configuration
    (tag name/types, variable bindings) fixed at compile time.
    """

    def __init__(
        self,
        name: str,
        service,
        config: Optional[Mapping[str, Any]] = None,
    ) -> None:
        super().__init__(
            name,
            input_ports={"dataSet": 1, "annotationMap": 1},
            output_ports={"annotationMap": 1},
        )
        self.service = service
        self.config = dict(config or {})

    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Consume one set of inputs, produce all outputs."""

        from repro.annotation.map import AnnotationMap
        from repro.services.messages import DataSetMessage

        dataset = inputs.get("dataSet")
        if not isinstance(dataset, DataSetMessage):
            dataset = DataSetMessage(list(dataset or []))
        amap = inputs.get("annotationMap")
        if amap is None:
            amap = AnnotationMap()
        result = self.invoke_service(
            self.service, dataset, amap, context=self.config or None
        )
        return {"annotationMap": result}


class NestedWorkflowProcessor(Processor):
    """A whole workflow embedded as a single processor."""

    def __init__(self, name: str, workflow, enactor=None) -> None:
        super().__init__(
            name,
            input_ports={port: 1 for port in workflow.inputs},
            output_ports={port: 1 for port in workflow.outputs},
        )
        self.workflow = workflow
        self._enactor = enactor

    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Enact the inner workflow under the outer run's invoker."""

        from repro.workflow.enactor import Enactor

        enactor = self._enactor if self._enactor is not None else Enactor()
        return enactor.enact(
            self.workflow, inputs, ACTIVE_INVOKER.get()
        ).outputs
