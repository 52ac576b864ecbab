"""The workflow enactment engine.

Fires processors in dependency order, transferring values along data
links and honouring control links, as in Taverna's enactment service.
Implicit iteration: when a depth-0 input port receives a list, the
processor fires once per element (cross product over all iterated
ports, Taverna's default strategy) and each output becomes a list.

This module is the one execution core.  The firing semantics
(implicit iteration, retry/alternate fault tolerance, ``on_failure``
degradation) live in :func:`fire_processor`, whose :func:`fire_once`
is the only caller of ``Processor.fire``; :func:`traced_firing` runs
one firing under its trace event, span and metrics, and
:func:`fire_in_order` fires processor names in order over a value map.
The serial :class:`Enactor`, the wavefront
:class:`repro.runtime.parallel.ParallelEnactor` (which overrides only
the scheduling step), the process backend's stages and the
:class:`repro.stream.incremental.IncrementalEnactor` all fire through
them, differing only in which processors fire, in what order, where.

Resilience belongs to the run: they all take an optional
:class:`repro.resilience.ResilientInvoker`, resolved per processor at
fire time, so a compiled plan is never written to after ``compile()``.

Degradation: a processor whose ``on_failure`` policy is ``"skip"`` or
``"default_annotation"`` absorbs an otherwise-fatal firing failure
into its :meth:`~repro.workflow.processors.Processor.degraded`
fallback outputs; the enactment continues and the trace records the
event with status ``"degraded"`` instead of ``"failed"``.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.observability import get_registry, start_span
from repro.workflow.model import Workflow, WorkflowError
from repro.workflow.processors import ACTIVE_INVOKER, ON_FAILURE_FAIL
from repro.workflow.trace import EnactmentTrace, TraceEvent


class EnactmentError(RuntimeError):
    """A processor failed during enactment."""

    def __init__(self, workflow: str, processor: str, cause: Exception) -> None:
        super().__init__(
            f"processor {processor!r} of workflow {workflow!r} failed: {cause}"
        )
        self.workflow = workflow
        self.processor = processor
        self.cause = cause


@dataclass
class EnactmentResult:
    """One enactment's outputs together with its own trace.

    Unlike ``Enactor.last_trace`` (kept for backward compatibility),
    the trace here belongs unambiguously to this run, so concurrent
    callers can never observe another enactment's record.
    """

    outputs: Dict[str, Any]
    trace: EnactmentTrace


#: Enactment-strategy labels published on the workflow metrics.
KIND_SERIAL = "serial"
KIND_WAVEFRONT = "wavefront"


# -- shared telemetry --------------------------------------------------------


def record_firing(event: TraceEvent) -> None:
    """Publish one finished trace event to the default metric registry.

    :func:`traced_firing` calls this right after an event reaches a
    terminal status, so the per-processor firing counters are — like
    the firing semantics themselves — strategy-independent (the
    differential test in ``tests/test_observability_integration.py``
    pins serial and wavefront counts equal).
    """
    registry = get_registry()
    registry.counter(
        "repro_workflow_processor_firings_total",
        "Processor firings by terminal status.",
        labels=("processor", "status"),
    ).labels(processor=event.processor, status=event.status).inc()
    registry.counter(
        "repro_workflow_processor_iterations_total",
        "Per-element calls performed by processor firings.",
        labels=("processor",),
    ).labels(processor=event.processor).inc(event.iterations)
    if event.status == "degraded":
        registry.counter(
            "repro_workflow_degraded_firings_total",
            "Firings whose failure an on_failure policy absorbed.",
        ).inc()
    duration = event.duration
    if duration is not None:
        registry.histogram(
            "repro_workflow_processor_fire_seconds",
            "Wall-clock seconds of one processor firing (all iterations).",
            labels=("processor",),
        ).labels(processor=event.processor).observe(duration)


@contextlib.contextmanager
def enactment_telemetry(workflow_name: str, kind: str) -> Iterator[None]:
    """Span, in-flight gauge, and outcome counter around one enactment."""
    registry = get_registry()
    registry.gauge(
        "repro_workflow_active_enactments",
        "Workflow enactments currently in flight.",
    ).inc()
    status = "completed"
    try:
        with start_span(
            f"enact:{workflow_name}", workflow=workflow_name, enactor=kind
        ):
            yield
    except BaseException:
        status = "failed"
        raise
    finally:
        registry = get_registry()
        registry.gauge(
            "repro_workflow_active_enactments",
            "Workflow enactments currently in flight.",
        ).dec()
        registry.counter(
            "repro_workflow_enactments_total",
            "Finished enactments by strategy and status.",
            labels=("enactor", "status"),
        ).labels(enactor=kind, status=status).inc()


# -- shared firing semantics -------------------------------------------------


def fire_once(
    processor, inputs: Dict[str, Any], invoker=None
) -> Dict[str, Any]:
    """One processor invocation with Taverna-style fault tolerance.

    A processor may declare ``retries`` (re-invocations after a
    failure) and an ``alternate`` processor tried when every retry
    is exhausted — mirroring Taverna's retry/alternate-processor
    configuration.  ``invoker`` is published as ``ACTIVE_INVOKER``.
    """
    retries = getattr(processor, "retries", 0)
    attempts = retries + 1
    last_error: Optional[Exception] = None
    token = ACTIVE_INVOKER.set(invoker)
    try:
        for _ in range(attempts):
            try:
                return processor.fire(inputs)
            except Exception as exc:  # noqa: BLE001 - fault boundary
                last_error = exc
    finally:
        ACTIVE_INVOKER.reset(token)
    alternate = getattr(processor, "alternate", None)
    if alternate is not None:
        return fire_once(alternate, inputs, invoker)
    assert last_error is not None
    raise last_error


def fire_degradable(
    processor, inputs: Dict[str, Any], degradations: List[str], invoker=None
) -> Dict[str, Any]:
    """One firing with its ``on_failure`` policy applied.

    Runs :func:`fire_once` (retries + alternate); if that still fails
    under a non-``fail`` policy, the failure is absorbed: the fallback
    outputs come from ``processor.degraded`` and a note is appended to
    ``degradations`` for the trace.  The invoker's config, if any,
    overrides the processor's own policy.
    """
    try:
        return fire_once(processor, inputs, invoker)
    except Exception as exc:  # noqa: BLE001 - degradation boundary
        policy = getattr(processor, "on_failure", ON_FAILURE_FAIL)
        if invoker is not None:
            config = invoker.config
            if processor.name in config.on_failure_overrides:
                policy = config.on_failure_overrides[processor.name]
            elif (
                getattr(processor, "service", None) is not None
                and config.on_failure != ON_FAILURE_FAIL
            ):
                policy = config.on_failure
        if policy == ON_FAILURE_FAIL:
            raise
        degradations.append(f"{type(exc).__name__}: {exc}")
        return processor.degraded(inputs, policy)


def iteration_inputs(
    processor, port_values: Mapping[str, Any]
) -> Optional[List[Dict[str, Any]]]:
    """The per-iteration input dicts of one firing, or ``None``.

    ``None`` means no implicit iteration applies (no depth-0 port
    received a list) and the processor fires exactly once.  Otherwise
    the list holds one complete input dict per iteration, in the order
    mandated by the processor's iteration strategy: 'cross' (Taverna's
    default, the cartesian product) or 'dot' (element-wise zip of
    equal-length lists).
    """
    iterated = sorted(
        port
        for port, value in port_values.items()
        if processor.input_ports.get(port, 1) == 0 and isinstance(value, list)
    )
    if not iterated:
        return None
    strategy = getattr(processor, "iteration_strategy", "cross")
    axes = [port_values[port] for port in iterated]
    if strategy == "dot":
        lengths = {len(axis) for axis in axes}
        if len(lengths) > 1:
            raise ValueError(
                f"processor {processor.name!r} uses the dot iteration "
                f"strategy but its iterated inputs have differing "
                f"lengths {sorted(len(a) for a in axes)}"
            )
        combinations = list(zip(*axes))
    elif strategy == "cross":
        combinations = list(itertools.product(*axes))
    else:
        raise ValueError(
            f"processor {processor.name!r} has unknown iteration "
            f"strategy {strategy!r}; valid: 'cross', 'dot'"
        )
    calls: List[Dict[str, Any]] = []
    for combination in combinations:
        call_inputs = dict(port_values)
        for port, value in zip(iterated, combination):
            call_inputs[port] = value
        calls.append(call_inputs)
    return calls


def fire_processor(
    processor, port_values: Dict[str, Any], invoker=None
) -> Tuple[Dict[str, Any], int, List[str]]:
    """Fire a processor over its gathered inputs under ``invoker``.

    Returns ``(outputs, iterations, degradations)`` — the third element
    lists the failures absorbed by the processor's ``on_failure``
    policy (empty on a clean firing; the caller marks the trace event
    degraded when it is not).  Implicit iterations run serially, in
    the order :func:`iteration_inputs` mandates.
    """
    degradations: List[str] = []
    calls = iteration_inputs(processor, port_values)
    if calls is None:
        outputs = fire_degradable(
            processor, dict(port_values), degradations, invoker
        )
        return outputs, 1, degradations
    results = [
        fire_degradable(processor, inputs, degradations, invoker)
        for inputs in calls
    ]
    collected: Dict[str, List[Any]] = {
        port: [] for port in processor.output_ports
    }
    for outputs in results:
        for port in processor.output_ports:
            collected[port].append(outputs.get(port))
    return dict(collected), len(calls), degradations


def gather_port_values(
    workflow: Workflow,
    processor: str,
    values: Mapping[Tuple[str, str], Any],
) -> Dict[str, Any]:
    """Collect one processor's input-port values from produced values."""
    port_values: Dict[str, Any] = {}
    for link in workflow.incoming_links(processor):
        key = (link.source.processor, link.source.port)
        if key not in values:
            raise WorkflowError(
                f"data link {link.source} -> {link.sink} reads a value "
                f"that was never produced"
            )
        port_values[link.sink.port] = values[key]
    return port_values


def collect_workflow_outputs(
    workflow: Workflow, values: Mapping[Tuple[str, str], Any]
) -> Dict[str, Any]:
    """Resolve the workflow-level outputs from the produced values."""
    results: Dict[str, Any] = {}
    for out_name in workflow.outputs:
        for link in workflow.data_links:
            if not link.sink.processor and link.sink.port == out_name:
                key = (link.source.processor, link.source.port)
                if key not in values:
                    raise WorkflowError(
                        f"workflow output {out_name!r} reads a value "
                        f"that was never produced"
                    )
                results[out_name] = values[key]
    return results


def check_inputs(workflow: Workflow, inputs: Mapping[str, Any]) -> None:
    """Reject enactments missing declared workflow inputs."""
    missing = [name for name in workflow.inputs if name not in inputs]
    if missing:
        raise WorkflowError(
            f"workflow {workflow.name!r} is missing inputs {missing}"
        )


# -- the execution core ------------------------------------------------------


def traced_firing(
    trace: EnactmentTrace,
    workflow: Workflow,
    name: str,
    port_values: Dict[str, Any],
    invoker=None,
) -> Dict[str, Any]:
    """Fire one processor over gathered inputs; returns its outputs.

    The single bottleneck of every enactment path: starts the trace
    event, opens a ``fire:<processor>`` span, fires through
    :func:`fire_processor`, maps the outcome onto the event (completed
    / degraded / failed), and publishes it via :func:`record_firing`.
    Raises :class:`EnactmentError` on unabsorbed failure.
    """
    event = trace.start(name)
    with start_span(f"fire:{name}", processor=name, workflow=workflow.name):
        try:
            outputs, iterations, degradations = fire_processor(
                workflow.processors[name], port_values, invoker
            )
        except Exception as exc:
            trace.fail(event, str(exc))
            record_firing(event)
            raise EnactmentError(workflow.name, name, exc) from exc
        if degradations:
            trace.degrade(event, "; ".join(degradations), iterations)
        else:
            trace.complete(event, iterations)
        record_firing(event)
        return outputs


def fire_in_order(
    workflow: Workflow,
    names: Iterable[str],
    values: Dict[Tuple[str, str], Any],
    trace: EnactmentTrace,
    invoker=None,
) -> None:
    """Fire the named processors of ``workflow`` in the given order.

    ``values`` maps ``(processor, port)`` to produced values (workflow
    inputs under an empty processor name); each firing's inputs are
    gathered from it and its outputs stored back into it.
    """
    for name in names:
        port_values = gather_port_values(workflow, name, values)
        outputs = traced_firing(trace, workflow, name, port_values, invoker)
        for port, value in outputs.items():
            values[(name, port)] = value


class Enactor:
    """Runs workflows; keeps the trace of its last enactment.

    ``last_trace`` is stored per *calling thread*: a thread always sees
    the trace of its own most recent run and can never observe another
    thread's enactment (the original single-attribute behaviour made
    concurrent callers race).  :meth:`enact` additionally returns the
    trace attached to the run's own result.

    Its enactments fire under ``invoker``, a
    :class:`repro.resilience.ResilientInvoker`, when one is given.
    """

    #: The strategy label this enactor publishes on workflow metrics.
    kind = KIND_SERIAL

    def __init__(self, invoker=None) -> None:
        self._local = threading.local()
        self.invoker = invoker

    @property
    def last_trace(self) -> Optional[EnactmentTrace]:
        """The calling thread's most recent enactment trace."""
        return getattr(self._local, "trace", None)

    @last_trace.setter
    def last_trace(self, trace: Optional[EnactmentTrace]) -> None:
        self._local.trace = trace

    def run(
        self, workflow: Workflow, inputs: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Enact a workflow over the given inputs; returns its outputs."""
        return self.enact(workflow, inputs).outputs

    def enact(
        self,
        workflow: Workflow,
        inputs: Optional[Mapping[str, Any]] = None,
        invoker=None,
    ) -> EnactmentResult:
        """Enact a workflow; returns its outputs *with* the run's trace.

        ``invoker`` is this run's policy if the enactor has none.
        """
        invoker = self.invoker or invoker
        inputs = dict(inputs or {})
        check_inputs(workflow, inputs)
        workflow.validate()
        trace = EnactmentTrace(workflow.name)
        self.last_trace = trace
        # Values produced so far: (processor, port) -> value; workflow
        # inputs use an empty processor name.
        values: Dict[Tuple[str, str], Any] = {
            ("", name): value for name, value in inputs.items()
        }
        with enactment_telemetry(workflow.name, self.kind):
            self._schedule(workflow, values, trace, invoker)
        return EnactmentResult(collect_workflow_outputs(workflow, values), trace)

    def _schedule(
        self,
        workflow: Workflow,
        values: Dict[Tuple[str, str], Any],
        trace: EnactmentTrace,
        invoker,
    ) -> None:
        """Fire every processor once; the serial strategy uses
        topological order.  Subclasses change only this step."""
        fire_in_order(
            workflow, workflow.topological_order(), values, trace, invoker
        )
