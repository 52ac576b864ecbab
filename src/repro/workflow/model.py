"""Workflow structure: processors, ports, data links, control links."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.workflow.processors import Processor


class WorkflowError(ValueError):
    """Raised on structurally invalid workflows."""


@dataclass(frozen=True)
class Port:
    """A reference to a named port of a processor (or of the workflow).

    ``processor`` is empty for workflow-level source/sink ports.
    """

    processor: str
    port: str

    def __str__(self) -> str:
        return f"{self.processor}.{self.port}" if self.processor else self.port


@dataclass(frozen=True)
class DataLink:
    """Value flow from a source port to a sink port."""

    source: Port
    sink: Port


@dataclass(frozen=True)
class ControlLink:
    """Sink starts only after source completes (no data transferred)."""

    source: str  # processor name
    sink: str


@dataclass(frozen=True)
class WavefrontSchedule:
    """A precomputed enactment schedule over a workflow's processors.

    ``stages`` groups processors into wavefronts: everything in stage
    *n* depends only on processors of earlier stages, so one stage can
    fire concurrently.  ``dependencies`` maps each processor to its
    direct upstream set and ``dependents`` to the processors waiting on
    it — exactly the bookkeeping the parallel enactor otherwise
    re-derives per run.  Compiled quality workflows carry one
    (:func:`repro.qv.backend.emit_workflow` calls
    :meth:`Workflow.ensure_schedule`); structural edits invalidate it.
    """

    stages: Tuple[Tuple[str, ...], ...]
    dependencies: Dict[str, FrozenSet[str]]
    dependents: Dict[str, Tuple[str, ...]]


class Workflow:
    """A composition of processors, in the style of Taverna's SCUFL."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.processors: Dict[str, Processor] = {}
        self.data_links: List[DataLink] = []
        self.control_links: List[ControlLink] = []
        #: Workflow-level inputs: name -> Port() with empty processor.
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        #: Compiler provenance: fingerprint of the source quality view.
        #: ``None`` for hand-built workflows.
        self.source_fingerprint: Optional[str] = None
        self._schedule: Optional[WavefrontSchedule] = None

    # -- construction ------------------------------------------------------

    def add_processor(self, processor: Processor) -> Processor:
        """Add a processor; duplicate names are rejected."""
        if processor.name in self.processors:
            raise WorkflowError(
                f"workflow {self.name!r} already has a processor "
                f"named {processor.name!r}"
            )
        self.processors[processor.name] = processor
        self._schedule = None
        return processor

    def add_input(self, name: str) -> None:
        """Declare a workflow-level input port."""
        if name in self.inputs:
            raise WorkflowError(f"duplicate workflow input {name!r}")
        self.inputs.append(name)

    def add_output(self, name: str) -> None:
        """Declare a workflow-level output port."""
        if name in self.outputs:
            raise WorkflowError(f"duplicate workflow output {name!r}")
        self.outputs.append(name)

    def _check_port(self, port: Port, direction: str) -> None:
        if not port.processor:
            names = self.inputs if direction == "source" else self.outputs
            if port.port not in names:
                raise WorkflowError(
                    f"workflow has no {direction} port {port.port!r}"
                )
            return
        processor = self.processors.get(port.processor)
        if processor is None:
            raise WorkflowError(f"no processor named {port.processor!r}")
        ports = (
            processor.output_ports if direction == "source" else processor.input_ports
        )
        if port.port not in ports:
            kind = "output" if direction == "source" else "input"
            raise WorkflowError(
                f"processor {port.processor!r} has no {kind} port {port.port!r} "
                f"(has {sorted(ports)})"
            )

    def link(self, source: Port, sink: Port) -> DataLink:
        """Install a data link after validating both ports."""
        self._check_port(source, "source")
        self._check_port(sink, "sink")
        link = DataLink(source, sink)
        self.data_links.append(link)
        self._schedule = None
        return link

    def connect(
        self, source: str, source_port: str, sink: str, sink_port: str
    ) -> DataLink:
        """Convenience: link processor ports by name.

        An empty processor name addresses the workflow's own ports.
        """
        return self.link(Port(source, source_port), Port(sink, sink_port))

    def control(self, source: str, sink: str) -> ControlLink:
        """Install a control link (sink waits for source)."""
        for name in (source, sink):
            if name not in self.processors:
                raise WorkflowError(f"no processor named {name!r}")
        link = ControlLink(source, sink)
        self.control_links.append(link)
        self._schedule = None
        return link

    # -- analysis ---------------------------------------------------------------

    def upstream_of(self, processor: str) -> Set[str]:
        """Processors that must complete before ``processor`` can fire."""
        names: Set[str] = set()
        for link in self.data_links:
            if link.sink.processor == processor and link.source.processor:
                names.add(link.source.processor)
        for link in self.control_links:
            if link.sink == processor:
                names.add(link.source)
        return names

    def incoming_links(self, processor: str) -> List[DataLink]:
        """Data links feeding a processor."""
        return [l for l in self.data_links if l.sink.processor == processor]

    def outgoing_links(self, processor: str) -> List[DataLink]:
        """Data links reading a processor's outputs."""
        return [l for l in self.data_links if l.source.processor == processor]

    def boundary_links(self, region: Set[str]) -> List[DataLink]:
        """Data links leaving a processor region.

        A link is on the boundary when its source processor lies inside
        ``region`` and its sink does not — including links feeding the
        workflow's own output ports (empty sink processor).  The process
        execution backend uses this to decide which shardable-stage
        values must cross back to the parent for the residual stages.
        """
        return [
            link
            for link in self.data_links
            if link.source.processor in region
            and link.sink.processor not in region
        ]

    def topological_order(self) -> List[str]:
        """Processor firing order; raises on cyclic dependencies.

        The cached wavefront schedule's stages, flattened: wavefront by
        wavefront, sorted by name within each.
        """
        return [
            name for stage in self.ensure_schedule().stages for name in stage
        ]

    def compute_schedule(self) -> "WavefrontSchedule":
        """Derive (and cache) the wavefront schedule; raises on cycles.

        Stage membership is deterministic: each wavefront lists its
        processors in sorted name order.
        """
        dependencies = {
            name: frozenset(self.upstream_of(name)) for name in self.processors
        }
        dependents: Dict[str, List[str]] = {name: [] for name in self.processors}
        for name, deps in dependencies.items():
            for dep in deps:
                dependents[dep].append(name)
        remaining = {name: set(deps) for name, deps in dependencies.items()}
        stages: List[Tuple[str, ...]] = []
        ready = sorted(name for name, deps in remaining.items() if not deps)
        while ready:
            stages.append(tuple(ready))
            for name in ready:
                del remaining[name]
            newly_ready: Set[str] = set()
            for name in ready:
                for dependent in dependents[name]:
                    deps = remaining.get(dependent)
                    if deps is not None:
                        deps.discard(name)
                        if not deps:
                            newly_ready.add(dependent)
            ready = sorted(newly_ready)
        if remaining:
            raise WorkflowError(
                f"workflow {self.name!r} has a dependency cycle among "
                f"{sorted(remaining)}"
            )
        schedule = WavefrontSchedule(
            stages=tuple(stages),
            dependencies=dependencies,
            dependents={
                name: tuple(waiting) for name, waiting in dependents.items()
            },
        )
        self._schedule = schedule
        return schedule

    def ensure_schedule(self) -> "WavefrontSchedule":
        """The cached schedule, recomputed if missing or stale."""
        schedule = self._schedule
        if (
            schedule is None
            or schedule.dependencies.keys() != self.processors.keys()
        ):
            return self.compute_schedule()
        return schedule

    @property
    def schedule(self) -> Optional["WavefrontSchedule"]:
        """The cached wavefront schedule, or ``None`` after edits."""
        return self._schedule

    def depth_warnings(self) -> List[str]:
        """Advisory lint: data links whose port depths disagree.

        A depth-1 output feeding a depth-0 input triggers implicit
        iteration (often intended); a depth-0 output feeding a depth-1
        input delivers a scalar where a list is expected (rarely
        intended).  Neither is an error — Taverna tolerates both — so
        these are warnings for tooling to surface.
        """
        warnings: List[str] = []
        for link in self.data_links:
            if not link.source.processor or not link.sink.processor:
                continue
            source_depth = self.processors[link.source.processor].output_ports.get(
                link.source.port
            )
            sink_depth = self.processors[link.sink.processor].input_ports.get(
                link.sink.port
            )
            if source_depth is None or sink_depth is None:
                continue
            if source_depth > sink_depth:
                warnings.append(
                    f"{link.source} (depth {source_depth}) feeds {link.sink} "
                    f"(depth {sink_depth}): implicit iteration will apply"
                )
            elif source_depth < sink_depth:
                warnings.append(
                    f"{link.source} (depth {source_depth}) feeds {link.sink} "
                    f"(depth {sink_depth}): a scalar will arrive where a "
                    f"list is expected"
                )
        return warnings

    def validate(self) -> None:
        """Structural checks: wiring consistent, acyclic, inputs feedable."""
        self.topological_order()
        # every workflow output must be fed by exactly one link
        for name in self.outputs:
            feeders = [
                l for l in self.data_links
                if not l.sink.processor and l.sink.port == name
            ]
            if len(feeders) != 1:
                raise WorkflowError(
                    f"workflow output {name!r} must be fed by exactly one "
                    f"data link, found {len(feeders)}"
                )
        # no two links may feed the same processor input port
        seen: Set[Tuple[str, str]] = set()
        for link in self.data_links:
            if link.sink.processor:
                key = (link.sink.processor, link.sink.port)
                if key in seen:
                    raise WorkflowError(
                        f"input port {link.sink} is fed by multiple data links"
                    )
                seen.add(key)

    # -- embedding ---------------------------------------------------------------

    def merge(self, other: "Workflow", prefix: str = "") -> Dict[str, str]:
        """Copy another workflow's processors and links into this one.

        Returns the processor name mapping (old -> new).  Workflow-level
        ports of ``other`` are *not* copied; the caller wires the merged
        fragment explicitly (that is the deployment descriptor's job).
        """
        self._schedule = None
        renamed: Dict[str, str] = {}
        for name, processor in other.processors.items():
            new_name = f"{prefix}{name}"
            if new_name in self.processors:
                raise WorkflowError(
                    f"embedding collision: processor {new_name!r} already exists"
                )
            renamed[name] = new_name
            clone = processor.with_name(new_name)
            self.processors[new_name] = clone
        for link in other.data_links:
            if not link.source.processor or not link.sink.processor:
                continue  # workflow-port links are re-wired by the embedder
            self.data_links.append(
                DataLink(
                    Port(renamed[link.source.processor], link.source.port),
                    Port(renamed[link.sink.processor], link.sink.port),
                )
            )
        for link in other.control_links:
            self.control_links.append(
                ControlLink(renamed[link.source], renamed[link.sink])
            )
        return renamed

    def __repr__(self) -> str:
        return (
            f"<Workflow {self.name!r}: {len(self.processors)} processors, "
            f"{len(self.data_links)} data links, "
            f"{len(self.control_links)} control links>"
        )
