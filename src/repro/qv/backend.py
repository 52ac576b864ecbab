"""Workflow emission: the staged compiler's backend.

Turns a pass-rewritten :class:`~repro.qv.ir.IRModule` into an
executable :class:`~repro.workflow.model.Workflow`.  Emission follows
the paper's Sec. 6.1 rule order (annotators, one DE, QAs,
consolidation, actions), so with no pass firing the emitted topology
— processor names, port wiring, consolidation slots, output ports —
is the rule-by-rule translation that the golden Fig. 6 test in
``tests/test_compiler_ir.py`` freezes.  Pass results change the
picture only locally:

* an :class:`~repro.qv.ir.IREnrichment` with a ``plan`` emits a
  :class:`BatchEnrichmentProcessor` walking the precomputed
  per-repository keyed reads;
* a fused :class:`~repro.qv.ir.IRBundle` emits a
  :class:`FusedAssertionProcessor` — one service invocation, one
  output map per member, wired into ConsolidateAssertions at each
  member's original declaration slot;
* an :class:`~repro.qv.ir.IRGate` emits a :class:`FilterGateProcessor`
  after the producing QA; later bundles and the actions then read
  their data set from the gate, and gate-fed assertion processors get
  ``skip_on_empty`` (a QA service invoked with an empty data set would
  otherwise operate on the *whole* input map).

The emitted workflow carries a precomputed wavefront schedule
(:meth:`~repro.workflow.model.Workflow.ensure_schedule`) that the
parallel enactor consumes instead of re-deriving stages per run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.annotation.map import AnnotationMap
from repro.annotation.store import AnnotationStore
from repro.process.actions import FilterAction
from repro.qv.compiler import (
    CONSOLIDATE,
    DATA_ENRICHMENT,
    DEGRADED_TAG,
    ActionProcessor,
    AnnotatorProcessor,
    AssertionProcessor,
    ConsolidateProcessor,
    DataEnrichmentProcessor,
    sanitize,
)
from repro.qv.ir import IRAssertion, IRBundle, IRModule
from repro.rdf import URIRef
from repro.services.messages import DataSetMessage
from repro.workflow.model import Workflow
from repro.workflow.processors import ON_FAILURE_DEFAULT, Processor

__all__ = [
    "FILTER_GATE",
    "STAGE_ANNOTATE",
    "STAGE_ASSERT",
    "STAGE_ENRICH",
    "BatchEnrichmentProcessor",
    "FilterGateProcessor",
    "FusedAssertionProcessor",
    "emit_workflow",
    "shardable_processors",
    "stage_chain",
]

#: Compiler-assigned name of the pushed-down filter gate processor.
FILTER_GATE = "FilterGate"


class BatchEnrichmentProcessor(DataEnrichmentProcessor):
    """A DE executing the compile-time per-repository column plan.

    Grouping and read order in ``plan`` replicate what the plain
    :class:`DataEnrichmentProcessor` derives on every firing, so
    results and repository hit/miss accounting are identical;
    ``sources`` is kept for introspection and structural compatibility.
    """

    def __init__(
        self,
        name: str,
        sources: Mapping[URIRef, AnnotationStore],
        plan: List[Tuple[AnnotationStore, Tuple[URIRef, ...]]],
    ) -> None:
        super().__init__(name, sources)
        self.plan = list(plan)

    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Execute this compiled step; see the class docstring."""

        items = list(inputs.get("dataSet") or [])
        amap = AnnotationMap(items)
        for store, evidence_types in self.plan:
            store.enrich(amap, items, list(evidence_types))
        return {"annotationMap": amap}


class FusedAssertionProcessor(Processor):
    """Several QAs of one service, executed in a single invocation.

    The service receives the member operator configurations under the
    ``"operators"`` context key, pays one round trip, and chains the
    member operators over the same restricted map (QA operators read
    only evidence vectors, so earlier members' tags cannot influence
    later members).  The merged result is split back into one output
    map per member — base map plus that member's tag only — which is
    byte-identical to what the member's standalone processor would
    have produced.
    """

    def __init__(
        self,
        name: str,
        service,
        member_configs: List[Mapping[str, Any]],
        skip_on_empty: bool = False,
    ) -> None:
        super().__init__(
            name,
            input_ports={"dataSet": 1, "annotationMap": 1},
            output_ports={
                f"annotationMap{i}": 1 for i in range(len(member_configs))
            },
        )
        self.service = service
        self.member_configs = [dict(config) for config in member_configs]
        self.skip_on_empty = skip_on_empty

    @staticmethod
    def _restricted(items: List[URIRef], amap: AnnotationMap) -> AnnotationMap:
        """The map the service restricts to (its pre-tag base)."""
        if not items:
            return amap.copy()
        restricted = amap.subset(items)
        for item in items:
            restricted.add_item(item)
        return restricted

    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Execute this compiled step; see the class docstring."""

        items = list(inputs.get("dataSet") or [])
        amap = inputs.get("annotationMap") or AnnotationMap()
        if not items and self.skip_on_empty:
            return {port: amap.subset([]) for port in self.output_ports}
        merged = self.invoke_service(
            self.service,
            DataSetMessage(items),
            amap,
            context={
                "operators": [dict(c) for c in self.member_configs],
            },
        )
        base = self._restricted(items, amap)
        outputs: Dict[str, Any] = {}
        for i, config in enumerate(self.member_configs):
            tag_name = config["tag_name"]
            member_map = base.copy()
            for item in merged.items():
                tag = merged.get_tag(item, tag_name)
                if tag is not None:
                    member_map.set_tag(
                        item,
                        tag_name,
                        tag.value,
                        syn_type=tag.syn_type,
                        sem_type=tag.sem_type,
                    )
            outputs[f"annotationMap{i}"] = member_map
        return outputs

    def degraded(self, inputs: Dict[str, Any], policy: str) -> Dict[str, Any]:
        """Per-member degradation, mirroring the standalone QA processor.

        Every member passes the input map through; under
        ``default_annotation`` each additionally tags the input items
        as ``q:degraded`` under its own tag name.  Note the coupling a
        fused plan introduces: one failed invocation degrades all
        members together.
        """
        amap = inputs.get("annotationMap")
        base = amap.copy() if isinstance(amap, AnnotationMap) else AnnotationMap()
        items = list(inputs.get("dataSet") or [])
        outputs: Dict[str, Any] = {}
        for i, config in enumerate(self.member_configs):
            member_map = base.copy()
            tag_name = config.get("tag_name")
            if policy == ON_FAILURE_DEFAULT and tag_name:
                for item in items:
                    member_map.set_tag(item, tag_name, DEGRADED_TAG)
            outputs[f"annotationMap{i}"] = member_map
        return outputs


class FilterGateProcessor(Processor):
    """The pushed-down filter: narrows the data set on an early verdict.

    Evaluates the hoisted conjunction through a regular
    :class:`~repro.process.actions.FilterAction` (identical environment
    construction and error behaviour to the downstream actions) and
    emits the surviving items in input order.  Deliberately has no
    ``service`` attribute: it makes no remote call, so a run's
    resilience policy never routes or degrades it (only an
    ``on_failure_overrides`` entry naming it does).
    """

    def __init__(
        self,
        name: str,
        predicate: str,
        namespaces,
        variable_bindings: Mapping[str, URIRef],
    ) -> None:
        super().__init__(
            name,
            input_ports={"dataSet": 1, "annotationMap": 1},
            output_ports={"dataSet": 1},
        )
        self.predicate = predicate
        self.gate = FilterAction(name, predicate, namespaces=namespaces)
        self.variable_bindings = dict(variable_bindings)

    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Execute this compiled step; see the class docstring."""

        items = list(inputs.get("dataSet") or [])
        amap = inputs.get("annotationMap") or AnnotationMap()
        outcome = self.gate.execute(items, amap, self.variable_bindings)
        return {"dataSet": outcome.items(FilterAction.ACCEPTED)}


# -- stage-chain emission (process execution backend) -----------------------
#
# The multi-process runtime splits a compiled quality workflow into a
# *shardable* prefix — processors whose per-item outputs are independent
# of the rest of the collection, safe to run over a hash partition of
# the data set — and a *residual* suffix the parent runs over the merged
# frontier (collection-scoped QAs, consolidation, actions).  Worker
# processes run the shardable prefix as a chain of streaming stages:
# annotate -> enrich -> assert/filter.

#: Worker-side stage names, in hand-off order.
STAGE_ANNOTATE = "annotate"
STAGE_ENRICH = "enrich"
STAGE_ASSERT = "assert"

STAGE_ORDER = (STAGE_ANNOTATE, STAGE_ENRICH, STAGE_ASSERT)


def _item_partitionable(processor: Processor) -> bool:
    """Whether one processor's semantics survive item partitioning.

    Annotators and data enrichment are per-item by construction (keyed
    repository writes/reads).  A QA is partitionable only when its
    service declares ``item_local`` verdicts; a fused bundle inherits
    the declaration of its (single) service.  The filter gate evaluates
    its predicate per item.  Everything else — collection-scoped QAs,
    consolidation, actions — must see the whole data set.
    """
    if isinstance(processor, (AnnotatorProcessor, DataEnrichmentProcessor)):
        return True
    if isinstance(processor, (AssertionProcessor, FusedAssertionProcessor)):
        return bool(getattr(processor.service, "item_local", False))
    if isinstance(processor, FilterGateProcessor):
        return True
    return False


def shardable_processors(workflow: Workflow) -> Tuple[str, ...]:
    """The workflow's shardable prefix, in topological order.

    A processor is shardable iff it is item-partitionable *and* every
    upstream processor (data and control links) is itself shardable —
    a value computed downstream of a collection-scoped stage may depend
    on the whole data set even if the processor's own operator is
    per-item.
    """
    shardable: set = set()
    order = workflow.topological_order()
    for name in order:
        processor = workflow.processors[name]
        if not _item_partitionable(processor):
            continue
        if any(dep not in shardable for dep in workflow.upstream_of(name)):
            continue
        shardable.add(name)
    return tuple(name for name in order if name in shardable)


def _stage_of(processor: Processor) -> str:
    if isinstance(processor, AnnotatorProcessor):
        return STAGE_ANNOTATE
    if isinstance(processor, DataEnrichmentProcessor):
        return STAGE_ENRICH
    return STAGE_ASSERT


def stage_chain(workflow: Workflow) -> Dict[str, Tuple[str, ...]]:
    """Shardable processors grouped into the worker's streaming stages.

    Returns ``{stage: (processor, ...)}`` with processors in topological
    order within each stage.  The grouping is a valid coarsening of the
    wavefront schedule for compiled quality workflows: annotators never
    depend on enrichment or assertions, and enrichment never depends on
    assertions — verified here so a structurally surprising workflow
    fails at planning time, not mid-stream.
    """
    shardable = shardable_processors(workflow)
    region = set(shardable)
    stages: Dict[str, List[str]] = {stage: [] for stage in STAGE_ORDER}
    rank = {stage: index for index, stage in enumerate(STAGE_ORDER)}
    for name in shardable:
        stage = _stage_of(workflow.processors[name])
        for dep in workflow.upstream_of(name):
            if dep in region and rank[_stage_of(workflow.processors[dep])] > rank[stage]:
                raise ValueError(
                    f"processor {name!r} ({stage}) depends on {dep!r} of a "
                    f"later stage; the workflow does not fit the "
                    f"annotate/enrich/assert chain"
                )
        stages[stage].append(name)
    return {stage: tuple(names) for stage, names in stages.items()}


def _member_port(bundle: IRBundle, member: IRAssertion) -> str:
    """The output port carrying one member's annotation map."""
    if not bundle.fused:
        return "annotationMap"
    return f"annotationMap{bundle.members.index(member)}"


def emit_workflow(ir: IRModule) -> Workflow:
    """Emit the executable workflow for a (possibly rewritten) module."""
    workflow = Workflow(f"qv:{ir.name}")
    workflow.add_input("dataSet")
    workflow.add_output("annotationMap")

    # Rule 1: annotators first.
    for annotator in ir.annotators:
        processor = AnnotatorProcessor(
            annotator.name,
            annotator.service,
            annotator.store,
            annotator.evidence_types,
            data_class=annotator.data_class,
        )
        workflow.add_processor(processor)
        workflow.connect("", "dataSet", processor.name, "dataSet")

    # Rule 2: the single DE (plan-driven when batching fired).
    if ir.enrichment.plan is not None:
        enrichment: DataEnrichmentProcessor = BatchEnrichmentProcessor(
            DATA_ENRICHMENT, ir.enrichment.columns, ir.enrichment.plan
        )
    else:
        enrichment = DataEnrichmentProcessor(
            DATA_ENRICHMENT, ir.enrichment.columns
        )
    workflow.add_processor(enrichment)
    workflow.connect("", "dataSet", DATA_ENRICHMENT, "dataSet")
    for annotator in ir.annotators:
        workflow.control(annotator.name, DATA_ENRICHMENT)

    gate = ir.gate
    producer_bundle: Optional[IRBundle] = None
    producer_member: Optional[IRAssertion] = None
    if gate is not None:
        producer_bundle, producer_member = next(
            (bundle, member)
            for bundle in ir.bundles
            for member in bundle.members
            if member.name == gate.producer
        )

    # Rule 3: QA bundles.  Gated bundles read their data set from the
    # gate, which is added below once its producer processor exists.
    emitted: List[Tuple[IRBundle, Processor, bool]] = []
    for bundle in ir.bundles:
        gated = gate is not None and bundle is not producer_bundle
        if bundle.fused:
            processor: Processor = FusedAssertionProcessor(
                bundle.name,
                bundle.service,
                [member.config() for member in bundle.members],
                skip_on_empty=gated,
            )
        else:
            member = bundle.members[0]
            processor = AssertionProcessor(
                member.name, member.service, member.config(),
                skip_on_empty=gated,
            )
        workflow.add_processor(processor)
        workflow.connect(
            DATA_ENRICHMENT, "annotationMap", processor.name, "annotationMap"
        )
        emitted.append((bundle, processor, gated))

    if gate is not None:
        producer_processor = next(
            processor
            for bundle, processor, _ in emitted
            if bundle is producer_bundle
        )
        gate_processor = FilterGateProcessor(
            FILTER_GATE, gate.predicate, ir.namespaces, ir.variable_bindings
        )
        workflow.add_processor(gate_processor)
        workflow.connect("", "dataSet", FILTER_GATE, "dataSet")
        workflow.connect(
            producer_processor.name,
            _member_port(producer_bundle, producer_member),
            FILTER_GATE,
            "annotationMap",
        )
    for bundle, processor, gated in emitted:
        if gated:
            workflow.connect(FILTER_GATE, "dataSet", processor.name, "dataSet")
        else:
            workflow.connect("", "dataSet", processor.name, "dataSet")

    # Rule 4: consolidation, wired by original declaration slot.
    members = ir.assertions()
    if members:
        consolidate = ConsolidateProcessor(CONSOLIDATE, len(members))
        workflow.add_processor(consolidate)
        port_of: Dict[str, Tuple[str, str]] = {}
        for bundle, processor, _ in emitted:
            for member in bundle.members:
                port_of[member.name] = (
                    processor.name,
                    _member_port(bundle, member),
                )
        for slot, member in enumerate(members):
            source_name, source_port = port_of[member.name]
            workflow.connect(source_name, source_port, CONSOLIDATE, f"map{slot}")
    else:
        consolidate = ConsolidateProcessor(CONSOLIDATE, 1)
        workflow.add_processor(consolidate)
        workflow.connect(DATA_ENRICHMENT, "annotationMap", CONSOLIDATE, "map0")
    workflow.connect(CONSOLIDATE, "annotationMap", "", "annotationMap")

    # Rule 5: actions last; gated plans feed them the surviving items.
    for action in ir.actions:
        processor = ActionProcessor(
            action.name, action.spec, ir.variable_bindings, ir.namespaces
        )
        workflow.add_processor(processor)
        if gate is not None:
            workflow.connect(FILTER_GATE, "dataSet", processor.name, "dataSet")
        else:
            workflow.connect("", "dataSet", processor.name, "dataSet")
        workflow.connect(
            CONSOLIDATE, "annotationMap", processor.name, "annotationMap"
        )
        for group, port in processor.group_ports.items():
            output = f"{sanitize(action.name)}_{port}"
            workflow.add_output(output)
            workflow.connect(processor.name, port, "", output)

    workflow.ensure_schedule()
    return workflow
