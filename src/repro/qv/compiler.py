"""Compilation of quality views into executable quality workflows.

The compiler follows the rules of paper Sec. 6.1 exactly:

1. *Annotators are added first*; their data-set input comes from the
   workflow input, their output is empty — they only write to their
   repository.
2. By analysing annotator and QA declarations, the compiler determines
   the association between each evidence type and the repository where
   its value is found, adds *one single Data Enrichment operator*
   configured with that association, and installs *a control link from
   each annotator to the DE*.
3. The DE's output annotation map *feeds all QA processors* through the
   common service interface.
4. A ``ConsolidateAssertions`` task merges the per-QA maps into a
   consistent view of multiple assertions.
5. *Action processors are added next*, fed from the consolidated map;
   their group ports carry the surviving data back out.

The compiled workflow has one input, ``dataSet`` (the item URIs), and
outputs ``annotationMap`` plus one port per action group.

There is one compilation pipeline, and this module holds its entry
point (:class:`QVCompiler`) and its processor classes: frontend
lowering to a typed IR (:mod:`repro.qv.ir`), rewrite passes
(:mod:`repro.qv.passes`), and workflow emission
(:mod:`repro.qv.backend`).  With every pass disabled
(:data:`repro.qv.passes.NO_PASSES`) the emitted workflow is the
rule-by-rule translation above: a frozen golden test pins that plan
for the Sec. 5.1 example view (paper Fig. 6), and the differential
suites use it as the baseline the optimized plans must match
byte-for-byte.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.annotation.manager import RepositoryManager
from repro.annotation.map import AnnotationMap
from repro.annotation.store import AnnotationStore
from repro.binding.model import BindingError
from repro.binding.registry import BindingRegistry
from repro.ontology.iq_model import IQModel
from repro.process.actions import DEFAULT_GROUP, FilterAction, SplitterAction
from repro.qv.spec import ActionSpec, QualityViewSpec
from repro.rdf import Q, URIRef
from repro.services.interface import AnnotationService, QualityAssertionService
from repro.services.messages import DataSetMessage
from repro.services.registry import ServiceRegistry
from repro.observability import get_registry
from repro.workflow.model import Workflow
from repro.workflow.processors import ON_FAILURE_DEFAULT, Processor

if TYPE_CHECKING:
    from repro.qv.passes.base import CompileOptions, PassReport

#: Compiler-assigned processor names (checked by the Fig. 6 benchmark).
DATA_ENRICHMENT = "DataEnrichment"
CONSOLIDATE = "ConsolidateAssertions"

#: Firing input carrying a collection-scoped QA's collection summary
#: (see :class:`AssertionProcessor`).
COLLECTION_SUMMARY = "collectionSummary"

#: Tag value marking an assertion degraded under ``default_annotation``
#: (the item's evidence was missing / its QA service kept failing).
DEGRADED_TAG = Q.degraded


class CompilationError(ValueError):
    """Raised when a view cannot be compiled for the target environment."""


def sanitize(name: str) -> str:
    """Turn an arbitrary name into a safe port identifier."""
    cleaned = re.sub(r"[^A-Za-z0-9_]+", "_", name).strip("_")
    return cleaned or "port"


def check_output_ports(spec: QualityViewSpec) -> None:
    """Reject sanitized port-name collisions before emission.

    :func:`sanitize` is many-to-one (``"top k!"`` and ``"top k?"`` both
    become ``top_k``), so two distinct action or group names can claim
    the same workflow output port.  Without this check the second
    silently shadows the first (group ports within one action) or dies
    with an unhelpful duplicate-output error (across actions).  The
    frontend runs this check before any processor is built.
    """
    claimed: Dict[str, Tuple[str, str]] = {}
    for action in spec.actions:
        if action.kind == "filter":
            groups = [FilterAction.ACCEPTED]
        else:
            groups = [g.group for g in action.groups] + [DEFAULT_GROUP]
        ports: Dict[str, str] = {}
        for group in groups:
            port = sanitize(group)
            clash = ports.get(port)
            if clash is not None and clash != group:
                raise CompilationError(
                    f"action {action.name!r}: groups {clash!r} and {group!r} "
                    f"both sanitize to port name {port!r}; rename one group"
                )
            ports[port] = group
            output = f"{sanitize(action.name)}_{port}"
            owner = claimed.get(output)
            if owner is not None and owner != (action.name, group):
                raise CompilationError(
                    f"actions {owner[0]!r} and {action.name!r} collide on "
                    f"workflow output port {output!r} (their names sanitize "
                    f"to the same identifier); rename one action"
                )
            claimed[output] = (action.name, group)


class AnnotatorProcessor(Processor):
    """A compiled annotation operator: computes evidence, writes the
    repository, produces no data output (control-linked to the DE).

    Every input item gets each declared evidence type written: a
    computed value upserts the (item, type) pair, a missing or
    ``None`` value retracts it, so the repository always mirrors the
    latest firing — in one atomic write per firing.
    """

    def __init__(
        self,
        name: str,
        service: AnnotationService,
        store: AnnotationStore,
        evidence_types: List[URIRef],
        data_class: Optional[URIRef] = None,
    ) -> None:
        super().__init__(name, input_ports={"dataSet": 1}, output_ports={})
        self.service = service
        self.store = store
        self.evidence_types = list(evidence_types)
        self.data_class = data_class

    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Execute this compiled step; see the class docstring."""

        items = list(inputs.get("dataSet") or [])
        computed = self.invoke_service(
            self.service, DataSetMessage(items), AnnotationMap()
        )
        restricted = AnnotationMap()
        for item in items:
            for evidence_type in self.evidence_types:
                value = computed.get_evidence(item, evidence_type)
                restricted.set_evidence(item, evidence_type, value)
        self.store.annotate_map(restricted, data_class=self.data_class)
        return {}


class DataEnrichmentProcessor(Processor):
    """The single compiled DE: reads (item, evidence) keys per repository."""

    def __init__(self, name: str, sources: Mapping[URIRef, AnnotationStore]) -> None:
        super().__init__(
            name, input_ports={"dataSet": 1}, output_ports={"annotationMap": 1}
        )
        self.sources = dict(sources)

    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Execute this compiled step; see the class docstring."""

        items = list(inputs.get("dataSet") or [])
        amap = AnnotationMap(items)
        by_store: Dict[AnnotationStore, List[URIRef]] = {}
        for evidence_type, store in self.sources.items():
            by_store.setdefault(store, []).append(evidence_type)
        for store, evidence_types in by_store.items():
            store.enrich(amap, items, evidence_types)
        return {"annotationMap": amap}


class AssertionProcessor(Processor):
    """A compiled QA: invokes the bound service with the view's config.

    ``skip_on_empty`` is set by the backend on processors fed from a
    filter gate: an empty (fully filtered) data set then skips the
    service invocation entirely and contributes an empty map.  Ungated
    processors never set it — a QA service invoked with an empty data
    set operates on the whole input map, which is the wire contract
    this flag must not change for them.

    A firing whose inputs also carry :data:`COLLECTION_SUMMARY` (not a
    wired port: an enactor adds it to one firing's inputs) passes that
    summary to the service in the invocation context under
    ``"summary"``, the way a fused processor passes ``"operators"``.
    """

    def __init__(
        self,
        name: str,
        service: QualityAssertionService,
        config,
        skip_on_empty: bool = False,
    ) -> None:
        super().__init__(
            name,
            input_ports={"dataSet": 1, "annotationMap": 1},
            output_ports={"annotationMap": 1},
        )
        self.service = service
        self.config = dict(config)
        self.skip_on_empty = skip_on_empty

    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Execute this compiled step; see the class docstring."""

        items = list(inputs.get("dataSet") or [])
        amap = inputs.get("annotationMap") or AnnotationMap()
        if not items and self.skip_on_empty:
            return {"annotationMap": amap.subset([])}
        context = self.config
        summary = inputs.get(COLLECTION_SUMMARY)
        if summary is not None:
            context = {**context, "summary": summary}
        result = self.invoke_service(
            self.service, DataSetMessage(items), amap, context=context
        )
        return {"annotationMap": result}

    def degraded(self, inputs: Dict[str, Any], policy: str) -> Dict[str, Any]:
        """Pass the input map through; optionally tag items as degraded.

        Under ``skip`` the QA simply contributes no tag (downstream
        conditions see the tag as absent); ``default_annotation``
        additionally tags every input item with ``q:degraded`` under
        the view's tag name, so actions and reports can distinguish
        "assertion skipped" from "assertion never configured".
        """
        outputs = super().degraded(inputs, policy)
        tag_name = self.config.get("tag_name")
        if policy == ON_FAILURE_DEFAULT and tag_name:
            amap = outputs["annotationMap"]
            for item in list(inputs.get("dataSet") or []):
                amap.set_tag(item, tag_name, DEGRADED_TAG)
        return outputs


class ConsolidateProcessor(Processor):
    """Merges the per-QA annotation maps into one consistent view."""

    def __init__(self, name: str, n_maps: int) -> None:
        if n_maps < 1:
            raise CompilationError("nothing to consolidate")
        super().__init__(
            name,
            input_ports={f"map{i}": 1 for i in range(n_maps)},
            output_ports={"annotationMap": 1},
        )
        self.n_maps = n_maps

    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Execute this compiled step; see the class docstring."""

        merged = AnnotationMap()
        for i in range(self.n_maps):
            amap = inputs.get(f"map{i}")
            if amap is not None:
                merged.merge(amap)
        return {"annotationMap": merged}


class ActionProcessor(Processor):
    """A compiled action: routes items to one port per group."""

    def __init__(
        self,
        name: str,
        action_spec: ActionSpec,
        variable_bindings: Mapping[str, URIRef],
        namespaces,
    ) -> None:
        if action_spec.kind == "filter":
            self.action = FilterAction(
                action_spec.name, action_spec.condition or "", namespaces=namespaces
            )
            groups = [FilterAction.ACCEPTED]
        else:
            self.action = SplitterAction(
                action_spec.name,
                [(g.group, g.condition) for g in action_spec.groups],
                namespaces=namespaces,
            )
            groups = [g.group for g in action_spec.groups] + [DEFAULT_GROUP]
        # Port-name clashes were rejected by check_output_ports.
        self.group_ports = {group: sanitize(group) for group in groups}
        output_ports = {port: 1 for port in self.group_ports.values()}
        output_ports["outcome"] = 1
        super().__init__(
            name,
            input_ports={"dataSet": 1, "annotationMap": 1},
            output_ports=output_ports,
        )
        self.variable_bindings = dict(variable_bindings)

    def fire(self, inputs: Dict[str, Any]) -> Dict[str, Any]:
        """Execute this compiled step; see the class docstring."""

        items = list(inputs.get("dataSet") or [])
        amap = inputs.get("annotationMap") or AnnotationMap()
        outcome = self.action.execute(items, amap, self.variable_bindings)
        outputs: Dict[str, Any] = {"outcome": outcome}
        for group, port in self.group_ports.items():
            outputs[port] = outcome.items(group)
        return outputs


class QVCompiler:
    """Targets quality views at the workflow environment."""

    def __init__(
        self,
        iq_model: IQModel,
        services: ServiceRegistry,
        bindings: BindingRegistry,
        repositories: RepositoryManager,
    ) -> None:
        self.iq_model = iq_model
        self.services = services
        self.bindings = bindings
        self.repositories = repositories
        #: Optional fingerprint-keyed cache of compiled plans (any
        #: object with ``get_or_compile(fingerprint, thunk)``, e.g.
        #: :class:`repro.serving.plans.PlanCache`).  When installed,
        #: default-option compiles of signature-identical
        #: views share one emitted workflow — the serving layer keys
        #: on this so N tenants registering the same view cost one
        #: compilation.
        self.plan_cache: Optional[Any] = None

    # -- resolution ----------------------------------------------------------

    def _resolve_service(self, service_type: URIRef, service_name: str):
        """Binding registry first (the paper's binding step), then names."""
        try:
            endpoint = self.bindings.resolve_endpoint(service_type)
            return self.services.by_endpoint(endpoint)
        except (BindingError, KeyError):
            pass
        if service_name in self.services:
            return self.services.by_name(service_name)
        try:
            return self.services.resolve_concept(service_type)
        except KeyError:
            raise CompilationError(
                f"no binding or deployed service for operator type "
                f"{service_type} (service name {service_name!r})"
            ) from None

    def _store(self, repository_ref: str) -> AnnotationStore:
        try:
            return self.repositories.repository(repository_ref)
        except KeyError as exc:
            raise CompilationError(str(exc)) from exc

    # -- compilation ------------------------------------------------------------

    def compile(
        self,
        spec: QualityViewSpec,
        validate: bool = True,
        options: Optional["CompileOptions"] = None,
    ) -> Workflow:
        """Compile a validated view into a quality workflow.

        Runs the staged pipeline — frontend lowering, rewrite passes,
        backend emission — and annotates the result with a wavefront
        schedule.  ``options`` switches passes off or arms the
        observed-output passes; ``options=NO_PASSES`` yields the plain
        Sec. 6.1 translation.
        """
        if self.plan_cache is not None and options is None and validate:
            # Only the default-option, validated pipeline is cacheable:
            # the fingerprint covers the view signature, not compile
            # options, so non-default options always compile fresh.
            from repro.qv.ir import view_fingerprint

            return self.plan_cache.get_or_compile(
                view_fingerprint(spec),
                lambda: self.compile_with_report(spec, validate=True)[0],
            )
        workflow, _report = self.compile_with_report(
            spec, validate=validate, options=options
        )
        return workflow

    def compile_with_report(
        self,
        spec: QualityViewSpec,
        validate: bool = True,
        options: Optional["CompileOptions"] = None,
    ) -> "Tuple[Workflow, PassReport]":
        """Run the staged pipeline; also return the per-pass report.

        The report carries the frontend's verification notes and, for
        every optimization pass, whether it fired, its wall-clock cost
        and its IR deltas — ``python -m repro compile --explain``
        renders it.
        """
        from repro.qv.backend import emit_workflow
        from repro.qv.ir import lower_view, view_fingerprint
        from repro.qv.passes import PassManager, default_passes
        from repro.qv.passes.base import CompileOptions

        opts = options if options is not None else CompileOptions()
        ir = lower_view(
            spec, self, validate=validate,
            observed_outputs=opts.observed_outputs,
        )
        report = PassManager(default_passes(opts)).run(ir)
        workflow = emit_workflow(ir)
        # Record provenance on the emitted workflow + count the run.
        workflow.source_fingerprint = view_fingerprint(spec)
        get_registry().counter(
            "repro_qv_compile_runs_total",
            "Quality-view compilations.",
        ).inc()
        return workflow, report
