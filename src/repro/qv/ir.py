"""Typed intermediate representation of quality views.

The staged compiler's middle layer: the *frontend* (:func:`lower_view`)
resolves a :class:`~repro.qv.spec.QualityViewSpec` against a concrete
framework — services, repositories, evidence canonicalisation — into an
:class:`IRModule`, absorbing the semantic checks of
:mod:`repro.qv.validator` as its verification step.  Rewrite passes
(:mod:`repro.qv.passes`) mutate the module; the backend
(:mod:`repro.qv.backend`) emits the executable workflow.

The IR mirrors the paper's operator model, not the workflow graph:
annotators, one enrichment step (with an explicit per-repository column
plan), *bundles* of quality assertions (a bundle with several members
is one batched service invocation), an optional filter gate, and
actions.  Keeping the declaration order of assertions — every member
records its original ``index`` — is what lets the backend wire
ConsolidateAssertions exactly as the no-pass translation does, so an
optimized compilation merges per-QA maps in the same order and stays
byte-identical on the output annotation map.

This module also defines the *canonical signatures* used by
:mod:`repro.qv.diff`: pure functions over specs (no framework needed)
that normalise condition text through the parser/unparser round trip,
so diffs are stable under formatting changes and pass-induced
reordering of the emitted processors.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.annotation.store import AnnotationStore
from repro.process.conditions import ConditionError, parse_condition, unparse
from repro.qv.compiler import CompilationError, check_output_ports
from repro.qv.spec import (
    ActionSpec,
    AnnotatorSpec,
    AssertionSpec,
    QualityViewSpec,
)
from repro.qv.validator import validate_quality_view
from repro.rdf import NamespaceManager, URIRef
from repro.services.interface import AnnotationService, QualityAssertionService

__all__ = [
    "IRAction",
    "IRAnnotator",
    "IRAssertion",
    "IRBundle",
    "IREnrichment",
    "IRGate",
    "IRModule",
    "action_signature",
    "annotator_signature",
    "assertion_signature",
    "canonical_condition",
    "lower_view",
    "view_fingerprint",
    "view_signature",
]


# -- IR nodes ----------------------------------------------------------------


@dataclass
class IRAnnotator:
    """One resolved annotation step (paper rule 1)."""

    name: str
    service: AnnotationService
    service_type: URIRef
    store: AnnotationStore
    evidence_types: List[URIRef]
    data_class: Optional[URIRef] = None


@dataclass
class IRAssertion:
    """One resolved quality assertion; ``index`` is its declaration
    position (the ConsolidateAssertions merge slot it must keep)."""

    index: int
    name: str
    service: QualityAssertionService
    service_type: URIRef
    tag_name: str
    variables: Dict[str, URIRef]

    def config(self) -> Dict[str, Any]:
        """The service-invocation context the view configures."""
        return {
            "name": self.name,
            "tag_name": self.tag_name,
            "variables": dict(self.variables),
        }


@dataclass
class IRBundle:
    """Assertions sharing one service invocation.

    The frontend emits singleton bundles; the QA-fusion pass merges
    bundles whose members resolved to the *same* deployed service
    instance.  A fused bundle still produces one output map per member,
    so downstream wiring (and the serialized annotation map) cannot
    tell fusion happened.
    """

    members: List[IRAssertion]

    @property
    def service(self) -> QualityAssertionService:
        return self.members[0].service

    @property
    def fused(self) -> bool:
        return len(self.members) > 1

    @property
    def name(self) -> str:
        return " + ".join(member.name for member in self.members)


@dataclass
class IREnrichment:
    """The single Data Enrichment step (paper rule 2).

    ``columns`` keeps the Sec. 6.1 rule's insertion order
    (assertion-declared evidence first, then annotator-declared) — the
    order evidence appears in serialized maps.  ``plan`` is the
    compile-time batching plan: one keyed ``enrich`` read per
    repository, covering that repository's evidence types.
    """

    columns: Dict[URIRef, AnnotationStore]
    plan: Optional[List[Tuple[AnnotationStore, Tuple[URIRef, ...]]]] = None


@dataclass
class IRGate:
    """A pushed-down filter predicate (emitted between QA stages).

    ``producer`` names the assertion whose tag the predicate reads;
    the gate consumes that assertion's output map plus the workflow
    data set and emits the surviving items, which later bundles and the
    actions consume instead of the full data set.
    """

    producer: str
    tag_name: str
    predicate: str


@dataclass
class IRAction:
    """One action (filter or splitter), still in spec form."""

    spec: ActionSpec

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass
class IRModule:
    """A lowered quality view, ready for passes and emission."""

    spec: QualityViewSpec
    name: str
    annotators: List[IRAnnotator]
    enrichment: IREnrichment
    bundles: List[IRBundle]
    actions: List[IRAction]
    variable_bindings: Dict[str, URIRef]
    namespaces: NamespaceManager
    #: ``None`` means every workflow output is observed (the default
    #: contract: byte-equal everything).  A frozen set restricts the
    #: guarantee to the named outputs, unlocking passes that may change
    #: unobserved outputs (filter pushdown, aggressive pruning).
    observed_outputs: Optional[FrozenSet[str]] = None
    gate: Optional[IRGate] = None
    frontend_notes: List[str] = field(default_factory=list)

    def assertions(self) -> List[IRAssertion]:
        """Every assertion, in original declaration order."""
        members = [m for bundle in self.bundles for m in bundle.members]
        return sorted(members, key=lambda member: member.index)

    def observes(self, output: str) -> bool:
        """Whether the compilation contract covers a workflow output."""
        return self.observed_outputs is None or output in self.observed_outputs

    def summary(self) -> str:
        """One line for progress notes and ``--explain`` headers."""
        fused = sum(1 for bundle in self.bundles if bundle.fused)
        return (
            f"{len(self.annotators)} annotator(s), "
            f"{len(self.enrichment.columns)} enrichment column(s), "
            f"{len(self.bundles)} QA bundle(s) ({fused} fused), "
            f"{len(self.actions)} action(s)"
            + (", 1 filter gate" if self.gate else "")
        )


# -- frontend ----------------------------------------------------------------


def lower_view(
    spec: QualityViewSpec,
    compiler,
    validate: bool = True,
    observed_outputs: Optional[FrozenSet[str]] = None,
) -> IRModule:
    """Lower a spec to IR against a :class:`~repro.qv.compiler.QVCompiler`.

    Verification (the absorbed validator), sanitized-port collision
    checks, service/repository resolution and evidence canonicalisation
    all happen here, so every pass and the backend operate on resolved,
    well-formed IR.
    """
    notes: List[str] = []
    canonical: Dict[URIRef, URIRef] = {}
    if validate:
        started = time.perf_counter()
        report = validate_quality_view(
            spec,
            compiler.iq_model,
            known_repositories=set(compiler.repositories.names()),
        )
        report.raise_if_failed()
        canonical = report.canonicalised
        notes.append(
            f"verified against the IQ model in "
            f"{(time.perf_counter() - started) * 1e3:.1f} ms: "
            f"{len(report.warnings)} warning(s), "
            f"{len(canonical)} evidence URI(s) canonicalised"
        )
    check_output_ports(spec)

    def canon(evidence: URIRef) -> URIRef:
        return canonical.get(evidence, evidence)

    annotators: List[IRAnnotator] = []
    for annotator in spec.annotators:
        service = compiler._resolve_service(
            annotator.service_type, annotator.service_name
        )
        if not isinstance(service, AnnotationService):
            raise CompilationError(
                f"operator {annotator.service_name!r} resolved to "
                f"{type(service).__name__}; expected an annotation service"
            )
        annotators.append(
            IRAnnotator(
                annotator.service_name,
                service,
                annotator.service_type,
                compiler._store(annotator.repository_ref),
                [canon(e) for e in annotator.evidence_types()],
                data_class=compiler.iq_model.DataEntity,
            )
        )

    columns: Dict[URIRef, AnnotationStore] = {}
    for assertion in spec.assertions:
        for variable in assertion.variables:
            columns[canon(variable.evidence)] = compiler._store(
                variable.repository_ref
            )
    for annotator in spec.annotators:
        for variable in annotator.variables:
            columns.setdefault(
                canon(variable.evidence), compiler._store(variable.repository_ref)
            )

    bundles: List[IRBundle] = []
    seen_names: Dict[str, int] = {}
    for index, assertion in enumerate(spec.assertions):
        if assertion.service_name in seen_names:
            raise CompilationError(
                f"two quality assertions share the name "
                f"{assertion.service_name!r}; processor names must be unique"
            )
        seen_names[assertion.service_name] = index
        service = compiler._resolve_service(
            assertion.service_type, assertion.service_name
        )
        if not isinstance(service, QualityAssertionService):
            raise CompilationError(
                f"operator {assertion.service_name!r} resolved to "
                f"{type(service).__name__}; expected a QA service"
            )
        bundles.append(
            IRBundle(
                [
                    IRAssertion(
                        index,
                        assertion.service_name,
                        service,
                        assertion.service_type,
                        assertion.tag_name,
                        {v.name: canon(v.evidence) for v in assertion.variables},
                    )
                ]
            )
        )

    bindings = {
        name: canon(evidence)
        for name, evidence in spec.variable_bindings().items()
    }
    return IRModule(
        spec=spec,
        name=spec.name,
        annotators=annotators,
        enrichment=IREnrichment(columns=columns),
        bundles=bundles,
        actions=[IRAction(action) for action in spec.actions],
        variable_bindings=bindings,
        namespaces=spec.namespaces,
        observed_outputs=observed_outputs,
        frontend_notes=notes,
    )


# -- canonical signatures (consumed by repro.qv.diff) ------------------------


def canonical_condition(text: str) -> str:
    """Condition text normalised through the parse/unparse round trip.

    Formatting-only edits (whitespace, redundant parentheses) map to
    the same canonical form; unparseable text falls back to
    whitespace-collapsed comparison so diffing never raises.
    """
    try:
        return unparse(parse_condition(text))
    except ConditionError:
        return " ".join(text.split())


def annotator_signature(annotator: AnnotatorSpec) -> tuple:
    """Order-independent content signature of an annotator block."""
    return (
        "annotator",
        str(annotator.service_type),
        tuple(
            sorted(
                (v.name, str(v.evidence), v.repository_ref)
                for v in annotator.variables
            )
        ),
        annotator.repository_ref,
        annotator.persistent,
    )


def assertion_signature(assertion: AssertionSpec) -> tuple:
    """Content signature of a quality-assertion block."""
    return (
        "assertion",
        str(assertion.service_type),
        assertion.tag_name,
        str(assertion.tag_syn_type) if assertion.tag_syn_type else "",
        str(assertion.tag_sem_type) if assertion.tag_sem_type else "",
        tuple(
            sorted(
                (v.name, str(v.evidence), v.repository_ref)
                for v in assertion.variables
            )
        ),
    )


def action_signature(action: ActionSpec) -> tuple:
    """Content signature of an action, with canonicalised conditions.

    Splitter group order is kept — groups are matched first to last,
    so reordering them is a semantic change, not a formatting one.
    """
    if action.kind == "filter":
        groups: Tuple[tuple, ...] = (
            ("", canonical_condition(action.condition or "")),
        )
    else:
        groups = tuple(
            (g.group, canonical_condition(g.condition)) for g in action.groups
        )
    return ("action", action.kind, groups)


def view_signature(spec: QualityViewSpec) -> tuple:
    """The whole view's canonical structure.

    Annotators and actions sort by name (their relative order carries
    no semantics); assertions keep declaration order, which fixes the
    consolidation merge order.
    """
    return (
        "qv",
        spec.name,
        tuple(
            sorted(
                (a.service_name, annotator_signature(a))
                for a in spec.annotators
            )
        ),
        tuple(
            (a.service_name, assertion_signature(a)) for a in spec.assertions
        ),
        tuple(sorted((a.name, action_signature(a)) for a in spec.actions)),
    )


def view_fingerprint(spec: QualityViewSpec) -> str:
    """A stable hex digest of :func:`view_signature`.

    Both compilation pipelines stamp it on the emitted workflow
    (``workflow.source_fingerprint``), so tooling can recognise two
    differently-optimized workflows as compilations of the same view.
    """
    return hashlib.sha256(repr(view_signature(spec)).encode()).hexdigest()
