"""Evidence pruning: drop annotators/DE columns nothing consumes.

Fires only when ``annotationMap`` is *unobserved*: every enrichment
column and every annotator-computed evidence value is visible in the
serialized map, so under the default contract (byte-equal everything)
nothing may be pruned.  When the caller declares it only consumes the
action group ports, a column that no QA variable reads and no action
condition references cannot influence routing — its repository read
is dropped; an annotator whose evidence is entirely unconsumed *and*
whose repository is transient (per-execution scope, so skipping the
write has no effect beyond this run) is removed altogether, saving its
service invocation.

Persistent-repository annotators are always kept: their writes are
durable side effects the caller may read after the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

from repro.process.conditions import (
    ConditionError,
    parse_condition,
    referenced_names,
)
from repro.qv.passes.base import (
    CompileOptions,
    Pass,
    record_invocations_saved,
    record_processors_eliminated,
)
from repro.rdf import URIRef

if TYPE_CHECKING:
    from repro.qv.ir import IRModule


class EvidencePruningPass(Pass):
    name = "evidence-pruning"
    description = (
        "drop annotators and enrichment columns whose evidence no QA "
        "or action condition consumes (annotationMap unobserved only)"
    )

    def __init__(self, options: CompileOptions) -> None:
        self.options = options

    def run(self, ir: "IRModule") -> List[str]:
        notes: List[str] = []
        if self.options.observes("annotationMap"):
            return notes

        read_by_qa: Set[URIRef] = set()
        for assertion in ir.assertions():
            read_by_qa.update(assertion.variables.values())
        condition_names: Set[str] = set()
        for action in ir.actions:
            for text in action.spec.conditions():
                try:
                    condition_names |= referenced_names(parse_condition(text))
                except ConditionError:
                    # Unparseable condition (validation was skipped):
                    # we cannot prove anything unconsumed, so keep all.
                    return []

        def consumed(evidence: URIRef) -> bool:
            if evidence in read_by_qa:
                return True
            visible = {
                name
                for name, bound in ir.variable_bindings.items()
                if bound == evidence
            }
            visible.add(evidence.fragment())
            return bool(visible & condition_names)

        for evidence in list(ir.enrichment.columns):
            if consumed(evidence):
                continue
            del ir.enrichment.columns[evidence]
            notes.append(
                f"dropped enrichment column {evidence.fragment()} "
                f"(no QA or condition reads it)"
            )

        kept = []
        eliminated = 0
        for annotator in ir.annotators:
            if annotator.store.persistent or any(
                consumed(e) for e in annotator.evidence_types
            ):
                kept.append(annotator)
                continue
            eliminated += 1
            notes.append(
                f"pruned annotator {annotator.name!r} (its transient "
                f"evidence "
                f"{sorted(e.fragment() for e in annotator.evidence_types)} "
                f"is never consumed)"
            )
        if eliminated:
            ir.annotators[:] = kept
            record_processors_eliminated(self.name, eliminated)
            record_invocations_saved(self.name, eliminated)
        return notes
