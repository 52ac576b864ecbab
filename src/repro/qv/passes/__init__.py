"""The optimization-pass catalogue of the staged quality-view compiler.

Default pipeline order (see :func:`default_passes`):

1. ``evidence-pruning``  — observed-gated; drops unconsumed columns
   and transient-store annotators nothing reads.
2. ``qa-fusion``         — default-safe; one invocation for QAs
   sharing a deployed service instance.
3. ``filter-pushdown``   — observed-gated; gates the data set on an
   early QA verdict shared by every filter.
4. ``enrichment-batching`` — default-safe; precomputes the
   per-repository keyed ``enrich`` read plan.

Pruning runs first so fusion/pushdown see the surviving assertions;
pushdown runs after fusion so the gate wires to the fused producer
port; batching runs last so it plans only the surviving columns.

To add a pass: subclass :class:`~repro.qv.passes.base.Pass` in a new
module here, set ``name``/``description``, implement ``run(ir)``
returning human-readable notes (empty list = did not fire), and insert
it into :func:`default_passes` and :data:`PASS_NAMES`.
"""

from __future__ import annotations

from typing import List

from repro.qv.passes.base import (
    CompileOptions,
    Pass,
    PassManager,
    PassReport,
    PassRun,
    record_invocations_saved,
    record_processors_eliminated,
)
from repro.qv.passes.enrichment_batching import EnrichmentBatchingPass
from repro.qv.passes.evidence_pruning import EvidencePruningPass
from repro.qv.passes.filter_pushdown import FilterPushdownPass
from repro.qv.passes.qa_fusion import QAFusionPass

__all__ = [
    "CompileOptions",
    "EnrichmentBatchingPass",
    "EvidencePruningPass",
    "FilterPushdownPass",
    "NO_PASSES",
    "PASS_NAMES",
    "Pass",
    "PassManager",
    "PassReport",
    "PassRun",
    "QAFusionPass",
    "default_passes",
    "record_invocations_saved",
    "record_processors_eliminated",
]

#: Every registered pass name, in default pipeline order.
PASS_NAMES = (
    "evidence-pruning",
    "qa-fusion",
    "filter-pushdown",
    "enrichment-batching",
)

#: Options with every pass switched off: the plain rule-by-rule
#: Sec. 6.1 translation, and the baseline of the differential suites.
NO_PASSES = CompileOptions(disabled_passes=frozenset(PASS_NAMES))


def default_passes(options: CompileOptions) -> List[Pass]:
    """The default pipeline, minus ``options.disabled_passes``."""
    unknown = set(options.disabled_passes) - set(PASS_NAMES)
    if unknown:
        from repro.qv.compiler import CompilationError

        raise CompilationError(
            f"unknown pass name(s) {sorted(unknown)!r}; "
            f"registered passes: {list(PASS_NAMES)!r}"
        )
    pipeline: List[Pass] = [
        EvidencePruningPass(options),
        QAFusionPass(),
        FilterPushdownPass(options),
        EnrichmentBatchingPass(),
    ]
    return [p for p in pipeline if p.name not in options.disabled_passes]
