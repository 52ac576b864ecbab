"""Enrichment batching: a compile-time per-repository column plan.

The reference Data Enrichment processor re-derives its repository
grouping on every firing.  This pass precomputes the plan — one keyed
``enrich`` read per repository (a single seeded SPARQL execution over
the (item, evidence type) pairs), repositories in first-appearance
order, evidence types in column (declaration) order within each
repository — so the backend can emit a
:class:`~repro.qv.backend.BatchEnrichmentProcessor` that walks the
fixed plan directly.  Grouping and read order match the plain
enrichment processor exactly, so hit/miss accounting and evidence
insertion order (hence serialized maps) are unchanged; the pass is
default-pipeline safe and its value is the explicit, explainable plan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.annotation.store import AnnotationStore
from repro.qv.passes.base import Pass
from repro.rdf import URIRef

if TYPE_CHECKING:
    from repro.qv.ir import IRModule


class EnrichmentBatchingPass(Pass):
    name = "enrichment-batching"
    description = (
        "precompute one keyed enrich read per repository for the "
        "enrichment step"
    )

    def run(self, ir: "IRModule") -> List[str]:
        if not ir.enrichment.columns:
            return []
        order: List[int] = []
        stores: Dict[int, AnnotationStore] = {}
        grouped: Dict[int, List[URIRef]] = {}
        for evidence, store in ir.enrichment.columns.items():
            key = id(store)
            if key not in grouped:
                order.append(key)
                stores[key] = store
                grouped[key] = []
            grouped[key].append(evidence)
        plan: List[Tuple[AnnotationStore, Tuple[URIRef, ...]]] = [
            (stores[key], tuple(grouped[key])) for key in order
        ]
        ir.enrichment.plan = plan
        batched = sum(1 for _, types in plan if len(types) > 1)
        note = (
            f"planned {len(plan)} repository read(s) over "
            f"{len(ir.enrichment.columns)} evidence column(s)"
        )
        if batched:
            note += f"; {batched} read(s) batch multiple evidence types"
        return [note]
