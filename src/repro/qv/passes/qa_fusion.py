"""QA fusion: one batched invocation for QAs sharing a service.

Two assertions that resolved to the *same deployed service instance*
(typically via the binding registry: same ``serviceType``, different
assertion names) are merged into one bundle.  The backend emits a
single processor making one service invocation that builds and applies
every member operator over the same restricted map — evidence vectors
are identical to the member-by-member runs, so each member's tags come
out unchanged — and exposes one output map *per member*, wired into
ConsolidateAssertions at each member's original declaration slot.  The
serialized annotation map is therefore byte-identical to the no-pass
compilation; only the invocation count (and the per-call round-trip
latency) drops.

Fusion is output-preserving, so it runs in the default pipeline.  The
one observable coupling is failure granularity: a fault in the fused
invocation degrades all members together where the no-pass plan
could degrade one — recovered (retried) faults are unaffected, which
is what the chaos differential pins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.qv.passes.base import (
    Pass,
    record_invocations_saved,
    record_processors_eliminated,
)

if TYPE_CHECKING:
    from repro.qv.ir import IRBundle, IRModule


class QAFusionPass(Pass):
    name = "qa-fusion"
    description = (
        "merge QAs sharing a deployed classification service into one "
        "batched invocation"
    )

    def run(self, ir: "IRModule") -> List[str]:
        by_service: Dict[int, "IRBundle"] = {}
        merged: List["IRBundle"] = []
        for bundle in ir.bundles:
            target = by_service.get(id(bundle.service))
            if target is None:
                by_service[id(bundle.service)] = bundle
                merged.append(bundle)
            else:
                target.members.extend(bundle.members)
        notes: List[str] = []
        saved = 0
        for bundle in merged:
            if bundle.fused:
                saved += len(bundle.members) - 1
                names = ", ".join(repr(m.name) for m in bundle.members)
                notes.append(
                    f"fused {names} into one invocation of service "
                    f"{bundle.service.name!r}"
                )
        if saved:
            ir.bundles[:] = merged
            record_processors_eliminated(self.name, saved)
            record_invocations_saved(self.name, saved)
        return notes
