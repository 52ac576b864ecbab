"""The pass manager: ordered, individually-toggleable IR rewrites.

Every optimization is a :class:`Pass` over :class:`repro.qv.ir.IRModule`
returning its IR deltas as human-readable notes (an empty list means
the pass did not fire).  The :class:`PassManager` runs them in order,
times each one, and publishes the ``repro_qv_compile_*`` metric
families; the resulting :class:`PassReport` backs
``python -m repro compile --explain``.

Pass contracts:

* a pass in the **default** pipeline must be fully output-preserving —
  every workflow output, including the serialized ``annotationMap``,
  stays byte-identical to the no-pass compilation (``NO_PASSES``);
* a pass gated on :attr:`CompileOptions.observed_outputs` may change
  outputs the caller declared unobserved (``observed_outputs=None``
  means *all* outputs are observed, so such passes stay off).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Sequence

from repro.observability import get_registry

if TYPE_CHECKING:
    from repro.qv.ir import IRModule

__all__ = [
    "CompileOptions",
    "Pass",
    "PassManager",
    "PassReport",
    "PassRun",
    "record_invocations_saved",
    "record_processors_eliminated",
]


@dataclass(frozen=True)
class CompileOptions:
    """Caller-facing knobs of the optimizing pipeline.

    ``disabled_passes`` switches individual passes off by name;
    ``observed_outputs`` names the workflow outputs the caller actually
    consumes (``None`` = all of them).  Declaring ``annotationMap``
    unobserved is what arms filter pushdown and aggressive evidence
    pruning — the passes that trade full-map fidelity for fewer
    service invocations.
    """

    disabled_passes: FrozenSet[str] = frozenset()
    observed_outputs: Optional[FrozenSet[str]] = None

    def observes(self, output: str) -> bool:
        """Whether the compilation contract covers a workflow output."""
        return self.observed_outputs is None or output in self.observed_outputs


class Pass(abc.ABC):
    """One rewrite over the IR; subclasses set ``name``/``description``."""

    #: Stable identifier (used by ``--disable-pass`` and metric labels).
    name: str = ""
    #: One line for the pass catalogue and ``--explain``.
    description: str = ""

    @abc.abstractmethod
    def run(self, ir: "IRModule") -> List[str]:
        """Rewrite ``ir`` in place; return notes (empty = did not fire)."""


@dataclass
class PassRun:
    """One pass execution: did it fire, how long, what changed."""

    name: str
    description: str
    changed: bool
    seconds: float
    notes: List[str] = field(default_factory=list)


@dataclass
class PassReport:
    """The full pipeline record behind ``compile --explain``."""

    frontend_notes: List[str] = field(default_factory=list)
    runs: List[PassRun] = field(default_factory=list)

    def fired(self) -> List[str]:
        """Names of the passes that changed the IR."""
        return [run.name for run in self.runs if run.changed]

    def render(self) -> str:
        """A plain-text rendering of the pipeline and its IR deltas."""
        lines: List[str] = ["frontend:"]
        for note in self.frontend_notes or ["(verification skipped)"]:
            lines.append(f"  {note}")
        lines.append("passes:")
        for run in self.runs:
            status = "fired" if run.changed else "no change"
            lines.append(
                f"  {run.name:<22} {status:<10} {run.seconds * 1e3:7.2f} ms"
                f"  - {run.description}"
            )
            for note in run.notes:
                lines.append(f"    * {note}")
        return "\n".join(lines) + "\n"


def record_processors_eliminated(pass_name: str, count: int) -> None:
    """Count workflow processors a pass removed from the emitted plan."""
    if count <= 0:
        return
    get_registry().counter(
        "repro_qv_compile_processors_eliminated_total",
        "Workflow processors removed by compiler passes.",
        labels=("pass_name",),
    ).labels(pass_name=pass_name).inc(count)


def record_invocations_saved(pass_name: str, count: int) -> None:
    """Count service invocations a pass saves per enactment (static)."""
    if count <= 0:
        return
    get_registry().counter(
        "repro_qv_compile_invocations_saved_total",
        "Per-enactment service invocations eliminated by compiler passes.",
        labels=("pass_name",),
    ).labels(pass_name=pass_name).inc(count)


class PassManager:
    """Runs a pass pipeline over an IR module, timing and reporting."""

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes = list(passes)

    def run(self, ir: "IRModule") -> PassReport:
        report = PassReport(frontend_notes=list(ir.frontend_notes))
        timer = get_registry().histogram(
            "repro_qv_compile_pass_seconds",
            "Wall-clock cost of each compiler pass.",
            labels=("pass_name",),
        )
        for pass_ in self.passes:
            started = time.perf_counter()
            notes = pass_.run(ir)
            seconds = time.perf_counter() - started
            timer.labels(pass_name=pass_.name).observe(seconds)
            report.runs.append(
                PassRun(
                    name=pass_.name,
                    description=pass_.description,
                    changed=bool(notes),
                    seconds=seconds,
                    notes=list(notes),
                )
            )
        return report
