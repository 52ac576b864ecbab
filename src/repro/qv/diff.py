"""Structural diffing of quality views.

Peers exchanging views through the library (Sec. 7 item iv) need to see
what changed between versions before adopting one: which operators were
added or removed, which variable bindings moved, and — most often —
how the action conditions were edited.  ``diff_views`` computes a
structured diff; ``render_diff`` prints it.

Comparisons run over the compiler frontend's *canonical signatures*
(:mod:`repro.qv.ir`): condition text is normalised through the
parse/unparse round trip and operator blocks compare by content, not
formatting — so a diff is stable under whitespace edits and under the
processor reordering an optimizing compilation may introduce.  For
already-compiled workflows, :func:`same_compiled_view` answers whether
two workflows (however differently optimized) came from the same view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.qv.ir import (
    action_signature,
    annotator_signature,
    assertion_signature,
)
from repro.qv.spec import QualityViewSpec
from repro.workflow.model import Workflow


@dataclass
class ViewDiff:
    """Every structural difference between two views."""

    added_annotators: List[str] = field(default_factory=list)
    removed_annotators: List[str] = field(default_factory=list)
    changed_annotators: List[str] = field(default_factory=list)
    added_assertions: List[str] = field(default_factory=list)
    removed_assertions: List[str] = field(default_factory=list)
    changed_assertions: List[str] = field(default_factory=list)
    added_actions: List[str] = field(default_factory=list)
    removed_actions: List[str] = field(default_factory=list)
    #: action name -> (old condition(s), new condition(s))
    changed_conditions: Dict[str, Tuple[List[str], List[str]]] = field(
        default_factory=dict
    )

    def is_empty(self) -> bool:
        """True when the two views are structurally identical."""
        return not any(
            (
                self.added_annotators,
                self.removed_annotators,
                self.changed_annotators,
                self.added_assertions,
                self.removed_assertions,
                self.changed_assertions,
                self.added_actions,
                self.removed_actions,
                self.changed_conditions,
            )
        )


def same_compiled_view(a: Workflow, b: Workflow) -> bool:
    """Whether two compiled workflows came from the same quality view.

    The compiler stamps the source view's canonical fingerprint
    (:func:`repro.qv.ir.view_fingerprint`) on every emitted workflow,
    so an optimized and a no-pass compilation of one view compare
    equal here even though their processor graphs differ.
    Hand-built workflows (no fingerprint) never compare equal.
    """
    return (
        a.source_fingerprint is not None
        and a.source_fingerprint == b.source_fingerprint
    )


def diff_views(old: QualityViewSpec, new: QualityViewSpec) -> ViewDiff:
    """The structural differences from ``old`` to ``new``."""
    diff = ViewDiff()

    old_annotators = {a.service_name: a for a in old.annotators}
    new_annotators = {a.service_name: a for a in new.annotators}
    diff.added_annotators = sorted(set(new_annotators) - set(old_annotators))
    diff.removed_annotators = sorted(set(old_annotators) - set(new_annotators))
    for name in sorted(set(old_annotators) & set(new_annotators)):
        if annotator_signature(old_annotators[name]) != annotator_signature(
            new_annotators[name]
        ):
            diff.changed_annotators.append(name)

    old_assertions = {a.service_name: a for a in old.assertions}
    new_assertions = {a.service_name: a for a in new.assertions}
    diff.added_assertions = sorted(set(new_assertions) - set(old_assertions))
    diff.removed_assertions = sorted(set(old_assertions) - set(new_assertions))
    for name in sorted(set(old_assertions) & set(new_assertions)):
        if assertion_signature(old_assertions[name]) != assertion_signature(
            new_assertions[name]
        ):
            diff.changed_assertions.append(name)

    old_actions = {a.name: a for a in old.actions}
    new_actions = {a.name: a for a in new.actions}
    diff.added_actions = sorted(set(new_actions) - set(old_actions))
    diff.removed_actions = sorted(set(old_actions) - set(new_actions))
    for name in sorted(set(old_actions) & set(new_actions)):
        # Signatures canonicalise the condition text, so pure
        # formatting edits (whitespace, redundant parentheses) do not
        # register; the reported texts stay as written.
        if action_signature(old_actions[name]) != action_signature(
            new_actions[name]
        ):
            diff.changed_conditions[name] = (
                old_actions[name].conditions(),
                new_actions[name].conditions(),
            )
    return diff


def render_diff(diff: ViewDiff) -> str:
    """A unified-diff-flavoured plain-text rendering."""
    if diff.is_empty():
        return "views are structurally identical\n"
    lines: List[str] = []
    for label, added, removed, changed in (
        ("annotator", diff.added_annotators, diff.removed_annotators,
         diff.changed_annotators),
        ("assertion", diff.added_assertions, diff.removed_assertions,
         diff.changed_assertions),
        ("action", diff.added_actions, diff.removed_actions, []),
    ):
        for name in added:
            lines.append(f"+ {label} {name!r}")
        for name in removed:
            lines.append(f"- {label} {name!r}")
        for name in changed:
            lines.append(f"~ {label} {name!r} (configuration changed)")
    for action, (old_conditions, new_conditions) in sorted(
        diff.changed_conditions.items()
    ):
        lines.append(f"~ action {action!r} conditions:")
        for condition in old_conditions:
            lines.append(f"  - {condition}")
        for condition in new_conditions:
            lines.append(f"  + {condition}")
    return "\n".join(lines) + "\n"
