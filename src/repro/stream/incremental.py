"""Incremental re-enactment: re-run only what a delta touches.

The enactor reads its annotators, enrichment columns, assertions and
actions from the view's own compiled workflow (``view.compile()``) and
fires them through the execution core
(:func:`repro.workflow.enactor.fire_in_order` and its
:func:`~repro.workflow.enactor.traced_firing`) that batch enactment
uses, under the view's invoker (``QualityView.with_resilience``), so
retries, alternates and ``on_failure`` policies apply exactly as in
``full_recompute()``, also after a threshold delta.  It keeps its memo
state per view:

- the tracked data set (items only ever accumulate; a fully retracted
  item carries no evidence, exactly like an unknown item in batch
  enactment),
- the evidence memo ``item -> {evidence_type: value}`` mirroring what
  the single DataEnrichment step would read from its ``sources``,
- the tag memo ``assertion -> item -> {tag_name: TagValue}`` holding
  each QA's last verdict per item, in ConsolidateAssertions' ``map{i}``
  slot (declaration) order,
- one consolidated :class:`AnnotationMap`, patched in place,
- per collection-scoped QA with the score/summary split
  (:class:`~repro.qa.classifier.CollectionScopedQA`): the collection's
  exact :class:`~repro.qa.classifier.ScoreSummary`, the item scores, a
  sorted ``(score, arrival index)`` index and the current thresholds,
- per action: one membership flag per (group, item).

Applying a :class:`~repro.stream.delta.Delta` costs O(|delta| + items
whose class or routing changed):

1. every touched item is re-annotated: each annotator upserts every
   declared (item, evidence type) pair it computes a value for and
   retracts the pairs it has none for, so the store holds exactly the
   feed's current values (a store written by the view's annotators is
   owned by them, per item),
2. the evidence memo is refreshed for touched items by one seeded
   ``lookup_all_batch`` read per store, and the *observed* evidence diff
   decides which assertions are affected,
3. item-local QA services (``QualityAssertionService.item_local``, the
   same contract the filter-pushdown pass relies on) re-run over
   affected items only.  A collection-scoped QA with the split updates
   its summary and score index for the affected items, then relabels
   the affected items plus the items whose scores lie between an old
   and a new threshold (found by bisection) — one firing of its
   compiled unit, with the summary in the invocation context.  Other
   collection-scoped QAs, fused units holding one, a split QA while an
   item's score raises (its firing then fails or degrades under the
   view's policy, as the batch firing does), and a unit whose subset
   firing degraded (and its next firing after a degraded one) re-run
   over everything, as batch enactment does.  A fused processor fires
   once for all its affected members,
4. the consolidated map gets each re-annotated or re-tagged item's
   whole evidence and tag entry replaced (tags assertion-major, the
   order ConsolidateProcessor's map merge produces); each action's
   compiled processor re-fires over exactly those items and its group
   memberships are patched — a threshold delta swaps the filter
   condition in the view spec, recompiles the view, re-reads the
   actions from the new plan and re-routes every item of that action,
5. the outcome's result is an independent snapshot: a copy-on-write
   copy of the consolidated map and the group lists in arrival order.

``full_recompute()`` is the differential oracle: it runs the view's
normal batch path over the same data set, whose annotators rewrite
every declared pair of every tracked item the same way.  ``apply`` results must serialize
byte-equal to it.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.annotation.map import AnnotationMap, TagValue
from repro.annotation.store import AnnotationStore
from repro.core.errors import QuratorError
from repro.core.quality_view import QualityView
from repro.core.results import QualityViewResult
from repro.observability import get_registry
from repro.qa.classifier import CollectionScopedQA, ScoreSummary
from repro.qv.backend import FILTER_GATE, FusedAssertionProcessor
from repro.qv.compiler import (
    COLLECTION_SUMMARY,
    CONSOLIDATE,
    DATA_ENRICHMENT,
    ActionProcessor,
    AnnotatorProcessor,
    AssertionProcessor,
)
from repro.rdf import URIRef
from repro.stream.delta import Delta, EvidenceTable
from repro.workflow.enactor import (
    fire_in_order,
    gather_port_values,
    traced_firing,
)
from repro.workflow.model import Workflow
from repro.workflow.trace import EnactmentTrace


class StreamError(QuratorError):
    """A delta could not be applied to the incremental enactor."""


@dataclass
class IncrementalReport:
    """What one ``apply`` actually did, for cost accounting.

    ``memo_hits`` / ``memo_misses`` count per-(assertion, item) verdict
    reuse: a hit is a tag served from the memo table, a miss is a tag
    recomputed by a QA service.  ``reannotated_items`` is the number of
    items whose evidence was recomputed and re-read.
    ``crossing_items`` counts the untouched items a collection-scoped
    QA relabelled because their scores lie between an old and a new
    threshold.
    """

    delta_fingerprint: str
    delta_size: int
    new_items: int
    dirty_items: int
    items_total: int
    reannotated_items: int
    annotators_fired: int
    assertions_fired: List[str] = field(default_factory=list)
    assertions_skipped: List[str] = field(default_factory=list)
    actions_rebuilt: List[str] = field(default_factory=list)
    qa_item_evaluations: int = 0
    crossing_items: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    seconds: float = 0.0

    def to_document(self) -> Dict[str, Any]:
        """The report as a JSON-friendly document."""

        return {
            "delta_fingerprint": self.delta_fingerprint,
            "delta_size": self.delta_size,
            "new_items": self.new_items,
            "dirty_items": self.dirty_items,
            "items_total": self.items_total,
            "reannotated_items": self.reannotated_items,
            "annotators_fired": self.annotators_fired,
            "assertions_fired": list(self.assertions_fired),
            "assertions_skipped": list(self.assertions_skipped),
            "actions_rebuilt": list(self.actions_rebuilt),
            "qa_item_evaluations": self.qa_item_evaluations,
            "crossing_items": self.crossing_items,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "seconds": self.seconds,
        }


class _Member(NamedTuple):
    """One assertion: its firing unit, the unit's port carrying its
    map, and the evidence columns it reads."""

    name: str
    processor: str
    port: str
    reads: FrozenSet[URIRef]
    item_local: bool


class _Scores:
    """A split collection-scoped QA's running view of its collection."""

    def __init__(self, operator: CollectionScopedQA) -> None:
        self.operator = operator
        self.summary = ScoreSummary()
        self.scores: Dict[URIRef, float] = {}
        #: Sorted ``(score, arrival index)`` of every finite score.
        self.index: List[Tuple[float, int]] = []
        self.thresholds: Optional[Tuple[float, ...]] = None
        #: Items whose score raised.  The summary lacks them, so only a
        #: full firing (which raises for them too, under the view's
        #: policy) labels the collection while any is left.
        self.unscored: Set[URIRef] = set()

    def rescore(
        self,
        items: List[URIRef],
        evidence: Dict[URIRef, Dict[URIRef, Any]],
        arrival: Dict[URIRef, int],
    ) -> Set[int]:
        """Re-score ``items``; the arrival indexes of crossing items.

        Updates the summary and the index, then returns the scored
        items whose scores lie between an old and a new threshold:
        besides ``items``, the only ones whose label can change.  When
        a threshold is or was not finite, every scored item crosses.
        """
        operator, index = self.operator, self.index
        for item in items:
            old = self.scores.pop(item, None)
            if old is not None:
                self.summary.remove(old)
                if math.isfinite(old):
                    del index[bisect_left(index, (old, arrival[item]))]
            self.unscored.discard(item)
            vector = {
                name: evidence[item].get(evidence_type)
                for name, evidence_type in operator.variables.items()
            }
            try:
                score = operator.item_score(vector)
            except Exception:
                # QA code is outside this module: the full firing the
                # caller then makes raises it again, under the invoker,
                # which reports it or degrades as the view's policy says.
                self.unscored.add(item)
                continue
            if score is not None:
                self.summary.add(score)
                self.scores[item] = score
                if math.isfinite(score):
                    insort(index, (score, arrival[item]))
        before = self.thresholds
        after = self.thresholds = operator.thresholds(self.summary)
        if before == after:
            return set()
        if (
            before is None
            or after is None
            or len(before) != len(after)
            or not all(map(math.isfinite, before + after))
        ):
            return {arrival[item] for item in self.scores}
        crossing: Set[int] = set()
        for old_bound, new_bound in zip(before, after):
            if old_bound == new_bound:
                continue
            low, high = min(old_bound, new_bound), max(old_bound, new_bound)
            left = bisect_left(index, (low, -1))
            right = bisect_right(index, (high, math.inf))
            crossing.update(position for _, position in index[left:right])
        return crossing


@dataclass
class IncrementalOutcome:
    """An applied delta: the refreshed view result plus the cost report."""

    result: QualityViewResult
    report: IncrementalReport


class IncrementalEnactor:
    """Delta-driven re-enactment of one quality view.

    ``feed`` optionally couples the enactor to the
    :class:`~repro.stream.delta.EvidenceTable` its annotators read;
    delta evidence is then written to the table before re-annotation
    (``apply_feed=False`` leaves feed maintenance to the caller).
    Deployments whose annotators read another source treat upsert
    values as invalidation hints — the items are re-annotated from that
    source.
    """

    def __init__(
        self,
        view: QualityView,
        feed: Optional[EvidenceTable] = None,
        apply_feed: bool = True,
    ) -> None:
        self.view = view
        self.framework = view.framework
        self.feed = feed
        self.apply_feed = apply_feed
        self._lock = threading.RLock()
        self._read_plan(view.compile())
        # Memo state.  Items only accumulate; order is arrival order and
        # doubles as the dataSet order handed to the oracle.
        self._items: List[URIRef] = []
        self._arrival: Dict[URIRef, int] = {}
        self._evidence: Dict[URIRef, Dict[URIRef, Any]] = {}
        self._tags: Dict[str, Dict[URIRef, Dict[str, TagValue]]] = {
            member.name: {} for member in self._members
        }
        self._merged = AnnotationMap()
        #: action -> group -> membership flag per arrival index.
        self._routes: Dict[str, Dict[str, bytearray]] = {}
        #: Items of applies that raised, re-derived in full next time.
        self._pending: Dict[URIRef, None] = {}
        #: Assertion units whose last firing degraded (or whose labels an
        #: apply that raised may have left stale): the next firing of
        #: each covers every item, as the batch path's would.
        self._stale: Set[str] = set()
        self._deltas_applied = 0

    # -- the compiled plan ---------------------------------------------------

    def _read_plan(self, workflow: Workflow) -> None:
        """Read annotators, columns, assertions and actions from a plan."""
        if FILTER_GATE in workflow.processors:
            raise StreamError(
                f"quality view {self.view.name!r} is compiled with a "
                f"filter gate; incremental enactment needs every item "
                f"to reach the assertions (compile with default options)"
            )
        self._workflow = workflow
        # The serial enactor's firing order, so store writes match it.
        self._annotators = [
            name
            for name in workflow.topological_order()
            if isinstance(workflow.processors[name], AnnotatorProcessor)
        ]
        # DataEnrichment's read grouping: per store, its columns in order.
        self._columns: Dict[AnnotationStore, List[URIRef]] = {}
        for evidence_type, store in workflow.processors[
            DATA_ENRICHMENT
        ].sources.items():
            self._columns.setdefault(store, []).append(evidence_type)
        slots = {
            link.sink.port: (link.source.processor, link.source.port)
            for link in workflow.incoming_links(CONSOLIDATE)
        }
        self._members: List[_Member] = []
        #: Split collection-scoped QAs firing as their own unit.
        self._scored: Dict[str, _Scores] = {}
        for slot in range(workflow.processors[CONSOLIDATE].n_maps):
            source, port = slots[f"map{slot}"]
            processor = workflow.processors[source]
            if isinstance(processor, FusedAssertionProcessor):
                config = processor.member_configs[
                    int(port[len("annotationMap"):])
                ]
            elif isinstance(processor, AssertionProcessor):
                config = processor.config
            else:
                continue  # no assertions: the DE feeds map0 directly
            member = _Member(
                config["name"],
                source,
                port,
                frozenset(config["variables"].values()),
                bool(processor.service.item_local),
            )
            self._members.append(member)
            if not member.item_local and isinstance(
                processor, AssertionProcessor
            ):
                build = getattr(processor.service, "build_operator", None)
                operator = build(**config) if build is not None else None
                if isinstance(operator, CollectionScopedQA):
                    self._scored[member.name] = _Scores(operator)
        self._action_plan = workflow

    # -- state ---------------------------------------------------------------

    @property
    def items(self) -> List[URIRef]:
        """The tracked data set, arrival order."""

        with self._lock:
            return list(self._items)

    @property
    def deltas_applied(self) -> int:
        """How many deltas this enactor has absorbed."""

        with self._lock:
            return self._deltas_applied

    # -- threshold edits -----------------------------------------------------

    def _apply_thresholds(self, thresholds: Dict[str, str]) -> List[str]:
        rebuilt: List[str] = []
        for name, condition in thresholds.items():
            index = next(
                (
                    i
                    for i, spec in enumerate(self.view.spec.actions)
                    if spec.name == name
                ),
                None,
            )
            if index is None:
                raise StreamError(
                    f"threshold update targets unknown action {name!r}"
                )
            spec = self.view.spec.actions[index]
            if spec.kind != "filter":
                raise StreamError(
                    f"threshold updates only support filter actions; "
                    f"{name!r} is a {spec.kind}"
                )
            self.view.spec.actions[index] = replace(spec, condition=condition)
            try:
                self._action_plan = self.view.compile(force=True)
            except QuratorError as exc:
                self.view.spec.actions[index] = spec
                raise StreamError(
                    f"invalid condition for action {name!r}: {exc}"
                ) from exc
            rebuilt.append(name)
        return rebuilt

    # -- the delta path ------------------------------------------------------

    def _read_evidence(
        self, items: List[URIRef]
    ) -> Dict[URIRef, Dict[URIRef, Any]]:
        """Fresh evidence entries, in DataEnrichment's column order."""
        found = [
            (columns, store.lookup_all_batch(items))
            for store, columns in self._columns.items()
        ]
        entries: Dict[URIRef, Dict[URIRef, Any]] = {}
        for item in items:
            entry: Dict[URIRef, Any] = {}
            for columns, by_item in found:
                values = by_item[item]
                for evidence_type in columns:
                    if evidence_type in values:
                        entry[evidence_type] = values[evidence_type]
            entries[item] = entry
        return entries

    def _evidence_map(self, items: List[URIRef]) -> AnnotationMap:
        """The enriched map of ``items``: evidence entries, no tags."""
        amap = AnnotationMap()
        for item in items:
            amap.replace_entry(item, self._evidence[item], {})
        return amap

    def _fire(
        self,
        trace: EnactmentTrace,
        workflow: Workflow,
        unit: str,
        values: Dict[Tuple[str, str], Any],
        summary: Optional[ScoreSummary] = None,
    ) -> bool:
        """Fire one unit into ``values``; False if the firing degraded."""
        if summary is None:
            fire_in_order(workflow, [unit], values, trace, self.view.invoker)
        else:
            port_values = gather_port_values(workflow, unit, values)
            port_values[COLLECTION_SUMMARY] = summary
            outputs = traced_firing(
                trace, workflow, unit, port_values, self.view.invoker
            )
            for port, value in outputs.items():
                values[(unit, port)] = value
        return trace.events[-1].status != "degraded"

    def _fire_assertions(
        self,
        trace: EnactmentTrace,
        report: IncrementalReport,
        affected_of: Dict[str, List[URIRef]],
    ) -> Set[URIRef]:
        """Re-fire affected assertion units; the items whose tags moved."""
        total = len(self._items)
        order = self._arrival.__getitem__
        retagged: Set[URIRef] = set()
        fired: Dict[str, Dict[Tuple[str, str], Any]] = {}
        for member in self._members:
            affected = affected_of[member.name]
            scores = self._scored.get(member.name)
            fire_items = affected
            if scores is not None:
                crossing = scores.rescore(affected, self._evidence, self._arrival)
                if crossing:
                    moved = {self._items[position] for position in crossing}
                    moved.difference_update(affected)
                    report.crossing_items += len(moved)
                    fire_items = sorted(moved.union(affected), key=order)
            if not fire_items:
                report.assertions_skipped.append(member.name)
                report.memo_hits += total
                continue
            report.assertions_fired.append(member.name)
            unit = member.processor
            full = unit in self._stale or (
                not member.item_local
                and (scores is None or bool(scores.unscored))
            )
            if unit not in fired and not full:
                # One firing per unit: a fused processor covers every
                # affected member at once.
                if scores is None:
                    fire_items = sorted(
                        {
                            item
                            for other in self._members
                            if other.processor == unit
                            for item in affected_of[other.name]
                        },
                        key=order,
                    )
                values = {
                    ("", "dataSet"): fire_items,
                    (DATA_ENRICHMENT, "annotationMap"): self._evidence_map(
                        fire_items
                    ),
                }
                clean = self._fire(
                    trace, self._workflow, unit, values,
                    scores.summary if scores is not None else None,
                )
                if clean:
                    fired[unit] = values
                else:
                    full = True  # a partial degraded firing is no verdict
            if full and unit not in fired:
                fired[unit] = {
                    ("", "dataSet"): list(self._items),
                    (DATA_ENRICHMENT, "annotationMap"): self._evidence_map(
                        self._items
                    ),
                }
                if self._fire(trace, self._workflow, unit, fired[unit]):
                    self._stale.discard(unit)
                else:
                    self._stale.add(unit)
            result_map = fired[unit][(unit, member.port)]
            memo = self._tags[member.name]
            refreshed = self._items if full else (
                affected if scores is None else fire_items
            )
            for item in refreshed:
                tags = result_map.tags_for(item)
                if memo.get(item, {}) != tags:
                    retagged.add(item)
                memo[item] = tags
            report.memo_hits += total - len(refreshed)
            report.memo_misses += len(refreshed)
            report.qa_item_evaluations += len(refreshed)
        return retagged

    def _route(
        self,
        trace: EnactmentTrace,
        changed: List[URIRef],
        rebuilt: List[str],
    ) -> Dict[str, Dict[str, List[URIRef]]]:
        """Re-route changed items (all, for rebuilt actions); the groups."""
        plan = self._action_plan
        total = len(self._items)
        groups: Dict[str, Dict[str, List[URIRef]]] = {}
        for name, processor in plan.processors.items():
            if not isinstance(processor, ActionProcessor):
                continue
            flags = self._routes.get(name)
            full = flags is None or name in rebuilt
            if flags is None:
                flags = self._routes[name] = {
                    group: bytearray() for group in processor.group_ports
                }
            for member_flags in flags.values():
                member_flags.extend(bytes(total - len(member_flags)))
            if not full and changed:
                values = {
                    ("", "dataSet"): changed,
                    (CONSOLIDATE, "annotationMap"): self._merged.select(changed),
                }
                full = not self._fire(trace, plan, name, values)
            if full:
                values = {
                    ("", "dataSet"): list(self._items),
                    (CONSOLIDATE, "annotationMap"): self._merged,
                }
                self._fire(trace, plan, name, values)
            if full or changed:
                for group, port in processor.group_ports.items():
                    member_flags = flags[group]
                    if full:
                        member_flags[:] = bytes(total)
                    else:
                        for item in changed:
                            member_flags[self._arrival[item]] = 0
                    for item in values[(name, port)]:
                        member_flags[self._arrival[item]] = 1
            groups[name] = {
                group: list(compress(self._items, flags[group]))
                for group in processor.group_ports
            }
        return groups

    def apply(self, delta: Delta) -> IncrementalOutcome:
        """Absorb one delta and return the refreshed view result.

        An apply that raises may leave its items half-processed; the
        next apply re-annotates them, re-evaluates every QA over them,
        fully refires collection-scoped QAs, re-routes every action and
        rebuilds every consolidated entry, so its result is correct
        again.
        """

        with self._lock:
            forced = self._pending
            self._pending = dict(forced)
            self._pending.update(dict.fromkeys(delta.touched_items()))
            if forced:
                self._stale.update(
                    member.processor
                    for member in self._members
                    if member.name in self._scored
                )
                self._routes.clear()
            outcome = self._apply(delta, forced)
            self._pending = {}
            return outcome

    def _apply(
        self, delta: Delta, forced: Dict[URIRef, None]
    ) -> IncrementalOutcome:
        """:meth:`apply`, also re-deriving the ``forced`` items in full."""
        started = time.perf_counter()
        if self.feed is not None and self.apply_feed:
            self.feed.apply(delta)
        rebuilt = (
            self._apply_thresholds(dict(delta.thresholds))
            if delta.thresholds
            else []
        )

        touched = list(dict.fromkeys([*delta.touched_items(), *forced]))
        arrival = self._arrival
        new_items = [item for item in touched if item not in arrival]
        new_set = set(new_items).union(forced)
        # Store writes happen in tracked order first, then arrivals,
        # so ``dirty`` is in arrival order.
        dirty_existing = sorted(
            (item for item in touched if item in arrival),
            key=arrival.__getitem__,
        )
        dirty = dirty_existing + new_items

        # 1. Re-annotate every touched item from the source of
        # truth: each annotator upserts or retracts its declared
        # (item, evidence type) pairs, so no stale row survives.
        trace = EnactmentTrace(self._workflow.name)
        if dirty:
            fire_in_order(
                self._workflow,
                self._annotators,
                {("", "dataSet"): list(dirty)},
                trace,
                self.view.invoker,
            )

        # 2. Refresh the evidence memo by one seeded read per store;
        # the *observed* diff (not the declared delta) decides which
        # QAs are affected.
        fresh = self._read_evidence(dirty) if dirty else {}
        changed_columns: Dict[URIRef, Set[URIRef]] = {}
        for item in dirty_existing:
            before, after = self._evidence[item], fresh[item]
            moved = {
                etype
                for etype in set(before) | set(after)
                if before.get(etype) != after.get(etype)
            }
            if moved:
                changed_columns[item] = moved
        for item in new_items:
            arrival[item] = len(self._items)
            self._items.append(item)
        self._evidence.update(fresh)

        # 3. Assertions: memo hits for unaffected items, subset
        # re-evaluation for item-local and split collection-scoped
        # QAs, full re-evaluation for the rest.
        report = IncrementalReport(
            delta_fingerprint=delta.fingerprint(),
            delta_size=delta.size(),
            new_items=len(new_items),
            dirty_items=len(dirty_existing),
            items_total=len(self._items),
            reannotated_items=len(dirty),
            annotators_fired=len(self._annotators) if dirty else 0,
            actions_rebuilt=rebuilt,
        )
        affected_of = {
            member.name: [
                item
                for item in dirty
                if item in new_set
                or (changed_columns.get(item, set()) & member.reads)
            ]
            for member in self._members
        }
        retagged = self._fire_assertions(trace, report, affected_of)

        # 4. Patch the consolidated map: whole evidence and tag
        # entries of every re-annotated or re-tagged item, tags
        # assertion-major — ConsolidateProcessor's merge order.
        if forced:
            retagged = set(self._items)
        retagged.difference_update(dirty)
        changed = dirty + sorted(retagged, key=arrival.__getitem__)
        for item in changed:
            tags: Dict[str, TagValue] = {}
            for member in self._members:
                tags.update(self._tags[member.name].get(item, {}))
            self._merged.replace_entry(item, self._evidence[item], tags)
        changed.sort(key=arrival.__getitem__)
        groups = self._route(trace, changed, rebuilt)

        # 5. An independent snapshot for this outcome.
        result = QualityViewResult(
            view_name=self.view.name,
            items=list(self._items),
            annotation_map=self._merged.copy(),
            groups=groups,
        )

        self._deltas_applied += 1
        report.seconds = time.perf_counter() - started
        self._count(report)
        return IncrementalOutcome(result=result, report=report)

    def _count(self, report: IncrementalReport) -> None:
        registry = get_registry()
        view = self.view.name
        registry.counter(
            "repro_stream_deltas_total",
            "Deltas absorbed by incremental enactors.",
            labels=("view",),
        ).labels(view=view).inc()
        registry.counter(
            "repro_stream_memo_hits_total",
            "Per-(assertion, item) verdicts served from the memo table.",
            labels=("view",),
        ).labels(view=view).inc(report.memo_hits)
        registry.counter(
            "repro_stream_memo_misses_total",
            "Per-(assertion, item) verdicts recomputed by QA services.",
            labels=("view",),
        ).labels(view=view).inc(report.memo_misses)
        registry.counter(
            "repro_stream_reannotated_items_total",
            "Items whose evidence was recomputed for a delta.",
            labels=("view",),
        ).labels(view=view).inc(report.reannotated_items)
        registry.counter(
            "repro_stream_processors_fired_total",
            "Compiled processors re-fired by incremental applies.",
            labels=("view", "kind"),
        ).labels(view=view, kind="annotator").inc(report.annotators_fired)
        registry.counter(
            "repro_stream_processors_fired_total",
            "Compiled processors re-fired by incremental applies.",
            labels=("view", "kind"),
        ).labels(view=view, kind="assertion").inc(len(report.assertions_fired))
        registry.histogram(
            "repro_stream_apply_seconds",
            "Wall-clock seconds absorbing one delta.",
            labels=("view",),
        ).labels(view=view).observe(report.seconds)

    # -- the differential oracle ---------------------------------------------

    def full_recompute(self) -> QualityViewResult:
        """Batch-enact the tracked data set from scratch (the oracle).

        The batch path's annotators rewrite (upsert or retract) every
        declared pair of every tracked item from the same source of
        truth the incremental path reads.  The rewritten rows carry
        the current feed values, leaving the memo state valid — oracle
        runs may be interleaved with ``apply`` calls freely.
        """

        with self._lock:
            return self.view.run(list(self._items), clear_cache=False)
