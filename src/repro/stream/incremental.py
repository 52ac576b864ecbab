"""Incremental re-enactment: re-run only what a delta touches.

The enactor reads its annotators, enrichment columns, assertions and
actions from the view's own compiled workflow (``view.compile()``) and
fires them through the execution core
(:func:`repro.workflow.enactor.fire_in_order`) that batch enactment
uses, under the view's invoker (``QualityView.with_resilience``), so
retries, alternates and ``on_failure`` policies apply exactly as in
``full_recompute()``, also after a threshold delta.  It keeps three
pieces of memo state per view:

- the tracked data set (items only ever accumulate; a fully retracted
  item carries no evidence, exactly like an unknown item in batch
  enactment),
- the evidence memo ``item -> {evidence_type: value}`` mirroring what
  the single DataEnrichment step would read from its ``sources``, and
- the tag memo ``assertion -> item -> {tag_name: TagValue}`` holding
  each QA's last verdict per item, in ConsolidateAssertions' ``map{i}``
  slot (declaration) order.

Applying a :class:`~repro.stream.delta.Delta` re-fires those compiled
processors over affected subsets:

1. every touched item is re-annotated: each annotator upserts every
   declared (item, evidence type) pair it computes a value for and
   retracts the pairs it has none for, so the store holds exactly the
   feed's current values (a store written by the view's annotators is
   owned by them, per item),
2. the evidence memo is refreshed for touched items through keyed
   ``lookup_all`` reads, and the *observed* evidence diff decides which
   assertions are affected,
3. item-local QA services (``QualityAssertionService.item_local``, the
   same contract the filter-pushdown pass relies on) re-run over
   affected items only; collection-scoped QAs (e.g. the score
   classifier, whose bands depend on the whole data set) re-run over
   everything whenever any read column moved.  A fused assertion
   processor fires once for all its affected members,
4. consolidation is assembled from the memos (provably the same
   item/tag ordering as ``ConsolidateProcessor``'s map merge), and the
   actions re-fire over the full set — threshold deltas swap the
   filter condition in the view spec, recompile the view and re-read
   the actions from the new plan.

``full_recompute()`` is the differential oracle: it runs the view's
normal batch path over the same data set, whose annotators rewrite
every declared pair of every tracked item the same way.  ``apply`` results must serialize
byte-equal to it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.annotation.map import AnnotationMap, TagValue
from repro.annotation.store import AnnotationStore
from repro.core.errors import QuratorError
from repro.core.quality_view import QualityView
from repro.core.results import QualityViewResult
from repro.observability import get_registry
from repro.qv.backend import FILTER_GATE, FusedAssertionProcessor
from repro.qv.compiler import (
    CONSOLIDATE,
    DATA_ENRICHMENT,
    ActionProcessor,
    AnnotatorProcessor,
    AssertionProcessor,
)
from repro.rdf import URIRef
from repro.stream.delta import Delta, EvidenceTable
from repro.workflow.enactor import collect_workflow_outputs, fire_in_order
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
        self._evidence: Dict[URIRef, Dict[URIRef, Any]] = {}
        self._tags: Dict[str, Dict[URIRef, Dict[str, TagValue]]] = {
            member.name: {} for member in self._members
        }
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
        self._columns: List[Tuple[URIRef, AnnotationStore]] = list(
            workflow.processors[DATA_ENRICHMENT].sources.items()
        )
        slots = {
            link.sink.port: (link.source.processor, link.source.port)
            for link in workflow.incoming_links(CONSOLIDATE)
        }
        self._members: List[_Member] = []
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
            self._members.append(
                _Member(
                    config["name"],
                    source,
                    port,
                    frozenset(config["variables"].values()),
                    bool(processor.service.item_local),
                )
            )
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

    def apply(self, delta: Delta) -> IncrementalOutcome:
        """Absorb one delta and return the refreshed view result."""

        with self._lock:
            started = time.perf_counter()
            if self.feed is not None and self.apply_feed:
                self.feed.apply(delta)
            rebuilt = (
                self._apply_thresholds(dict(delta.thresholds))
                if delta.thresholds
                else []
            )

            touched = delta.touched_items()
            touched_set = set(touched)
            new_items = [item for item in touched if item not in self._evidence]
            new_set = set(new_items)
            dirty_existing = [item for item in self._items if item in touched_set]
            # Store writes happen in tracked order first, then arrivals.
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

            # 2. Refresh the evidence memo through the same per-column
            # batch reads DataEnrichment performs; the *observed* diff
            # (not the declared delta) decides which QAs are affected.
            previous = {item: self._evidence.get(item, {}) for item in dirty}
            for item in dirty:
                self._evidence[item] = {}
            if dirty:
                by_store: Dict[AnnotationStore, List[URIRef]] = {}
                for evidence_type, store in self._columns:
                    by_store.setdefault(store, []).append(evidence_type)
                for store, evidence_types in by_store.items():
                    # Keyed per-item reads, not a column sweep: the
                    # refresh must cost O(|dirty|), not O(|store|).
                    wanted = set(evidence_types)
                    for item in dirty:
                        for evidence_type, value in store.lookup_all(item).items():
                            if evidence_type in wanted:
                                self._evidence[item][evidence_type] = value
            changed_columns: Dict[URIRef, Set[URIRef]] = {}
            for item in dirty_existing:
                before, after = previous[item], self._evidence[item]
                moved = {
                    etype
                    for etype in set(before) | set(after)
                    if before.get(etype) != after.get(etype)
                }
                if moved:
                    changed_columns[item] = moved
            self._items.extend(new_items)

            # 3. Rebuild the enriched map from the memo (pure dict work;
            # no repository reads for unchanged items).
            enriched = AnnotationMap(self._items)
            for item in self._items:
                for evidence_type, value in self._evidence[item].items():
                    enriched.set_evidence(item, evidence_type, value)

            # 4. Assertions: memo hits for unaffected items, subset
            # re-evaluation for item-local QAs, full re-evaluation for
            # collection-scoped QAs.
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
            total = len(self._items)
            affected_of = {
                member.name: [
                    item
                    for item in self._items
                    if item in new_set
                    or (changed_columns.get(item, set()) & member.reads)
                ]
                for member in self._members
            }
            unit_outputs: Dict[str, Dict[Tuple[str, str], Any]] = {}
            for member in self._members:
                affected = affected_of[member.name]
                if not affected:
                    report.assertions_skipped.append(member.name)
                    report.memo_hits += total
                    continue
                report.assertions_fired.append(member.name)
                unit = member.processor
                if unit not in unit_outputs:
                    # One firing per unit: a fused processor covers
                    # every affected member at once.
                    wanted = {
                        item
                        for other in self._members
                        if other.processor == unit
                        for item in affected_of[other.name]
                    }
                    unit_outputs[unit] = {
                        ("", "dataSet"): [
                            item for item in self._items
                            if not member.item_local or item in wanted
                        ],
                        (DATA_ENRICHMENT, "annotationMap"): enriched,
                    }
                    fire_in_order(
                        self._workflow, [unit], unit_outputs[unit], trace,
                        self.view.invoker,
                    )
                result_map = unit_outputs[unit][(unit, member.port)]
                if member.item_local:
                    memo = self._tags[member.name]
                    for item in affected:
                        memo[item] = dict(result_map.tags_for(item))
                    report.memo_hits += total - len(affected)
                    report.memo_misses += len(affected)
                    report.qa_item_evaluations += len(affected)
                else:
                    self._tags[member.name] = {
                        item: dict(result_map.tags_for(item))
                        for item in self._items
                    }
                    report.memo_misses += total
                    report.qa_item_evaluations += total

            # 5. Consolidate by assembly: evidence order comes from the
            # enriched map, tags land assertion-major per item — the
            # exact ordering ConsolidateProcessor's map merge produces.
            merged = enriched.copy()
            for member in self._members:
                memo = self._tags[member.name]
                for item in self._items:
                    for tag_name, tag in (memo.get(item) or {}).items():
                        merged.set_tag(
                            item, tag_name, tag.value, tag.syn_type, tag.sem_type
                        )

            # 6. Actions always re-fire (they are cheap condition scans
            # and thresholds may have moved); package like the view does.
            plan = self._action_plan
            values = {
                ("", "dataSet"): list(self._items),
                (CONSOLIDATE, "annotationMap"): merged,
            }
            fire_in_order(
                plan,
                [
                    name for name, processor in plan.processors.items()
                    if isinstance(processor, ActionProcessor)
                ],
                values,
                trace,
                self.view.invoker,
            )
            result = self.view._package(
                list(self._items), plan, collect_workflow_outputs(plan, values)
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
