"""The four abstract quality-operator types (paper Sec. 4.1, Fig. 4).

* **Annotation** — computes new evidence values via an annotation
  function and stores them in a repository.  Domain- *and* data-specific.
* **Data Enrichment** — fetches pre-computed annotations from
  repositories by (data item, evidence type) key.  Pre-defined, not
  user-extensible.
* **Quality Assertion** — a decision model assigning a class or score to
  each item of a collection based on its evidence vector.  User-defined
  and domain-specific but *not* data-specific: applicable to any data
  set annotatable with the input evidence types.
* **Action** — evaluates boolean conditions over evidence and QA values
  and routes data items accordingly (see ``actions.py``).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.annotation.functions import AnnotationFunction
from repro.annotation.map import AnnotationMap
from repro.annotation.store import AnnotationStore
from repro.rdf import URIRef


class Operator(abc.ABC):
    """Common base: every operator has a name for workflow wiring."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class AnnotationOperator(Operator):
    """Computes evidence for the input items and persists it.

    ``variables`` lists the evidence types this operator provides into
    ``store`` (the quality view's ``<variables repositoryRef=...>``
    block); ``persistent=False`` marks annotations valid only for one
    process execution.
    """

    def __init__(
        self,
        name: str,
        function: AnnotationFunction,
        store: AnnotationStore,
        evidence_types: Sequence[URIRef],
        persistent: bool = True,
        data_class: Optional[URIRef] = None,
    ) -> None:
        super().__init__(name)
        self.function = function
        self.store = store
        self.evidence_types = list(evidence_types)
        self.persistent = persistent
        self.data_class = data_class

    @property
    def function_class(self) -> URIRef:
        """The IQ-model class of the wrapped annotation function."""

        return self.function.function_class

    def execute(
        self,
        items: List[URIRef],
        context: Optional[Mapping[str, Any]] = None,
    ) -> AnnotationMap:
        """Run the operator; see the class docstring for semantics."""

        return self.function.annotate_into(
            self.store,
            items,
            set(self.evidence_types),
            context=context,
            data_class=self.data_class,
        )


class DataEnrichmentOperator(Operator):
    """Reads annotations from repositories into one annotation map.

    Configured by the QV compiler with the association between each
    evidence type and the repository holding its values (paper
    Sec. 6.1): a single DE operator serves all downstream QAs.
    """

    def __init__(
        self,
        name: str,
        sources: Mapping[URIRef, AnnotationStore],
    ) -> None:
        super().__init__(name)
        self.sources = dict(sources)

    def evidence_types(self) -> Set[URIRef]:
        """The evidence types this operator reads."""

        return set(self.sources)

    def execute(self, items: List[URIRef]) -> AnnotationMap:
        """Run the operator; see the class docstring for semantics."""

        amap = AnnotationMap(items)
        by_store: Dict[AnnotationStore, List[URIRef]] = {}
        for evidence_type, store in self.sources.items():
            by_store.setdefault(store, []).append(evidence_type)
        for store, types in by_store.items():
            store.enrich(amap, items, types)
        return amap


class QualityAssertionOperator(Operator):
    """Base for quality assertions: collection-level decision models.

    Concrete QAs implement :meth:`compute`, receiving the evidence
    vectors for the whole collection at once — the paper's QAs classify
    relative to the collection (e.g. thresholds at avg ± stddev of the
    score distribution), so per-item evaluation would be wrong.

    ``variables`` maps local variable names to evidence-type URIs, as
    declared in the quality view (``<var variableName="coverage"
    evidence="q:coverage"/>``).
    """

    def __init__(
        self,
        name: str,
        assertion_class: URIRef,
        tag_name: str,
        tag_syn_type: Optional[URIRef] = None,
        tag_sem_type: Optional[URIRef] = None,
        variables: Optional[Mapping[str, URIRef]] = None,
    ) -> None:
        super().__init__(name)
        self.assertion_class = assertion_class
        self.tag_name = tag_name
        self.tag_syn_type = tag_syn_type
        self.tag_sem_type = tag_sem_type
        self.variables = dict(variables or {})

    def evidence_vector(
        self, amap: AnnotationMap, item: URIRef
    ) -> Dict[str, Any]:
        """The named evidence values for one item (None when missing)."""
        vector: Dict[str, Any] = {}
        for variable_name, evidence_type in self.variables.items():
            value = amap.get_evidence(item, evidence_type)
            from repro.rdf import Literal

            if isinstance(value, Literal):
                value = value.value
            vector[variable_name] = value
        return vector

    @abc.abstractmethod
    def compute(
        self, items: List[URIRef], vectors: List[Dict[str, Any]]
    ) -> List[Any]:
        """Tag values (score, class URI, ...) for each item, in order."""

    def execute(self, amap: AnnotationMap) -> AnnotationMap:
        """Compute the assertion and add its tags to (a copy of) the map.

        Per the paper, a QA "computes a new version of its input map,
        augmented with new mappings for the class assignment".
        """
        items = amap.items()
        vectors = [self.evidence_vector(amap, item) for item in items]
        return self.tagged(amap, items, self.compute(items, vectors))

    def tagged(
        self, amap: AnnotationMap, items: List[URIRef], values: List[Any]
    ) -> AnnotationMap:
        """A copy of ``amap`` with ``values`` (one per item) as tags."""
        if len(values) != len(items):
            raise ValueError(
                f"quality assertion {self.name!r} returned {len(values)} "
                f"values for {len(items)} items"
            )
        result = amap.copy()
        for item, value in zip(items, values):
            if value is None:
                continue
            result.set_tag(
                item,
                self.tag_name,
                value,
                syn_type=self.tag_syn_type,
                sem_type=self.tag_sem_type,
            )
        return result


class ActionOperator(Operator):
    """Base for actions; concrete splitter/filter live in ``actions.py``."""

    def __init__(self, name: str) -> None:
        super().__init__(name)

    @abc.abstractmethod
    def execute(
        self,
        items: List[URIRef],
        amap: AnnotationMap,
        variable_bindings: Optional[Mapping[str, URIRef]] = None,
    ):
        """Route items into groups; see ``actions.ActionOutcome``."""
