"""RDF-backed annotation repositories.

Each store encodes annotations exactly as in the paper's Fig. 2: the
data item (an LSID-wrapped URI, typed to a ``q:DataEntity`` subclass)
is linked by ``q:contains-evidence`` to an evidence node which carries
``rdf:type <evidence class>`` and a ``q:value`` literal, plus optional
``q:computedBy`` provenance.  Reads are keyed by (data item, evidence
type) and go through the SPARQL engine, so the storage backend stays
swappable (paper Sec. 5).

All read queries are *prepared* once at module load
(:func:`repro.rdf.sparql.prepare`): the query text carries ``$data`` /
``$etype`` parameters instead of being re-built per item with
``str.format``, so repeat lookups reuse one compiled plan and never
touch the SPARQL lexer or parser.  Bulk reads (:meth:`lookup_batch`,
used by :meth:`enrich`) fetch a whole evidence column in a single
query instead of one query per data item.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.annotation.map import AnnotationMap
from repro.observability import add_to_current, get_registry
from repro.ontology.iq_model import IQModel
from repro.rdf import Graph, Literal, Q, RDF, URIRef
from repro.rdf.sparql import prepare
from repro.rdf.term import Node

_EVIDENCE_QUERY = prepare("""
PREFIX q: <http://qurator.org/iq#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?value WHERE {
  $data q:contains-evidence ?e .
  ?e rdf:type $etype ;
     q:value ?value .
}
""")

#: Distinguishes evidence nodes minted by different store instances of
#: the same name (e.g. a fresh store loading a saved one), so node ids
#: never collide.  Deterministic within a process.
_instance_counter = itertools.count()

_ALL_EVIDENCE_QUERY = prepare("""
PREFIX q: <http://qurator.org/iq#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?type ?value WHERE {
  $data q:contains-evidence ?e .
  ?e rdf:type ?type ;
     q:value ?value .
}
""")

#: One sweep over an entire evidence column; :meth:`lookup_batch`
#: filters the result to the requested items.
_BATCH_EVIDENCE_QUERY = prepare("""
PREFIX q: <http://qurator.org/iq#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?d ?value WHERE {
  ?d q:contains-evidence ?e .
  ?e rdf:type $etype ;
     q:value ?value .
}
""")

_COVERAGE_QUERY = prepare("""
PREFIX q: <http://qurator.org/iq#>
ASK {
  $data q:contains-evidence ?e .
  ?e a $etype .
}
""")


@dataclass
class LookupStats:
    """Read-side counters of one repository (runtime metrics feed).

    A *hit* is a keyed :meth:`AnnotationStore.lookup` that found a
    value.  Counters are cumulative per store; the execution runtime
    reads deltas around each job.
    """

    lookups: int = 0
    hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that found a value."""
        return self.hits / self.lookups if self.lookups else 0.0


class AnnotationStore:
    """One quality-annotation repository (paper Fig. 5, data layer).

    Concurrency: writes are serialized by the underlying graph's index
    lock, and evidence-node ids come from an atomic counter, so
    concurrent annotators (the execution runtime's jobs) can fill one
    shared repository safely.  Keyed reads are safe alongside writes to
    *other* data items; see ``repro.rdf.graph`` for the full contract.
    """

    def __init__(
        self,
        name: str,
        iq_model: Optional[IQModel] = None,
        persistent: bool = True,
        directory: Optional[str] = None,
        sync: str = "batch",
    ) -> None:
        self.name = name
        self.iq_model = iq_model
        self.persistent = persistent
        self.directory = directory
        if directory is not None:
            # A durable repository: annotations survive restart and are
            # re-served without re-annotation.  The store's open
            # generation replaces the process-local instance counter in
            # evidence-node ids, so nodes minted before and after a
            # restart can never collide.  The store is a paged store
            # (``repro.storage.open_backend``); a directory left by the
            # retired disk engine is refused, never overwritten.
            from repro.storage import open_backend

            backend = open_backend(directory, sync=sync)
            self.graph = Graph(f"annotations:{name}", backend=backend)
            self._instance_token = f"g{backend.generation}"
        else:
            self.graph = Graph(f"annotations:{name}")
            self._instance_token = f"i{next(_instance_counter)}"
        self._counter = itertools.count()
        self._stats_lock = threading.Lock()
        self.stats = LookupStats()
        #: Optional hash-partition guard (an object with ``owns(id)``,
        #: see :class:`repro.runtime.shard.ShardSpec`); installed by the
        #: process backend's workers so a write routed to the wrong
        #: shard fails loudly instead of silently diverging.
        self._shard: Optional[Any] = None

    @property
    def durable(self) -> bool:
        """True when the repository is backed by an on-disk store."""
        return self.graph.backend.durable

    def configure_shard(self, shard: Optional[Any]) -> None:
        """Restrict writes to one hash partition (``None`` lifts it).

        ``shard`` is any object with ``owns(data_id) -> bool`` plus
        ``index``/``count`` attributes — in practice a
        :class:`repro.runtime.shard.ShardSpec`.
        """
        self._shard = shard

    # -- writing -----------------------------------------------------------

    def _new_evidence_node(self) -> URIRef:
        return URIRef(
            f"http://qurator.org/annotation/{self.name}/"
            f"{self._instance_token}e{next(self._counter)}"
        )

    def annotate(
        self,
        data_item: URIRef,
        evidence_type: URIRef,
        value: Any,
        data_class: Optional[URIRef] = None,
        function: Optional[URIRef] = None,
    ) -> URIRef:
        """Attach one evidence value to one data item; returns the node.

        ``value`` may be a plain Python value or a prepared ``Literal``.
        If the store was built with an IQ model, the evidence type must
        be a declared ``q:QualityEvidence`` subclass.
        """
        if self.iq_model is not None and not self.iq_model.is_evidence_type(
            evidence_type
        ):
            raise ValueError(
                f"{evidence_type} is not a QualityEvidence class in the IQ model"
            )
        if self._shard is not None and not self._shard.owns(data_item):
            raise ValueError(
                f"repository {self.name!r} on shard {self._shard.index} "
                f"of {self._shard.count} does not own data item {data_item}"
            )
        node = self._new_evidence_node()
        literal = value if isinstance(value, Literal) else Literal(value)
        self.graph.add(data_item, Q["contains-evidence"], node)
        self.graph.add(node, RDF.type, evidence_type)
        self.graph.add(node, Q.value, literal)
        if data_class is not None:
            self.graph.add(data_item, RDF.type, data_class)
        if function is not None:
            self.graph.add(node, Q.computedBy, function)
        return node

    def annotate_map(
        self, amap: AnnotationMap, data_class: Optional[URIRef] = None
    ) -> int:
        """Persist every evidence entry of an annotation map; returns count."""
        written = 0
        for item in amap.items():
            for evidence_type, value in amap.evidence_for(item).items():
                if value is None:
                    continue
                self.annotate(item, evidence_type, value, data_class=data_class)
                written += 1
        return written

    def remove_annotations(self, data_item: URIRef) -> int:
        """Drop every annotation of one data item."""
        removed = 0
        for node in list(self.graph.objects(data_item, Q["contains-evidence"])):
            removed += self.graph.remove(node, None, None)
            removed += self.graph.remove(data_item, Q["contains-evidence"], node)
        return removed

    # -- reading -----------------------------------------------------------

    def lookup(self, data_item: URIRef, evidence_type: URIRef) -> Optional[Any]:
        """The (data, evidence type) key access of the paper, via SPARQL.

        Every lookup is attributed two ways: to the process-wide
        metric registry (``repro_annotation_store_lookups_total`` by
        store and hit/miss), and — via the active span's root — to
        exactly the runtime job that caused it, however many thread
        hops away it ran (see ``repro.observability.spans``).
        """
        result = _EVIDENCE_QUERY.execute(
            self.graph, data=data_item, etype=evidence_type
        )
        found: Optional[Any] = None
        hit = False
        for (value,) in result:
            hit = True
            found = value.value if isinstance(value, Literal) else value
            break
        with self._stats_lock:
            self.stats.lookups += 1
            if hit:
                self.stats.hits += 1
        get_registry().counter(
            "repro_annotation_store_lookups_total",
            "Keyed evidence reads by store and hit/miss.",
            labels=("store", "result"),
        ).labels(store=self.name, result="hit" if hit else "miss").inc()
        add_to_current("cache.lookups", 1)
        if hit:
            add_to_current("cache.hits", 1)
        return found

    def lookup_all(self, data_item: URIRef) -> Dict[URIRef, Any]:
        """Every (evidence type, value) pair known for a data item."""
        result = _ALL_EVIDENCE_QUERY.execute(self.graph, data=data_item)
        found: Dict[URIRef, Any] = {}
        for evidence_type, value in result:
            if isinstance(evidence_type, URIRef):
                found[evidence_type] = (
                    value.value if isinstance(value, Literal) else value
                )
        return found

    def lookup_batch(
        self, items: Iterable[URIRef], evidence_type: URIRef
    ) -> Dict[URIRef, Any]:
        """One evidence type for many data items in a single query.

        Sweeps the whole evidence column once and filters to the
        requested items, instead of issuing one keyed query per item.
        Accounting matches per-item :meth:`lookup` exactly: every
        requested item counts as one lookup, every item with a value
        as one hit.
        """
        wanted = list(items)
        wanted_set = set(wanted)
        found: Dict[URIRef, Any] = {}
        result = _BATCH_EVIDENCE_QUERY.execute(self.graph, etype=evidence_type)
        for data_item, value in result:
            if data_item in wanted_set and data_item not in found:
                found[data_item] = (
                    value.value if isinstance(value, Literal) else value
                )
        hits = len(found)
        with self._stats_lock:
            self.stats.lookups += len(wanted)
            self.stats.hits += hits
        counter = get_registry().counter(
            "repro_annotation_store_lookups_total",
            "Keyed evidence reads by store and hit/miss.",
            labels=("store", "result"),
        )
        if hits:
            counter.labels(store=self.name, result="hit").inc(hits)
        if len(wanted) - hits:
            counter.labels(store=self.name, result="miss").inc(len(wanted) - hits)
        add_to_current("cache.lookups", len(wanted))
        if hits:
            add_to_current("cache.hits", hits)
        return found

    def enrich(
        self,
        amap: AnnotationMap,
        items: Iterable[URIRef],
        evidence_types: Iterable[URIRef],
    ) -> AnnotationMap:
        """Fill an annotation map from the store (Data Enrichment reads).

        Uses :meth:`lookup_batch` — one query per evidence type rather
        than one per (item, type) pair — with identical hit/miss
        accounting.
        """
        wanted = list(evidence_types)
        batch = list(items)
        for item in batch:
            amap.add_item(item)
        for evidence_type in wanted:
            for item, value in self.lookup_batch(batch, evidence_type).items():
                amap.set_evidence(item, evidence_type, value)
        return amap

    def unannotated_items(
        self, items: Iterable[URIRef], evidence_type: URIRef
    ) -> List[URIRef]:
        """The given items lacking any value for an evidence type.

        The coverage check a Data-Enrichment caller runs to decide
        whether an annotation function must fire.
        """
        missing: List[URIRef] = []
        for item in items:
            result = _COVERAGE_QUERY.execute(
                self.graph, data=item, etype=evidence_type
            )
            if not result.boolean:
                missing.append(item)
        return missing

    def annotated_items(self) -> Set[URIRef]:
        """Every data item with at least one annotation."""
        return {
            s
            for s in self.graph.subjects(Q["contains-evidence"], None)
            if isinstance(s, URIRef)
        }

    def evidence_types_present(self) -> Set[URIRef]:
        """Every evidence class instantiated in the store."""
        found: Set[URIRef] = set()
        for node in self.graph.objects(None, Q["contains-evidence"]):
            for cls in self.graph.objects(node, RDF.type):
                if isinstance(cls, URIRef):
                    found.add(cls)
        return found

    # -- lifecycle -----------------------------------------------------------

    def clear(self) -> None:
        """Drop all triples (used for per-execution cache resets)."""
        self.graph.clear()

    def flush(self) -> None:
        """Force pending writes to stable storage (durable stores)."""
        self.graph.flush()

    def close(self) -> None:
        """Flush and release the underlying backend; idempotent."""
        self.graph.close()

    def save(self) -> str:
        """Serialise the repository to N-Triples."""
        return self.graph.serialize("ntriples")

    def load(self, text: str) -> None:
        """Merge a saved repository into this one.

        Node-id collisions cannot occur: every store instance mints
        evidence nodes under its own instance token.
        """
        self.graph.parse(text, "ntriples")

    def __len__(self) -> int:
        return len(self.graph)

    def __repr__(self) -> str:
        kind = "persistent" if self.persistent else "transient"
        return f"<AnnotationStore {self.name!r} ({kind}, {len(self.graph)} triples)>"
