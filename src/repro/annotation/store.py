"""RDF-backed annotation repositories.

Each store encodes annotations exactly as in the paper's Fig. 2: the
data item (an LSID-wrapped URI, typed to a ``q:DataEntity`` subclass)
is linked by ``q:contains-evidence`` to an evidence node which carries
``rdf:type <evidence class>`` and a ``q:value`` literal, plus optional
``q:computedBy`` provenance.  Reads are keyed by (data item, evidence
type) and go through the SPARQL engine, so the storage backend stays
swappable (paper Sec. 5).

The repository is *keyed*: each (data item, evidence type) pair has
exactly one evidence node, whose IRI is derived from the store name
and the pair (:meth:`AnnotationStore._keyed_node`).  A write replaces
the pair's value as one atomic graph update
(:meth:`repro.rdf.graph.Graph.update`, one WAL record on a durable
store); writing a pair's current value changes nothing, and a ``None``
value retracts the pair.  The store therefore holds at most one row
per pair however often items are re-annotated.

All read queries are *prepared* once at module load
(:func:`repro.rdf.sparql.prepare`): the query text carries ``$data`` /
``$etype`` parameters instead of being re-built per item with
``str.format``, so repeat lookups reuse one compiled plan and never
touch the SPARQL lexer or parser.  Bulk reads (:meth:`lookup_batch`,
:meth:`enrich`, :meth:`unannotated_items`) bind ``$data`` to the list
of requested items — a seed relation — so one execution answers for
all of them at the cost of index probes per requested item, never a
sweep of the store.

Stores written before evidence nodes were keyed minted a fresh node
per write, so a durable store may still hold several rows for one
pair.  Every read applies one rule: the keyed node wins; failing that,
the most recently minted node (highest generation, then counter, both
encoded in its IRI).  The first keyed write of a pair deletes its
minted nodes.
"""

from __future__ import annotations

import hashlib
import itertools
import re
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.annotation.map import AnnotationMap
from repro.observability import add_to_current, get_registry
from repro.ontology.iq_model import IQModel
from repro.rdf import Graph, Literal, Q, RDF, URIRef
from repro.rdf.graph import TriplePattern
from repro.rdf.sparql import prepare
from repro.rdf.term import Node
from repro.storage.backend import MemoryBackend

CONTAINS_EVIDENCE = Q["contains-evidence"]
_VALUE = Q.value
_TYPE = RDF.type

#: The paper's keyed access: evidence of (item, type) pairs.  ``$data``
#: and ``$etype`` may each be one term or a list of terms (a seed
#: relation); ``?e`` lets the reader apply the newest-wins rule.
_EVIDENCE_QUERY = prepare("""
PREFIX q: <http://qurator.org/iq#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT $data $etype ?e ?value WHERE {
  $data q:contains-evidence ?e .
  ?e rdf:type $etype ;
     q:value ?value .
}
""")

_ALL_EVIDENCE_QUERY = prepare("""
PREFIX q: <http://qurator.org/iq#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT $data ?type ?e ?value WHERE {
  $data q:contains-evidence ?e .
  ?e rdf:type ?type ;
     q:value ?value .
}
""")

#: Items (of the seeded ``$data``) carrying any node of ``$etype``,
#: literal-valued or structured.
_COVERAGE_QUERY = prepare("""
PREFIX q: <http://qurator.org/iq#>
SELECT DISTINCT $data WHERE {
  $data q:contains-evidence ?e .
  ?e a $etype .
}
""")

#: Distinguishes audit-log nodes minted by different store instances
#: of the same name (e.g. a fresh store loading a saved one), so node
#: ids never collide.  Deterministic within a process.
_instance_counter = itertools.count()

#: Last IRI segment of a keyed evidence node / of a minted node.
_KEYED_SEGMENT = re.compile(r"/k[0-9a-f]{32}$")
_MINTED_SEGMENT = re.compile(r"/[gi](\d+)e(\d+)$")

#: A statement list describing one evidence node (``None`` retracts).
Statements = Optional[List[Tuple[URIRef, Node]]]


_KEYED_RANK = (2, 0, 0)


def _node_rank(node: Node) -> Tuple[int, int, int]:
    """Read-rule order of evidence nodes: keyed > newest minted."""
    text = str(node)
    if _KEYED_SEGMENT.search(text):
        return _KEYED_RANK
    minted = _MINTED_SEGMENT.search(text)
    if minted:
        return (1, int(minted.group(1)), int(minted.group(2)))
    return (0, 0, 0)


def _plain(value: Node) -> Any:
    return value.value if isinstance(value, Literal) else value


def _newest(rows: Iterable[Tuple[Node, ...]]) -> Dict[Tuple[Node, Node], Any]:
    """One value per (item, type) from ``(item, type, node, value)`` rows."""
    best: Dict[Tuple[Node, Node], Tuple[Node, Node]] = {}
    for item, etype, node, value in rows:
        key = (item, etype)
        held = best.get(key)
        if held is None or _node_rank(node) > _node_rank(held[0]):
            best[key] = (node, value)
    return {key: _plain(value) for key, (_, value) in best.items()}


@dataclass
class LookupStats:
    """Read-side counters of one repository (runtime metrics feed).

    A *hit* is a keyed (item, evidence type) read that found a value;
    batch reads count one lookup and at most one hit per requested
    occurrence, exactly as the equivalent per-item :meth:`lookup`
    calls would.  Counters are cumulative per store; the execution
    runtime reads deltas around each job.
    """

    lookups: int = 0
    hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that found a value."""
        return self.hits / self.lookups if self.lookups else 0.0


class AnnotationStore:
    """One quality-annotation repository (paper Fig. 5, data layer).

    Concurrency: every write — an upsert or retraction of any number
    of (item, evidence type) pairs — is one :meth:`Graph.update`, so
    it is applied under the graph's index lock as a unit and readers
    never observe half of it.  Two annotators writing the same pair
    concurrently leave exactly one of their values; concurrent jobs
    (the execution runtime, the serving tier's shared cache) can fill
    one repository safely.  See ``repro.rdf.graph`` for the full
    contract.
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
            # minted node ids, so nodes minted before and after a
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
        #: Only a durable store reopened non-empty can hold minted
        #: evidence nodes from before keying; writes then look for
        #: them so the first keyed write of a pair deletes them.
        self._legacy_possible = self.durable and len(self.graph) > 0
        self._node_base = f"http://qurator.org/annotation/{name}/"
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

    def _keyed_node(self, data_item: Node, evidence_type: Node) -> URIRef:
        """The one evidence node of an (item, evidence type) pair.

        A digest of a length-prefixed encoding of the two IRIs, under
        this store's namespace: the same pair always maps to the same
        node, distinct pairs to distinct nodes.
        """
        item = str(data_item)
        key = f"{len(item)}:{item}{evidence_type}".encode("utf-8")
        digest = hashlib.blake2b(key, digest_size=16).hexdigest()
        return URIRef(f"{self._node_base}k{digest}")

    def _mint_node(self) -> URIRef:
        """A fresh node id (the append-only assertion audit log)."""
        return URIRef(
            f"{self._node_base}{self._instance_token}e{next(self._counter)}"
        )

    def _check_type(self, evidence_type: URIRef) -> None:
        if self.iq_model is not None and not self.iq_model.is_evidence_type(
            evidence_type
        ):
            raise ValueError(
                f"{evidence_type} is not a QualityEvidence class in the IQ model"
            )

    def _check_item(self, data_item: URIRef) -> None:
        if self._shard is not None and not self._shard.owns(data_item):
            raise ValueError(
                f"repository {self.name!r} on shard {self._shard.index} "
                f"of {self._shard.count} does not own data item {data_item}"
            )

    def _legacy_nodes(self, data_item: Node, evidence_type: Node) -> List[Node]:
        """Minted (pre-keying) nodes of one pair.

        Safe to read outside the write's lock: no write creates minted
        evidence nodes, so this set can only shrink, and a removal
        pattern whose node is already gone matches nothing.
        """
        graph = self.graph
        return [
            node
            for node in graph.objects(data_item, CONTAINS_EVIDENCE)
            if _node_rank(node) != _KEYED_RANK
            and (node, RDF.type, evidence_type) in graph
        ]

    def _write(
        self,
        pairs: Iterable[Tuple[Node, Node, Statements]],
        data_class: Optional[URIRef] = None,
        extra: Sequence[Tuple[Node, Node, Node]] = (),
    ) -> List[URIRef]:
        """Upsert or retract (item, type, statements) pairs atomically.

        Statements describe the pair's keyed node (beside its
        ``rdf:type``) and replace whatever it held; ``None`` retracts
        the pair.  Minted nodes of the pair are deleted in the same
        update, and ``extra`` triples are added with it.  Returns the
        pairs' keyed nodes, in order.
        """
        removals: List[TriplePattern] = []
        additions: List[Tuple[Node, Node, Node]] = list(extra)
        nodes: List[URIRef] = []
        for item, evidence_type, statements in pairs:
            node = self._keyed_node(item, evidence_type)
            nodes.append(node)
            removals.append((node, None, None))
            if statements is None:
                removals.append((item, CONTAINS_EVIDENCE, node))
            else:
                additions.append((item, CONTAINS_EVIDENCE, node))
                additions.append((node, _TYPE, evidence_type))
                additions.extend((node, prop, obj) for prop, obj in statements)
                if data_class is not None:
                    additions.append((item, _TYPE, data_class))
            if self._legacy_possible:
                for legacy in self._legacy_nodes(item, evidence_type):
                    removals.append((item, CONTAINS_EVIDENCE, legacy))
                    removals.append((legacy, None, None))
        self.graph.update(removals, additions)
        return nodes

    def annotate(
        self,
        data_item: URIRef,
        evidence_type: URIRef,
        value: Any,
        data_class: Optional[URIRef] = None,
        function: Optional[URIRef] = None,
    ) -> URIRef:
        """Set one (data item, evidence type) value; returns its node.

        Replaces any previous value of the pair.  ``value`` may be a
        plain Python value or a prepared ``Literal``.  If the store was
        built with an IQ model, the evidence type must be a declared
        ``q:QualityEvidence`` subclass.
        """
        self._check_type(evidence_type)
        self._check_item(data_item)
        literal = value if isinstance(value, Literal) else Literal(value)
        statements: List[Tuple[URIRef, Node]] = [(_VALUE, literal)]
        if function is not None:
            statements.append((Q.computedBy, function))
        return self._write(
            [(data_item, evidence_type, statements)], data_class=data_class
        )[0]

    def annotate_map(
        self, amap: AnnotationMap, data_class: Optional[URIRef] = None
    ) -> int:
        """Write every evidence entry of an annotation map as one update.

        Each entry upserts its (item, evidence type) pair; a ``None``
        value retracts the pair.  Returns how many values were written
        (retractions excluded).
        """
        pairs: List[Tuple[Node, Node, Statements]] = []
        checked: Set[URIRef] = set()
        written = 0
        for item in amap.items():
            entries = amap.evidence_for(item)
            if entries:
                self._check_item(item)
            for evidence_type, value in entries.items():
                if evidence_type not in checked:
                    self._check_type(evidence_type)
                    checked.add(evidence_type)
                if value is None:
                    pairs.append((item, evidence_type, None))
                    continue
                literal = value if isinstance(value, Literal) else Literal(value)
                pairs.append((item, evidence_type, [(_VALUE, literal)]))
                written += 1
        if pairs:
            self._write(pairs, data_class=data_class)
        return written

    def remove_annotations(self, data_item: URIRef) -> int:
        """Drop every annotation of one data item (one update)."""
        nodes = list(self.graph.objects(data_item, CONTAINS_EVIDENCE))
        removed, _ = self.graph.update(
            [(data_item, CONTAINS_EVIDENCE, None)]
            + [(node, None, None) for node in nodes]
        )
        return removed

    # -- reading -----------------------------------------------------------

    def _account(self, lookups: int, hits: int) -> None:
        """Record keyed reads two ways (see :meth:`lookup`)."""
        with self._stats_lock:
            self.stats.lookups += lookups
            self.stats.hits += hits
        counter = get_registry().counter(
            "repro_annotation_store_lookups_total",
            "Keyed evidence reads by store and hit/miss.",
            labels=("store", "result"),
        )
        if hits:
            counter.labels(store=self.name, result="hit").inc(hits)
        if lookups - hits:
            counter.labels(store=self.name, result="miss").inc(lookups - hits)
        add_to_current("cache.lookups", lookups)
        if hits:
            add_to_current("cache.hits", hits)

    def lookup(self, data_item: URIRef, evidence_type: URIRef) -> Optional[Any]:
        """The (data, evidence type) key access of the paper, via SPARQL.

        Every lookup is attributed two ways: to the process-wide
        metric registry (``repro_annotation_store_lookups_total`` by
        store and hit/miss), and — via the active span's root — to
        exactly the runtime job that caused it, however many thread
        hops away it ran (see ``repro.observability.spans``).
        """
        found = _newest(
            _EVIDENCE_QUERY.execute(
                self.graph, data=data_item, etype=evidence_type
            )
        )
        value = found.get((data_item, evidence_type))
        self._account(1, 1 if found else 0)
        return value

    def lookup_all(self, data_item: URIRef) -> Dict[URIRef, Any]:
        """Every (evidence type, value) pair known for a data item."""
        return self.lookup_all_batch([data_item])[data_item]

    def lookup_all_batch(
        self, items: Iterable[URIRef]
    ) -> Dict[URIRef, Dict[URIRef, Any]]:
        """:meth:`lookup_all` for many data items in a single query.

        One execution of the all-evidence query with ``$data`` seeded by
        the requested items; every requested item gets an entry (empty
        when the store knows nothing about it).
        """
        wanted = list(dict.fromkeys(items))
        result: Dict[URIRef, Dict[URIRef, Any]] = {item: {} for item in wanted}
        if wanted:
            found = _newest(_ALL_EVIDENCE_QUERY.execute(self.graph, data=wanted))
            for (item, evidence_type), value in found.items():
                if isinstance(evidence_type, URIRef) and item in result:
                    result[item][evidence_type] = value
        return result

    def lookup_batch(
        self, items: Iterable[URIRef], evidence_type: URIRef
    ) -> Dict[URIRef, Any]:
        """One evidence type for many data items in a single query.

        One execution of the keyed query with ``$data`` seeded by the
        requested items: index probes per item, never a column sweep.
        Accounting matches per-item :meth:`lookup` exactly: every
        requested occurrence counts as one lookup, and as one hit when
        its item has a value.
        """
        wanted = list(items)
        found: Dict[URIRef, Any] = {}
        if wanted:
            values = _newest(
                _EVIDENCE_QUERY.execute(
                    self.graph,
                    data=list(dict.fromkeys(wanted)),
                    etype=evidence_type,
                )
            )
            found = {item: value for (item, _), value in values.items()}
        self._account(len(wanted), sum(1 for item in wanted if item in found))
        return found

    def enrich(
        self,
        amap: AnnotationMap,
        items: Iterable[URIRef],
        evidence_types: Iterable[URIRef],
    ) -> AnnotationMap:
        """Fill an annotation map from the store (Data Enrichment reads).

        One seeded execution reads every (item, evidence type) pair
        requested, with the hit/miss accounting of one :meth:`lookup`
        per pair.
        """
        wanted = list(evidence_types)
        batch = list(items)
        for item in batch:
            amap.add_item(item)
        values: Dict[Tuple[Node, Node], Any] = {}
        if batch and wanted:
            values = _newest(
                _EVIDENCE_QUERY.execute(
                    self.graph,
                    data=list(dict.fromkeys(batch)),
                    etype=list(dict.fromkeys(wanted)),
                )
            )
        hits = 0
        for evidence_type in wanted:
            for item in batch:
                key = (item, evidence_type)
                if key in values:
                    amap.set_evidence(item, evidence_type, values[key])
                    hits += 1
        self._account(len(batch) * len(wanted), hits)
        return amap

    def unannotated_items(
        self, items: Iterable[URIRef], evidence_type: URIRef
    ) -> List[URIRef]:
        """The given items lacking any value for an evidence type.

        The coverage check a Data-Enrichment caller runs to decide
        whether an annotation function must fire: one seeded execution
        over the requested items.
        """
        wanted = list(items)
        if not wanted:
            return []
        result = _COVERAGE_QUERY.execute(
            self.graph, data=list(dict.fromkeys(wanted)), etype=evidence_type
        )
        covered = {item for (item,) in result}
        return [item for item in wanted if item not in covered]

    def annotated_items(self) -> Set[URIRef]:
        """Every data item with at least one annotation."""
        return {
            s
            for s in self.graph.subjects(CONTAINS_EVIDENCE, None)
            if isinstance(s, URIRef)
        }

    def evidence_types_present(self) -> Set[URIRef]:
        """Every evidence class instantiated in the store."""
        found: Set[URIRef] = set()
        for node in self.graph.objects(None, CONTAINS_EVIDENCE):
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

        Evidence goes through the keyed write: each (item, evidence
        type) pair of the text — its newest node, by the read rule —
        replaces this store's value of the pair, so loading never
        leaves two values for one pair.  Every other statement (data
        classes, assertion results) is merged as it stands; one update
        applies it all.
        """
        incoming = Graph(backend=MemoryBackend())
        incoming.parse(text, "ntriples")
        chosen: Dict[Tuple[Node, Node], Node] = {}
        evidence_nodes: Set[Node] = set()
        for item, _, node in incoming.triples((None, CONTAINS_EVIDENCE, None)):
            evidence_nodes.add(node)
            for evidence_type in incoming.objects(node, RDF.type):
                held = chosen.get((item, evidence_type))
                if held is None or _node_rank(node) > _node_rank(held):
                    chosen[(item, evidence_type)] = node
        pairs = [
            (
                item,
                evidence_type,
                [
                    (prop, obj)
                    for _, prop, obj in incoming.triples((node, None, None))
                    if prop != RDF.type
                ],
            )
            for (item, evidence_type), node in chosen.items()
        ]
        rest = [
            triple
            for triple in incoming
            if triple.predicate != CONTAINS_EVIDENCE
            and triple.subject not in evidence_nodes
        ]
        self._write(pairs, extra=rest)

    def __len__(self) -> int:
        return len(self.graph)

    def __repr__(self) -> str:
        kind = "persistent" if self.persistent else "transient"
        return f"<AnnotationStore {self.name!r} ({kind}, {len(self.graph)} triples)>"
