"""Structured (graph-valued) evidence and assertion provenance.

Paper footnote 14: "we exploit the flexibility of the RDF model to
allow for values of quality evidence that are themselves arbitrary RDF
graphs".  ``annotate_structured`` stores an evidence value whose payload
is a set of (property, value) statements instead of one literal — e.g.
an identification context carrying instrument, lab and acquisition
date — and ``lookup_structured`` reads it back.  Structured evidence is
keyed like any other: the statements replace the (item, evidence type)
pair's previous description in one atomic write.

``record_assertions`` persists quality-assertion outcomes (the
``q:assignedClass`` / ``q:assignedScore`` tags) into a repository, so
past quality decisions are themselves queryable metadata — an audit
trail over the annotation store.  The trail is append-only: every
recorded tag gets a freshly minted node.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.annotation.map import AnnotationMap
from repro.annotation.store import (
    CONTAINS_EVIDENCE,
    AnnotationStore,
    _node_rank,
)
from repro.rdf import Literal, Q, RDF, URIRef
from repro.rdf.term import Node

#: Vocabulary for persisted assertion results.
ASSERTION_RESULT = Q.QualityAssertionResult
HAS_ASSERTION = Q.hasAssertionResult
TAG_NAME = Q.tagName


def annotate_structured(
    store: AnnotationStore,
    data_item: URIRef,
    evidence_type: URIRef,
    description: Mapping[str, Any],
    data_class: Optional[URIRef] = None,
) -> URIRef:
    """Attach graph-valued evidence: one statement per description entry.

    Keys become ``q:``-namespace properties on the evidence node; values
    may be plain Python values (stored as literals) or URIs.
    """
    if not description:
        raise ValueError("structured evidence needs at least one statement")
    store._check_type(evidence_type)
    store._check_item(data_item)
    statements: List[Tuple[URIRef, Node]] = [
        (Q[key], value if isinstance(value, URIRef) else Literal(value))
        for key, value in description.items()
    ]
    return store._write(
        [(data_item, evidence_type, statements)], data_class=data_class
    )[0]


def lookup_structured(
    store: AnnotationStore, data_item: URIRef, evidence_type: URIRef
) -> Optional[Dict[str, Any]]:
    """Read graph-valued evidence back as a {key: value} description.

    Applies the repository's read rule when a pair has several nodes
    (see ``repro.annotation.store``): the keyed node wins.
    """
    best: Optional[Dict[str, Any]] = None
    best_rank: Tuple[int, int, int] = (-1, 0, 0)
    for node in store.graph.objects(data_item, CONTAINS_EVIDENCE):
        if (node, RDF.type, evidence_type) not in store.graph:
            continue
        description: Dict[str, Any] = {}
        for _, prop, obj in store.graph.triples((node, None, None)):
            if prop == RDF.type:
                continue
            key = prop.fragment()
            description[key] = obj.value if isinstance(obj, Literal) else obj
        rank = _node_rank(node)
        if description and rank > best_rank:
            best, best_rank = description, rank
    return best


def record_assertions(store: AnnotationStore, amap: AnnotationMap) -> int:
    """Persist every QA tag of an annotation map; returns tags written.

    Each tag becomes an assertion-result node::

        <item> q:hasAssertionResult _:r .
        _:r rdf:type q:QualityAssertionResult ;
            q:tagName "ScoreClass" ;
            q:assignedClass q:high .      # or q:assignedScore 73.2
    """
    written = 0
    for item in amap.items():
        for tag_name, tag in amap.tags_for(item).items():
            value = tag.plain()
            if value is None:
                continue
            node = store._mint_node()
            store.graph.add(item, HAS_ASSERTION, node)
            store.graph.add(node, RDF.type, ASSERTION_RESULT)
            store.graph.add(node, TAG_NAME, Literal(tag_name))
            if isinstance(value, URIRef):
                store.graph.add(node, Q.assignedClass, value)
            else:
                store.graph.add(node, Q.assignedScore, Literal(value))
            if tag.sem_type is not None:
                store.graph.add(node, Q.classificationModel, tag.sem_type)
            written += 1
    return written


def lookup_assertions(
    store: AnnotationStore, data_item: URIRef
) -> List[Tuple[str, Any]]:
    """All persisted (tag name, value) assertion results for one item."""
    results: List[Tuple[str, Any]] = []
    for node in store.graph.objects(data_item, HAS_ASSERTION):
        name = store.graph.value(node, TAG_NAME, None)
        value: Any = store.graph.value(node, Q.assignedClass, None)
        if value is None:
            value = store.graph.value(node, Q.assignedScore, None)
            if isinstance(value, Literal):
                value = value.value
        if name is not None:
            results.append((str(name), value))
    return sorted(results, key=lambda pair: pair[0])
