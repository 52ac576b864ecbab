"""The annotation map: the framework's unit of data-quality state.

Paper Sec. 4.1: *"Given a data set D and a set E of evidence types, an
annotation map Amap: d -> {(e, v)} associates an evidence value v
(possibly null) for evidence type e to each data item d. [...] We also
use mappings of the form {d -> (t, cl)} to represent the assignment of
class cl to d within a classification scheme t."*

Evidence entries are keyed by evidence-type URI; quality-assertion
outputs are *tags* keyed by the tag name declared in the quality view
(``tagName="HR MC"``), carrying the syntactic type (``q:score`` or
``q:class``) and, for classifications, the scheme they belong to.  Both
kinds are visible to the condition language.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.rdf import Literal, URIRef
from repro.rdf.term import Node


@dataclass(frozen=True)
class TagValue:
    """A quality-assertion output attached to one data item."""

    value: Any
    syn_type: Optional[URIRef] = None  # q:score or q:class
    sem_type: Optional[URIRef] = None  # e.g. q:PIScoreClassification

    def plain(self) -> Any:
        """The tag value as a plain Python value (unwrap literals)."""
        if isinstance(self.value, Literal):
            return self.value.value
        return self.value


def _plain(value: Any) -> Any:
    if isinstance(value, Literal):
        return value.value
    return value


class AnnotationMap:
    """Evidence values and QA tags for an ordered set of data items.

    Copy-on-write: :meth:`copy`, :meth:`subset` and :meth:`select` share
    the per-item entries (one evidence dict and one tag dict per item)
    with the map they came from instead of copying them, so a copy costs
    one reference per item.  Each map records which items' entries it
    owns exclusively; every write (:meth:`set_evidence`,
    :meth:`set_tag`, :meth:`merge`) first replaces a shared entry by a
    private copy, in whichever map writes first.  Writes through one map
    are therefore never visible through another, exactly as with deep
    copies.  :meth:`replace_entry` installs caller-built entry dicts as
    shared: the map never writes through them.
    """

    def __init__(self, items: Iterable[URIRef] = ()) -> None:
        # Insertion order of ``_evidence`` is the item order.
        self._evidence: Dict[URIRef, Dict[URIRef, Any]] = {}
        self._tags: Dict[URIRef, Dict[str, TagValue]] = {}
        #: Items whose two entry dicts no other map (or caller) holds.
        self._owned: Set[URIRef] = set()
        for item in items:
            self.add_item(item)

    # -- items ---------------------------------------------------------------

    def add_item(self, item: URIRef) -> None:
        """Append a data item (idempotent; preserves insertion order)."""
        if item not in self._evidence:
            self._evidence[item] = {}
            self._tags[item] = {}
            self._owned.add(item)

    def _writable(self, item: URIRef) -> None:
        """Add ``item`` if new; own its entries before a write."""
        if item not in self._owned:
            self._evidence[item] = dict(self._evidence.get(item, ()))
            self._tags[item] = dict(self._tags.get(item, ()))
            self._owned.add(item)

    def replace_entry(
        self,
        item: URIRef,
        evidence: Dict[URIRef, Any],
        tags: Dict[str, TagValue],
    ) -> None:
        """Install an item's whole entry (appending a new item).

        The dicts are shared, not copied: the map copies them before
        its first write, so the caller may keep and share them as long
        as it does not write to them either.
        """
        self._evidence[item] = evidence
        self._tags[item] = tags
        self._owned.discard(item)

    def items(self) -> List[URIRef]:
        """The data items, in insertion order."""
        return list(self._evidence)

    def __contains__(self, item: object) -> bool:
        return item in self._evidence

    def __len__(self) -> int:
        return len(self._evidence)

    def __iter__(self) -> Iterator[URIRef]:
        return iter(list(self._evidence))

    # -- evidence ------------------------------------------------------------

    def set_evidence(self, item: URIRef, evidence_type: URIRef, value: Any) -> None:
        """Record an evidence value for (item, evidence type)."""
        self._writable(item)
        self._evidence[item][evidence_type] = value

    def get_evidence(
        self, item: URIRef, evidence_type: URIRef, default: Any = None
    ) -> Any:
        """The value for (item, evidence type), or ``default``."""
        return self._evidence.get(item, {}).get(evidence_type, default)

    def evidence_for(self, item: URIRef) -> Dict[URIRef, Any]:
        """All evidence values of one item, keyed by type."""
        return dict(self._evidence.get(item, {}))

    def evidence_types(self) -> Set[URIRef]:
        """Every evidence type any item carries."""
        found: Set[URIRef] = set()
        for per_item in self._evidence.values():
            found.update(per_item)
        return found

    def has_evidence(self, item: URIRef, evidence_type: URIRef) -> bool:
        """True if the item has a non-null value for the type."""
        value = self._evidence.get(item, {}).get(evidence_type)
        return value is not None

    # -- tags -------------------------------------------------------------------

    def set_tag(
        self,
        item: URIRef,
        tag_name: str,
        value: Any,
        syn_type: Optional[URIRef] = None,
        sem_type: Optional[URIRef] = None,
    ) -> None:
        """Record a QA output tag for an item."""
        self._writable(item)
        self._tags[item][tag_name] = TagValue(value, syn_type, sem_type)

    def get_tag(self, item: URIRef, tag_name: str) -> Optional[TagValue]:
        """The item's tag by name, or None."""
        return self._tags.get(item, {}).get(tag_name)

    def tags_for(self, item: URIRef) -> Dict[str, TagValue]:
        """All tags of one item, keyed by tag name."""
        return dict(self._tags.get(item, {}))

    def tag_names(self) -> Set[str]:
        """Every tag name any item carries."""
        found: Set[str] = set()
        for per_item in self._tags.values():
            found.update(per_item)
        return found

    def classification_of(
        self, item: URIRef, scheme: URIRef
    ) -> Optional[URIRef]:
        """The {d -> (t, cl)} lookup: the class of ``item`` under ``scheme``."""
        for tag in self._tags.get(item, {}).values():
            if tag.sem_type == scheme:
                value = tag.plain()
                return value if isinstance(value, URIRef) else None
        return None

    # -- condition-language environment ----------------------------------------

    def environment(
        self, item: URIRef, variable_bindings: Optional[Dict[str, URIRef]] = None
    ) -> Dict[str, Any]:
        """Name -> value bindings visible to a condition for one item.

        Includes every tag by its tag name, and every evidence value
        under any variable names bound to its evidence type (from the
        quality view's ``<var variableName=... evidence=...>``
        declarations) as well as the evidence-type fragment name.
        """
        env: Dict[str, Any] = {}
        for evidence_type, value in self._evidence.get(item, {}).items():
            env[evidence_type.fragment()] = _plain(value)
        if variable_bindings:
            for name, evidence_type in variable_bindings.items():
                env[name] = _plain(self.get_evidence(item, evidence_type))
        for tag_name, tag in self._tags.get(item, {}).items():
            env[tag_name] = tag.plain()
        return env

    # -- structural operations -----------------------------------------------

    def merge(self, other: "AnnotationMap") -> "AnnotationMap":
        """In-place union; ``other`` wins on conflicting entries."""
        for item in other.items():
            self._writable(item)
            self._evidence[item].update(other._evidence[item])
            self._tags[item].update(other._tags[item])
        return self

    def _shared(self, items: Iterable[URIRef]) -> "AnnotationMap":
        """A map sharing this map's entries of ``items``, in that order."""
        result = AnnotationMap()
        evidence, tags = self._evidence, self._tags
        result._evidence = {item: evidence[item] for item in items}
        result._tags = {item: tags[item] for item in result._evidence}
        self._owned.difference_update(result._evidence)
        return result

    def subset(self, items: Iterable[URIRef]) -> "AnnotationMap":
        """A new map restricted to ``items`` (this map's order)."""
        wanted = set(items)
        return self._shared([item for item in self._evidence if item in wanted])

    def select(self, items: Iterable[URIRef]) -> "AnnotationMap":
        """A new map of ``items`` in the order given (each must be here).

        Costs O(len(items)), where :meth:`subset` scans the whole map.
        """
        return self._shared(items)

    def copy(self) -> "AnnotationMap":
        """An independent copy of the map (copy-on-write, see the class)."""
        result = AnnotationMap()
        result._evidence = dict(self._evidence)
        result._tags = dict(self._tags)
        self._owned = set()
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnnotationMap):
            return NotImplemented
        return (
            list(self._evidence) == list(other._evidence)
            and self._evidence == other._evidence
            and self._tags == other._tags
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"<AnnotationMap {len(self._evidence)} items, "
            f"{len(self.evidence_types())} evidence types, "
            f"{len(self.tag_names())} tags>"
        )
