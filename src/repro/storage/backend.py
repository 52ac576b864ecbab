"""The storage-backend contract behind :class:`repro.rdf.graph.Graph`.

A backend owns exactly the state the dictionary-encoded graph used to
keep inline (PR 4): the term dictionary (``Node`` → dense integer id,
ids never recycled), the three permutation indices (SPO, POS, OSP)
over those ids, the per-predicate cardinality statistics the SPARQL
planner reads, and the triple count.  The graph front end keeps direct
references to these structures — backends mutate them strictly *in
place* (never rebinding the dicts), which is what lets
``repro.rdf.sparql.plan`` snapshot ``graph._spo`` et al. once per
execution regardless of the backend behind them.

Concurrency: backends are *externally synchronized*.  The owning
``Graph`` serializes every mutation and read-materialisation under its
per-graph lock; a backend used directly (the bulk loader) is
single-threaded by construction.

Two implementations ship: :class:`MemoryBackend` (this module) — the
PR 4 structures verbatim — and the durable
:class:`repro.storage.paged.PagedBackend`, which keeps only a write
overlay in these dicts and the rest of the store in immutable sorted
runs behind a write-ahead log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set, Tuple

if TYPE_CHECKING:
    from repro.rdf.term import Node

#: An index level: first-position id -> second-position id -> third ids.
Index = Dict[int, Dict[int, Set[int]]]

#: One dictionary-encoded triple.
EncodedTriple = Tuple[int, int, int]


class PredicateStats:
    """Incremental cardinalities of one predicate (planner input)."""

    __slots__ = ("triples", "subjects", "objects")

    def __init__(self, triples: int = 0, subjects: int = 0, objects: int = 0):
        self.triples = triples
        self.subjects = subjects
        self.objects = objects

    def copy(self) -> "PredicateStats":
        return PredicateStats(self.triples, self.subjects, self.objects)

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.triples, self.subjects, self.objects)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PredicateStats):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __repr__(self) -> str:
        return (
            f"PredicateStats(triples={self.triples}, "
            f"subjects={self.subjects}, objects={self.objects})"
        )


class StorageBackend:
    """Interface + shared in-memory index machinery of every backend.

    Subclasses override the mutation hooks (``intern``/``insert``/
    ``delete``/``insert_batch``/``clear``) to add durability, and the
    lifecycle hooks (``commit``/``flush``/``close``) to manage files.
    The index-maintenance logic itself lives here exactly once so both
    backends produce bit-identical indices and statistics for the same
    operation sequence — the property the reopen-parity tests pin.
    """

    #: Discriminator used in ``describe()`` and the CLI
    #: (``memory``/``paged``).
    kind = "memory"
    #: True when the backend outlives the process.
    durable = False
    #: True when ``spo``/``pos``/``osp`` hold the *complete* index set
    #: as nested dicts (memory).  Paged backends keep only a
    #: write overlay there and set this False; generic consumers
    #: (``copy_state``) must then go through the probe protocol.
    dict_indexed = True

    def __init__(self) -> None:
        self.term_ids: Dict["Node", int] = {}
        self.term_list: List["Node"] = []
        self.spo: Index = {}
        self.pos: Index = {}
        self.osp: Index = {}
        self.pred_stats: Dict[int, PredicateStats] = {}
        self.size = 0

    def probe(self):
        """The read-side :class:`repro.storage.probe.IndexProbe`.

        The default covers every dict-indexed backend; the returned
        probe aliases the live index structures, so one instance stays
        valid for the backend's lifetime.
        """
        from repro.storage.probe import DictIndexProbe

        return DictIndexProbe(self.spo, self.pos, self.osp, self.pred_stats)

    # -- term dictionary ---------------------------------------------------

    def intern(self, term: "Node") -> int:
        """Id of a term, creating one if it was never seen."""
        tid = self.term_ids.get(term)
        if tid is None:
            tid = len(self.term_list)
            self.term_ids[term] = tid
            self.term_list.append(term)
        return tid

    def encode(self, term: "Node") -> Optional[int]:
        """Id of a term if it has ever been interned, else ``None``."""
        return self.term_ids.get(term)

    # -- mutation ----------------------------------------------------------

    def insert(self, sid: int, pid: int, oid: int) -> bool:
        """Insert one encoded triple; returns True if it was new.

        Maintains the per-predicate cardinality statistics
        incrementally.
        """
        by_p = self.spo.get(sid)
        if by_p is not None:
            objects = by_p.get(pid)
            if objects is not None and oid in objects:
                return False
        stats = self.pred_stats.get(pid)
        if stats is None:
            stats = self.pred_stats[pid] = PredicateStats()
        if by_p is None or pid not in by_p:
            stats.subjects += 1
        by_o = self.pos.get(pid)
        if by_o is None:
            self.pos[pid] = by_o = {}
        if oid not in by_o:
            stats.objects += 1
        stats.triples += 1
        if by_p is None:
            self.spo[sid] = by_p = {}
        by_p.setdefault(pid, set()).add(oid)
        by_o.setdefault(oid, set()).add(sid)
        self.osp.setdefault(oid, {}).setdefault(sid, set()).add(pid)
        self.size += 1
        return True

    def insert_batch(self, batch: Iterable[EncodedTriple]) -> int:
        """Insert many encoded triples; returns how many were new.

        The statistics deltas are merged once per batch rather than
        updated per triple — the arithmetic is identical to repeated
        :meth:`insert`, only cheaper (pinned by the stats-equivalence
        regression tests).
        """
        spo, pos, osp = self.spo, self.pos, self.osp
        added: Dict[int, List[int]] = {}  # pid -> [triples, subj, obj]
        count = 0
        for sid, pid, oid in batch:
            by_p = spo.get(sid)
            if by_p is None:
                spo[sid] = by_p = {}
            objects = by_p.get(pid)
            if objects is None:
                by_p[pid] = objects = set()
                new_subject = True
            else:
                if oid in objects:
                    continue
                new_subject = False
            by_o = pos.get(pid)
            if by_o is None:
                pos[pid] = by_o = {}
            new_object = oid not in by_o
            objects.add(oid)
            by_o.setdefault(oid, set()).add(sid)
            osp.setdefault(oid, {}).setdefault(sid, set()).add(pid)
            delta = added.get(pid)
            if delta is None:
                delta = added[pid] = [0, 0, 0]
            delta[0] += 1
            if new_subject:
                delta[1] += 1
            if new_object:
                delta[2] += 1
            count += 1
        for pid, (n_triples, n_subjects, n_objects) in added.items():
            stats = self.pred_stats.get(pid)
            if stats is None:
                stats = self.pred_stats[pid] = PredicateStats()
            stats.triples += n_triples
            stats.subjects += n_subjects
            stats.objects += n_objects
        self.size += count
        return count

    def delete(self, sid: int, pid: int, oid: int) -> None:
        """Remove one present encoded triple."""
        by_p = self.spo[sid]
        objects = by_p[pid]
        objects.discard(oid)
        stats = self.pred_stats[pid]
        stats.triples -= 1
        if not objects:
            del by_p[pid]
            stats.subjects -= 1
            if not by_p:
                del self.spo[sid]
        by_o = self.pos[pid]
        subjects = by_o[oid]
        subjects.discard(sid)
        if not subjects:
            del by_o[oid]
            stats.objects -= 1
            if not by_o:
                del self.pos[pid]
        if stats.triples == 0:
            del self.pred_stats[pid]
        by_s = self.osp[oid]
        preds = by_s[sid]
        preds.discard(pid)
        if not preds:
            del by_s[sid]
            if not by_s:
                del self.osp[oid]
        self.size -= 1

    def contains(self, sid: int, pid: int, oid: int) -> bool:
        """Point membership probe on the SPO index."""
        return oid in self.spo.get(sid, {}).get(pid, ())

    def clear(self) -> None:
        """Drop every triple; the term dictionary is kept (in place)."""
        self.spo.clear()
        self.pos.clear()
        self.osp.clear()
        self.pred_stats.clear()
        self.size = 0

    # -- encoded iteration -------------------------------------------------

    def encoded_triples(self) -> Iterable[EncodedTriple]:
        """Every stored triple as encoded ids (no particular order)."""
        for sid, by_p in self.spo.items():
            for pid, objects in by_p.items():
                for oid in objects:
                    yield (sid, pid, oid)

    # -- lifecycle ---------------------------------------------------------

    def begin_batch(self) -> None:
        """Open an atomic group of mutations (no-op in memory).

        Durable backends log every mutation up to :meth:`end_batch` as
        one record, so recovery replays the group whole or not at all.
        """

    def end_batch(self) -> None:
        """Close the group opened by :meth:`begin_batch` (no-op)."""

    def commit(self) -> None:
        """Make buffered mutations durable per the sync policy (no-op)."""

    def flush(self) -> None:
        """Force buffered mutations to stable storage (no-op)."""

    def close(self) -> None:
        """Release any resources (no-op; idempotent)."""

    def describe(self) -> Dict[str, Any]:
        """One JSON-ready summary of the backend (healthz/CLI feed)."""
        return {
            "kind": self.kind,
            "durable": self.durable,
            "triples": self.size,
            "terms": len(self.term_list),
            "predicates": len(self.pred_stats),
        }


class MemoryBackend(StorageBackend):
    """The PR 4 in-memory store, now behind the backend contract."""

    kind = "memory"
    durable = False

    def clone(self) -> "MemoryBackend":
        """A structurally-copied independent backend (bulk index copy)."""
        other = MemoryBackend()
        copy_state(self, other)
        return other


def copy_state(source: StorageBackend, target: StorageBackend) -> None:
    """Structurally copy one backend's state into a fresh target.

    The per-predicate statistics are copied explicitly — never
    recounted from the indices — so a copy is O(index size) and its
    ``predicate_stats()`` are identical to the source's by
    construction.  A non-dict-indexed source (paged) is drained
    through its probe-backed ``encoded_triples`` instead; its exact
    statistics are still copied, not recounted.  A non-dict-indexed
    *target* is filled through its public mutation API (``intern`` +
    ``insert_batch``) so durability hooks such as the WAL still fire.
    """
    if not target.dict_indexed:
        for term in source.term_list:
            target.intern(term)
        target.insert_batch(source.encoded_triples())
        target.commit()
        return
    if not source.dict_indexed:
        for tid in range(len(source.term_list)):
            target.term_ids[source.term_list[tid]] = tid
            target.term_list.append(source.term_list[tid])
        target.insert_batch(source.encoded_triples())
        target.pred_stats.clear()
        for pid, stats in source.pred_stats.items():
            target.pred_stats[pid] = stats.copy()
        target.size = source.size
        return
    target.term_ids.update(source.term_ids)
    target.term_list.extend(source.term_list)
    for a, by_b in source.spo.items():
        target.spo[a] = {b: set(c) for b, c in by_b.items()}
    for a, by_b in source.pos.items():
        target.pos[a] = {b: set(c) for b, c in by_b.items()}
    for a, by_b in source.osp.items():
        target.osp[a] = {b: set(c) for b, c in by_b.items()}
    for pid, stats in source.pred_stats.items():
        target.pred_stats[pid] = stats.copy()
    target.size = source.size
