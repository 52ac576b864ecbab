"""The ``IndexProbe`` protocol: every read the query layer performs.

Before this module existed, the SPARQL planner reached straight into
``graph._spo``/``_pos``/``_osp`` — fine while every backend kept the
full index set as nested dicts in RAM, fatal the moment an index lives
in memory-mapped files.  The probe protocol names the complete set of
read operations the query layer needs, so any backend that can answer
them — dict-indexed or paged — can sit behind the planner unchanged:

* :meth:`IndexProbe.contains` — point membership of one encoded triple
  (the fully-bound pattern fast path);
* :meth:`IndexProbe.scan` — every encoded triple matching an id
  pattern (``None`` = wildcard), served from the best of the SPO /
  POS / OSP orderings for the bound positions;
* :meth:`IndexProbe.count` — a cheap cardinality estimate of
  ``scan``'s result size, never materialising it (planner input);
* :meth:`IndexProbe.predicate_stats` — the incremental per-predicate
  statistics driving join ordering;
* :meth:`IndexProbe.index_sizes` — distinct subject / predicate /
  object counts (the planner's fallback denominators).

:class:`DictIndexProbe` implements the protocol over the nested-dict
indices of :class:`~repro.storage.backend.MemoryBackend` with
*exactly* the loops and arithmetic the planner used inline —
behaviour- and plan-identical by construction, which the differential
suites pin.  :class:`repro.storage.paged.PagedProbe` implements it
over the paged engine's write overlay (the same dict traversal,
:func:`scan_index`) chained with its immutable mmap'd sorted runs.

Synchronization follows the graph contract: ``scan`` results are
materialised under the owning graph's lock; ``contains`` is safe
lock-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple

from repro.storage.backend import Index, PredicateStats

if TYPE_CHECKING:  # pragma: no cover
    pass

__all__ = ["IndexProbe", "DictIndexProbe", "scan_index"]


class IndexProbe:
    """Read-side contract between the query layer and a backend."""

    def contains(self, sid: int, pid: int, oid: int) -> bool:
        """Point membership of one fully-bound encoded triple."""
        raise NotImplementedError

    def scan(
        self,
        sid: Optional[int],
        pid: Optional[int],
        oid: Optional[int],
    ) -> Iterator[Tuple[int, int, int]]:
        """Encoded triples matching an id pattern (``None`` = wildcard)."""
        raise NotImplementedError

    def count(
        self,
        sid: Optional[int],
        pid: Optional[int],
        oid: Optional[int],
    ) -> float:
        """Estimated size of ``scan(sid, pid, oid)`` without running it.

        Exact for dict-indexed backends; an upper-bound estimate (live
        records incl. not-yet-compacted tombstones) for paged ones.
        Only ever used to *order* joins — never to produce results.
        """
        raise NotImplementedError

    def predicate_stats(self, pid: int) -> Optional[PredicateStats]:
        """Cardinality statistics of one predicate id (``None`` if absent)."""
        raise NotImplementedError

    def index_sizes(self) -> Tuple[int, int, int]:
        """(distinct subjects, distinct predicates, distinct objects)."""
        raise NotImplementedError


def scan_index(
    index: Any,
    sid: Optional[int],
    pid: Optional[int],
    oid: Optional[int],
) -> Iterator[Tuple[int, int, int]]:
    """Encoded triples of nested-dict indices matching an id pattern.

    Served from the best of the SPO / POS / OSP orderings for the
    bound positions.  ``index`` is anything holding ``spo``/``pos``/
    ``osp`` dicts: it is :meth:`DictIndexProbe.scan` itself, and the
    paged engine reads its in-memory overlay (the backend's own dicts)
    through it.
    """
    if sid is not None:
        by_p = index.spo.get(sid)
        if by_p is None:
            return
        if pid is not None:
            objects = by_p.get(pid)
            if objects is None:
                return
            if oid is not None:
                if oid in objects:
                    yield (sid, pid, oid)
                return
            for obj in objects:
                yield (sid, pid, obj)
            return
        if oid is not None:
            for pred in index.osp.get(oid, {}).get(sid, ()):
                yield (sid, pred, oid)
            return
        for pred, objects in by_p.items():
            for obj in objects:
                yield (sid, pred, obj)
        return
    if pid is not None:
        by_o = index.pos.get(pid)
        if by_o is None:
            return
        if oid is not None:
            for subj in by_o.get(oid, ()):
                yield (subj, pid, oid)
            return
        for obj, subjects in by_o.items():
            for subj in subjects:
                yield (subj, pid, obj)
        return
    if oid is not None:
        by_s = index.osp.get(oid)
        if by_s is None:
            return
        for subj, preds in by_s.items():
            for pred in preds:
                yield (subj, pred, oid)
        return
    for subj, by_p in index.spo.items():
        for pred, objects in by_p.items():
            for obj in objects:
                yield (subj, pred, obj)


class DictIndexProbe(IndexProbe):
    """The protocol over nested-dict SPO/POS/OSP indices.

    Every method body is the exact code the planner and graph ran
    inline before the protocol existed — same traversal order, same
    arithmetic — so plans and result ordering are unchanged for the
    memory backend and the paged engine's overlay.
    """

    __slots__ = ("spo", "pos", "osp", "pred_stats")

    def __init__(
        self,
        spo: Index,
        pos: Index,
        osp: Index,
        pred_stats: Dict[int, PredicateStats],
    ) -> None:
        self.spo = spo
        self.pos = pos
        self.osp = osp
        self.pred_stats = pred_stats

    def contains(self, sid: int, pid: int, oid: int) -> bool:
        return oid in self.spo.get(sid, {}).get(pid, ())

    #: The generator itself, so a scan costs one frame.
    scan = scan_index

    def count(
        self,
        sid: Optional[int],
        pid: Optional[int],
        oid: Optional[int],
    ) -> float:
        if sid is not None and pid is not None:
            objects = self.spo.get(sid, {}).get(pid, ())
            if oid is not None:
                return 1.0 if oid in objects else 0.0
            return float(len(objects))
        if pid is not None and oid is not None:
            return float(len(self.pos.get(pid, {}).get(oid, ())))
        if sid is not None:
            if oid is not None:
                return float(len(self.osp.get(oid, {}).get(sid, ())))
            return float(
                sum(len(objs) for objs in self.spo.get(sid, {}).values())
            )
        if oid is not None:
            return float(
                sum(len(preds) for preds in self.osp.get(oid, {}).values())
            )
        if pid is not None:
            stats = self.pred_stats.get(pid)
            return float(stats.triples) if stats is not None else 0.0
        return float(
            sum(
                len(objects)
                for by_p in self.spo.values()
                for objects in by_p.values()
            )
        )

    def predicate_stats(self, pid: int) -> Optional[PredicateStats]:
        return self.pred_stats.get(pid)

    def index_sizes(self) -> Tuple[int, int, int]:
        return (len(self.spo), len(self.pos), len(self.osp))
