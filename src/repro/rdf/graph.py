"""A dictionary-encoded, indexed triple store over pluggable backends.

Every term is interned once into a per-store dictionary (``Node`` →
dense integer id) and the three permutation indices (SPO, POS, OSP)
hold those small integers instead of full term objects, so any triple
pattern with at least one bound position resolves without a full scan
and index probes hash machine ints rather than composite terms.  This
is the storage layer under the annotation repositories (paper Sec. 5);
the SPARQL engine in ``repro.rdf.sparql`` evaluates queries over it,
keeping the store swappable as the paper requires.

Since PR 7 the state itself lives in a *storage backend*
(:mod:`repro.storage`): :class:`~repro.storage.backend.MemoryBackend`
holds exactly the structures this module used to keep inline, and
the durable :class:`~repro.storage.paged.PagedBackend` adds a
write-ahead log and keeps the indices in memory-mapped sorted runs, so
a store survives restart and can outgrow the heap.  Every
*read* goes through the backend's :class:`~repro.storage.probe
.IndexProbe` (``self._probe``) — point membership, pattern scans,
cardinality estimates — so the graph and the SPARQL planner
(``repro.rdf.sparql.plan``) never touch index internals; the term
dictionary (``_term_ids``/``_term_list``) stays aliased because every
backend exposes it mapping-shaped (a reopened paged store lazily).
``REPRO_STORAGE_BACKEND`` selects what a bare ``Graph()`` runs on
(see ``repro.storage``).

Alongside the indices the backend maintains per-predicate cardinality
statistics (triple count, distinct subjects, distinct objects) updated
incrementally on every add/remove; the query planner reads them to
choose a join order once per query instead of re-sorting patterns per
solution.

Concurrency contract
--------------------

Index *mutation* (``add``/``remove``/``update``/``clear``) is serialized by a
per-graph re-entrant lock (mirroring the ``_bnode_lock`` that already
guards blank-node id allocation in ``repro.rdf.term``), so concurrent
writers — e.g. parallel annotators of the execution runtime filling
one shared repository — can never corrupt the indices, the term
dictionary, or the statistics.  Pattern reads (``triples``, and
everything built on it: ``__iter__``, ``subjects``/``objects``,
SPARQL, serialisation) materialise their matches *under the same
lock*, so every read is a consistent snapshot: a concurrent add is
observed entirely or not at all, and iteration never races a
mutation.  Planned SPARQL execution likewise holds the lock for the
whole (materialising) evaluation.  This is what lets the execution
runtime share one transient repository session across concurrent
quality-view jobs — one job's data-enrichment reads while another
job's annotator writes.  Point ``__contains__`` checks on a fully
bound triple read a single index cell and take no lock.  Backends are
externally synchronized: every backend call happens under this lock.
"""

from __future__ import annotations

import os
import threading
from typing import Iterable, Iterator, Optional, Set, Tuple, Union

from repro.rdf.namespace import NamespaceManager
from repro.rdf.term import Node
from repro.rdf.triple import Object, Predicate, Subject, Triple, validate_triple
from repro.storage.backend import (
    MemoryBackend,
    PredicateStats,
    StorageBackend,
    copy_state,
)

__all__ = ["Graph", "PredicateStats", "TriplePattern"]

TriplePattern = Tuple[Optional[Node], Optional[Node], Optional[Node]]


def _default_backend() -> StorageBackend:
    mode = os.environ.get("REPRO_STORAGE_BACKEND", "memory").strip()
    if mode in ("", "memory"):
        return MemoryBackend()
    from repro.storage import backend_from_env

    return backend_from_env()


class Graph:
    """A set of RDF triples with pattern-matching access paths."""

    def __init__(
        self,
        identifier: Optional[str] = None,
        *,
        backend: Optional[StorageBackend] = None,
    ) -> None:
        self.identifier = identifier
        self.backend = backend if backend is not None else _default_backend()
        # Aliases the SPARQL planner snapshots directly; the backend
        # mutates these structures in place and never rebinds them.
        # Ids are never recycled (removal keeps the dictionary entry),
        # so a decoded id is always valid without holding the lock.
        self._term_ids = self.backend.term_ids
        self._term_list = self.backend.term_list
        self._pred_stats = self.backend.pred_stats
        # Every index read — pattern scans, point membership,
        # cardinality estimates — goes through the probe protocol, so
        # the graph never assumes how a backend stores its indices.
        self._probe = self.backend.probe()
        # Serializes index updates; see the module docstring for the
        # exact guarantees readers get.
        self._write_lock = threading.RLock()
        self.namespace_manager = NamespaceManager()

    @property
    def _size(self) -> int:
        return self.backend.size

    # -- dictionary encoding ----------------------------------------------

    def _intern(self, term: Node) -> int:
        """Id of a term, creating one (caller holds the write lock)."""
        return self.backend.intern(term)

    def _encode(self, term: Node) -> Optional[int]:
        """Id of a term if it has ever been interned, else ``None``."""
        return self._term_ids.get(term)

    # -- mutation ---------------------------------------------------------

    def add(self, *args: object) -> "Graph":
        """Add a triple; accepts ``add(s, p, o)`` or ``add(Triple(...))``."""
        if len(args) == 1 and isinstance(args[0], (Triple, tuple)):
            s, p, o = args[0]  # type: ignore[misc]
        elif len(args) == 3:
            s, p, o = args
        else:
            raise TypeError("add() takes a Triple or three terms")
        s, p, o = validate_triple(s, p, o)
        backend = self.backend
        with self._write_lock:
            backend.insert(
                backend.intern(s), backend.intern(p), backend.intern(o)
            )
            backend.commit()
        return self

    def add_all(self, triples: Iterable[Union[Triple, tuple]]) -> "Graph":
        """Bulk-add every triple of an iterable; returns self.

        The whole batch is validated and encoded under one lock
        acquisition instead of going triple-by-triple through
        :meth:`add`, and the cardinality statistics are merged once at
        the end rather than updated per triple (``insert_batch``).
        """
        # Materialise first: iterating another Graph must snapshot it
        # (its own lock) before we start holding ours.
        batch = [validate_triple(*t) for t in triples]
        if not batch:
            return self
        backend = self.backend
        with self._write_lock:
            intern = backend.intern
            backend.insert_batch(
                (intern(s), intern(p), intern(o)) for s, p, o in batch
            )
            backend.commit()
        return self

    def remove(
        self,
        subject: Optional[Node] = None,
        predicate: Optional[Node] = None,
        obj: Optional[Node] = None,
    ) -> int:
        """Remove all triples matching the pattern; returns count removed."""
        backend = self.backend
        with self._write_lock:
            matched = list(self._match_encoded((subject, predicate, obj)))
            for sid, pid, oid in matched:
                backend.delete(sid, pid, oid)
            backend.commit()
        return len(matched)

    def update(
        self,
        removals: Iterable[TriplePattern] = (),
        additions: Iterable[Union[Triple, tuple]] = (),
    ) -> Tuple[int, int]:
        """Remove pattern matches and add triples as one atomic write.

        Every removal pattern is resolved and every change applied
        under one lock hold and one ``commit()``; a durable backend
        logs the whole update as one WAL record (``begin_batch``), so
        readers and crash recovery see all of it or none of it.  Only
        the net change is written: a matched triple that is also
        added stays, an addition already present is skipped, so an
        update that changes nothing logs nothing and interns no term.
        Returns ``(removed, added)``.
        """
        batch = [validate_triple(*t) for t in additions]
        patterns = list(removals)
        backend = self.backend
        with self._write_lock:
            matched: Set[Tuple[int, int, int]] = set()
            for pattern in patterns:
                matched.update(self._match_encoded(pattern))
            ids = self._term_ids
            contains = self._probe.contains
            kept: Set[Tuple[int, int, int]] = set()
            new = []
            for triple in batch:
                s, p, o = triple
                encoded = (ids.get(s), ids.get(p), ids.get(o))
                if None not in encoded:
                    if encoded in matched:
                        kept.add(encoded)  # type: ignore[arg-type]
                        continue
                    if contains(*encoded):
                        continue
                new.append((triple, encoded))
            doomed = sorted(matched - kept) if matched else []
            if not doomed and not new:
                return 0, 0
            added = 0
            intern = backend.intern
            backend.begin_batch()
            try:
                for encoded in doomed:
                    backend.delete(*encoded)
                for (s, p, o), (sid, pid, oid) in new:
                    # An id unknown at encoding time may have been
                    # interned by an earlier triple of this batch.
                    if backend.insert(
                        intern(s) if sid is None else sid,
                        intern(p) if pid is None else pid,
                        intern(o) if oid is None else oid,
                    ):
                        added += 1
            finally:
                backend.end_batch()
            backend.commit()
        return len(doomed), added

    def clear(self) -> None:
        """Remove every triple (the term dictionary is kept)."""
        with self._write_lock:
            self.backend.clear()
            self.backend.commit()

    # -- durability -------------------------------------------------------

    def flush(self) -> None:
        """Force buffered mutations to stable storage (durable backends)."""
        with self._write_lock:
            self.backend.flush()

    def close(self) -> None:
        """Flush and release backend resources; idempotent."""
        with self._write_lock:
            self.backend.close()

    def __enter__(self) -> "Graph":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- query ------------------------------------------------------------

    def triples(self, pattern: TriplePattern = (None, None, None)) -> Iterator[Triple]:
        """Triples matching a pattern of bound terms and ``None``.

        The matches are materialised under the graph lock, so the
        returned iterator is a consistent snapshot even while other
        threads mutate the graph (see the module docstring).
        """
        with self._write_lock:
            terms = self._term_list
            return iter(
                [
                    Triple(terms[sid], terms[pid], terms[oid])
                    for sid, pid, oid in self._match_encoded(pattern)
                ]
            )

    def _match_encoded(
        self, pattern: TriplePattern
    ) -> Iterator[Tuple[int, int, int]]:
        """Encoded id triples matching a term pattern (lock held)."""
        s, p, o = pattern
        sid = pid = oid = None
        if s is not None:
            sid = self._term_ids.get(s)
            if sid is None:
                return
        if p is not None:
            pid = self._term_ids.get(p)
            if pid is None:
                return
        if o is not None:
            oid = self._term_ids.get(o)
            if oid is None:
                return
        yield from self._match_ids(sid, pid, oid)

    def _match_ids(
        self, sid: Optional[int], pid: Optional[int], oid: Optional[int]
    ) -> Iterator[Tuple[int, int, int]]:
        """Encoded matches for an id pattern (``None`` = wildcard)."""
        return self._probe.scan(sid, pid, oid)

    def __contains__(self, pattern: Union[Triple, TriplePattern]) -> bool:
        s, p, o = pattern
        if s is not None and p is not None and o is not None:
            ids = self._term_ids
            sid, pid, oid = ids.get(s), ids.get(p), ids.get(o)
            if sid is None or pid is None or oid is None:
                return False
            return self._probe.contains(sid, pid, oid)
        return next(self.triples((s, p, o)), None) is not None

    def subjects(
        self, predicate: Optional[Node] = None, obj: Optional[Node] = None
    ) -> Iterator[Subject]:
        """Distinct subjects matching (predicate, object)."""
        seen: Set[Node] = set()
        for s, _, __ in self.triples((None, predicate, obj)):
            if s not in seen:
                seen.add(s)
                yield s  # type: ignore[misc]

    def predicates(
        self, subject: Optional[Node] = None, obj: Optional[Node] = None
    ) -> Iterator[Predicate]:
        """Distinct predicates matching (subject, object)."""
        seen: Set[Node] = set()
        for _, p, __ in self.triples((subject, None, obj)):
            if p not in seen:
                seen.add(p)
                yield p  # type: ignore[misc]

    def objects(
        self, subject: Optional[Node] = None, predicate: Optional[Node] = None
    ) -> Iterator[Object]:
        """Distinct objects matching (subject, predicate)."""
        seen: Set[Node] = set()
        for _, __, o in self.triples((subject, predicate, None)):
            if o not in seen:
                seen.add(o)
                yield o  # type: ignore[misc]

    def value(
        self,
        subject: Optional[Node] = None,
        predicate: Optional[Node] = None,
        obj: Optional[Node] = None,
        default: Optional[Node] = None,
    ) -> Optional[Node]:
        """Return the single term completing the pattern, or ``default``.

        Exactly one of the three positions must be ``None``; raises
        ``ValueError`` if more than one term matches.
        """
        free = [subject, predicate, obj].count(None)
        if free != 1:
            raise ValueError("value() requires exactly one unbound position")
        matches = list(self.triples((subject, predicate, obj)))
        if not matches:
            return default
        if len(matches) > 1:
            raise ValueError(
                f"pattern ({subject}, {predicate}, {obj}) matched "
                f"{len(matches)} triples; expected one"
            )
        s, p, o = matches[0]
        if subject is None:
            return s
        if predicate is None:
            return p
        return o

    # -- planner statistics -------------------------------------------------

    def predicate_stats(self, predicate: Node) -> PredicateStats:
        """Cardinality statistics of one predicate (zeros if absent)."""
        with self._write_lock:
            pid = self._term_ids.get(predicate)
            if pid is None:
                return PredicateStats()
            stats = self._pred_stats.get(pid)
            return stats.copy() if stats is not None else PredicateStats()

    # -- collection protocol ----------------------------------------------

    def __len__(self) -> int:
        return self.backend.size

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def __bool__(self) -> bool:
        return self.backend.size > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(t in other for t in self)

    __hash__ = None  # type: ignore[assignment]

    # -- set operations ----------------------------------------------------

    def __add__(self, other: "Graph") -> "Graph":
        result = self.copy()
        result.identifier = None
        result.add_all(other)
        return result

    def __sub__(self, other: "Graph") -> "Graph":
        result = Graph(backend=MemoryBackend())
        result.add_all(t for t in self if t not in other)
        return result

    def __and__(self, other: "Graph") -> "Graph":
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        result = Graph(backend=MemoryBackend())
        result.add_all(t for t in small if t in large)
        return result

    def copy(self) -> "Graph":
        """An independent, memory-backed copy of the graph.

        Copies the term dictionary, the three indices and the
        statistics structurally — a bulk index build, not a
        triple-by-triple re-insertion.  The statistics are copied
        explicitly (never recounted), so ``predicate_stats()`` of the
        copy is identical to the source's by construction; copying a
        durable graph yields a plain in-memory one.
        """
        result = Graph(self.identifier, backend=MemoryBackend())
        with self._write_lock:
            copy_state(self.backend, result.backend)
        return result

    # -- convenience -------------------------------------------------------

    def bind(self, prefix: str, namespace: str) -> None:
        """Bind a prefix for serialisation."""
        self.namespace_manager.bind(prefix, namespace)

    def query(
        self,
        sparql: str,
        *,
        use_planner: bool = True,
        use_cache: bool = True,
    ):
        """Evaluate a SPARQL query string over this graph.

        By default the query is compiled by the one-shot planner
        (``repro.rdf.sparql.plan``) through the process-wide prepared-
        query cache, so repeat evaluations of the same text skip the
        lexer/parser entirely.  ``use_planner=False`` routes through
        the naive reference evaluator (differential tests, benchmark
        baselines); ``use_cache=False`` forces recompilation.

        Imported lazily to keep the storage layer free of parser
        dependencies; returns the engine's result object.  Each
        evaluation (compile or parse included) is timed onto the
        ``repro_rdf_sparql_query_seconds`` histogram.
        """
        import time

        from repro.observability import get_registry

        started = time.perf_counter()
        try:
            if use_planner:
                from repro.rdf.sparql.plan import compile_query

                return compile_query(sparql, use_cache=use_cache).execute(self)
            from repro.rdf.sparql import evaluate

            return evaluate(self, sparql)
        finally:
            registry = get_registry()
            registry.counter(
                "repro_rdf_sparql_queries_total",
                "SPARQL evaluations over any graph.",
            ).inc()
            registry.counter(
                "repro_rdf_plan_executions_total",
                "Graph.query() evaluations by execution path.",
                labels=("planner",),
            ).labels(planner="on" if use_planner else "off").inc()
            registry.histogram(
                "repro_rdf_sparql_query_seconds",
                "Wall-clock seconds of one SPARQL evaluation "
                "(parse included).",
            ).observe(time.perf_counter() - started)

    def serialize(self, format: str = "ntriples") -> str:
        """Render the graph in a named format (ntriples/turtle)."""

        from repro.rdf.serializer import serialize_graph

        return serialize_graph(self, format)

    def parse(self, text: str, format: str = "ntriples") -> "Graph":
        """Parse serialised RDF into this graph; returns self."""

        from repro.rdf.serializer import parse_into_graph

        parse_into_graph(self, text, format)
        return self

    def __repr__(self) -> str:
        name = self.identifier or "anonymous"
        return f"<Graph {name} ({self.backend.size} triples)>"
