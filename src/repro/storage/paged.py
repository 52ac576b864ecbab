"""``PagedBackend``: the durable engine — LSM runs + WAL L0 over mmap.

A store directory keeps its indices *in the files*, so opening one
never rebuilds an index in RAM:

* **Immutable sorted runs** (:mod:`repro.storage.pages`) hold the bulk
  of the store in all three permutation orders, organised in LSM-style
  levels — level 0 runs are freshly checkpointed write batches, higher
  levels are the outputs of size-tiered compaction (older data, so
  every run at level *L+1* is older than every run at level *L*).
* **The write-ahead log is the mutable L0** (:mod:`repro.storage.wal`):
  mutations land in a small in-memory overlay (adds in the inherited
  ``spo``/``pos``/``osp`` dicts, deletes in a tombstone set) and
  append to the WAL; ``checkpoint()`` folds the overlay into a new
  level-0 run + term bank, swaps the manifest atomically, and resets
  the WAL.  Replaying a WAL that survived a crash *after* the manifest
  swap is a no-op by construction (duplicate adds dedup, absent
  deletes skip).  A torn WAL tail is truncated on open; interior
  corruption raises :class:`~repro.storage.errors.WALCorruption`.
  An atomic ``Graph.update`` (``begin_batch``/``end_batch``) is
  logged as one ``BATCH`` record, so a torn tail never replays half
  of it.
* **Cold open is O(segments)**: read the manifest, mmap each run and
  term bank, read their footers — never a triple.  The exact
  per-predicate statistics and the triple count are persisted in the
  manifest at every checkpoint and adjusted forward by WAL replay.
* **Reads** go through :class:`PagedProbe` — the
  :class:`~repro.storage.probe.IndexProbe` protocol over the overlay
  chained with a newest-wins merge of every run, tombstones masking
  older adds.  With no runs the probe is the overlay's dict scan
  itself.  Run pages are fetched through the store's LRU
  :class:`~repro.storage.pages.BlockCache` (``repro_storage_page_*``
  metrics), so the working set — not the store — has to fit in memory.

The term dictionary is equally lazy where it has to be: a store opened
over term banks resolves banked ids on first use
(:class:`_LazyTermIds` / :class:`_LazyTermList`); every term interned
by the running process stays in RAM, and a store opened without banks
keeps the plain dict and list of the memory backend.

Compaction is incremental and off the write path: each checkpoint
performs at most one size-tiered merge step (``tier_fanout`` runs of
one level folded into one run a level up); ``compact()`` folds
everything into a single run, dropping tombstones.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import os
import pathlib
import time
import uuid
import weakref
from collections import OrderedDict
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.observability import get_registry
from repro.rdf.term import Node
from repro.storage import records
from repro.storage.backend import (
    EncodedTriple,
    PredicateStats,
    StorageBackend,
)
from repro.storage.errors import SnapshotMismatch, StorageError, WALCorruption
from repro.storage.pages import (
    BlockCache,
    RECORDS_PER_BLOCK,
    RunReader,
    TermBankReader,
    write_run,
    write_term_bank,
)
from repro.storage.probe import DictIndexProbe, IndexProbe, scan_index
from repro.storage.wal import WALWriter

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "store.wal"
PAGED_FORMAT_VERSION = 2
#: Manifest format of the retired disk engine; refused on open.
RETIRED_DISK_FORMAT = 1

#: Defaults: 1024 cached blocks (4 MiB of records, about 16 MiB with
#: their packed keys), checkpoint at 1 MiB of WAL, size-tiered merge at
#: 4 runs per level.
DEFAULT_CACHE_BLOCKS = 1024
DEFAULT_CHECKPOINT_BYTES = 1 << 20
DEFAULT_TIER_FANOUT = 4


def _fresh_manifest() -> Dict[str, Any]:
    return {
        "format": PAGED_FORMAT_VERSION,
        "engine": "paged",
        "store_id": uuid.uuid4().hex,
        "runs": [],
        "term_banks": [],
        "next_seq": 1,
        "next_bank": 1,
        "pred_stats": {},
        "terms": 0,
        "triples": 0,
        "opens": 0,
        "checkpoints": 0,
        "compactions": 0,
    }


def read_manifest(path: "os.PathLike[str] | str", directory: Any) -> Dict[str, Any]:
    """Load and check one store manifest.

    Raises :class:`SnapshotMismatch` for an unreadable manifest, for a
    store written by the retired disk engine (format 1) and for any
    other format than the paged engine's.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SnapshotMismatch(
            f"unreadable manifest {path}: {exc}", directory=str(directory)
        ) from exc
    version = manifest.get("format")
    if version == RETIRED_DISK_FORMAT:
        raise SnapshotMismatch(
            f"store at {directory} was written by the retired disk engine "
            f"(manifest format {version}); this version reads only paged "
            f"stores (format {PAGED_FORMAT_VERSION}), so re-create it",
            directory=str(directory),
        )
    if version != PAGED_FORMAT_VERSION or manifest.get("engine") != "paged":
        raise SnapshotMismatch(
            f"manifest {path} has format {version!r} "
            f"(engine {manifest.get('engine')!r}); the paged backend "
            f"reads format {PAGED_FORMAT_VERSION}/paged",
            directory=str(directory),
        )
    return manifest


def _dump_pred_stats(stats: Dict[int, PredicateStats]) -> Dict[str, List[int]]:
    return {
        str(pid): list(entry.as_tuple()) for pid, entry in sorted(stats.items())
    }


def _load_pred_stats(document: Dict[str, Any]) -> Dict[int, PredicateStats]:
    return {
        int(pid): PredicateStats(*values) for pid, values in document.items()
    }


# -- lazy term dictionary ----------------------------------------------------


class _TermBanks:
    """The term dictionary of a store reopened over term banks.

    Ids ``0 .. base-1`` live in the immutable banks found at open and
    resolve on first use; ids from ``base`` up were interned by this
    process.  Every term in RAM — resolved from a bank or interned —
    is held in ``ids``/``resolved``, so a hot term costs one bank
    decode ever.
    """

    __slots__ = ("banks", "bases", "base", "count", "ids", "resolved")

    def __init__(self, banks: List[TermBankReader]) -> None:
        self.banks = banks
        self.bases: List[int] = []
        self.base = 0
        for bank in banks:
            if bank.base != self.base:
                raise SnapshotMismatch(
                    f"term bank {bank.path.name} starts at id {bank.base}; "
                    f"expected {self.base}",
                    segment=bank.path.name,
                )
            self.bases.append(bank.base)
            self.base += bank.count
        self.count = self.base
        self.ids: Dict[Node, int] = {}
        self.resolved: Dict[int, Node] = {}

    def term(self, tid: int) -> Node:
        term = self.resolved.get(tid)
        if term is not None:
            return term
        if not 0 <= tid < self.base:
            raise IndexError(f"term id {tid} out of range")
        index = bisect.bisect_right(self.bases, tid) - 1
        term = self.banks[index].term(tid)
        self.resolved[tid] = term
        self.ids[term] = tid
        return term

    def find(self, term: Node) -> Optional[int]:
        tid = self.ids.get(term)
        if tid is not None:
            return tid
        try:
            encoded = records.encode_term(term)
        except records.RecordFormatError:
            return None
        for bank in self.banks:
            tid = bank.find(encoded)
            if tid is not None:
                self.ids[term] = tid
                self.resolved[tid] = term
                return tid
        return None

    def append(self, term: Node) -> None:
        self.resolved[self.count] = term
        self.count += 1

    def close(self) -> None:
        for bank in self.banks:
            bank.close()


class _LazyTermIds:
    """The ``term -> id`` mapping surface over :class:`_TermBanks`."""

    __slots__ = ("_banks", "_ids")

    def __init__(self, banks: _TermBanks) -> None:
        self._banks = banks
        self._ids = banks.ids

    def get(self, term: Node, default: Optional[int] = None) -> Optional[int]:
        tid = self._ids.get(term)
        if tid is None:
            tid = self._banks.find(term)
        return default if tid is None else tid

    def __getitem__(self, term: Node) -> int:
        tid = self.get(term)
        if tid is None:
            raise KeyError(term)
        return tid

    def __setitem__(self, term: Node, tid: int) -> None:
        self._ids[term] = tid

    def __contains__(self, term: object) -> bool:
        return self.get(term) is not None  # type: ignore[arg-type]

    def __len__(self) -> int:
        return self._banks.count


class _LazyTermList:
    """The ``id -> term`` sequence surface over :class:`_TermBanks`."""

    __slots__ = ("_banks", "_resolved")

    def __init__(self, banks: _TermBanks) -> None:
        self._banks = banks
        self._resolved = banks.resolved

    def __getitem__(self, tid: int) -> Node:
        term = self._resolved.get(tid)
        return term if term is not None else self._banks.term(tid)

    def __len__(self) -> int:
        return self._banks.count

    def __iter__(self) -> Iterator[Node]:
        for tid in range(self._banks.count):
            yield self[tid]

    def append(self, term: Node) -> None:
        self._banks.append(term)


# -- the probe ---------------------------------------------------------------


#: Section record ``(a, b, c, flag)`` -> ``(s, p, o)``, per section
#: (0 = SPO, 1 = POS, 2 = OSP; see ``repro.storage.pages``).
_TO_SPO = (itemgetter(0, 1, 2), itemgetter(2, 0, 1), itemgetter(1, 2, 0))
#: True for an add record, false for a tombstone.
_IS_ADD = itemgetter(3)


def _merge_newest(
    runs: List[RunReader], section: int, prefix: Tuple[int, ...]
) -> Iterator[Tuple[int, int, int, int]]:
    """One section prefix range over several runs: one record per key.

    Records come in key order as ``(a, b, c, flag)``; of the records
    sharing a key, the one from the run with the highest ``seq`` wins.
    """
    streams = [
        (
            ((a, b, c), -run.seq, flag)
            for a, b, c, flag in run.scan(section, prefix)
        )
        for run in runs
    ]
    previous: Optional[Tuple[int, int, int]] = None
    for key, _negseq, flag in heapq.merge(*streams):
        if key != previous:
            previous = key
            yield key + (flag,)


def _shape(
    sid: Optional[int], pid: Optional[int], oid: Optional[int]
) -> Tuple[int, Tuple[int, ...]]:
    """(section, key prefix) serving one id pattern.

    Sections: 0 = SPO, 1 = POS, 2 = OSP (see ``repro.storage.pages``).
    """
    if sid is not None:
        if pid is not None:
            if oid is not None:
                return (0, (sid, pid, oid))
            return (0, (sid, pid))
        if oid is not None:
            return (2, (oid, sid))
        return (0, (sid,))
    if pid is not None:
        if oid is not None:
            return (1, (pid, oid))
        return (1, (pid,))
    if oid is not None:
        return (2, (oid,))
    return (0, ())


class PagedProbe(IndexProbe):
    """Newest-wins reads over the overlay and every run.

    One instance serves the backend for its whole lifetime (the graph
    caches it); every call reads the backend's *current* run list, so
    checkpoints and compactions are transparent to the query layer.

    Short run ranges — at most one block's worth of visible triples,
    which covers every point-ish probe of a nested-loop join — are
    kept decoded in an LRU *row cache*, as LSM stores keep a row cache
    in front of their block cache.  It holds at most as many rows as
    the block cache holds records.  Runs are immutable and the backend
    replaces (never mutates) its run list, so the row cache is dropped
    whenever that list changes; tombstones and the overlay are applied
    on every read.  Only scans, which run under the owning graph's
    lock, touch the row cache.
    """

    __slots__ = ("_backend", "_rows", "_rows_held", "_rows_runs", "_row_limit")

    def __init__(self, backend: "PagedBackend") -> None:
        self._backend = backend
        self._rows: "OrderedDict[Tuple[int, Tuple[int, ...]], Tuple[EncodedTriple, ...]]"
        self._rows = OrderedDict()
        self._rows_held = 0
        self._rows_runs: List[RunReader] = backend.runs
        self._row_limit = backend.cache.capacity_blocks * RECORDS_PER_BLOCK

    def contains(self, sid: int, pid: int, oid: int) -> bool:
        backend = self._backend
        if oid in backend.spo.get(sid, {}).get(pid, ()):
            return True
        if not backend.runs or (sid, pid, oid) in backend.tombstones:
            return False
        # Point checks may run without the graph lock, so they read the
        # runs directly rather than through the row cache.
        return backend._run_flag(sid, pid, oid) == 1

    def _merged_runs(
        self, key: Tuple[int, Tuple[int, ...]]
    ) -> Iterator[Tuple[int, int, int]]:
        """Visible run triples of one ``(section, prefix)`` range,
        newest record winning.

        Built from C iterators only (flag filter, permutation back to
        (s, p, o), tombstone mask), so a probe pays no Python frame
        per record; short ranges come from the row cache.
        """
        backend = self._backend
        runs = backend.runs
        if not runs:
            return iter(())
        if runs is not self._rows_runs:
            self._rows.clear()
            self._rows_held = 0
            self._rows_runs = runs
        rows = self._rows.get(key)
        if rows is not None:
            self._rows.move_to_end(key)
            triples: Iterator[EncodedTriple] = iter(rows)
        else:
            section, prefix = key
            if len(runs) == 1:
                records = runs[0].scan(section, prefix)
            else:
                records = _merge_newest(runs, section, prefix)
            triples = map(_TO_SPO[section], filter(_IS_ADD, records))
            rows = tuple(itertools.islice(triples, RECORDS_PER_BLOCK + 1))
            if len(rows) > RECORDS_PER_BLOCK:
                # A long range streams; only short ones stay decoded.
                triples = itertools.chain(rows, triples)
            else:
                self._remember(key, rows)
                triples = iter(rows)
        if backend.tombstones:
            return itertools.filterfalse(backend.tombstones.__contains__, triples)
        return triples

    def _remember(
        self, key: Tuple[int, Tuple[int, ...]], rows: Tuple[EncodedTriple, ...]
    ) -> None:
        """Add one short range to the row cache, evicting LRU entries."""
        self._rows[key] = rows
        # An empty range still costs an entry: count it as one row.
        self._rows_held += len(rows) or 1
        while self._rows_held > self._row_limit:
            _key, evicted = self._rows.popitem(last=False)
            self._rows_held -= len(evicted) or 1

    def scan(
        self,
        sid: Optional[int],
        pid: Optional[int],
        oid: Optional[int],
    ) -> Iterator[Tuple[int, int, int]]:
        if sid is not None and pid is not None and oid is not None:
            if self.contains(sid, pid, oid):
                return iter(((sid, pid, oid),))
            return iter(())
        backend = self._backend
        if not backend.runs:
            return scan_index(backend, sid, pid, oid)
        merged = self._merged_runs(_shape(sid, pid, oid))
        # The overlay can match only if its index for the first bound
        # id (the one scan_index starts from) has an entry for it.
        if sid is not None:
            overlay_matches = sid in backend.spo
        elif pid is not None:
            overlay_matches = pid in backend.pos
        elif oid is not None:
            overlay_matches = oid in backend.osp
        else:
            overlay_matches = bool(backend.spo)
        if not overlay_matches:
            return merged
        # Overlay adds are disjoint from visible run triples by
        # invariant, so chaining never duplicates.
        return itertools.chain(scan_index(backend, sid, pid, oid), merged)

    def count(
        self,
        sid: Optional[int],
        pid: Optional[int],
        oid: Optional[int],
    ) -> float:
        backend = self._backend
        if sid is not None and pid is not None and oid is not None:
            return 1.0 if self.contains(sid, pid, oid) else 0.0
        if sid is None and oid is None:
            if pid is None:
                return float(backend.size)
            stats = backend.pred_stats.get(pid)
            return float(stats.triples) if stats is not None else 0.0
        # Upper bound: run ranges count superseded records and
        # tombstones until compaction folds them away.  Fence-key
        # binary search only — no record is materialised.
        section, prefix = _shape(sid, pid, oid)
        total = backend.overlay_probe.count(sid, pid, oid)
        for run in backend.runs:
            total += run.range_size(section, prefix)
        return float(total)

    def predicate_stats(self, pid: int) -> Optional[PredicateStats]:
        return self._backend.pred_stats.get(pid)

    def index_sizes(self) -> Tuple[int, int, int]:
        backend = self._backend
        subjects = len(backend.spo)
        predicates = len(backend.pos)
        objects = len(backend.osp)
        for run in backend.runs:
            subjects += run.distinct_first(0)
            predicates += run.distinct_first(1)
            objects += run.distinct_first(2)
        return (subjects, predicates, objects)


# -- the backend -------------------------------------------------------------


class PagedBackend(StorageBackend):
    """A paged store directory behind the backend contract."""

    kind = "paged"
    durable = True
    dict_indexed = False

    def __init__(
        self,
        directory: str,
        *,
        sync: str = "batch",
        fsync_batch: int = 64,
        create: bool = True,
        cache_blocks: int = DEFAULT_CACHE_BLOCKS,
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        tier_fanout: int = DEFAULT_TIER_FANOUT,
    ) -> None:
        super().__init__()
        started = time.perf_counter()
        self.directory = pathlib.Path(directory)
        self.cache = BlockCache(cache_blocks)
        self.checkpoint_bytes = checkpoint_bytes
        self.tier_fanout = max(2, tier_fanout)
        self._wal: Optional[WALWriter] = None
        self._closed = False
        #: Open runs, ascending seq (oldest first, newest last).  The
        #: list is replaced, never mutated (see :class:`PagedProbe`).
        self.runs: List[RunReader] = []
        #: Deletes of run-visible triples since the last checkpoint.
        self.tombstones: Set[EncodedTriple] = set()
        #: Term banks found at open (``None`` when there were none).
        self._banks: Optional[_TermBanks] = None
        #: Ids below this are written to term banks.
        self._banked_terms = 0
        #: Probe over the overlay dicts alone (statistics unused).
        self.overlay_probe = DictIndexProbe(self.spo, self.pos, self.osp, {})
        self._probe = PagedProbe(self)
        self.recovery: Dict[str, Any] = {
            "segments_loaded": 0,
            "wal_records_replayed": 0,
            "wal_truncated_bytes": 0,
            "outcome": "clean",
        }
        manifest_path = self.directory / MANIFEST_NAME
        if manifest_path.exists():
            self.manifest = read_manifest(manifest_path, self.directory)
        elif create:
            self.directory.mkdir(parents=True, exist_ok=True)
            self.manifest = _fresh_manifest()
        else:
            raise StorageError(
                f"no store at {self.directory} (missing {MANIFEST_NAME})",
                directory=str(self.directory),
            )
        banks: List[TermBankReader] = []
        runs: List[RunReader] = []
        try:
            for entry in self.manifest["term_banks"]:
                banks.append(TermBankReader(self.directory / entry["file"]))
            if banks:
                # A reopened store resolves its banked terms on first
                # use; a store without banks keeps every term in the
                # inherited plain dict and list, as the memory backend
                # does.
                self._banks = _TermBanks(banks)
                self._banked_terms = self._banks.base
                self.term_ids = _LazyTermIds(self._banks)  # type: ignore[assignment]
                self.term_list = _LazyTermList(self._banks)  # type: ignore[assignment]
            for entry in sorted(
                self.manifest["runs"], key=lambda item: int(item["seq"])
            ):
                runs.append(RunReader(self.directory / entry["file"], self.cache))
            self.runs = runs
            self.recovery["segments_loaded"] = len(self.runs)
            self.pred_stats.update(
                _load_pred_stats(self.manifest.get("pred_stats", {}))
            )
            self.size = int(self.manifest.get("triples", 0))
            self._replay_wal(self.directory / WAL_NAME)
        except BaseException:
            # Release every file this open mapped before failing.
            for reader in [*banks, *runs]:
                reader.close()
            raise
        self.manifest["opens"] = int(self.manifest.get("opens", 0)) + 1
        self._write_manifest()
        self._wal = WALWriter(
            str(self.directory / WAL_NAME),
            sync=sync,
            fsync_batch=fsync_batch,
        )
        self._finalizer = weakref.finalize(self, WALWriter.close, self._wal)
        registry = get_registry()
        registry.gauge(
            "repro_storage_open_backends",
            "Durable store backends currently open in this process.",
        ).inc()
        registry.histogram(
            "repro_storage_open_seconds",
            "Wall-clock seconds opening one store "
            "(segment load + WAL replay).",
        ).observe(time.perf_counter() - started)
        registry.counter(
            "repro_storage_recoveries_total",
            "Store opens by recovery outcome (clean/torn_tail).",
            labels=("outcome",),
        ).labels(outcome=self.recovery["outcome"]).inc()

    # -- opening -----------------------------------------------------------

    def _write_manifest(self) -> None:
        path = self.directory / MANIFEST_NAME
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(
            json.dumps(self.manifest, indent=2, sort_keys=True) + "\n",
            "utf-8",
        )
        os.replace(tmp, path)

    def _replay_wal(self, path: pathlib.Path) -> None:
        if not path.exists():
            path.touch()
            return
        data = path.read_bytes()
        scanner = records.RecordScanner(data)
        replayed = 0
        try:
            for payload in scanner:
                if payload[0] == records.OP_BATCH:
                    # Decode the whole group before applying any of it.
                    for part in records.decode_batch_payload(payload):
                        self._replay_record(part)
                else:
                    self._replay_record(payload)
                replayed += 1
        except records.RecordFormatError as exc:
            raise WALCorruption(
                f"WAL {path} record at offset {scanner.end} is invalid: "
                f"{exc}",
                directory=str(self.directory),
                offset=scanner.end,
            ) from exc
        if scanner.status == "corrupt":
            raise WALCorruption(
                f"WAL {path}: {scanner.error}",
                directory=str(self.directory),
                offset=scanner.end,
            )
        if scanner.status == "torn":
            torn = len(data) - scanner.end
            with open(path, "r+b") as handle:
                handle.truncate(scanner.end)
            self.recovery["outcome"] = "torn_tail"
            self.recovery["wal_truncated_bytes"] = torn
        self.recovery["wal_records_replayed"] = replayed

    def _replay_record(self, payload: bytes) -> None:
        """Apply one TERM/ADD/DELETE/CLEAR payload during WAL replay."""
        op = payload[0]
        if op == records.OP_TERM:
            tid, term = records.decode_term_payload(payload)
            total = len(self.term_list)
            if tid < total:
                if self.term_list[tid] != term:
                    raise records.RecordFormatError(
                        f"term record rebinds id {tid}"
                    )
            elif tid == total:
                self._add_term(term)
            else:
                raise records.RecordFormatError(
                    f"term id {tid} skips ahead of the dictionary "
                    f"({total} terms)"
                )
        elif op == records.OP_ADD:
            sid, pid, oid = records.decode_ids_payload(payload)
            if max(sid, pid, oid) >= len(self.term_list):
                raise records.RecordFormatError(
                    "triple record references unknown term ids"
                )
            self.insert(sid, pid, oid)
        elif op == records.OP_DELETE:
            sid, pid, oid = records.decode_ids_payload(payload)
            if max(sid, pid, oid) >= len(self.term_list):
                raise records.RecordFormatError(
                    "triple record references unknown term ids"
                )
            # A crash between a checkpoint's manifest swap and its WAL
            # reset legitimately replays stale deletes.
            if self.contains(sid, pid, oid):
                self.delete(sid, pid, oid)
        elif op == records.OP_CLEAR:
            self._drop_all_runs()
        else:
            raise records.RecordFormatError(
                f"unexpected opcode 0x{op:02x} in the WAL"
            )

    # -- probe -------------------------------------------------------------

    def probe(self) -> PagedProbe:
        return self._probe

    # -- visibility helpers ------------------------------------------------

    def _run_flag(self, sid: int, pid: int, oid: int) -> Optional[int]:
        """Newest run record flag for one triple (ignores the overlay)."""
        for run in reversed(self.runs):
            flag = run.point(sid, pid, oid)
            if flag is not None:
                return flag
        return None

    def _run_visible(
        self, sid: Optional[int], pid: Optional[int], oid: Optional[int]
    ) -> bool:
        """Whether a run holds a visible triple matching the pattern."""
        if not self.runs:
            return False
        matches = self._probe._merged_runs(_shape(sid, pid, oid))
        return next(matches, None) is not None

    # -- overlay index maintenance (no statistics) -------------------------

    def _overlay_add(self, sid: int, pid: int, oid: int) -> None:
        self.spo.setdefault(sid, {}).setdefault(pid, set()).add(oid)
        self.pos.setdefault(pid, {}).setdefault(oid, set()).add(sid)
        self.osp.setdefault(oid, {}).setdefault(sid, set()).add(pid)

    def _overlay_remove(self, sid: int, pid: int, oid: int) -> None:
        by_p = self.spo[sid]
        objects = by_p[pid]
        objects.discard(oid)
        if not objects:
            del by_p[pid]
            if not by_p:
                del self.spo[sid]
        by_o = self.pos[pid]
        subjects = by_o[oid]
        subjects.discard(sid)
        if not subjects:
            del by_o[oid]
            if not by_o:
                del self.pos[pid]
        by_s = self.osp[oid]
        preds = by_s[sid]
        preds.discard(pid)
        if not preds:
            del by_s[sid]
            if not by_s:
                del self.osp[oid]

    # -- mutation hooks ----------------------------------------------------

    def _add_term(self, term: Node) -> int:
        tid = len(self.term_list)
        self.term_ids[term] = tid
        self.term_list.append(term)
        return tid

    def intern(self, term: Node) -> int:
        tid = self.term_ids.get(term)
        if tid is None:
            tid = self._add_term(term)
            if self._wal is not None:
                self._wal.append(records.term_payload(tid, term))
        return tid

    def insert(self, sid: int, pid: int, oid: int) -> bool:
        by_p = self.spo.get(sid)
        objects = by_p.get(pid) if by_p is not None else None
        if objects is not None and oid in objects:
            return False
        triple = (sid, pid, oid)
        resurrect = triple in self.tombstones
        if self.runs and not resurrect and self._run_flag(sid, pid, oid) == 1:
            return False
        # Statistics are exact: a subject/object is new for the
        # predicate iff no triple with it is visible *before* this one.
        # Overlay adds are always visible, so the runs are consulted
        # only when the overlay holds no match.
        new_subject = objects is None and not self._run_visible(sid, pid, None)
        new_object = oid not in self.pos.get(pid, ()) and not self._run_visible(
            None, pid, oid
        )
        if resurrect:
            self.tombstones.discard(triple)
        else:
            self._overlay_add(sid, pid, oid)
        stats = self.pred_stats.get(pid)
        if stats is None:
            stats = self.pred_stats[pid] = PredicateStats()
        stats.triples += 1
        if new_subject:
            stats.subjects += 1
        if new_object:
            stats.objects += 1
        self.size += 1
        if self._wal is not None:
            self._wal.append(records.add_payload(sid, pid, oid))
        return True

    def insert_batch(self, batch: Iterable[EncodedTriple]) -> int:
        count = 0
        for sid, pid, oid in batch:
            if self.insert(sid, pid, oid):
                count += 1
        return count

    def delete(self, sid: int, pid: int, oid: int) -> None:
        if oid in self.spo.get(sid, {}).get(pid, ()):
            self._overlay_remove(sid, pid, oid)
        else:
            self.tombstones.add((sid, pid, oid))
        stats = self.pred_stats[pid]
        stats.triples -= 1
        if pid not in self.spo.get(sid, ()) and not self._run_visible(
            sid, pid, None
        ):
            stats.subjects -= 1
        if oid not in self.pos.get(pid, ()) and not self._run_visible(
            None, pid, oid
        ):
            stats.objects -= 1
        if stats.triples == 0:
            del self.pred_stats[pid]
        self.size -= 1
        if self._wal is not None:
            self._wal.append(records.delete_payload(sid, pid, oid))

    def contains(self, sid: int, pid: int, oid: int) -> bool:
        return self._probe.contains(sid, pid, oid)

    def _drop_all_runs(self) -> None:
        for run in self.runs:
            run.close()
        self.runs = []
        self.spo.clear()
        self.pos.clear()
        self.osp.clear()
        self.tombstones.clear()
        self.pred_stats.clear()
        self.size = 0

    def clear(self) -> None:
        self._drop_all_runs()
        if self._wal is not None:
            self._wal.append(records.clear_payload())

    def encoded_triples(self) -> Iterable[EncodedTriple]:
        return self._probe.scan(None, None, None)

    # -- lifecycle ---------------------------------------------------------

    def begin_batch(self) -> None:
        if self._wal is not None:
            self._wal.begin_group()

    def end_batch(self) -> None:
        if self._wal is not None:
            self._wal.end_group()

    def commit(self) -> None:
        if self._wal is None:
            return
        if self._wal.has_pending:
            self._wal.commit()
        if (
            self.checkpoint_bytes
            and self._wal.size() >= self.checkpoint_bytes
        ):
            self.checkpoint()

    def flush(self) -> None:
        if self._wal is not None:
            self._wal.flush()

    def close(self) -> None:
        if self._closed:
            return
        # Fold the WAL tail into runs so the next open is O(segments):
        # a cleanly closed store never replays triples on startup.
        if self._wal is not None:
            try:
                self.checkpoint()
            except OSError:
                pass  # an unwritable disk still must not block close
        self._closed = True
        if self._wal is not None:
            self._wal.close()
        self._finalizer.detach()
        for run in self.runs:
            run.close()
        if self._banks is not None:
            self._banks.close()
        get_registry().gauge(
            "repro_storage_open_backends",
            "Durable store backends currently open in this process.",
        ).dec()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def generation(self) -> int:
        """How many times this store has been opened (monotonic)."""
        return int(self.manifest.get("opens", 0))

    def wal_size(self) -> int:
        return self._wal.size() if self._wal is not None else 0

    # -- checkpoint and compaction -----------------------------------------

    def _run_entries(self) -> List[Dict[str, Any]]:
        """Manifest entries for the current runs, metadata preserved."""
        existing = {
            entry["file"]: entry for entry in self.manifest.get("runs", [])
        }
        entries = []
        for run in self.runs:
            entry = existing.get(run.path.name)
            if entry is None:
                entry = {
                    "file": run.path.name,
                    "seq": run.seq,
                    "level": run.level,
                    "records": run.records,
                    "adds": run.adds,
                    "tombstones": run.tombstones,
                    "bytes": run.path.stat().st_size,
                    "created": time.time(),
                }
            entries.append(entry)
        return entries

    def _swap_manifest(self) -> None:
        """Write the manifest from live state; delete newly-stale files."""
        before = {
            entry["file"] for entry in self.manifest.get("runs", [])
        }
        self.manifest["runs"] = self._run_entries()
        self.manifest["pred_stats"] = _dump_pred_stats(self.pred_stats)
        self.manifest["terms"] = len(self.term_list)
        self.manifest["triples"] = self.size
        self._write_manifest()
        after = {entry["file"] for entry in self.manifest["runs"]}
        for name in sorted(before - after):
            try:
                (self.directory / name).unlink()
            except OSError:
                pass  # stray files are ignored by the manifest anyway
        get_registry().counter(
            "repro_storage_checkpoints_total",
            "Manifest swaps completed by paged stores.",
        ).inc()

    def checkpoint(self) -> bool:
        """Fold the overlay + WAL into immutable files; reset the WAL.

        Crash-safe ordering: new run/bank files are fsynced before the
        atomic manifest swap, and the WAL is reset only after the swap
        — a WAL surviving a crash in between replays as no-ops.
        Finishes with at most one incremental size-tiered merge step,
        keeping compaction off the write path's critical section.
        Returns True when anything was written.
        """
        if self._wal is None or self._closed:
            raise StorageError(
                "cannot checkpoint a closed store",
                directory=str(self.directory),
            )
        self._wal.flush()
        overlay_dirty = bool(self.spo) or bool(self.tombstones)
        terms_dirty = len(self.term_list) > self._banked_terms
        runs_dropped = {
            entry["file"] for entry in self.manifest.get("runs", [])
        } != {run.path.name for run in self.runs}
        if not (overlay_dirty or terms_dirty or runs_dropped):
            if self._wal.size():
                self._wal.reset()
            return False
        if terms_dirty:
            bank_no = int(self.manifest.get("next_bank", 1))
            total = len(self.term_list)
            entry = write_term_bank(
                self.directory / f"terms-{bank_no:06d}.tb",
                self._banked_terms,
                [self.term_list[tid] for tid in range(self._banked_terms, total)],
            )
            entry["created"] = time.time()
            self._banked_terms = total
            self.manifest.setdefault("term_banks", []).append(entry)
            self.manifest["next_bank"] = bank_no + 1
        if overlay_dirty:
            seq = int(self.manifest.get("next_seq", 1))
            entries = [
                (sid, pid, oid, 1)
                for sid, by_p in self.spo.items()
                for pid, objects in by_p.items()
                for oid in objects
            ]
            entries.extend(
                (sid, pid, oid, 0) for sid, pid, oid in self.tombstones
            )
            write_run(
                self.directory / f"run-{seq:06d}.run", seq, 0, entries
            )
            self.manifest["next_seq"] = seq + 1
            # Replace, never mutate, the run list: the probe's row
            # cache keys its validity on the list's identity.
            self.runs = self.runs + [
                RunReader(self.directory / f"run-{seq:06d}.run", self.cache)
            ]
            self.spo.clear()
            self.pos.clear()
            self.osp.clear()
            self.tombstones.clear()
        self.manifest["checkpoints"] = (
            int(self.manifest.get("checkpoints", 0)) + 1
        )
        self._swap_manifest()
        self._wal.reset()
        self.maybe_compact()
        return True

    def _merge_runs(self, victims: List[RunReader], level: int) -> None:
        """Fold ``victims`` into one run at ``level`` (newest wins).

        Tombstones are dropped only when every surviving run is newer
        than the merge output — then nothing older remains for a
        tombstone to mask.
        """
        victim_set = set(victims)
        max_seq = max(run.seq for run in victims)
        safe_drop = all(
            run.seq > max_seq for run in self.runs if run not in victim_set
        )
        entries = [
            record
            for record in _merge_newest(victims, 0, ())
            if record[3] or not safe_drop
        ]
        name_no = int(self.manifest.get("next_seq", 1))
        self.manifest["next_seq"] = name_no + 1
        survivors = [run for run in self.runs if run not in victim_set]
        if entries:
            path = self.directory / f"run-{name_no:06d}.run"
            write_run(path, max_seq, level, entries)
            survivors.append(RunReader(path, self.cache))
        for run in victims:
            run.close()
        survivors.sort(key=lambda run: run.seq)
        self.runs = survivors
        self.manifest["compactions"] = (
            int(self.manifest.get("compactions", 0)) + 1
        )
        self._swap_manifest()
        get_registry().counter(
            "repro_storage_compactions_total",
            "Completed store compactions.",
        ).inc()

    def maybe_compact(self) -> bool:
        """One size-tiered merge step, if any level has grown enough."""
        by_level: Dict[int, List[RunReader]] = {}
        for run in self.runs:
            by_level.setdefault(run.level, []).append(run)
        for level in sorted(by_level):
            runs = by_level[level]
            if len(runs) >= self.tier_fanout:
                # Oldest first: same-level runs are contiguous in seq
                # order, so merging the oldest fan keeps every level
                # strictly older than the one below it.
                victims = sorted(runs, key=lambda run: run.seq)[
                    : self.tier_fanout
                ]
                self._merge_runs(victims, level + 1)
                return True
        return False

    def compact(self) -> pathlib.Path:
        """Fold everything into one run without tombstones."""
        if self._wal is None or self._closed:
            raise StorageError(
                "cannot compact a closed store",
                directory=str(self.directory),
            )
        self.checkpoint()
        if self.runs and (
            len(self.runs) > 1 or any(run.tombstones for run in self.runs)
        ):
            level = max(run.level for run in self.runs) + 1
            self._merge_runs(list(self.runs), level)
        return self.directory

    def snapshot(self, destination: str) -> pathlib.Path:
        """Write a consistent, independently-openable copy of the store."""
        if self._closed:
            raise StorageError(
                "cannot snapshot a closed store",
                directory=str(self.directory),
            )
        if self._wal is not None:
            self._wal.flush()
        dest = pathlib.Path(destination)
        if (dest / MANIFEST_NAME).exists():
            raise StorageError(
                f"snapshot destination {dest} already holds a store",
                directory=str(dest),
            )
        dest.mkdir(parents=True, exist_ok=True)
        manifest = build_paged_store(
            dest, list(self.term_list), self.encoded_triples(), self.pred_stats
        )
        manifest["store_id"] = self.manifest["store_id"]
        tmp = dest / (MANIFEST_NAME + ".tmp")
        tmp.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8"
        )
        os.replace(tmp, dest / MANIFEST_NAME)
        get_registry().counter(
            "repro_storage_snapshots_total",
            "Completed store snapshots.",
        ).inc()
        return dest

    # -- introspection -----------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        document = super().describe()
        now = time.time()
        run_entries = self._run_entries()
        details = []
        for entry in run_entries:
            created = entry.get("created")
            details.append(
                {
                    "file": entry["file"],
                    "seq": entry["seq"],
                    "level": entry["level"],
                    "triples": entry["adds"],
                    "tombstones": entry["tombstones"],
                    "bytes": entry["bytes"],
                    "age_seconds": (
                        round(now - created, 3) if created else None
                    ),
                }
            )
        document.update(
            directory=str(self.directory),
            store_id=self.manifest.get("store_id"),
            segments=len(self.runs),
            segment_bytes=sum(int(e.get("bytes", 0)) for e in run_entries),
            segments_detail=details,
            term_banks=len(self.manifest.get("term_banks", [])),
            overlay_triples=sum(
                len(objects)
                for by_p in self.spo.values()
                for objects in by_p.values()
            ),
            overlay_tombstones=len(self.tombstones),
            wal_bytes=self.wal_size(),
            page_cache=self.cache.stats(),
            opens=self.generation,
            checkpoints=int(self.manifest.get("checkpoints", 0)),
            compactions=int(self.manifest.get("compactions", 0)),
            recovery=dict(self.recovery),
            closed=self._closed,
        )
        return document


# -- direct store construction (bulk loader, snapshots) ----------------------


def build_paged_store(
    directory: pathlib.Path,
    terms: List[Node],
    triples: Iterable[EncodedTriple],
    pred_stats: Dict[int, PredicateStats],
) -> Dict[str, Any]:
    """Write a complete single-run paged store from encoded state.

    ``terms`` is the whole dictionary in id order, ``triples`` the
    distinct encoded triples and ``pred_stats`` their exact statistics.
    Used by the bulk loader (sorted run written directly, no WAL
    traffic) and by ``snapshot()``.  The destination directory must
    exist and hold no store; the caller writes the returned manifest.
    """
    created = time.time()
    bank_entry = write_term_bank(directory / "terms-000001.tb", 0, terms)
    bank_entry["created"] = created
    run_entry = write_run(
        directory / "run-000001.run",
        1,
        1,
        ((sid, pid, oid, 1) for sid, pid, oid in triples),
    )
    run_entry["created"] = created
    manifest = _fresh_manifest()
    manifest["runs"] = [run_entry]
    manifest["term_banks"] = [bank_entry]
    manifest["next_seq"] = 2
    manifest["next_bank"] = 2
    manifest["pred_stats"] = _dump_pred_stats(pred_stats)
    manifest["terms"] = len(terms)
    manifest["triples"] = run_entry["adds"]
    (directory / WAL_NAME).touch()
    return manifest
