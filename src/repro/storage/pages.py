"""Immutable mmap'd sorted-run and term-bank files + the block cache.

This module is the page layer of :class:`repro.storage.paged.
PagedBackend`.  It knows nothing about LSM levels or write-ahead logs —
it reads and writes two immutable file kinds and caches fixed-size
blocks of them:

**Run files** (``run-NNNNNN.run``) hold one sorted batch of triple
records in all three permutation orders::

    RPRORUN1                                  8-byte magic
    section 0 (SPO): records | fence keys     16 B records, 12 B fences
    section 1 (POS): records | fence keys
    section 2 (OSP): records | fence keys
    JSON footer  <u32 footer length>  RPRORUN1

A record is ``<u32 a><u32 b><u32 c><u8 flag><3 pad>`` — the triple ids
permuted into the section's order, with ``flag`` 1 for an add and 0
for a tombstone.  Records are sorted by ``(a, b, c)`` and grouped into
4096-byte blocks of 256; the fence array holds the first key of every
block, so a probe bisects the fences (decoded once per section, on
its first probe), fetches one block through the cache, and bisects
inside it — no block is touched that the probe does not need.  Both
bisects run in C over keys packed into integers
(``a << 64 | b << 32 | c``, see :func:`prefix_range`).  The footer carries
per-section offsets, record counts, distinct-first-component counts
(planner denominators) and CRCs (``repro store verify``), so opening a
run is one mmap plus one footer read regardless of size.

**Term-bank files** (``terms-NNNNNN.tb``) hold one contiguous slice of
the term dictionary (ids ``base .. base+count-1``)::

    RPROTB01
    blobs:   <u32 len><encoded term>  per term, in id order
    offsets: <u64 file offset> per term         (id -> term)
    order:   <u32 id-base> per term, sorted by encoded bytes
                                                (term -> id)
    JSON footer  <u32 footer length>  RPROTB01

``term()`` is two mmap reads + one decode; ``find()`` binary-searches
the order array comparing encoded bytes.  Terms are decoded lazily and
memoized by the backend, so cold open never materialises the
dictionary.

**Block cache** — one LRU :class:`BlockCache` per store, shared by all
of its runs, capped in blocks (each held with its packed keys) and
observable through the
``repro_storage_page_hits_total`` / ``repro_storage_page_misses_total``
/ ``repro_storage_page_evictions_total`` counters and the
``repro_storage_page_cache_blocks`` gauge.
"""

from __future__ import annotations

import bisect
import itertools
import json
import mmap
import os
import pathlib
import struct
import zlib
from collections import OrderedDict
from typing import (
    Any,
    BinaryIO,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.observability import get_registry
from repro.rdf.term import Node
from repro.storage import records
from repro.storage.errors import SnapshotMismatch

RUN_MAGIC = b"RPRORUN1"
BANK_MAGIC = b"RPROTB01"

#: Fixed block geometry: 256 16-byte records per 4096-byte block.
RECORD_BYTES = 16
BLOCK_BYTES = 4096
RECORDS_PER_BLOCK = BLOCK_BYTES // RECORD_BYTES

#: The three section orderings, in file order.
SECTIONS = ("spo", "pos", "osp")

_RECORD = struct.Struct("<IIIB3x")
_FENCE = struct.Struct("<III")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


_reader_tokens = itertools.count(1)


class BlockCache:
    """A store-wide LRU over 4096-byte file blocks.

    Keys are ``(reader token, section index, block number)`` — reader
    tokens are process-unique, so a compaction that replaces run files
    can never alias a stale cached block.  Capacity is counted in
    blocks; an over-full insert evicts from the least-recently-used
    end.  Hit/miss/eviction counts feed both the instance fields (unit
    tests, ``describe()``) and the process-wide
    ``repro_storage_page_*`` metric families.
    """

    def __init__(self, capacity_blocks: int = 1024) -> None:
        if capacity_blocks < 1:
            raise ValueError(
                f"capacity_blocks must be >= 1, got {capacity_blocks}"
            )
        self.capacity_blocks = capacity_blocks
        self._blocks: "OrderedDict[Tuple[int, int, int], _Block]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        registry = get_registry()
        # The unlabelled children, resolved once: a hit is on every
        # probe's path.
        self._hits_metric = registry.counter(
            "repro_storage_page_hits_total",
            "Block-cache hits across paged stores.",
        ).labels()
        self._misses_metric = registry.counter(
            "repro_storage_page_misses_total",
            "Block-cache misses across paged stores.",
        ).labels()
        self._evictions_metric = registry.counter(
            "repro_storage_page_evictions_total",
            "Blocks evicted from paged-store caches.",
        ).labels()
        self._resident_metric = registry.gauge(
            "repro_storage_page_cache_blocks",
            "File blocks resident in paged-store caches.",
        )

    def __len__(self) -> int:
        return len(self._blocks)

    def get(self, key: Tuple[int, int, int]) -> Optional["_Block"]:
        """The cached block (a hit), or ``None`` (a miss: ``put`` it)."""
        block = self._blocks.get(key)
        if block is None:
            self.misses += 1
            self._misses_metric.inc()
            return None
        self._blocks.move_to_end(key)
        self.hits += 1
        self._hits_metric.inc()
        return block

    def put(self, key: Tuple[int, int, int], block: "_Block") -> None:
        """Cache one freshly read block, evicting from the LRU end."""
        self._blocks[key] = block
        self._resident_metric.inc()
        while len(self._blocks) > self.capacity_blocks:
            self._blocks.popitem(last=False)
            self.evictions += 1
            self._evictions_metric.inc()
            self._resident_metric.dec()

    def purge(self, token: int) -> None:
        """Drop every cached block of one reader (close/compaction)."""
        stale = [key for key in self._blocks if key[0] == token]
        for key in stale:
            del self._blocks[key]
        if stale:
            self._resident_metric.dec(len(stale))

    def stats(self) -> Dict[str, int]:
        return {
            "capacity_blocks": self.capacity_blocks,
            "resident_blocks": len(self._blocks),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Column order of each section's records, from ``(s, p, o, flag)``.
_SECTION_COLUMNS = ([0, 1, 2, 3], [1, 2, 0, 3], [2, 0, 1, 3])


def prefix_range(prefix: Tuple[int, ...]) -> Tuple[int, int]:
    """[low, high) packed keys of every record starting with ``prefix``.

    A record key ``(a, b, c)`` packs into one integer
    ``a << 64 | b << 32 | c``; integer order is key order, so ranges
    and point lookups bisect plain lists of ints.
    """
    value = 0
    for component in prefix:
        value = (value << 32) | component
    shift = 32 * (3 - len(prefix))
    low = value << shift
    return low, low + (1 << shift)


# -- run files ---------------------------------------------------------------


def write_run(
    path: pathlib.Path,
    seq: int,
    level: int,
    entries: Iterable[Tuple[int, int, int, int]],
) -> Dict[str, Any]:
    """Write one immutable run from ``(sid, pid, oid, flag)`` entries.

    Entries must be unique as triples (the caller merges first); order
    does not matter — each section is sorted here.  The write is
    atomic (tmp + rename) and fsynced before rename, so a run named by
    a manifest is always complete.  Returns the manifest entry.
    """
    # A record is <u32 a><u32 b><u32 c><u8 flag><3 pad>; with a 0/1
    # flag that is exactly four little-endian u32s, so one uint32 table
    # row per entry sorts and packs in C.  Ids beyond u32 raise.
    table = np.fromiter(
        itertools.chain.from_iterable(entries), dtype=np.uint32
    ).reshape(-1, 4)
    count = len(table)
    adds = int(table[:, 3].sum())
    sections: List[Dict[str, Any]] = []
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(RUN_MAGIC)
        position = len(RUN_MAGIC)
        for section, columns in enumerate(_SECTION_COLUMNS):
            rows = table[:, columns]
            rows = rows[np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))]
            data = rows.astype("<u4").tobytes()
            fences = rows[::RECORDS_PER_BLOCK, :3].astype("<u4").tobytes()
            handle.write(data)
            handle.write(fences)
            sections.append(
                {
                    "name": SECTIONS[section],
                    "offset": position,
                    "records": count,
                    "blocks": len(fences) // _FENCE.size,
                    "fence_offset": position + len(data),
                    "distinct": int(np.count_nonzero(np.diff(rows[:, 0]))) + 1
                    if count
                    else 0,
                    "crc": zlib.crc32(fences, zlib.crc32(data)),
                }
            )
            position += len(data) + len(fences)
        footer = {
            "seq": seq,
            "level": level,
            "records": count,
            "adds": adds,
            "tombstones": count - adds,
            "sections": sections,
        }
        footer_bytes = json.dumps(footer, sort_keys=True).encode("utf-8")
        handle.write(footer_bytes)
        handle.write(_U32.pack(len(footer_bytes)))
        handle.write(RUN_MAGIC)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return {
        "file": path.name,
        "seq": seq,
        "level": level,
        "records": count,
        "adds": adds,
        "tombstones": count - adds,
        "bytes": path.stat().st_size,
    }


def _read_footer(
    data: "mmap.mmap | bytes", path: pathlib.Path, magic: bytes
) -> Dict[str, Any]:
    """The JSON footer of a run or bank file (shared tail layout)."""
    tail = len(magic) + _U32.size
    if len(data) < len(magic) + tail or bytes(data[: len(magic)]) != magic:
        raise SnapshotMismatch(
            f"{path.name} is not a valid paged-store file",
            segment=path.name,
        )
    if bytes(data[len(data) - len(magic) :]) != magic:
        raise SnapshotMismatch(
            f"{path.name} is truncated (missing tail magic)",
            segment=path.name,
        )
    (footer_len,) = _U32.unpack_from(data, len(data) - tail)
    start = len(data) - tail - footer_len
    if start < len(magic):
        raise SnapshotMismatch(
            f"{path.name} declares an impossible footer length",
            segment=path.name,
        )
    try:
        return json.loads(bytes(data[start : start + footer_len]))
    except ValueError as exc:
        raise SnapshotMismatch(
            f"{path.name} footer is not valid JSON: {exc}",
            segment=path.name,
        ) from exc


def _map_segment(
    path: pathlib.Path, magic: bytes
) -> Tuple[BinaryIO, "mmap.mmap | bytes", Dict[str, Any]]:
    """Open and map one run or bank file and read its footer.

    A missing file is a :class:`SnapshotMismatch` (the manifest names
    it); on any failure nothing is left open.
    """
    try:
        handle = open(path, "rb")
    except FileNotFoundError as exc:
        raise SnapshotMismatch(
            f"{path.name} is named by the manifest but missing",
            segment=path.name,
        ) from exc
    data: "mmap.mmap | bytes" = b""
    try:
        try:
            data = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            # Zero-length or mmap-hostile file: fall back to bytes (the
            # footer check reports the real problem).
            data = handle.read()
        return handle, data, _read_footer(data, path, magic)
    except BaseException:
        if isinstance(data, mmap.mmap):
            data.close()
        handle.close()
        raise


class _Block:
    """One cached block: its record bytes, plus packed keys once hot.

    A block read once is searched record by record — decoding its 256
    keys would cost more than that one search.  From its second read
    on the keys are decoded (see :func:`prefix_range` for the packing)
    and every search is one C-level bisect.
    """

    __slots__ = ("data", "count", "keys")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.count = len(data) // RECORD_BYTES
        self.keys: Optional[List[int]] = None

    def decode_keys(self) -> None:
        self.keys = [
            (a << 64) | (b << 32) | c
            for a, b, c, _flag in _RECORD.iter_unpack(self.data)
        ]

    def lower(self, target: int, lo: int = 0) -> int:
        """Index of the first record (from ``lo``) with key >= ``target``."""
        if self.keys is not None:
            return bisect.bisect_left(self.keys, target, lo)
        data = self.data
        hi = self.count
        unpack = _RECORD.unpack_from
        while lo < hi:
            mid = (lo + hi) // 2
            a, b, c, _flag = unpack(data, mid * RECORD_BYTES)
            if (a << 64) | (b << 32) | c < target:
                lo = mid + 1
            else:
                hi = mid
        return lo


class _Section:
    __slots__ = ("offset", "records", "blocks", "fence_offset", "distinct", "crc")

    def __init__(self, entry: Dict[str, Any]) -> None:
        self.offset = int(entry["offset"])
        self.records = int(entry["records"])
        self.blocks = int(entry["blocks"])
        self.fence_offset = int(entry["fence_offset"])
        self.distinct = int(entry["distinct"])
        self.crc = int(entry["crc"])


class RunReader:
    """Random access over one immutable run file via mmap + cache.

    Opening reads only the footer — O(1) regardless of run size.  All
    record access goes through the shared :class:`BlockCache`.  A
    section's fence keys (12 bytes per 4096-byte block) are decoded
    into a list on its first probe, so picking a block is one C-level
    bisect instead of a Python loop over mmap reads.
    """

    def __init__(self, path: pathlib.Path, cache: BlockCache) -> None:
        self.path = path
        self.token = next(_reader_tokens)
        self._cache = cache
        self._file, self._map, footer = _map_segment(path, RUN_MAGIC)
        self.seq = int(footer["seq"])
        self.level = int(footer["level"])
        self.records = int(footer["records"])
        self.adds = int(footer["adds"])
        self.tombstones = int(footer["tombstones"])
        self._sections = [_Section(entry) for entry in footer["sections"]]
        self._fences: List[Optional[List[int]]] = [None] * len(self._sections)

    def close(self) -> None:
        self._cache.purge(self.token)
        if isinstance(self._map, mmap.mmap):
            self._map.close()
        self._file.close()

    # -- low-level access --------------------------------------------------

    def _fence_keys(self, section_index: int) -> List[int]:
        fences = self._fences[section_index]
        if fences is None:
            section = self._sections[section_index]
            start = section.fence_offset
            fences = [
                (a << 64) | (b << 32) | c
                for a, b, c in _FENCE.iter_unpack(
                    self._map[start : start + section.blocks * _FENCE.size]
                )
            ]
            self._fences[section_index] = fences
        return fences

    def _block(self, section_index: int, number: int) -> "_Block":
        key = (self.token, section_index, number)
        block = self._cache.get(key)
        if block is None:
            section = self._sections[section_index]
            start = section.offset + number * BLOCK_BYTES
            length = min(
                BLOCK_BYTES, section.records * RECORD_BYTES - number * BLOCK_BYTES
            )
            block = _Block(bytes(self._map[start : start + length]))
            self._cache.put(key, block)
        elif block.keys is None:
            block.decode_keys()
        return block

    def _seek(self, section_index: int, target: int) -> Tuple[int, "_Block", int]:
        """(block number, block, in-block index) of the first record
        whose key is >= ``target``; the index equals the block's record
        count when every record of it is smaller.

        The fence bisect picks the block without touching data pages.
        """
        fences = self._fences[section_index] or self._fence_keys(section_index)
        number = max(0, bisect.bisect_right(fences, target) - 1)
        block = self._block(section_index, number)
        return number, block, block.lower(target)

    def _lower_bound(self, section_index: int, target: int) -> int:
        """Index of the first record with key >= ``target``."""
        if self._sections[section_index].records == 0:
            return 0
        number, _block, index = self._seek(section_index, target)
        return number * RECORDS_PER_BLOCK + index

    # -- probes ------------------------------------------------------------

    def range_size(self, section_index: int, prefix: Tuple[int, ...]) -> int:
        """Records of one key-prefix range (two seeks, no decoding)."""
        if not prefix:
            return self._sections[section_index].records
        low, high = prefix_range(prefix)
        return self._lower_bound(section_index, high) - self._lower_bound(
            section_index, low
        )

    def scan(
        self, section_index: int, prefix: Tuple[int, ...]
    ) -> Iterator[Tuple[int, int, int, int]]:
        """Records of one key-prefix range, in section key order.

        One seek finds the first record; each block contributes the
        slice below the range's upper key, decoded in C.  A range that
        ends in its first block — every point-ish probe — is returned
        as that one C iterator.
        """
        section = self._sections[section_index]
        if section.records == 0:
            return iter(())
        low, high = prefix_range(prefix)
        number, block, index = self._seek(section_index, low)
        end = block.lower(high, index)
        first = _RECORD.iter_unpack(
            block.data[index * RECORD_BYTES : end * RECORD_BYTES]
        )
        if end < block.count or number + 1 >= section.blocks:
            return first
        return itertools.chain(
            first, self._records_from(section_index, number + 1, high)
        )

    def _records_from(
        self, section_index: int, number: int, high: int
    ) -> Iterator[Tuple[int, int, int, int]]:
        """Records from the start of block ``number`` on, below ``high``."""
        blocks = self._sections[section_index].blocks
        while number < blocks:
            block = self._block(section_index, number)
            end = block.lower(high)
            yield from _RECORD.iter_unpack(block.data[: end * RECORD_BYTES])
            if end < block.count:
                return
            number += 1

    def point(self, sid: int, pid: int, oid: int) -> Optional[int]:
        """The flag of one exact triple, or ``None`` if absent."""
        if self._sections[0].records == 0:
            return None
        _number, block, index = self._seek(0, (sid << 64) | (pid << 32) | oid)
        if index < block.count:
            a, b, c, flag = _RECORD.unpack_from(block.data, index * RECORD_BYTES)
            if a == sid and b == pid and c == oid:
                return flag
        return None

    def distinct_first(self, section_index: int) -> int:
        return self._sections[section_index].distinct

    def verify(self) -> None:
        """Recompute every section CRC; raises SnapshotMismatch."""
        for section in self._sections:
            if section.records != self.records:
                raise SnapshotMismatch(
                    f"run {self.path.name} section at offset "
                    f"{section.offset} holds {section.records} records; "
                    f"the footer declares {self.records}",
                    segment=self.path.name,
                )
            end = section.fence_offset + section.blocks * _FENCE.size
            actual = zlib.crc32(bytes(self._map[section.offset : end]))
            if actual != section.crc:
                raise SnapshotMismatch(
                    f"run {self.path.name} section at offset "
                    f"{section.offset} fails its CRC "
                    f"(stored {section.crc}, computed {actual})",
                    segment=self.path.name,
                )


# -- term banks --------------------------------------------------------------


def write_term_bank(
    path: pathlib.Path, base: int, terms: List[Node]
) -> Dict[str, Any]:
    """Write one immutable term bank for ids ``base .. base+len-1``."""
    blobs = [records.encode_term(term) for term in terms]
    framed = b"".join(_U32.pack(len(blob)) + blob for blob in blobs)
    position = len(BANK_MAGIC) + len(framed)
    # Each term's offset: the magic, then every framed term before it.
    sizes = np.fromiter(map(len, blobs), dtype=np.uint64, count=len(blobs))
    offsets = np.cumsum(sizes + _U32.size) - (sizes + _U32.size) + len(BANK_MAGIC)
    offsets_bytes = offsets.astype("<u8").tobytes()
    order = sorted(range(len(blobs)), key=blobs.__getitem__)
    order_bytes = np.array(order, dtype="<u4").tobytes()
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(BANK_MAGIC)
        handle.write(framed)
        handle.write(offsets_bytes)
        handle.write(order_bytes)
        # The CRC covers every payload byte plus both arrays — the
        # whole file between the magic and the footer.
        crc = zlib.crc32(order_bytes, zlib.crc32(offsets_bytes, zlib.crc32(framed)))
        footer = {
            "base": base,
            "count": len(blobs),
            "offsets_offset": position,
            "order_offset": position + len(offsets_bytes),
            "crc": crc,
        }
        footer_bytes = json.dumps(footer, sort_keys=True).encode("utf-8")
        handle.write(footer_bytes)
        handle.write(_U32.pack(len(footer_bytes)))
        handle.write(BANK_MAGIC)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return {
        "file": path.name,
        "base": base,
        "count": len(blobs),
        "bytes": path.stat().st_size,
    }


class TermBankReader:
    """Lazy id <-> term access over one immutable bank file."""

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path
        self._file, self._map, footer = _map_segment(path, BANK_MAGIC)
        self.base = int(footer["base"])
        self.count = int(footer["count"])
        self._offsets_offset = int(footer["offsets_offset"])
        self._order_offset = int(footer["order_offset"])
        self._crc = int(footer["crc"])

    def close(self) -> None:
        if isinstance(self._map, mmap.mmap):
            self._map.close()
        self._file.close()

    def _blob(self, relative: int) -> bytes:
        (offset,) = _U64.unpack_from(
            self._map, self._offsets_offset + relative * _U64.size
        )
        (length,) = _U32.unpack_from(self._map, offset)
        start = offset + _U32.size
        return bytes(self._map[start : start + length])

    def term(self, tid: int) -> Node:
        """Decode the term of one id owned by this bank."""
        relative = tid - self.base
        if not 0 <= relative < self.count:
            raise IndexError(f"term id {tid} outside bank {self.path.name}")
        term, _ = records.decode_term(self._blob(relative), 0)
        return term

    def find(self, encoded: bytes) -> Optional[int]:
        """The id of one encoded term, or ``None`` if not in this bank."""
        lo, hi = 0, self.count
        while lo < hi:
            mid = (lo + hi) // 2
            (relative,) = _U32.unpack_from(
                self._map, self._order_offset + mid * _U32.size
            )
            blob = self._blob(relative)
            if blob < encoded:
                lo = mid + 1
            elif blob > encoded:
                hi = mid
            else:
                return self.base + relative
        return None

    def verify(self) -> None:
        """Recompute the payload+offsets+order CRC; raises on mismatch."""
        end = self._order_offset + self.count * _U32.size
        actual = zlib.crc32(bytes(self._map[len(BANK_MAGIC) : end]))
        if actual != self._crc:
            raise SnapshotMismatch(
                f"term bank {self.path.name} fails its CRC "
                f"(stored {self._crc}, computed {actual})",
                segment=self.path.name,
            )
