"""Streaming bulk loader: N-Triples file -> fresh store directory.

Loading a large dataset through the WAL would write every triple twice
(once to the log, once again at the next checkpoint) and pay a framing
record per triple.  The bulk loader skips the WAL entirely: it streams
the source file through the N-Triples parser, interns every term into a
set of encoded id triples (which deduplicates), takes the exact
per-predicate statistics from that set, and writes one sorted run plus
one term bank straight from it — no SPO/POS/OSP dict index is built —
plus a fresh manifest and an empty WAL.  The resulting directory is a complete
paged store; opening it replays nothing and is O(segments) regardless
of triple count.

Benchmark E22 (``benchmarks/bench_paged_storage.py``) reports the
loader's triples/second.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from collections import Counter
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Set

from repro.observability import get_registry
from repro.rdf.serializer import parse_ntriples_lines
from repro.rdf.term import Node
from repro.rdf.triple import Triple
from repro.storage.backend import EncodedTriple, PredicateStats
from repro.storage.errors import StorageError
from repro.storage.paged import MANIFEST_NAME, build_paged_store

_FIRST = itemgetter(0)
_PREDICATE = itemgetter(1)
_SUBJECT_PREDICATE = itemgetter(0, 1)
_PREDICATE_OBJECT = itemgetter(1, 2)

_BULK_SECONDS_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                         60.0, 120.0, 300.0, 600.0)


def bulk_load_triples(
    triples: Iterable[Triple],
    directory: str,
) -> Dict[str, Any]:
    """Build a fresh store at ``directory`` from an iterable of triples.

    The destination must not already hold a store.  Returns a summary
    dict (triples read/loaded, terms, elapsed seconds, triples/sec,
    run bytes).
    """
    dest = pathlib.Path(directory)
    if (dest / MANIFEST_NAME).exists():
        raise StorageError(
            f"bulk load destination {dest} already holds a store",
            directory=str(dest),
        )
    dest.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    term_ids: Dict[Node, int] = {}
    terms: List[Node] = []
    find = term_ids.get
    encoded: Set[EncodedTriple] = set()
    read = 0
    for subject, predicate, obj in triples:
        read += 1
        sid = find(subject)
        if sid is None:
            sid = term_ids[subject] = len(terms)
            terms.append(subject)
        pid = find(predicate)
        if pid is None:
            pid = term_ids[predicate] = len(terms)
            terms.append(predicate)
        oid = find(obj)
        if oid is None:
            oid = term_ids[obj] = len(terms)
            terms.append(obj)
        encoded.add((sid, pid, oid))
    # Exact per-predicate statistics from the deduplicated id set.
    per_predicate = Counter(map(_PREDICATE, encoded))
    subjects = Counter(map(_PREDICATE, set(map(_SUBJECT_PREDICATE, encoded))))
    objects = Counter(map(_FIRST, set(map(_PREDICATE_OBJECT, encoded))))
    pred_stats = {
        pid: PredicateStats(count, subjects[pid], objects[pid])
        for pid, count in per_predicate.items()
    }
    manifest = build_paged_store(dest, terms, encoded, pred_stats)
    entry = manifest["runs"][0]
    tmp = dest / (MANIFEST_NAME + ".tmp")
    tmp.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    os.replace(tmp, dest / MANIFEST_NAME)
    elapsed = time.perf_counter() - started
    registry = get_registry()
    registry.counter(
        "repro_storage_bulk_load_triples_total",
        "Triples ingested by the bulk loader.",
    ).inc(read)
    registry.histogram(
        "repro_storage_bulk_load_seconds",
        "Wall-clock seconds of one bulk load.",
        buckets=_BULK_SECONDS_BUCKETS,
    ).observe(elapsed)
    return {
        "directory": str(dest),
        "engine": "paged",
        "triples_read": read,
        "triples_loaded": len(encoded),
        "terms": len(terms),
        "seconds": elapsed,
        "triples_per_second": (read / elapsed) if elapsed > 0 else 0.0,
        "segment_bytes": entry["bytes"],
    }


def bulk_load_ntriples(
    source: str,
    directory: str,
) -> Dict[str, Any]:
    """Stream an N-Triples file into a fresh store at ``directory``."""
    source_path = pathlib.Path(source)
    with open(source_path, "r", encoding="utf-8") as handle:
        summary = bulk_load_triples(
            parse_ntriples_lines(line.rstrip("\n") for line in handle),
            directory,
        )
    summary["source"] = str(source_path)
    return summary
