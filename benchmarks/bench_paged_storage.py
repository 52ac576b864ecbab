"""E22 — durable storage: bulk load, O(segments) cold open, probe cost.

The paged engine (:mod:`repro.storage.paged`) is the one durable
engine: it keeps triples in immutable mmap'd sorted runs, so a cold
open maps files and reads footers instead of rebuilding dict indexes.
This experiment prices it end to end:

* **Bulk load** — stream one million generated triples through
  :func:`bulk_load_triples` (sorted run + term bank written straight
  from the interned-id stream, no per-triple WAL) and report
  sustained triples/second.
* **Cold open** — time a cold open of the loaded store against the
  work an O(triples) open has to do: rebuilding the in-memory dict
  indexes from the same triples.  The paged open must finish within
  0.3 s and be at least 100x faster than that rebuild.
* **Probe throughput** — random point lookups and prefix scans
  through the :class:`~repro.storage.paged.PagedProbe` with a block
  cache far smaller than the store, so the numbers include real page
  misses, not a warmed dict.
* **WAL overhead** — write the same incremental workload at
  ``fsync=always`` / ``batch`` / ``none`` and compare commit rates, so
  the durability/throughput trade of each mode is a number.
* **Query parity** — the planned/naive differential re-run on the
  paged store; answers must match an in-memory graph of the same
  triples byte for byte.

Artefacts land in ``benchmarks/results/E22_paged_storage.txt`` and
``BENCH_E22.json``.
"""

from __future__ import annotations

import json
import random
import time

from benchmarks.conftest import RESULTS_DIR, write_table
from repro.rdf import Graph, Literal, URIRef
from repro.storage import MemoryBackend, PagedBackend, bulk_load_triples

EX = "http://example.org/"

#: The bulk-load corpus (acceptance floor: one million triples).
BULK_TRIPLES = 1_000_000
#: Incremental workload per WAL sync mode.
WAL_TRIPLES = 5_000
#: fsync cadence of the "batch" mode under test.
FSYNC_BATCH = 64
#: Cache budget for the probe-throughput phase: 256 blocks = 1 MiB,
#: versus ~45 MiB of run sections for the million-triple store.
PROBE_CACHE_BLOCKS = 256
#: Random point lookups / prefix scans measured per phase.
POINT_LOOKUPS = 20_000
PREFIX_SCANS = 2_000

#: Acceptance: cold open of one million triples, mmap + footers only.
MAX_COLD_OPEN_SECONDS = 0.3
MIN_SPEEDUP = 100.0

QUERIES = [
    f"""SELECT ?s ?x ?y WHERE {{
        ?s <{EX}p0> ?x .
        ?s <{EX}p1> ?y .
    }}""",
    f"""SELECT ?s ?v WHERE {{
        ?s <{EX}p2> ?v .
        FILTER (?v > 500)
    }}""",
]


def generate_triples(n: int):
    """A skewed synthetic corpus: 16 predicates, Zipf-ish subjects."""
    subjects = [URIRef(f"{EX}s{i}") for i in range(n // 10 or 1)]
    predicates = [URIRef(f"{EX}p{i}") for i in range(16)]
    for i in range(n):
        # The object is unique per i: every generated triple is
        # distinct (the store is a set; duplicates would not count).
        yield (
            subjects[(i * i) % len(subjects)],
            predicates[i % 16],
            Literal(i),
        )


def solutions(result):
    return sorted(
        tuple(sorted((str(v), value.n3()) for v, value in row.items()))
        for row in result.rows
    )


def rebuild_dict_indexes(triples) -> MemoryBackend:
    """The O(triples) open: intern every term, rebuild SPO/POS/OSP."""
    backend = MemoryBackend()
    intern = backend.intern
    backend.insert_batch(
        (intern(s), intern(p), intern(o)) for s, p, o in triples
    )
    return backend


def test_paged_storage_costs(tmp_path_factory, bench_seed):
    base = tmp_path_factory.mktemp("e22")
    lines = []
    report = {"bulk": {}, "cold_open": {}, "probe": {}, "wal": {}, "parity": {}}

    # -- bulk load ----------------------------------------------------------
    paged_dir = str(base / "paged")
    bulk = bulk_load_triples(generate_triples(BULK_TRIPLES), paged_dir)
    report["bulk"] = {
        "triples": bulk["triples_loaded"],
        "seconds": round(bulk["seconds"], 2),
        "triples_per_second": int(bulk["triples_per_second"]),
        "segment_mib": round(bulk["segment_bytes"] / 2**20, 1),
    }
    lines.append(
        f"bulk load: {bulk['triples_loaded']:,} triples in "
        f"{bulk['seconds']:.2f}s = "
        f"{bulk['triples_per_second']:,.0f} triples/s "
        f"({report['bulk']['segment_mib']} MiB of runs)"
    )

    # -- cold open: O(segments) vs an O(triples) index rebuild ------------
    started = time.perf_counter()
    paged = PagedBackend(paged_dir, sync="none")
    paged_open_seconds = time.perf_counter() - started
    assert paged.size == BULK_TRIPLES

    started = time.perf_counter()
    oracle = rebuild_dict_indexes(generate_triples(BULK_TRIPLES))
    rebuild_seconds = time.perf_counter() - started
    assert oracle.size == BULK_TRIPLES

    speedup = rebuild_seconds / paged_open_seconds
    report["cold_open"] = {
        "paged_seconds": round(paged_open_seconds, 4),
        "rebuild_seconds": round(rebuild_seconds, 2),
        "speedup": round(speedup, 1),
        "max_seconds": MAX_COLD_OPEN_SECONDS,
    }
    lines.append(
        f"cold open (paged): {BULK_TRIPLES:,} triples in "
        f"{paged_open_seconds * 1000:.1f}ms (mmap + footers)"
    )
    lines.append(
        f"dict index rebuild: {BULK_TRIPLES:,} triples in "
        f"{rebuild_seconds:.2f}s (what an O(triples) open does)"
    )
    lines.append(f"cold-open speedup: {speedup:,.0f}x (floor {MIN_SPEEDUP:.0f}x)")

    # -- probe throughput with a starved block cache -----------------------
    paged.close()
    paged = PagedBackend(
        paged_dir, sync="none", cache_blocks=PROBE_CACHE_BLOCKS
    )
    probe = paged.probe()
    n_terms = len(paged.term_list)
    rng = random.Random(bench_seed)
    # Sample real triples out of the store for the point-lookup set so
    # every probe does full binary-search work (fences + in-block).
    sample_every = max(1, BULK_TRIPLES // POINT_LOOKUPS)
    points = [
        triple
        for index, triple in enumerate(paged.encoded_triples())
        if index % sample_every == 0
    ]
    rng.shuffle(points)
    points = points[:POINT_LOOKUPS]

    started = time.perf_counter()
    hits = sum(1 for sid, pid, oid in points if probe.contains(sid, pid, oid))
    point_seconds = time.perf_counter() - started
    assert hits == len(points)

    subjects = [points[rng.randrange(len(points))][0] for _ in range(PREFIX_SCANS)]
    started = time.perf_counter()
    scanned = 0
    for sid in subjects:
        for _ in probe.scan(sid, None, None):
            scanned += 1
    scan_seconds = time.perf_counter() - started

    cache = paged.cache.stats()
    store_blocks = sum(
        run.path.stat().st_size // 4096 for run in paged.runs
    )
    report["probe"] = {
        "cache_blocks": PROBE_CACHE_BLOCKS,
        "store_blocks": store_blocks,
        "point_lookups": len(points),
        "point_lookups_per_second": int(len(points) / point_seconds),
        "prefix_scans": PREFIX_SCANS,
        "rows_scanned": scanned,
        "scan_rows_per_second": int(scanned / scan_seconds),
        "cache_hit_rate": round(
            cache["hits"] / max(1, cache["hits"] + cache["misses"]), 3
        ),
        "evictions": cache["evictions"],
    }
    lines.append(
        f"point lookups ({PROBE_CACHE_BLOCKS}-block cache vs "
        f"{store_blocks:,}-block store): "
        f"{report['probe']['point_lookups_per_second']:,} lookups/s"
    )
    lines.append(
        f"prefix scans: {scanned:,} rows over {PREFIX_SCANS:,} subjects = "
        f"{report['probe']['scan_rows_per_second']:,} rows/s "
        f"(hit rate {report['probe']['cache_hit_rate']:.1%}, "
        f"{cache['evictions']:,} evictions)"
    )
    assert cache["evictions"] > 0, "the cache must be smaller than the store"
    assert n_terms > 0

    # -- query parity against an in-memory graph of the same triples ----
    paged_graph = Graph(backend=paged)
    memory_graph = Graph(backend=oracle)
    parity_ok = True
    for query in QUERIES:
        planned = solutions(paged_graph.query(query))
        naive = solutions(paged_graph.query(query, use_planner=False))
        reference = solutions(memory_graph.query(query))
        parity_ok = parity_ok and planned == naive == reference
    report["parity"] = {"queries": len(QUERIES), "ok": parity_ok}
    lines.append(
        f"query parity (planned vs naive vs memory graph): "
        f"{'ok' if parity_ok else 'FAILED'} over {len(QUERIES)} queries"
    )
    paged_graph.close()
    del memory_graph, oracle

    # -- WAL overhead per sync mode ----------------------------------------
    workload = list(generate_triples(WAL_TRIPLES))
    for mode in ("none", "batch", "always"):
        incremental = Graph(
            backend=PagedBackend(
                str(base / f"wal-{mode}"), sync=mode, fsync_batch=FSYNC_BATCH
            )
        )
        started = time.perf_counter()
        for triple in workload:
            incremental.add(*triple)
        elapsed = time.perf_counter() - started
        fsyncs = incremental.backend._wal.fsyncs
        incremental.close()
        rate = WAL_TRIPLES / elapsed
        report["wal"][mode] = {
            "seconds": round(elapsed, 3),
            "triples_per_second": int(rate),
            "fsyncs": fsyncs,
        }
        label = f"fsync={mode}" + (
            f" (every {FSYNC_BATCH})" if mode == "batch" else ""
        )
        lines.append(
            f"incremental {label}: {WAL_TRIPLES:,} commits in "
            f"{elapsed:.3f}s = {rate:,.0f} triples/s, {fsyncs} fsyncs"
        )
    none_rate = report["wal"]["none"]["triples_per_second"]
    always_rate = report["wal"]["always"]["triples_per_second"]
    lines.append(
        f"durability cost: fsync=always runs at "
        f"{always_rate / none_rate:.1%} of fsync=none throughput"
    )

    write_table(
        "E22_paged_storage",
        "E22 — durable storage: bulk load, cold open, probes, WAL sync modes",
        lines,
        seed=bench_seed,
    )
    (RESULTS_DIR / "BENCH_E22.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )

    assert bulk["triples_loaded"] == BULK_TRIPLES
    assert parity_ok
    assert report["wal"]["always"]["fsyncs"] >= WAL_TRIPLES
    assert report["wal"]["none"]["fsyncs"] == 0
    assert paged_open_seconds <= MAX_COLD_OPEN_SECONDS
    assert speedup >= MIN_SPEEDUP
