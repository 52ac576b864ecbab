"""Unit tests for the paged storage engine, the one durable engine.

Covers the layers below the differential suite: the immutable run /
term-bank file formats, the bounded block and row caches, size-tiered
compaction with tombstone garbage collection, store dispatch and the
refusal of stores left by the retired disk engine, offline
verification, and the probe-API source lint — no module outside
``rdf/graph.py`` and the storage package may reach into the raw
``_spo``/``_pos``/``_osp`` index dictionaries.
"""

from __future__ import annotations

import json
import pathlib
import random
import re
import shutil
import struct
import sys
import threading
import time

import pytest

from repro.observability import get_registry, render_prometheus
from repro.rdf import Graph, Literal, URIRef
from repro.storage import (
    MemoryBackend,
    PagedBackend,
    detect_engine,
    open_backend,
    open_store,
)
from repro.storage import records
from repro.storage.errors import SnapshotMismatch, StorageError
from repro.storage.pages import (
    BLOCK_BYTES,
    RECORDS_PER_BLOCK,
    BlockCache,
    RunReader,
    TermBankReader,
    write_run,
    write_term_bank,
)
from repro.storage.verify import verify_store

EX = "http://example.org/"


def triple(i: int):
    return (
        URIRef(f"{EX}s{i % 11}"),
        URIRef(f"{EX}p{i % 3}"),
        Literal(i),
    )


def populated_paged_graph(directory: str, n: int = 20, **kwargs) -> Graph:
    graph = Graph(backend=PagedBackend(directory, **kwargs))
    graph.add_all(triple(i) for i in range(n))
    return graph


class TestRunFormat:
    ENTRIES = [
        (1, 10, 100, 1),
        (1, 10, 101, 1),
        (2, 10, 100, 1),
        (2, 11, 100, 0),  # a tombstone
        (3, 12, 103, 1),
    ]

    def write(self, tmp_path) -> pathlib.Path:
        path = tmp_path / "run-000007.run"
        entry = write_run(path, seq=7, level=2, entries=self.ENTRIES)
        assert entry["file"] == path.name
        assert entry["seq"] == 7 and entry["level"] == 2
        assert entry["records"] == 5
        assert entry["adds"] == 4 and entry["tombstones"] == 1
        assert entry["bytes"] == path.stat().st_size
        return path

    def test_round_trip_and_point_lookups(self, tmp_path):
        path = self.write(tmp_path)
        reader = RunReader(path, BlockCache(4))
        assert reader.seq == 7 and reader.level == 2
        assert reader.records == 5
        # Full scans of each permutation come back in sorted key order
        # and carry the original triples.
        spo = list(reader.scan(0, ()))
        assert spo == sorted(spo)
        assert {(a, b, c) for a, b, c, _ in spo} == {
            (s, p, o) for s, p, o, _ in self.ENTRIES
        }
        for s, p, o, flag in self.ENTRIES:
            assert reader.point(s, p, o) == flag
        assert reader.point(9, 9, 9) is None
        # Prefix ranges: subject 1 has two triples, (1, 10) both.
        assert reader.range_size(0, (1,)) == 2
        assert reader.range_size(0, (1, 10)) == 2
        assert reader.range_size(0, (2, 11, 100)) == 1
        assert reader.range_size(0, (42,)) == 0
        # POS section keys are (p, o, s); map back to (s, p, o).
        pos = [(c_, a_, b_) for a_, b_, c_, _ in reader.scan(1, (10,))]
        assert sorted(pos) == [(1, 10, 100), (1, 10, 101), (2, 10, 100)]
        assert reader.distinct_first(0) == 3  # subjects 1, 2, 3
        assert reader.distinct_first(1) == 3  # predicates 10, 11, 12
        reader.verify()
        reader.close()

    def test_multi_block_runs_use_fence_keys(self, tmp_path):
        n = RECORDS_PER_BLOCK * 3 + 17  # spans four blocks
        entries = [(i, i % 7, i % 13, 1) for i in range(n)]
        path = tmp_path / "run-000001.run"
        write_run(path, seq=1, level=1, entries=entries)
        reader = RunReader(path, BlockCache(8))
        assert reader.records == n
        for probe in (0, RECORDS_PER_BLOCK - 1, RECORDS_PER_BLOCK, n - 1):
            assert reader.point(probe, probe % 7, probe % 13) == 1
        assert reader.range_size(0, ()) == n
        reader.verify()
        reader.close()

    def test_sections_match_a_reference_encoding(self, tmp_path):
        """The C-level writer emits exactly the records and fence keys
        of a plain loop over the sorted permutations."""
        rng = random.Random(5)
        keys = {
            (rng.randrange(900), rng.randrange(9), rng.randrange(5000))
            for _ in range(3 * RECORDS_PER_BLOCK)
        }
        entries = [key + (rng.choice((0, 1, 1)),) for key in sorted(keys)]
        path = tmp_path / "run-000001.run"
        write_run(path, seq=1, level=1, entries=entries)
        blob = path.read_bytes()
        record, fence = struct.Struct("<IIIB3x"), struct.Struct("<III")
        orders = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        reader = RunReader(path, BlockCache(4))
        for section, order in zip(reader._sections, orders):
            rows = sorted(
                tuple(entry[i] for i in order) + (entry[3],) for entry in entries
            )
            data = b"".join(record.pack(*row) for row in rows)
            fences = b"".join(
                fence.pack(*row[:3]) for row in rows[::RECORDS_PER_BLOCK]
            )
            fence_end = section.fence_offset + len(fences)
            assert blob[section.offset : section.fence_offset] == data
            assert blob[section.fence_offset : fence_end] == fences
            assert section.distinct == len({row[0] for row in rows})
        reader.close()

    def test_corruption_fails_crc(self, tmp_path):
        path = self.write(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[12] ^= 0xFF  # inside the SPO section
        path.write_bytes(bytes(blob))
        reader = RunReader(path, BlockCache(4))
        with pytest.raises(SnapshotMismatch):
            reader.verify()
        reader.close()


class TestTermBankFormat:
    TERMS = [
        URIRef(f"{EX}alpha"),
        Literal("beta"),
        Literal(42),
        URIRef(f"{EX}gamma"),
    ]

    def test_round_trip_and_find(self, tmp_path):
        path = tmp_path / "terms-000001.tb"
        entry = write_term_bank(path, base=3, terms=self.TERMS)
        assert entry["base"] == 3 and entry["count"] == 4
        reader = TermBankReader(path)
        for offset, term in enumerate(self.TERMS):
            assert reader.term(3 + offset) == term
            assert reader.find(records.encode_term(term)) == 3 + offset
        assert reader.find(records.encode_term(Literal("absent"))) is None
        reader.verify()
        reader.close()

    def test_corruption_fails_crc(self, tmp_path):
        path = tmp_path / "terms-000001.tb"
        write_term_bank(path, base=0, terms=self.TERMS)
        blob = bytearray(path.read_bytes())
        blob[12] ^= 0xFF  # inside the first term's payload
        path.write_bytes(bytes(blob))
        reader = TermBankReader(path)
        with pytest.raises(SnapshotMismatch):
            reader.verify()
        reader.close()


class TestBlockCache:
    def test_capped_cache_stays_correct_under_eviction(self, tmp_path):
        """A cache far smaller than the run must still answer every
        probe correctly — only the metrics differ."""
        n = RECORDS_PER_BLOCK * 8
        entries = [(i, 1, i, 1) for i in range(n)]
        path = tmp_path / "run-000001.run"
        write_run(path, seq=1, level=1, entries=entries)
        cache = BlockCache(2)
        reader = RunReader(path, cache)
        # Sweep forwards and backwards so every block is evicted and
        # refetched at least once.
        for i in list(range(0, n, 97)) + list(range(n - 1, 0, -101)):
            assert reader.point(i, 1, i) == 1
        stats = cache.stats()
        assert stats["evictions"] > 0
        assert stats["resident_blocks"] <= 2
        assert stats["misses"] > stats["resident_blocks"]
        reader.close()

    def test_purge_drops_only_one_readers_blocks(self, tmp_path):
        cache = BlockCache(64)
        paths = []
        for seq in (1, 2):
            path = tmp_path / f"run-00000{seq}.run"
            write_run(path, seq=seq, level=1, entries=[(seq, 1, 1, 1)])
            paths.append(path)
        first = RunReader(paths[0], cache)
        second = RunReader(paths[1], cache)
        assert first.point(1, 1, 1) == 1
        assert second.point(2, 1, 1) == 1
        assert len(cache) == 2
        first.close()  # purges its token
        assert len(cache) == 1
        assert second.point(2, 1, 1) == 1
        second.close()
        assert len(cache) == 0

    def test_backend_exports_page_metrics(self, tmp_path):
        graph = populated_paged_graph(str(tmp_path / "s"), sync="none")
        graph.backend.checkpoint()
        assert len(graph) == 20
        list(graph.triples())
        graph.close()
        text = render_prometheus(get_registry())
        assert "repro_storage_page_hits_total" in text
        assert "repro_storage_page_misses_total" in text
        assert "repro_storage_page_cache_blocks" in text


class TestRowCache:
    """Short run ranges are served decoded from the probe's row cache;
    it must never answer from a run set or tombstone set that changed."""

    def test_cached_rows_follow_tombstones_and_new_runs(self, tmp_path):
        graph = populated_paged_graph(str(tmp_path / "s"), n=30, sync="none")
        backend = graph.backend
        backend.checkpoint()
        s0 = URIRef(f"{EX}s0")

        def rows():
            return sorted(map(tuple, graph.triples((s0, None, None))), key=repr)

        before = rows()
        assert before
        assert rows() == before  # the second read is served cached
        # A delete of a run triple is a tombstone, masked on the next
        # read even though the range is cached.
        graph.remove(*before[0])
        assert rows() == before[1:]
        assert before[0] not in graph
        # New data in the cached range, checkpointed into a second run.
        fresh = (s0, URIRef(f"{EX}p9"), Literal("fresh"))
        graph.add(*fresh)
        backend.checkpoint()
        assert len(backend.runs) == 2
        assert rows() == sorted(before[1:] + [fresh], key=repr)
        graph.close()

    def test_concurrent_scans_across_auto_checkpoints(self, tmp_path):
        """Readers scanning under the graph lock while a writer's
        commits auto-checkpoint (replacing the run list) never see a
        stale row-cache answer."""
        backend = PagedBackend(
            str(tmp_path / "s"), sync="none", checkpoint_bytes=2048
        )
        graph = Graph(backend=backend)
        subjects = [URIRef(f"{EX}s{i}") for i in range(8)]
        extra = URIRef(f"{EX}extra")
        base = {
            s: {(s, URIRef(f"{EX}p{j}"), Literal(j)) for j in range(4)}
            for s in subjects
        }
        graph.add_all(t for triples in base.values() for t in triples)
        backend.checkpoint()
        stop = threading.Event()
        failures = []

        def write():
            i = 0
            while not stop.is_set():
                triple = (subjects[i % 8], extra, Literal(i))
                graph.add(*triple)
                graph.remove(*triple)
                i += 1

        def read():
            rng = random.Random(threading.get_ident())
            while not stop.is_set():
                s = rng.choice(subjects)
                seen = set(map(tuple, graph.triples((s, None, None))))
                if not base[s] <= seen or len(seen - base[s]) > 1:
                    failures.append(sorted(seen, key=repr))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read) for _ in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        assert backend.manifest["checkpoints"] > 2
        assert sorted(map(tuple, graph.triples()), key=repr) == sorted(
            (t for triples in base.values() for t in triples), key=repr
        )
        graph.close()

    def test_row_cache_is_bounded_by_the_block_cache(self, tmp_path):
        backend = PagedBackend(str(tmp_path / "s"), sync="none", cache_blocks=1)
        graph = Graph(backend=backend)
        graph.add_all(triple(i) for i in range(2 * RECORDS_PER_BLOCK))
        backend.checkpoint()
        probe = backend.probe()
        for i in range(2 * RECORDS_PER_BLOCK):
            s, p, o = (backend.term_ids[t] for t in triple(i))
            assert probe.contains(s, p, o)
            assert list(probe.scan(None, p, o)) == [(s, p, o)]
        assert 0 < probe._rows_held <= RECORDS_PER_BLOCK
        graph.close()


class TestCompaction:
    def make_backend(self, tmp_path, **kwargs) -> PagedBackend:
        kwargs.setdefault("sync", "none")
        return PagedBackend(str(tmp_path / "store"), **kwargs)

    def test_size_tiered_merge_promotes_a_level(self, tmp_path):
        backend = self.make_backend(tmp_path, tier_fanout=4)
        graph = Graph(backend=backend)
        for round_no in range(3):
            graph.add_all(
                triple(i) for i in range(round_no * 10, round_no * 10 + 10)
            )
            assert backend.checkpoint()
        # Three level-0 overlay runs: below the fanout, no merge yet.
        assert [run.level for run in backend.runs] == [0, 0, 0]
        assert backend.maybe_compact() is False
        graph.add_all(triple(i) for i in range(30, 40))
        # The fourth checkpoint sees a full fan and merges it into one
        # level-1 run as its trailing (off-write-path) merge step.
        assert backend.checkpoint()
        assert [run.level for run in backend.runs] == [1]
        assert len(graph) == 40
        assert sorted(graph.triples(), key=repr) == sorted(
            (triple(i) for i in range(40)), key=repr
        )
        assert backend.describe()["compactions"] >= 1
        graph.close()

    def test_checkpoint_runs_one_merge_step(self, tmp_path):
        backend = self.make_backend(tmp_path, tier_fanout=2)
        graph = Graph(backend=backend)
        for round_no in range(2):
            graph.add_all(
                triple(i) for i in range(round_no * 5, round_no * 5 + 5)
            )
            assert backend.checkpoint()
        # The second checkpoint found two level-0 runs and merged them
        # off the write path.
        assert [run.level for run in backend.runs] == [1]
        assert backend.describe()["compactions"] >= 1
        graph.close()

    def test_compact_drops_tombstones(self, tmp_path):
        backend = self.make_backend(tmp_path, tier_fanout=100)
        graph = Graph(backend=backend)
        graph.add_all(triple(i) for i in range(12))
        backend.checkpoint()
        for i in range(0, 12, 2):
            graph.remove(*triple(i))
        backend.checkpoint()
        assert sum(run.tombstones for run in backend.runs) > 0
        backend.compact()
        assert len(backend.runs) == 1
        assert backend.runs[0].tombstones == 0
        assert backend.runs[0].records == 6
        survivors = sorted(graph.triples(), key=repr)
        assert survivors == sorted(
            (triple(i) for i in range(1, 12, 2)), key=repr
        )
        graph.close()
        # The dropped victims are gone from disk too.
        run_files = list((tmp_path / "store").glob("run-*.run"))
        assert len(run_files) == 1

    def test_cold_open_reads_no_triples_from_wal(self, tmp_path):
        """O(segments) cold open: after a clean close every triple
        lives in runs, so reopen replays zero WAL records."""
        directory = str(tmp_path / "store")
        graph = populated_paged_graph(directory, n=25, sync="none")
        graph.close()
        backend = PagedBackend(directory, sync="none")
        recovery = backend.describe()["recovery"]
        assert recovery["wal_records_replayed"] == 0
        assert recovery["outcome"] == "clean"
        assert backend.size == 25
        backend.close()

    def test_auto_checkpoint_bounds_the_wal(self, tmp_path):
        backend = self.make_backend(tmp_path, checkpoint_bytes=2048)
        graph = Graph(backend=backend)
        for i in range(400):
            graph.add(*triple(i + 1000))
        assert backend.runs, "auto-checkpoint must have produced runs"
        assert backend.wal_size() < 4096
        graph.close()


class TestEngineDispatch:
    def test_detect_and_open(self, tmp_path):
        paged_dir = str(tmp_path / "paged")
        populated_paged_graph(paged_dir, n=5, sync="none").close()
        assert detect_engine(paged_dir) == "paged"
        assert detect_engine(str(tmp_path / "missing")) is None
        backend = open_backend(paged_dir, sync="none")
        assert backend.kind == "paged"
        backend.close()
        with open_store(paged_dir, sync="none") as graph:
            assert len(graph) == 5
        # A fresh directory becomes a paged store.
        with open_store(str(tmp_path / "fresh"), sync="none") as graph:
            assert graph.backend.kind == "paged"
        assert detect_engine(str(tmp_path / "fresh")) == "paged"

    def test_engine_conflict_is_rejected(self, tmp_path, capsys):
        """A store left by the retired disk engine (manifest format 1)
        is refused loudly by every entry point — naming the engine —
        and never overwritten by a fresh paged store."""
        from repro.cli import main

        directory = tmp_path / "old"
        directory.mkdir()
        manifest = json.dumps(
            {"format": 1, "store_id": "0" * 32, "segments": [],
             "next_segment": 1, "opens": 3},
            indent=2, sort_keys=True,
        )
        (directory / "MANIFEST.json").write_text(manifest, "utf-8")
        (directory / "store.wal").write_bytes(b"")
        entry_points = (
            lambda: detect_engine(str(directory)),
            lambda: open_backend(str(directory), sync="none"),
            lambda: open_store(str(directory), sync="none"),
            lambda: PagedBackend(str(directory), sync="none"),
            lambda: verify_store(str(directory)),
        )
        for entry_point in entry_points:
            with pytest.raises(SnapshotMismatch) as excinfo:
                entry_point()
            assert "retired disk engine" in str(excinfo.value)
            assert excinfo.value.details()["code"] == "snapshot_mismatch"
        for command in ("info", "verify"):
            assert main(["store", command, str(directory)]) == 1
            captured = capsys.readouterr()
            payload = json.loads(captured.err.split("error:", 1)[1])
            assert payload["code"] == "snapshot_mismatch"
            assert "retired disk engine" in payload["message"]
        # Nothing was created on top of the old store.
        assert (directory / "MANIFEST.json").read_text("utf-8") == manifest
        assert sorted(p.name for p in directory.iterdir()) == [
            "MANIFEST.json", "store.wal",
        ]

    def test_unknown_engine_is_rejected(self, tmp_path):
        directory = tmp_path / "s"
        directory.mkdir()
        (directory / "MANIFEST.json").write_text(
            json.dumps({"format": 9, "engine": "granite"}), "utf-8"
        )
        for entry_point in (detect_engine, open_backend, verify_store):
            with pytest.raises(SnapshotMismatch) as excinfo:
                entry_point(str(directory))
            assert "granite" in str(excinfo.value)

    def test_copy_state_both_directions(self, tmp_path):
        from repro.storage.backend import copy_state

        memory = MemoryBackend()
        source = Graph(backend=memory)
        source.add_all(triple(i) for i in range(9))
        backend = PagedBackend(str(tmp_path / "store"), sync="none")
        copy_state(memory, backend)
        clone = Graph(backend=backend)
        assert sorted(clone.triples(), key=repr) == sorted(
            source.triples(), key=repr
        )
        # And back out of the non-dict-indexed paged backend.
        round_trip = MemoryBackend()
        copy_state(backend, round_trip)
        assert sorted(Graph(backend=round_trip).triples(), key=repr) == (
            sorted(source.triples(), key=repr)
        )
        clone.close()


class TestVerifyStore:
    def test_clean_paged_store_verifies(self, tmp_path):
        directory = str(tmp_path / "store")
        graph = populated_paged_graph(directory, n=15, sync="none")
        graph.backend.checkpoint()
        graph.add(*triple(900))  # leave a live WAL tail too
        graph.close()
        report = verify_store(directory)
        assert report["ok"] is True
        assert report["engine"] == "paged"
        kinds = {c["kind"] for c in report["checked"]}
        assert kinds == {"run", "term_bank", "wal"}
        assert report["wal"]["status"] == "clean"

    def test_corrupt_run_is_first_failure(self, tmp_path):
        directory = str(tmp_path / "store")
        graph = populated_paged_graph(directory, n=15, sync="none")
        graph.backend.checkpoint()
        graph.close()
        run_path = next(pathlib.Path(directory).glob("run-*.run"))
        blob = bytearray(run_path.read_bytes())
        blob[16] ^= 0xFF
        run_path.write_bytes(bytes(blob))
        report = verify_store(directory)
        assert report["ok"] is False
        assert report["failure"]["file"] == run_path.name
        assert "CRC" in report["failure"]["error"]
        # The report is machine-readable as-is.
        json.dumps(report)

    def crash_image(self, tmp_path) -> pathlib.Path:
        """A copy of a live store directory — close() checkpoints, so
        a crash image is the only store with a populated WAL."""
        directory = str(tmp_path / "store")
        graph = populated_paged_graph(directory, n=6, sync="always")
        crashed = tmp_path / "crashed"
        shutil.copytree(directory, crashed)
        graph.close()
        assert (crashed / "store.wal").stat().st_size > 3
        return crashed

    def test_torn_wal_tail_is_a_note_not_a_failure(self, tmp_path):
        crashed = self.crash_image(tmp_path)
        wal_path = crashed / "store.wal"
        wal_path.write_bytes(wal_path.read_bytes()[:-3])
        report = verify_store(str(crashed))
        assert report["ok"] is True
        assert report["wal"]["status"] == "torn"
        assert report["wal"]["torn_bytes"] > 0

    def test_corrupt_wal_interior_fails(self, tmp_path):
        crashed = self.crash_image(tmp_path)
        wal_path = crashed / "store.wal"
        blob = bytearray(wal_path.read_bytes())
        blob[10] ^= 0xFF
        wal_path.write_bytes(bytes(blob))
        report = verify_store(str(crashed))
        assert report["ok"] is False
        assert report["failure"]["file"] == "store.wal"

    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(StorageError):
            verify_store(str(tmp_path / "nope"))


class TestProbeSourceLint:
    """Acceptance: no module outside ``rdf/graph.py`` and the backend
    implementations may touch the raw index dictionaries — everything
    else goes through the ``IndexProbe`` protocol."""

    PATTERN = re.compile(r"\.\s*_(?:spo|pos|osp)\b")
    ALLOWED = {
        pathlib.PurePosixPath("repro/rdf/graph.py"),
        pathlib.PurePosixPath("repro/storage/backend.py"),
        pathlib.PurePosixPath("repro/storage/paged.py"),
        pathlib.PurePosixPath("repro/storage/probe.py"),
    }

    def test_no_direct_index_access_outside_backends(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            relative = pathlib.PurePosixPath(
                path.relative_to(src).as_posix()
            )
            if relative in self.ALLOWED:
                continue
            for line_no, line in enumerate(
                path.read_text("utf-8").splitlines(), start=1
            ):
                if self.PATTERN.search(line):
                    offenders.append(f"{relative}:{line_no}: {line.strip()}")
        assert not offenders, (
            "direct _spo/_pos/_osp index access outside the storage "
            "layer:\n" + "\n".join(offenders)
        )
