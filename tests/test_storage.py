"""The persistent storage subsystem: WAL, runs, recovery, bulk load.

The durability contract under test, on the paged engine: every
committed graph mutation survives a process crash at *any* byte
boundary — the write-ahead log replays complete records and silently
truncates a torn tail, while a genuinely corrupt record (bad CRC
mid-log) refuses to open with a machine-readable
:class:`WALCorruption`.  Run and term-bank files carry magic bytes and
a JSON footer read on every open, so a tampered, truncated or missing
file fails loudly as :class:`SnapshotMismatch` instead of silently
mis-planning queries (``repro store verify`` re-checks their CRCs).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import struct

import pytest

from repro.rdf import BNode, Graph, Literal, URIRef
from repro.storage import (
    BACKEND_ENV_VAR,
    MemoryBackend,
    PagedBackend,
    SnapshotMismatch,
    StorageError,
    WALCorruption,
    WALWriter,
    backend_from_env,
    bulk_load_ntriples,
    bulk_load_triples,
    open_store,
)
from repro.storage.records import (
    OP_ADD,
    RecordScanner,
    add_payload,
    decode_term,
    encode_record,
    encode_term,
)

EX = "http://example.org/"


def triple(i: int):
    return (
        URIRef(f"{EX}s{i % 7}"),
        URIRef(f"{EX}p{i % 3}"),
        Literal(f"value-{i}"),
    )


def populated_store_graph(directory: str, n: int = 40, **kwargs) -> Graph:
    kwargs.setdefault("sync", "always")
    graph = Graph(backend=PagedBackend(directory, **kwargs))
    for i in range(n):
        graph.add(*triple(i))
    return graph


def crash_image(graph: Graph, directory: str, image: pathlib.Path) -> str:
    """Copy a live store as a crash would leave it, then close it.

    A clean close checkpoints and empties the WAL; the copy keeps the
    WAL tail that a killed process leaves behind.
    """
    graph.flush()
    shutil.copytree(directory, image)
    graph.close()
    return str(image)


class TestTermCodec:
    @pytest.mark.parametrize(
        "term",
        [
            URIRef(f"{EX}resource"),
            BNode("b42"),
            Literal("plain"),
            Literal("42", datatype=URIRef("http://www.w3.org/2001/XMLSchema#integer")),
            Literal("bonjour", lang="fr"),
            Literal(""),
            Literal("snowman ☃ and newline\nand tab\t"),
        ],
    )
    def test_round_trip(self, term):
        blob = encode_term(term)
        decoded, offset = decode_term(blob, 0)
        assert decoded == term
        assert type(decoded) is type(term)
        assert offset == len(blob)
        if isinstance(term, Literal):
            assert decoded.datatype == term.datatype
            assert decoded.lang == term.lang

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            decode_term(b"\xffjunk", 0)


class TestRecordScanner:
    def test_clean_stream(self):
        data = b"".join(
            encode_record(add_payload(i, i + 1, i + 2)) for i in range(5)
        )
        scanner = RecordScanner(data)
        records = list(scanner)
        assert len(records) == 5
        assert scanner.status == "clean"
        assert scanner.end == len(data)

    def test_torn_tail_is_reported_not_fatal(self):
        whole = encode_record(add_payload(1, 2, 3))
        data = whole + encode_record(add_payload(4, 5, 6))[:-3]
        scanner = RecordScanner(data)
        records = list(scanner)
        assert len(records) == 1
        assert scanner.status == "torn"
        assert scanner.end == len(whole)

    def test_corrupt_crc_mid_stream(self):
        first = bytearray(encode_record(add_payload(1, 2, 3)))
        second = encode_record(add_payload(4, 5, 6))
        first[-1] ^= 0xFF  # flip a payload byte: CRC of record 0 fails
        scanner = RecordScanner(bytes(first) + second)
        list(scanner)
        assert scanner.status == "corrupt"
        assert scanner.error is not None


class TestPagedBackendRoundTrip:
    def test_reopen_restores_triples_terms_and_stats(self, tmp_path):
        directory = str(tmp_path / "store")
        graph = populated_store_graph(directory, n=40)
        graph.remove(*triple(0))
        expected = sorted(graph.triples(), key=repr)
        predicates = [URIRef(f"{EX}p{i}") for i in range(3)]
        expected_stats = {
            p: graph.predicate_stats(p).as_tuple() for p in predicates
        }
        graph.close()

        reopened = Graph(backend=PagedBackend(directory, sync="none"))
        assert sorted(reopened.triples(), key=repr) == expected
        for p in predicates:
            assert reopened.predicate_stats(p).as_tuple() == expected_stats[p]
        info = reopened.backend.describe()
        assert info["recovery"]["outcome"] == "clean"
        assert info["opens"] == 2
        reopened.close()

    def test_term_ids_are_stable_across_reopen(self, tmp_path):
        directory = str(tmp_path / "store")
        graph = populated_store_graph(directory, n=12)
        ids_before = dict(graph.backend.term_ids)
        graph.close()
        reopened = PagedBackend(directory, sync="none")
        # Reopened over term banks: ids resolve lazily, both directions.
        assert len(reopened.term_ids) == len(ids_before)
        assert {term: reopened.term_ids[term] for term in ids_before} == (
            ids_before
        )
        assert {reopened.term_list[tid]: tid for tid in ids_before.values()} == (
            ids_before
        )
        reopened.close()

    def test_clear_persists(self, tmp_path):
        directory = str(tmp_path / "store")
        graph = populated_store_graph(directory, n=10)
        graph.clear()
        graph.add(*triple(99))
        graph.close()
        reopened = Graph(backend=PagedBackend(directory, sync="none"))
        assert len(reopened) == 1
        assert triple(99) in reopened
        reopened.close()

    def test_missing_store_without_create(self, tmp_path):
        with pytest.raises(StorageError) as excinfo:
            PagedBackend(str(tmp_path / "nope"), create=False)
        assert excinfo.value.code == "storage_error"
        assert "nope" in excinfo.value.details()["directory"]

    def test_context_manager_closes(self, tmp_path):
        directory = str(tmp_path / "store")
        with open_store(directory, sync="none") as graph:
            graph.add(*triple(1))
        backend = PagedBackend(directory, sync="none")
        assert backend.size == 1
        backend.close()


class TestWALRecovery:
    def test_truncation_at_every_byte_boundary_of_last_record(self, tmp_path):
        """Satellite 3: a crash mid-write of the final WAL record must
        reopen to exactly the last fully-committed state, with no
        partial triples, for *every* possible torn-tail length."""
        live = str(tmp_path / "live")
        graph = populated_store_graph(live, n=5)
        committed = sorted(graph.triples(), key=repr)
        base_size = (pathlib.Path(live) / "store.wal").stat().st_size
        # One more committed mutation: the record we will tear.
        graph.add(*triple(999))
        directory = crash_image(graph, live, tmp_path / "store")
        wal_path = pathlib.Path(directory) / "store.wal"
        full = wal_path.read_bytes()
        last_record = full[base_size:]
        assert last_record, "the final add must have produced WAL bytes"

        for cut in range(len(last_record)):
            wal_path.write_bytes(full[: base_size + cut])
            backend = PagedBackend(directory, sync="none")
            reopened = Graph(backend=backend)
            assert sorted(reopened.triples(), key=repr) == committed, (
                f"torn tail of {cut} bytes must replay to committed state"
            )
            # A cut on an interior record boundary of the final commit
            # (the adds's TERM records precede its ADD) replays clean;
            # any other cut is a torn tail that recovery truncates.
            info = backend.describe()
            outcome = info["recovery"]["outcome"]
            assert outcome in ("clean", "torn_tail")
            if outcome == "torn_tail":
                assert info["recovery"]["wal_truncated_bytes"] > 0
            reopened.close()
            # Recovery rewrites the WAL tail; restore the scenario.
            wal_path.write_bytes(full)

        # And the untouched full WAL replays the final triple.
        backend = PagedBackend(directory, sync="none")
        assert triple(999) in Graph(backend=backend)
        backend.close()

    def test_torn_annotation_upsert_is_all_or_nothing(self, tmp_path):
        """One ``annotate_map`` upsert is one WAL record: at every cut
        of it, reopening yields exactly the pre- or the post-commit
        value of every pair, never a mix and never two values, and the
        store verifies."""
        from repro.annotation import AnnotationMap, AnnotationStore
        from repro.rdf import Q, RDF
        from repro.storage.verify import verify_store

        items = [URIRef(f"{EX}item{i}") for i in range(3)]
        pre = {(item, Q.HitRatio): 0.5 + i for i, item in enumerate(items)}
        pre[(items[0], Q.Coverage)] = 0.25
        post = {pair: value + 10 for pair, value in pre.items()}
        post[(items[0], Q.Coverage)] = None  # retracted by the upsert
        post[(items[2], Q.Coverage)] = 0.75  # a new pair

        def write(store, values):
            amap = AnnotationMap()
            for (item, etype), value in values.items():
                amap.set_evidence(item, etype, value)
            store.annotate_map(amap)

        live = str(tmp_path / "live")
        store = AnnotationStore("torn", directory=live, sync="always")
        write(store, pre)
        wal_path = pathlib.Path(live) / "store.wal"
        base_size = wal_path.stat().st_size
        write(store, post)
        directory = crash_image(store.graph, live, tmp_path / "image")
        full = (pathlib.Path(directory) / "store.wal").read_bytes()
        last = full[base_size:]
        assert len(list(RecordScanner(last))) == 1, "one upsert, one record"
        expected_pre = {pair: pre.get(pair) for pair in post}
        work = tmp_path / "work"

        def read_back(cut):
            if work.exists():
                shutil.rmtree(work)
            shutil.copytree(directory, work)
            (work / "store.wal").write_bytes(full[: base_size + cut])
            assert verify_store(str(work))["ok"], f"cut {cut}"
            reopened = AnnotationStore("torn", directory=str(work), sync="none")
            try:
                for item, etype in post:
                    nodes = [
                        node
                        for node in reopened.graph.objects(
                            item, Q["contains-evidence"]
                        )
                        if (node, RDF.type, etype) in reopened.graph
                    ]
                    assert len(nodes) <= 1, f"cut {cut}: two values"
                return {
                    pair: reopened.lookup(*pair) for pair in post
                }
            finally:
                reopened.close()

        for cut in range(len(last)):
            assert read_back(cut) == expected_pre, f"cut {cut} mixed values"
        assert read_back(len(last)) == post

    def test_interior_corruption_is_wal_corruption(self, tmp_path):
        live = str(tmp_path / "live")
        graph = populated_store_graph(live, n=8)
        directory = crash_image(graph, live, tmp_path / "store")
        wal_path = pathlib.Path(directory) / "store.wal"
        blob = bytearray(wal_path.read_bytes())
        assert len(blob) > 20
        blob[10] ^= 0xFF  # inside the first record, not the tail
        wal_path.write_bytes(bytes(blob))
        with pytest.raises(WALCorruption) as excinfo:
            PagedBackend(directory, sync="none")
        error = excinfo.value
        assert error.code == "wal_corruption"
        details = error.details()
        assert details["code"] == "wal_corruption"
        assert isinstance(details["offset"], int)

    def test_absurd_record_length_is_corruption(self, tmp_path):
        live = str(tmp_path / "live")
        graph = populated_store_graph(live, n=3)
        directory = crash_image(graph, live, tmp_path / "store")
        wal_path = pathlib.Path(directory) / "store.wal"
        bogus = struct.pack("<II", 0x7FFFFFFF, 0) + b"x" * 64
        wal_path.write_bytes(bogus + wal_path.read_bytes())
        with pytest.raises(WALCorruption):
            PagedBackend(directory, sync="none")


class TestSnapshotVerification:
    def test_tampered_segment_is_snapshot_mismatch(self, tmp_path):
        directory = str(tmp_path / "store")
        graph = populated_store_graph(directory, n=30)
        graph.close()
        run = sorted(pathlib.Path(directory).glob("run-*.run"))[-1]
        blob = bytearray(run.read_bytes())
        # Damage the JSON footer every open reads (the 12 trailing
        # bytes are its length and the tail magic).
        blob[len(blob) - 14] ^= 0xFF
        run.write_bytes(bytes(blob))
        with pytest.raises(SnapshotMismatch) as excinfo:
            PagedBackend(directory, sync="none")
        assert excinfo.value.code == "snapshot_mismatch"
        assert excinfo.value.details()["segment"] == run.name

    def test_bad_magic_is_snapshot_mismatch(self, tmp_path):
        directory = str(tmp_path / "store")
        graph = populated_store_graph(directory, n=5)
        graph.close()
        for pattern in ("run-*.run", "terms-*.tb"):
            segment = sorted(pathlib.Path(directory).glob(pattern))[-1]
            original = segment.read_bytes()
            blob = bytearray(original)
            blob[0] ^= 0xFF
            segment.write_bytes(bytes(blob))
            with pytest.raises(SnapshotMismatch) as excinfo:
                PagedBackend(directory, sync="none")
            assert excinfo.value.code == "snapshot_mismatch"
            assert excinfo.value.details()["segment"] == segment.name
            segment.write_bytes(original)

    def test_missing_segment_file(self, tmp_path):
        directory = str(tmp_path / "store")
        graph = populated_store_graph(directory, n=5)
        graph.close()
        for segment in pathlib.Path(directory).glob("run-*.run"):
            segment.unlink()
        with pytest.raises(SnapshotMismatch):
            PagedBackend(directory, sync="none")


class TestCompactionAndSnapshot:
    def test_compaction_folds_wal_into_segment(self, tmp_path):
        directory = str(tmp_path / "store")
        graph = populated_store_graph(directory, n=25)
        graph.backend.checkpoint()
        # A delete of a checkpointed triple leaves a tombstone behind.
        graph.remove(*triple(3))
        expected = sorted(graph.triples(), key=repr)
        wal_path = pathlib.Path(directory) / "store.wal"
        assert wal_path.stat().st_size > 0
        assert graph.backend.compact().exists()
        assert wal_path.stat().st_size == 0
        info = graph.backend.describe()
        assert info["segments"] == 1
        assert info["segments_detail"][0]["tombstones"] == 0
        graph.close()
        reopened = Graph(backend=PagedBackend(directory, sync="none"))
        assert sorted(reopened.triples(), key=repr) == expected
        assert reopened.backend.describe()["compactions"] == 1
        reopened.close()

    def test_snapshot_is_an_independent_store(self, tmp_path):
        source_dir = str(tmp_path / "source")
        dest_dir = str(tmp_path / "dest")
        graph = populated_store_graph(source_dir, n=15)
        expected = sorted(graph.triples(), key=repr)
        graph.backend.snapshot(dest_dir)
        # Diverge the source after the snapshot.
        graph.add(*triple(777))
        graph.close()
        restored = Graph(backend=PagedBackend(dest_dir, sync="none"))
        assert sorted(restored.triples(), key=repr) == expected
        assert triple(777) not in restored
        restored.close()

    def test_snapshot_refuses_existing_store(self, tmp_path):
        source_dir = str(tmp_path / "source")
        graph = populated_store_graph(source_dir, n=3)
        with pytest.raises(StorageError):
            graph.backend.snapshot(source_dir)
        graph.close()


class TestWALWriterPolicies:
    def test_fsync_batching_counts(self, tmp_path):
        path = str(tmp_path / "w.wal")
        writer = WALWriter(path, sync="batch", fsync_batch=4)
        for i in range(10):
            writer.append(add_payload(i, i, i))
            writer.commit()
        assert writer.commits == 10
        assert writer.fsyncs == 2  # commits 4 and 8
        writer.flush()
        assert writer.fsyncs == 3
        writer.close()

    def test_sync_none_never_fsyncs(self, tmp_path):
        writer = WALWriter(str(tmp_path / "w.wal"), sync="none")
        writer.append(add_payload(1, 2, 3))
        writer.commit()
        writer.flush()
        assert writer.fsyncs == 0
        writer.close()

    def test_sync_always_fsyncs_every_commit(self, tmp_path):
        writer = WALWriter(str(tmp_path / "w.wal"), sync="always")
        for i in range(3):
            writer.append(add_payload(i, i, i))
            writer.commit()
        assert writer.fsyncs == 3
        writer.close()

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WALWriter(str(tmp_path / "w.wal"), sync="sometimes")


class TestBulkLoader:
    def test_load_triples_then_reopen(self, tmp_path):
        directory = str(tmp_path / "bulk")
        triples = [triple(i) for i in range(2000)]
        report = bulk_load_triples(triples, directory)
        assert report["triples_loaded"] == 2000
        assert report["triples_per_second"] > 0
        graph = Graph(backend=PagedBackend(directory, sync="none"))
        assert len(graph) == 2000
        assert sorted(graph.triples(), key=repr) == sorted(triples, key=repr)
        # Bulk load must produce the same stats as incremental adds.
        incremental = Graph()
        incremental.add_all(triples)
        for i in range(3):
            p = URIRef(f"{EX}p{i}")
            assert (
                graph.predicate_stats(p).as_tuple()
                == incremental.predicate_stats(p).as_tuple()
            )
        graph.close()

    def test_load_ntriples_file(self, tmp_path):
        source = Graph()
        for i in range(120):
            source.add(*triple(i))
        nt_path = tmp_path / "data.nt"
        nt_path.write_text(source.serialize())
        directory = str(tmp_path / "bulk")
        report = bulk_load_ntriples(str(nt_path), directory)
        assert report["triples_loaded"] == 120
        graph = Graph(backend=PagedBackend(directory, sync="none"))
        assert sorted(graph.triples(), key=repr) == sorted(
            source.triples(), key=repr
        )
        graph.close()

    def test_refuses_to_load_over_existing_store(self, tmp_path):
        directory = str(tmp_path / "bulk")
        bulk_load_triples([triple(0)], directory)
        with pytest.raises(StorageError):
            bulk_load_triples([triple(1)], directory)


class TestBackendSelection:
    def test_default_is_memory(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert Graph().backend.kind == "memory"
        assert backend_from_env().kind == "memory"

    def test_env_selects_paged_scratch(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "paged-scratch")
        graph = Graph()
        assert graph.backend.kind == "paged"
        assert graph.backend.durable
        graph.add(*triple(1))
        assert len(graph) == 1
        graph.close()

    def test_unknown_backend_rejected(self, monkeypatch):
        # A bare engine name no longer steers anything: only 'memory'
        # and 'paged-scratch' are accepted.
        for mode in ("floppy", "paged"):
            monkeypatch.setenv(BACKEND_ENV_VAR, mode)
            with pytest.raises(StorageError):
                backend_from_env()


class TestGraphCopySemantics:
    """Satellite 1: copies and unions rebuild stats explicitly."""

    def test_stats_identical_across_copy_bulk_incremental_and_reopen(
        self, tmp_path
    ):
        triples = [triple(i) for i in range(60)]
        incremental = Graph()
        for t in triples:
            incremental.add(*t)
        bulk = Graph()
        bulk.add_all(triples)
        copied = incremental.copy()
        union = Graph() + incremental
        durable = populated_store_graph(str(tmp_path / "store"), n=0)
        durable.add_all(triples)
        durable.close()
        reopened = Graph(backend=PagedBackend(str(tmp_path / "store"), sync="none"))
        graphs = {
            "incremental": incremental,
            "bulk": bulk,
            "copy": copied,
            "union": union,
            "reopened-paged": reopened,
        }
        for i in range(3):
            p = URIRef(f"{EX}p{i}")
            reference = incremental.predicate_stats(p).as_tuple()
            for label, graph in graphs.items():
                assert graph.predicate_stats(p).as_tuple() == reference, label
        reopened.close()

    def test_copy_of_disk_graph_is_memory_and_independent(self, tmp_path):
        stored = populated_store_graph(str(tmp_path / "store"), n=10)
        clone = stored.copy()
        assert clone.backend.kind == "memory"
        clone.add(*triple(500))
        assert len(clone) == len(stored) + 1
        stored.close()


class TestStoreCLI:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_load_info_compact_snapshot(self, tmp_path, capsys):
        source = Graph()
        for i in range(200):
            source.add(*triple(i))
        nt_path = tmp_path / "data.nt"
        nt_path.write_text(source.serialize())
        store_dir = str(tmp_path / "s1")
        snap_dir = str(tmp_path / "s2")

        assert self.run_cli("store", "load", str(nt_path), store_dir) == 0
        out = capsys.readouterr().out
        assert "200 triples" in out and "triples/sec" in out

        assert self.run_cli("store", "info", store_dir) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["triples"] == 200
        assert info["kind"] == "paged"

        assert self.run_cli("store", "compact", store_dir) == 0
        capsys.readouterr()
        assert self.run_cli("store", "snapshot", store_dir, snap_dir) == 0
        capsys.readouterr()
        graph = Graph(backend=PagedBackend(snap_dir, sync="none"))
        assert len(graph) == 200
        graph.close()

    def test_missing_store_errors_machine_readably(self, tmp_path, capsys):
        assert self.run_cli("store", "info", str(tmp_path / "absent")) == 1
        err = capsys.readouterr().err
        payload = json.loads(err.split("error:", 1)[1])
        assert payload["code"] == "storage_error"


class TestStorageMetrics:
    def test_storage_metric_names_pass_the_lint(self):
        from repro.observability.registry import METRIC_NAME_RE

        for name in (
            "repro_storage_wal_records_total",
            "repro_storage_wal_fsyncs_total",
            "repro_storage_open_backends",
            "repro_storage_recoveries_total",
            "repro_storage_checkpoints_total",
            "repro_storage_compactions_total",
            "repro_storage_snapshots_total",
            "repro_storage_bulk_load_triples_total",
            "repro_storage_bulk_load_seconds",
        ):
            assert METRIC_NAME_RE.match(name), name

    def test_recovery_outcome_metric_emitted(self, tmp_path):
        from repro.observability import get_registry

        directory = str(tmp_path / "store")
        graph = populated_store_graph(directory, n=4)
        graph.close()
        registry = get_registry()
        before = registry.counter(
            "repro_storage_recoveries_total",
            "Store opens by recovery outcome.",
            labels=("outcome",),
        ).labels(outcome="clean").value
        backend = PagedBackend(directory, sync="none")
        backend.close()
        after = registry.counter(
            "repro_storage_recoveries_total",
            "Store opens by recovery outcome.",
            labels=("outcome",),
        ).labels(outcome="clean").value
        assert after == before + 1
