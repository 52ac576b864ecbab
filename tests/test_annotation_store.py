"""Tests for RDF-backed annotation repositories and the manager."""

import random
import sys
import threading

import pytest

from repro.annotation import AnnotationMap, AnnotationStore, RepositoryManager
from repro.annotation.functions import CallableAnnotationFunction
from repro.observability import get_registry
from repro.rdf import Literal, Q, RDF, URIRef
from repro.rdf.lsid import uniprot_lsid
from repro.storage import BACKEND_ENV_VAR

D1 = uniprot_lsid("P00001")
D2 = uniprot_lsid("P00002")
CONTAINS = Q["contains-evidence"]


@pytest.fixture()
def store(iq_model):
    return AnnotationStore("test", iq_model=iq_model)


@pytest.fixture(params=["memory", "paged-scratch"])
def any_store(request, monkeypatch, iq_model):
    """A fresh store on the in-memory and on the paged engine."""
    monkeypatch.setenv(BACKEND_ENV_VAR, request.param)
    built = AnnotationStore("keyed", iq_model=iq_model)
    yield built
    built.close()


def evidence_nodes(store, item, evidence_type):
    """Every evidence node of one (item, evidence type) pair."""
    return [
        node
        for node in store.graph.objects(item, CONTAINS)
        if (node, RDF.type, evidence_type) in store.graph
    ]


def lookup_counts(store):
    """(hits, misses) of one store on the lookups counter."""
    family = get_registry().counter(
        "repro_annotation_store_lookups_total",
        "Keyed evidence reads by store and hit/miss.",
        labels=("store", "result"),
    )
    return (
        family.labels(store=store.name, result="hit").value,
        family.labels(store=store.name, result="miss").value,
    )


class TestAnnotate:
    def test_lookup_returns_value(self, store):
        store.annotate(D1, Q.HitRatio, 0.8)
        assert store.lookup(D1, Q.HitRatio) == 0.8

    def test_lookup_missing_is_none(self, store):
        assert store.lookup(D1, Q.HitRatio) is None

    def test_annotation_is_rdf_per_fig2(self, store, iq_model):
        node = store.annotate(
            D1, Q.HitRatio, 0.8,
            data_class=iq_model.ImprintHitEntry,
            function=iq_model.ImprintOutputAnnotation,
        )
        g = store.graph
        assert (D1, Q["contains-evidence"], node) in g
        assert (node, RDF.type, Q.HitRatio) in g
        assert (node, Q.value, Literal(0.8)) in g
        assert (node, Q.computedBy, iq_model.ImprintOutputAnnotation) in g
        assert (D1, RDF.type, iq_model.ImprintHitEntry) in g

    def test_rejects_undeclared_evidence_type(self, store):
        with pytest.raises(ValueError):
            store.annotate(D1, Q.NotEvidence, 1)

    def test_untyped_store_accepts_anything(self):
        free = AnnotationStore("free")
        free.annotate(D1, Q.Whatever, 1)
        assert free.lookup(D1, Q.Whatever) == 1

    def test_lookup_all(self, store):
        store.annotate(D1, Q.HitRatio, 0.8)
        store.annotate(D1, Q.Coverage, 0.5)
        assert store.lookup_all(D1) == {Q.HitRatio: 0.8, Q.Coverage: 0.5}

    def test_remove_annotations(self, store):
        store.annotate(D1, Q.HitRatio, 0.8)
        store.annotate(D2, Q.HitRatio, 0.3)
        store.remove_annotations(D1)
        assert store.lookup(D1, Q.HitRatio) is None
        assert store.lookup(D2, Q.HitRatio) == 0.3


class TestKeyedRepository:
    def test_reannotation_replaces_the_value_everywhere(self, any_store):
        """Regression: the second write of a pair used to add a node, so
        keyed and batch reads served the stale first value."""
        any_store.annotate(D1, Q.HitRatio, 0.5)
        any_store.annotate(D1, Q.HitRatio, 0.9)
        assert any_store.lookup(D1, Q.HitRatio) == 0.9
        assert any_store.lookup_batch([D1], Q.HitRatio) == {D1: 0.9}
        assert any_store.lookup_all(D1) == {Q.HitRatio: 0.9}
        enriched = any_store.enrich(AnnotationMap(), [D1], [Q.HitRatio])
        assert enriched.get_evidence(D1, Q.HitRatio) == 0.9
        assert len(evidence_nodes(any_store, D1, Q.HitRatio)) == 1

    def test_repeated_annotation_keeps_the_store_size(self, any_store):
        def one_pass(offset: float) -> None:
            amap = AnnotationMap()
            for index in range(5):
                item = uniprot_lsid(f"P1000{index}")
                amap.set_evidence(item, Q.HitRatio, index + offset)
                amap.set_evidence(item, Q.Coverage, offset)
            any_store.annotate_map(amap)

        one_pass(0.0)
        size = len(any_store)
        for round_index in range(1, 6):
            one_pass(round_index / 10)
            assert len(any_store) == size
        assert any_store.lookup(uniprot_lsid("P10003"), Q.HitRatio) == 3.5

    def test_rewriting_the_current_value_writes_nothing(self, tmp_path, iq_model):
        durable = AnnotationStore(
            "keyed", iq_model=iq_model, directory=str(tmp_path / "s"), sync="none"
        )
        durable.annotate(D1, Q.HitRatio, 0.5, data_class=iq_model.ImprintHitEntry)
        backend = durable.graph.backend
        wal_bytes, terms = backend.wal_size(), len(backend.term_list)
        durable.annotate(D1, Q.HitRatio, 0.5, data_class=iq_model.ImprintHitEntry)
        amap = AnnotationMap()
        amap.set_evidence(D1, Q.HitRatio, 0.5)
        durable.annotate_map(amap, data_class=iq_model.ImprintHitEntry)
        assert backend.wal_size() == wal_bytes
        assert len(backend.term_list) == terms
        durable.close()

    def test_none_retracts_the_pair(self, any_store):
        any_store.annotate(D1, Q.HitRatio, 0.5)
        any_store.annotate(D1, Q.Coverage, 0.4)
        amap = AnnotationMap()
        amap.set_evidence(D1, Q.HitRatio, None)
        assert any_store.annotate_map(amap) == 0
        assert any_store.lookup(D1, Q.HitRatio) is None
        assert any_store.lookup_all(D1) == {Q.Coverage: 0.4}
        assert evidence_nodes(any_store, D1, Q.HitRatio) == []
        assert len(any_store) == 3

    def test_batch_accounting_matches_per_item_lookups(self, iq_model):
        """Every requested occurrence is one lookup and, with a value,
        one hit — duplicates included."""
        stores = [
            AnnotationStore(name, iq_model=iq_model)
            for name in ("per-item", "batched")
        ]
        for each in stores:
            each.annotate(D1, Q.HitRatio, 0.5)
        requested = [D1, D1, D2]
        per_item, batched = stores
        before = [lookup_counts(each) for each in stores]
        values = [per_item.lookup(item, Q.HitRatio) for item in requested]
        found = batched.lookup_batch(requested, Q.HitRatio)
        assert found == {D1: 0.5}
        assert values == [0.5, 0.5, None]
        assert per_item.stats == batched.stats
        assert (batched.stats.lookups, batched.stats.hits) == (3, 2)
        deltas = [
            tuple(after - prior for after, prior in zip(lookup_counts(each), old))
            for each, old in zip(stores, before)
        ]
        assert deltas[0] == deltas[1] == (2, 1)

    def test_enrich_accounting_matches_per_item_lookups(self, store):
        store.annotate(D1, Q.HitRatio, 0.5)
        store.annotate(D2, Q.Coverage, 0.4)
        out = store.enrich(AnnotationMap(), [D1, D2, D1], [Q.HitRatio, Q.Coverage])
        assert out.evidence_for(D1) == {Q.HitRatio: 0.5}
        assert out.evidence_for(D2) == {Q.Coverage: 0.4}
        assert (store.stats.lookups, store.stats.hits) == (6, 3)

    def test_unannotated_items(self, store):
        store.annotate(D1, Q.HitRatio, 0.5)
        d3 = uniprot_lsid("P00003")
        assert store.unannotated_items([D1, D2, d3, D2], Q.HitRatio) == [
            D2, d3, D2
        ]
        assert store.unannotated_items([], Q.HitRatio) == []

    def test_batch_reads_probe_only_the_requested_items(self, store):
        """A keyed batch read costs index probes per requested item,
        independent of how many other items the store holds."""
        amap = AnnotationMap()
        for index in range(300):
            amap.set_evidence(uniprot_lsid(f"Q{index:05d}"), Q.HitRatio, index)
        store.annotate_map(amap)
        probe = store.graph._probe
        scanned = []
        original = probe.scan

        def counting_scan(*pattern):
            for row in original(*pattern):
                scanned.append(row)
                yield row

        probe.scan = counting_scan
        try:
            wanted = [uniprot_lsid("Q00007"), uniprot_lsid("Q00123")]
            assert store.lookup_batch(wanted, Q.HitRatio) == {
                wanted[0]: 7, wanted[1]: 123
            }
        finally:
            del probe.scan
        assert 0 < len(scanned) <= 10 < len(store)


class TestLegacyStores:
    """Durable stores written when every write minted a fresh node."""

    @staticmethod
    def mint(store, counter, item, evidence_type, value):
        """Write one evidence row exactly as the minting store did."""
        node = URIRef(
            f"http://qurator.org/annotation/{store.name}/"
            f"{store._instance_token}e{counter}"
        )
        store.graph.add(item, CONTAINS, node)
        store.graph.add(node, RDF.type, evidence_type)
        store.graph.add(node, Q.value, Literal(value))

    def build(self, directory, iq_model):
        d3 = uniprot_lsid("P00003")
        first = AnnotationStore("legacy", iq_model=iq_model, directory=directory)
        assert first._instance_token == "g1"
        self.mint(first, 5, D1, Q.HitRatio, 0.5)
        self.mint(first, 9, D2, Q.HitRatio, 0.1)
        self.mint(first, 10, D2, Q.HitRatio, 0.2)  # e10 is newer than e9
        self.mint(first, 11, d3, Q.Coverage, 0.7)
        first.close()
        second = AnnotationStore("legacy", iq_model=iq_model, directory=directory)
        assert second._instance_token == "g2"
        self.mint(second, 0, D1, Q.HitRatio, 0.9)  # newer generation wins
        self.mint(second, 1, D1, Q.Coverage, 0.3)
        second.close()
        return {
            (D1, Q.HitRatio): 0.9,
            (D1, Q.Coverage): 0.3,
            (D2, Q.HitRatio): 0.2,
            (d3, Q.Coverage): 0.7,
        }

    def test_reads_follow_newest_wins(self, tmp_path, iq_model):
        expected = self.build(str(tmp_path / "store"), iq_model)
        reopened = AnnotationStore(
            "legacy", iq_model=iq_model, directory=str(tmp_path / "store")
        )
        items = sorted({item for item, _ in expected})
        types = [Q.HitRatio, Q.Coverage]
        for (item, etype), value in expected.items():
            assert reopened.lookup(item, etype) == value
            assert reopened.lookup_batch(items, etype)[item] == value
            assert reopened.lookup_all(item)[etype] == value
        enriched = reopened.enrich(AnnotationMap(), items, types)
        for (item, etype), value in expected.items():
            assert enriched.get_evidence(item, etype) == value
        reopened.close()

    def test_one_reannotation_collapses_each_pair(self, tmp_path, iq_model):
        directory = str(tmp_path / "store")
        expected = self.build(directory, iq_model)
        reopened = AnnotationStore("legacy", iq_model=iq_model, directory=directory)
        amap = AnnotationMap()
        for (item, etype), value in expected.items():
            amap.set_evidence(item, etype, value)
        reopened.annotate_map(amap)
        reopened.close()
        final = AnnotationStore("legacy", iq_model=iq_model, directory=directory)
        for (item, etype), value in expected.items():
            nodes = evidence_nodes(final, item, etype)
            assert nodes == [final._keyed_node(item, etype)]
            assert final.lookup(item, etype) == value
        assert len(final) == 3 * len(expected)
        final.close()


class TestConcurrentUpserts:
    """Writers upsert the same pairs while readers batch-read them."""

    WRITERS = 4
    READERS = 2
    ROUNDS = 30

    def test_one_value_per_pair_under_contention(self, iq_model):
        rng = random.Random(19)
        target = AnnotationStore("hammer", iq_model=iq_model)
        items = [uniprot_lsid(f"H{index:04d}") for index in range(8)]
        types = [Q.HitRatio, Q.Coverage]
        plans = [
            [
                {(item, etype): rng.randrange(1000) for item in items for etype in types}
                for _ in range(self.ROUNDS)
            ]
            for _ in range(self.WRITERS)
        ]
        written = {
            pair: {plan[pair] for rounds in plans for plan in rounds}
            for pair in plans[0][0]
        }
        errors = []
        done = threading.Event()
        barrier = threading.Barrier(self.WRITERS + self.READERS)

        def writer(rounds):
            barrier.wait()
            for plan in rounds:
                amap = AnnotationMap()
                for (item, etype), value in plan.items():
                    amap.set_evidence(item, etype, value)
                target.annotate_map(amap)

        def reader():
            barrier.wait()
            while not done.is_set():
                for etype in types:
                    for item, value in target.lookup_batch(items, etype).items():
                        if value not in written[(item, etype)]:
                            errors.append(f"{item} {etype}: {value!r}")

        writers = [threading.Thread(target=writer, args=(rounds,)) for rounds in plans]
        readers = [threading.Thread(target=reader) for _ in range(self.READERS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # widen the interleavings
        try:
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in writers + readers)
        assert not errors, errors[:5]
        for (item, etype), values in written.items():
            assert len(evidence_nodes(target, item, etype)) == 1
            assert target.lookup(item, etype) in values
        assert len(list(target.graph.triples((None, CONTAINS, None)))) == len(written)
        assert len(target) == 3 * len(written)
        target.close()


class TestMapIntegration:
    def test_annotate_map_roundtrip(self, store):
        amap = AnnotationMap([D1, D2])
        amap.set_evidence(D1, Q.HitRatio, 0.9)
        amap.set_evidence(D2, Q.Coverage, 0.4)
        written = store.annotate_map(amap)
        assert written == 2
        out = store.enrich(AnnotationMap(), [D1, D2], [Q.HitRatio, Q.Coverage])
        assert out.get_evidence(D1, Q.HitRatio) == 0.9
        assert out.get_evidence(D2, Q.Coverage) == 0.4
        assert out.get_evidence(D1, Q.Coverage) is None

    def test_annotate_map_skips_nulls(self, store):
        amap = AnnotationMap([D1])
        amap.set_evidence(D1, Q.HitRatio, None)
        assert store.annotate_map(amap) == 0

    def test_annotated_items_and_types(self, store):
        store.annotate(D1, Q.HitRatio, 0.8)
        assert store.annotated_items() == {D1}
        assert store.evidence_types_present() == {Q.HitRatio}


class TestPersistence:
    def test_save_load_roundtrip(self, store, iq_model):
        store.annotate(D1, Q.HitRatio, 0.8)
        text = store.save()
        fresh = AnnotationStore("test", iq_model=iq_model)
        fresh.load(text)
        assert fresh.lookup(D1, Q.HitRatio) == 0.8

    def test_load_upserts_one_value_per_pair(self, store, iq_model):
        """Loading routes evidence through the keyed write: a pair the
        target already holds ends with the loaded value, once."""
        store.annotate(D1, Q.HitRatio, 0.8)
        store.annotate(D2, Q.Coverage, 0.3, data_class=iq_model.ImprintHitEntry)
        target = AnnotationStore("test", iq_model=iq_model)
        target.annotate(D1, Q.HitRatio, 0.1)
        target.annotate(D2, Q.HitRatio, 0.2)
        target.load(store.save())
        assert target.lookup(D1, Q.HitRatio) == 0.8
        assert target.lookup(D2, Q.HitRatio) == 0.2
        assert target.lookup(D2, Q.Coverage) == 0.3
        assert (D2, RDF.type, iq_model.ImprintHitEntry) in target.graph
        for item, evidence_type in [
            (D1, Q.HitRatio), (D2, Q.HitRatio), (D2, Q.Coverage)
        ]:
            assert len(evidence_nodes(target, item, evidence_type)) == 1
        size = len(target)
        target.load(store.save())
        assert len(target) == size

    def test_load_of_a_minted_store_keeps_the_newest_value(self, iq_model):
        text = "\n".join([
            f"{D1.n3()} {CONTAINS.n3()} <http://qurator.org/annotation/old/g1e9> .",
            f"<http://qurator.org/annotation/old/g1e9> {RDF.type.n3()} {Q.HitRatio.n3()} .",
            f"<http://qurator.org/annotation/old/g1e9> {Q.value.n3()} {Literal(0.5).n3()} .",
            f"{D1.n3()} {CONTAINS.n3()} <http://qurator.org/annotation/old/g1e10> .",
            f"<http://qurator.org/annotation/old/g1e10> {RDF.type.n3()} {Q.HitRatio.n3()} .",
            f"<http://qurator.org/annotation/old/g1e10> {Q.value.n3()} {Literal(0.9).n3()} .",
        ]) + "\n"
        target = AnnotationStore("test", iq_model=iq_model)
        target.load(text)
        assert target.lookup(D1, Q.HitRatio) == 0.9
        assert len(evidence_nodes(target, D1, Q.HitRatio)) == 1


class TestRepositoryManager:
    def test_cache_exists_by_default(self):
        manager = RepositoryManager()
        cache = manager.repository("cache")
        assert not cache.persistent

    def test_create_and_get(self):
        manager = RepositoryManager()
        manager.create("curated", persistent=True)
        assert manager.repository("curated").persistent
        assert "curated" in manager

    def test_duplicate_create_rejected(self):
        manager = RepositoryManager()
        with pytest.raises(ValueError):
            manager.create("cache")

    def test_unknown_repository_error_lists_known(self):
        manager = RepositoryManager()
        with pytest.raises(KeyError, match="cache"):
            manager.repository("nope")

    def test_clear_transient_only(self):
        manager = RepositoryManager()
        manager.create("curated", persistent=True)
        manager.repository("cache").annotate(D1, Q.HitRatio, 1)
        manager.repository("curated").annotate(D1, Q.HitRatio, 1)
        manager.clear_transient()
        assert manager.repository("cache").lookup(D1, Q.HitRatio) is None
        assert manager.repository("curated").lookup(D1, Q.HitRatio) == 1

    def test_cache_cannot_be_dropped(self):
        manager = RepositoryManager()
        with pytest.raises(ValueError):
            manager.drop("cache")


class TestAnnotationFunctions:
    def test_callable_adapter(self, store):
        fn = CallableAnnotationFunction(
            Q["Imprint-output-annotation"],
            [Q.HitRatio],
            lambda item, ctx: {Q.HitRatio: 0.7},
        )
        amap = fn.annotate_into(store, [D1], {Q.HitRatio})
        assert amap.get_evidence(D1, Q.HitRatio) == 0.7
        assert store.lookup(D1, Q.HitRatio) == 0.7

    def test_unsupported_evidence_rejected(self, store):
        fn = CallableAnnotationFunction(
            Q["Imprint-output-annotation"],
            [Q.HitRatio],
            lambda item, ctx: {},
        )
        with pytest.raises(ValueError):
            fn.annotate_into(store, [D1], {Q.Coverage})

    def test_restricts_to_requested_evidence(self):
        fn = CallableAnnotationFunction(
            Q["Imprint-output-annotation"],
            [Q.HitRatio, Q.Coverage],
            lambda item, ctx: {Q.HitRatio: 1.0, Q.Coverage: 0.5},
        )
        amap = fn.annotate([D1], {Q.HitRatio})
        assert amap.get_evidence(D1, Q.Coverage) is None
