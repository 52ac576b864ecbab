"""Differential testing of the storage backends (E6/E16/E22).

A durable graph — paged sorted runs behind a WAL — must be
*indistinguishable* from the in-memory one at the query layer:
identical planned and naive results, identical stats-driven join
orders, identical serialized bytes — on a freshly written store, and
again after close + reopen (runs + WAL replay).  The paged engine
additionally proves crash safety at *every* WAL byte boundary.  The
annotation repository and the durable serving tier get the same
treatment: warm annotations and registered views must survive a
restart with byte-equal responses and no client re-registration.
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
from collections import Counter

import pytest

from repro.annotation import AnnotationStore
from repro.rdf import Graph, Literal, Q, URIRef
from repro.rdf.lsid import uniprot_lsid
from repro.rdf.sparql import explain, reset_plan_cache
from repro.storage import MemoryBackend, PagedBackend

#: The durable engines the memory oracle is compared against.
DURABLE_BACKENDS = {"paged": PagedBackend}


def durable_backend(engine: str, directory: str, sync: str = "none"):
    return DURABLE_BACKENDS[engine](directory, sync=sync)

EX = "http://example.org/"
SUBJECTS = [URIRef(f"{EX}s{i}") for i in range(8)]
PREDICATES = [URIRef(f"{EX}p{i}") for i in range(4)]


def seeded_triples(seed: int, n: int):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        obj = (
            Literal(rng.randint(0, 9))
            if rng.random() < 0.5
            else rng.choice(SUBJECTS)
        )
        out.append((rng.choice(SUBJECTS), rng.choice(PREDICATES), obj))
    return out


QUERIES = [
    # A join whose best order depends on predicate statistics.
    f"""SELECT ?s ?x ?y WHERE {{
        ?s <{EX}p0> ?x .
        ?s <{EX}p1> ?y .
    }}""",
    f"""SELECT ?s ?v WHERE {{
        ?s <{EX}p2> ?v .
        FILTER (?v > 3)
    }}""",
    f"""SELECT ?a ?b WHERE {{
        ?a <{EX}p0> ?b .
        OPTIONAL {{ ?b <{EX}p3> ?c . }}
    }}""",
    f"""SELECT ?s WHERE {{
        {{ ?s <{EX}p0> ?x . }} UNION {{ ?s <{EX}p1> ?x . }}
    }}""",
    "ASK { ?s ?p ?o }",
]


def solutions(result) -> Counter:
    if result.boolean is not None:
        return Counter([("boolean", result.boolean)])
    return Counter(
        tuple(sorted((str(var), value.n3()) for var, value in row.items()))
        for row in result.rows
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_plan_cache()
    yield
    reset_plan_cache()


@pytest.fixture(params=["memory", "paged"])
def make_graph(request, tmp_path):
    """A factory for backend-parametrized graphs (closed at teardown)."""
    opened = []
    counter = iter(range(10_000))

    def factory() -> Graph:
        if request.param == "memory":
            graph = Graph(backend=MemoryBackend())
        else:
            directory = str(tmp_path / f"store-{next(counter)}")
            graph = Graph(
                backend=durable_backend(request.param, directory)
            )
        opened.append(graph)
        return graph

    factory.backend = request.param
    yield factory
    for graph in opened:
        graph.close()


class TestQueryParityAcrossBackends:
    @pytest.mark.parametrize("seed", range(8))
    def test_planned_equals_naive_on_written_store(self, make_graph, seed):
        graph = make_graph()
        graph.add_all(seeded_triples(seed, 80))
        for query in QUERIES:
            planned = graph.query(query)
            naive = graph.query(query, use_planner=False)
            assert solutions(planned) == solutions(naive), query

    @pytest.mark.parametrize("engine", sorted(DURABLE_BACKENDS))
    @pytest.mark.parametrize("seed", range(4))
    def test_durable_matches_memory_byte_for_byte(
        self, tmp_path, seed, engine
    ):
        triples = seeded_triples(100 + seed, 90)
        memory = Graph(backend=MemoryBackend())
        memory.add_all(triples)
        durable = Graph(
            backend=durable_backend(engine, str(tmp_path / f"d{seed}"))
        )
        durable.add_all(triples)
        assert memory.serialize() == durable.serialize()
        for query in QUERIES:
            assert solutions(memory.query(query)) == solutions(
                durable.query(query)
            ), query
        durable.close()

    @pytest.mark.parametrize("engine", sorted(DURABLE_BACKENDS))
    @pytest.mark.parametrize("seed", range(4))
    def test_reopened_store_answers_identically(
        self, tmp_path, seed, engine
    ):
        triples = seeded_triples(200 + seed, 70)
        directory = str(tmp_path / "store")
        graph = Graph(
            backend=durable_backend(engine, directory, sync="always")
        )
        graph.add_all(triples)
        # A few incremental mutations so the WAL has DELETE records too.
        for t in triples[:5]:
            graph.remove(*t)
        before = {
            query: (
                solutions(graph.query(query)),
                solutions(graph.query(query, use_planner=False)),
            )
            for query in QUERIES
        }
        serialized = graph.serialize()
        graph.close()

        reopened = Graph(backend=durable_backend(engine, directory))
        assert reopened.serialize() == serialized
        for query in QUERIES:
            planned = solutions(reopened.query(query))
            naive = solutions(reopened.query(query, use_planner=False))
            assert (planned, naive) == before[query], query
        reopened.close()

    @pytest.mark.parametrize("engine", sorted(DURABLE_BACKENDS))
    def test_join_order_survives_reopen(self, tmp_path, engine):
        """plan.py reads live predicate stats through the probe; the
        persisted stats must reproduce the same greedy join order
        after a restart on the durable engine."""
        directory = str(tmp_path / "store")
        graph = Graph(
            backend=durable_backend(engine, directory, sync="always")
        )
        # p0 is common (unselective), p1 is rare (selective): the
        # planner must start with p1 both before and after reopen.
        for i in range(40):
            graph.add(SUBJECTS[i % 8], PREDICATES[0], Literal(i))
        graph.add(SUBJECTS[0], PREDICATES[1], Literal("rare"))
        query = f"""SELECT ?s ?x ?y WHERE {{
            ?s <{EX}p0> ?x .
            ?s <{EX}p1> ?y .
        }}"""
        def plan_lines(graph: Graph):
            # Drop the plan-cache statistics line: hit counters differ
            # between the first and second explain, join order may not.
            return [
                line for line in explain(graph, query).splitlines()
                if "cache" not in line
            ]

        plan_before = plan_lines(graph)
        graph.close()
        reopened = Graph(backend=durable_backend(engine, directory))
        assert plan_lines(reopened) == plan_before
        plan_before = "\n".join(plan_before)
        assert f"{EX}p1" in plan_before.splitlines()[0] or (
            plan_before.index(f"{EX}p1") < plan_before.index(f"{EX}p0")
        )
        reopened.close()


class TestPagedCrashRecovery:
    """Satellite 3: the paged engine's reopen-after-crash parity at
    every WAL byte boundary — each torn tail must replay to exactly the
    last committed state, with planned/naive query parity intact."""

    def test_reopen_at_every_wal_byte_boundary(self, tmp_path):
        live_dir = str(tmp_path / "live")
        graph = Graph(backend=PagedBackend(live_dir, sync="always"))
        graph.add_all(seeded_triples(7, 40))
        # Checkpoint so the committed state spans sorted runs *and*
        # the WAL tail that follows — replay must compose both.
        assert graph.backend.checkpoint()
        extra = seeded_triples(8, 6)
        graph.add_all(extra)
        graph.remove(*extra[0])
        committed = sorted(graph.triples(), key=repr)
        answers = {q: solutions(graph.query(q)) for q in QUERIES}
        base_size = (pathlib.Path(live_dir) / "store.wal").stat().st_size
        # One more committed mutation: the record we will tear.  The
        # crash image is copied while the store is live — a clean
        # close would checkpoint and empty the WAL.
        graph.add(SUBJECTS[0], PREDICATES[3], Literal("tail"))
        crashed = tmp_path / "crashed"
        shutil.copytree(live_dir, crashed)
        graph.close()
        directory = str(crashed)
        wal_path = crashed / "store.wal"
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
            for query in QUERIES:
                planned = solutions(reopened.query(query))
                naive = solutions(reopened.query(query, use_planner=False))
                assert planned == naive == answers[query], (cut, query)
            outcome = backend.describe()["recovery"]["outcome"]
            assert outcome in ("clean", "torn_tail")
            reopened.close()
            # Recovery truncates the torn tail; restore the scenario.
            wal_path.write_bytes(full)

        # And the untouched full WAL replays the final triple.
        backend = PagedBackend(directory, sync="none")
        reopened = Graph(backend=backend)
        assert (SUBJECTS[0], PREDICATES[3], Literal("tail")) in reopened
        reopened.close()


class TestAnnotationStoreParity:
    ITEMS = [uniprot_lsid(f"P{i:05d}") for i in range(1, 9)]

    def annotate_all(self, store: AnnotationStore) -> None:
        for index, item in enumerate(self.ITEMS):
            store.annotate(item, Q.HitRatio, round(0.1 * index, 2))
            if index % 2:
                store.annotate(item, Q.Coverage, index)

    def test_durable_store_answers_like_memory(self, tmp_path):
        memory = AnnotationStore("mem")
        durable = AnnotationStore(
            "durable", directory=str(tmp_path / "repo"), sync="none"
        )
        assert not memory.durable and durable.durable
        self.annotate_all(memory)
        self.annotate_all(durable)
        for item in self.ITEMS:
            assert memory.lookup_all(item) == durable.lookup_all(item)
        durable.close()

    def test_warm_annotations_survive_restart(self, tmp_path):
        directory = str(tmp_path / "repo")
        store = AnnotationStore("r", directory=directory, sync="always")
        self.annotate_all(store)
        expected = {item: store.lookup_all(item) for item in self.ITEMS}
        store.close()

        reopened = AnnotationStore("r", directory=directory, sync="none")
        for item in self.ITEMS:
            assert reopened.lookup_all(item) == expected[item]
        # Restarted stores must keep minting fresh evidence nodes — the
        # generation-scoped instance token prevents collisions with
        # nodes persisted by the previous process.
        persisted_nodes = {
            str(o) for _, p, o in reopened.graph.triples()
            if str(p).endswith("contains-evidence")
        }
        node = reopened.annotate(self.ITEMS[0], Q.Coverage, 42)
        assert str(node) not in persisted_nodes
        assert reopened.lookup(self.ITEMS[0], Q.Coverage) == 42
        reopened.close()


class TestDurableServingRestart:
    def test_views_and_enactments_survive_restart(
        self, tmp_path, scenario, result_set
    ):
        from repro.core.ispider import example_quality_view_xml, setup_framework
        from repro.serving import QualityViewServer, ServingConfig

        xml = example_quality_view_xml()
        run_ids = sorted(
            {result_set.run_id(item) for item in result_set.items()}
        )
        datasets = {
            run_id: result_set.items_of_run(run_id) for run_id in run_ids
        }
        dataset_name = run_ids[0]
        store_dir = str(tmp_path / "serve-store")

        def build_server():
            framework, holder = setup_framework(scenario)
            holder.set(result_set)
            runtime = framework.runtime(
                workers=2, queue_size=16, queue_policy="reject",
                name="restart-test",
            )
            config = ServingConfig(
                port=0, storage_dir=store_dir, storage_sync="always",
                quota_rate=1000.0, quota_burst=1000.0,
            )
            return QualityViewServer(
                framework, runtime, config=config, datasets=datasets
            ), runtime

        server, runtime = build_server()
        try:
            status, _, body, _ = server.dispatch(
                "PUT", "/views/qv-durable", xml.encode("utf-8"),
                {"Content-Type": "application/xml", "X-Tenant": "alice"},
            )
            assert status == 201
            status, _, body, _ = server.dispatch(
                "POST", "/views/qv-durable/enact",
                json.dumps({"dataset": dataset_name, "wait": True}).encode("utf-8"),
                {"Content-Type": "application/json", "X-Tenant": "alice"},
            )
            assert status == 200
            first = json.loads(body)["result"]
            status, _, body, _ = server.dispatch("GET", "/healthz")
            health = json.loads(body)
            assert health["storage"]["durable"] is True
            assert "views" in health["storage"]["stores"]
        finally:
            server.close()
            runtime.shutdown(drain=True)

        # -- a brand-new process opens the same store directory --------
        server, runtime = build_server()
        try:
            status, _, body, _ = server.dispatch("GET", "/views")
            views = json.loads(body)["views"]
            assert [v["name"] for v in views] == ["qv-durable"]
            assert views[0]["restored"] is True
            status, _, body, _ = server.dispatch(
                "POST", "/views/qv-durable/enact",
                json.dumps({"dataset": dataset_name, "wait": True}).encode("utf-8"),
                {"Content-Type": "application/json", "X-Tenant": "alice"},
            )
            assert status == 200
            second = json.loads(body)["result"]
            assert json.dumps(first, sort_keys=True) == json.dumps(
                second, sort_keys=True
            )
        finally:
            server.close()
            runtime.shutdown(drain=True)
