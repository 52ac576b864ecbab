"""Differential testing: planned execution vs the naive evaluator.

The planner (:mod:`repro.rdf.sparql.plan`) reorders joins, pushes
filters into the join loop, and binds into reused arrays — none of
which may change *what* a query returns, only how fast.  This suite
generates random graphs and random BGP/FILTER/OPTIONAL/UNION queries
and asserts the two execution paths produce the same multiset of
solutions, then hammers one shared graph from eight threads with the
plan cache on and off to show cached plans are safe to share.  Seed
relations (a prepared ``$param`` bound to a list of terms) are checked
the same way against :meth:`PreparedQuery.naive`, and against the
union of one scalar execution per seed.
"""

from __future__ import annotations

import random
import threading
from collections import Counter
from typing import List, Tuple

import pytest

from repro.rdf import Graph, Literal, URIRef
from repro.rdf.sparql import compile_query, prepare, reset_plan_cache
from repro.storage import PagedBackend

EX = "http://example.org/"

SUBJECTS = [URIRef(f"{EX}s{i}") for i in range(6)]
PREDICATES = [URIRef(f"{EX}p{i}") for i in range(4)]
OBJECT_IRIS = [URIRef(f"{EX}o{i}") for i in range(4)] + SUBJECTS[:2]
VARIABLES = ["a", "b", "c", "d"]


def random_graph(rng: random.Random, n_triples: int) -> Graph:
    graph = Graph()
    for _ in range(n_triples):
        subject = rng.choice(SUBJECTS)
        predicate = rng.choice(PREDICATES)
        if rng.random() < 0.4:
            obj = Literal(rng.randint(0, 9))
        else:
            obj = rng.choice(OBJECT_IRIS)
        graph.add(subject, predicate, obj)
    return graph


def random_term(rng: random.Random, kind: str) -> str:
    """One position of a triple pattern, as query text."""
    if rng.random() < 0.5:
        return f"?{rng.choice(VARIABLES)}"
    if kind == "subject":
        return rng.choice(SUBJECTS).n3()
    if kind == "predicate":
        return rng.choice(PREDICATES).n3()
    if rng.random() < 0.4:
        return str(rng.randint(0, 9))
    return rng.choice(OBJECT_IRIS).n3()


def random_bgp(rng: random.Random) -> str:
    patterns = []
    for _ in range(rng.randint(1, 3)):
        patterns.append(
            f"{random_term(rng, 'subject')} "
            f"{random_term(rng, 'predicate')} "
            f"{random_term(rng, 'object')} ."
        )
    return "\n".join(patterns)


def random_group(rng: random.Random, depth: int = 0) -> str:
    """A group graph pattern mixing BGPs, OPTIONAL, UNION and FILTER."""
    body = random_bgp(rng)
    roll = rng.random()
    if depth < 2 and roll < 0.25:
        body += f"\nOPTIONAL {{ {random_group(rng, depth + 1)} }}"
    elif depth < 2 and roll < 0.45:
        body = (
            f"{{ {body} }} UNION {{ {random_group(rng, depth + 1)} }}"
        )
    if rng.random() < 0.4:
        var = rng.choice(VARIABLES)
        op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
        body += f"\nFILTER (?{var} {op} {rng.randint(0, 9)})"
    return body


def used_variables(group: str) -> List[str]:
    return sorted({name for name in VARIABLES if f"?{name}" in group})


def random_query(rng: random.Random) -> str:
    group = random_group(rng)
    names = used_variables(group) or ["a"]
    projection = " ".join(f"?{name}" for name in names)
    return f"SELECT {projection} WHERE {{\n{group}\n}}"


def solutions(result) -> Counter:
    """Rows as a canonical multiset (bindings order-insensitive)."""
    return Counter(
        tuple(sorted((str(var), value.n3()) for var, value in row.items()))
        for row in result.rows
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_plan_cache()
    yield
    reset_plan_cache()


class TestPlannedEqualsNaive:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_query_same_multiset(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(5, 60))
        query = random_query(rng)
        planned = graph.query(query)
        naive = graph.query(query, use_planner=False)
        assert solutions(planned) == solutions(naive), query

    @pytest.mark.parametrize("seed", range(20))
    def test_ask_agrees(self, seed):
        rng = random.Random(1000 + seed)
        graph = random_graph(rng, rng.randint(5, 40))
        query = f"ASK {{\n{random_group(rng)}\n}}"
        planned = graph.query(query)
        naive = graph.query(query, use_planner=False)
        assert planned.boolean == naive.boolean, query

    def test_optional_with_outer_filter_scoping(self):
        """FILTER on an OPTIONAL-bound variable: the classic trap."""
        graph = Graph()
        p, q = PREDICATES[0], PREDICATES[1]
        graph.add(SUBJECTS[0], p, Literal(1))
        graph.add(SUBJECTS[1], p, Literal(2))
        graph.add(SUBJECTS[1], q, Literal(5))
        query = f"""
        SELECT ?s ?x ?y WHERE {{
          ?s {p.n3()} ?x .
          OPTIONAL {{ ?s {q.n3()} ?y . }}
          FILTER (?y > 1)
        }}
        """
        planned = graph.query(query)
        naive = graph.query(query, use_planner=False)
        assert solutions(planned) == solutions(naive)

    def test_filter_inside_optional(self):
        graph = Graph()
        p, q = PREDICATES[0], PREDICATES[1]
        for index, subject in enumerate(SUBJECTS):
            graph.add(subject, p, Literal(index))
            graph.add(subject, q, Literal(index * 2))
        query = f"""
        SELECT ?s ?y WHERE {{
          ?s {p.n3()} ?x .
          OPTIONAL {{ ?s {q.n3()} ?y . FILTER (?y >= 6) }}
        }}
        """
        planned = graph.query(query)
        naive = graph.query(query, use_planner=False)
        assert solutions(planned) == solutions(naive)
        assert len(planned) == len(SUBJECTS)

    def test_cross_group_join_variable(self):
        """Shared variable across a UNION boundary."""
        graph = Graph()
        p, q = PREDICATES[0], PREDICATES[1]
        graph.add(SUBJECTS[0], p, OBJECT_IRIS[0])
        graph.add(OBJECT_IRIS[0], q, Literal(3))
        query = f"""
        SELECT ?a ?b WHERE {{
          ?a {p.n3()} ?b .
          {{ ?b {q.n3()} ?c . }} UNION {{ ?a {q.n3()} ?c . }}
        }}
        """
        assert solutions(graph.query(query)) == solutions(
            graph.query(query, use_planner=False)
        )


#: Seed candidates: terms in the graph, literals, and terms the graph's
#: dictionary has never seen.
ABSENT = [URIRef(f"{EX}absent{i}") for i in range(2)]


def random_seeds(rng: random.Random) -> List:
    pool = SUBJECTS * 3 + OBJECT_IRIS + ABSENT + [Literal(i) for i in range(3)]
    return [rng.choice(pool) for _ in range(rng.randint(0, 8))]


def seeded_query(rng: random.Random) -> str:
    """A random SELECT over the ``$a`` parameter.

    ``$a`` always anchors one triple pattern, extended by a join, an
    OPTIONAL, a UNION branch or a random group, and maybe a FILTER.
    """
    body = f"?a {rng.choice(PREDICATES).n3()} ?b ."
    roll = rng.random()
    if roll < 0.25:
        body += f"\n?b {rng.choice(PREDICATES).n3()} ?c ."
    elif roll < 0.5:
        body += f"\nOPTIONAL {{ ?a {rng.choice(PREDICATES).n3()} ?c . }}"
    elif roll < 0.7:
        body = (
            f"{{ {body} }} UNION "
            f"{{ ?a {rng.choice(PREDICATES).n3()} ?c . }}"
        )
    else:
        body += f"\nOPTIONAL {{ {random_group(rng)} }}"
    if rng.random() < 0.4:
        op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
        body += f"\nFILTER (?{rng.choice('bc')} {op} {rng.randint(0, 9)})"
    projection = " ".join(f"?{name}" for name in used_variables(body))
    text = f"SELECT {projection} WHERE {{\n{body}\n}}"
    return text.replace("?a", "$a")


class TestSeedRelations:
    """``$param`` bound to a list: planned == naive == per-seed union."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_seeded_query(self, seed):
        rng = random.Random(5000 + seed)
        graph = random_graph(rng, rng.randint(20, 60))
        query = prepare(seeded_query(rng))
        seeds = random_seeds(rng)
        planned = solutions(query.execute(graph, a=seeds))
        assert planned == solutions(query.naive(graph, a=seeds))
        union: Counter = Counter()
        for term in seeds:
            union += solutions(query.execute(graph, a=term))
        assert planned == union

    def fixture_graph(self) -> Graph:
        graph = Graph()
        p, q = PREDICATES[0], PREDICATES[1]
        for index, subject in enumerate(SUBJECTS):
            graph.add(subject, p, Literal(index))
            if index % 2:
                graph.add(subject, q, OBJECT_IRIS[index % 4])
        return graph

    def both(self, text: str, graph: Graph, **params):
        query = prepare(text)
        return query.execute(graph, **params), query.naive(graph, **params)

    def test_empty_seed_list(self):
        graph = self.fixture_graph()
        text = f"SELECT ?x WHERE {{ $s {PREDICATES[0].n3()} ?x . }}"
        planned, naive = self.both(text, graph, s=[])
        assert len(planned) == len(naive) == 0
        ask = f"ASK {{ $s {PREDICATES[0].n3()} ?x . }}"
        planned, naive = self.both(ask, graph, s=[])
        assert planned.boolean is naive.boolean is False

    def test_duplicate_seeds_keep_multiplicity(self):
        graph = self.fixture_graph()
        text = f"SELECT $s ?x WHERE {{ $s {PREDICATES[0].n3()} ?x . }}"
        seeds = [SUBJECTS[1], SUBJECTS[1], SUBJECTS[2]]
        planned, naive = self.both(text, graph, s=seeds)
        assert solutions(planned) == solutions(naive)
        assert len(planned) == 3

    def test_absent_seeds_match_nothing(self):
        graph = self.fixture_graph()
        text = f"SELECT $s ?x WHERE {{ $s {PREDICATES[0].n3()} ?x . }}"
        planned, naive = self.both(text, graph, s=ABSENT + [SUBJECTS[0]])
        assert solutions(planned) == solutions(naive)
        assert [row[0] for row in planned] == [SUBJECTS[0]]

    def test_seeds_with_optional_and_filter(self):
        graph = self.fixture_graph()
        p, q = PREDICATES[0], PREDICATES[1]
        text = f"""
        SELECT $s ?x ?y WHERE {{
          $s {p.n3()} ?x .
          OPTIONAL {{ $s {q.n3()} ?y . }}
          FILTER (?x >= 1)
        }}
        """
        planned, naive = self.both(text, graph, s=SUBJECTS[:4] + ABSENT)
        assert solutions(planned) == solutions(naive)
        assert len(planned) == 3

    def test_seeds_with_order_by_and_limit(self):
        graph = self.fixture_graph()
        text = f"""
        SELECT $s ?x WHERE {{ $s {PREDICATES[0].n3()} ?x . }}
        ORDER BY DESC(?x) LIMIT 2
        """
        seeds = [SUBJECTS[0], SUBJECTS[3], SUBJECTS[5], SUBJECTS[1]]
        planned, naive = self.both(text, graph, s=seeds)
        assert list(planned) == list(naive)
        assert [row[1] for row in planned] == [Literal(5), Literal(3)]

    def test_ask_over_seeds(self):
        graph = self.fixture_graph()
        ask = f"ASK {{ $s {PREDICATES[1].n3()} ?y . }}"
        for seeds, expected in [
            ([SUBJECTS[0], SUBJECTS[2]], False),
            ([SUBJECTS[0], SUBJECTS[3]], True),
            (ABSENT, False),
        ]:
            planned, naive = self.both(ask, graph, s=seeds)
            assert planned.boolean is naive.boolean is expected

    def test_two_seeded_parameters_join_their_product(self):
        graph = self.fixture_graph()
        text = "SELECT $s $p ?o WHERE { $s $p ?o . }"
        params = {"s": SUBJECTS[:3], "p": list(PREDICATES[:2])}
        planned, naive = self.both(text, graph, **params)
        assert solutions(planned) == solutions(naive)
        assert len(planned) == 4

    @pytest.mark.parametrize("seed", range(8))
    def test_memory_and_paged_agree(self, seed, tmp_path):
        rng = random.Random(7000 + seed)
        memory = random_graph(rng, rng.randint(20, 60))
        paged = Graph(backend=PagedBackend(str(tmp_path / "s"), sync="none"))
        paged.add_all(memory)
        query = prepare(seeded_query(rng))
        seeds = random_seeds(rng)
        try:
            assert solutions(query.execute(paged, a=seeds)) == solutions(
                query.execute(memory, a=seeds)
            )
        finally:
            paged.close()


class TestConcurrentHammer:
    """One shared graph, eight threads, cache on vs off: same answers."""

    THREADS = 8
    ROUNDS = 25

    def _hammer(self, use_cache: bool) -> None:
        rng = random.Random(7)
        graph = random_graph(rng, 80)
        cases: List[Tuple[str, Counter]] = []
        for _ in range(6):
            query = random_query(rng)
            cases.append(
                (query, solutions(graph.query(query, use_planner=False)))
            )
        reset_plan_cache(capacity=4)  # smaller than the working set
        errors: List[str] = []
        barrier = threading.Barrier(self.THREADS)

        def worker(worker_index: int) -> None:
            local = random.Random(worker_index)
            barrier.wait()
            for _ in range(self.ROUNDS):
                query, expected = local.choice(cases)
                try:
                    got = solutions(
                        graph.query(query, use_cache=use_cache)
                    )
                    if got != expected:
                        errors.append(f"divergent rows for:\n{query}")
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(f"{type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:5]

    def test_cache_on(self):
        self._hammer(use_cache=True)

    def test_cache_off(self):
        self._hammer(use_cache=False)

    def test_shared_compiled_plan_across_threads(self):
        rng = random.Random(11)
        graph = random_graph(rng, 60)
        query = random_query(rng)
        expected = solutions(graph.query(query, use_planner=False))
        compiled = compile_query(query)
        errors: List[str] = []

        def worker() -> None:
            for _ in range(20):
                if solutions(compiled.execute(graph)) != expected:
                    errors.append("shared plan diverged")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
