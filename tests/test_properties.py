"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import string

from hypothesis import given, settings, strategies as st

from repro.annotation import AnnotationMap
from repro.process.actions import DEFAULT_GROUP, FilterAction, SplitterAction
from repro.proteomics.digest import tryptic_digest
from repro.proteomics.masses import RESIDUE_MONO, WATER_MONO, peptide_mass
from repro.qa.classifier import ScoreSummary, mean_and_stddev
from repro.rdf import Graph, Literal, Namespace, Triple, URIRef
from repro.rdf.serializer import parse_ntriples, to_ntriples

EX = Namespace("http://example.org/")

# -- strategies ---------------------------------------------------------------

uri_names = st.text(
    alphabet=string.ascii_letters + string.digits, min_size=1, max_size=8
)
uris = uri_names.map(lambda n: EX[n])
literal_values = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.booleans(),
)
rdf_objects = st.one_of(uris, literal_values.map(Literal))
triples = st.builds(Triple, uris, uris, rdf_objects)
sequences = st.text(alphabet="".join(RESIDUE_MONO), min_size=1, max_size=200)


# -- graph invariants -----------------------------------------------------------


@given(st.lists(triples, max_size=60))
def test_graph_len_equals_distinct_triples(triple_list):
    g = Graph()
    g.add_all(triple_list)
    assert len(g) == len(set(triple_list))


@given(st.lists(triples, max_size=40))
def test_graph_ntriples_roundtrip(triple_list):
    g = Graph()
    g.add_all(triple_list)
    g2 = Graph()
    for t in parse_ntriples(to_ntriples(g)):
        g2.add(t)
    assert g2 == g


@given(st.lists(triples, max_size=40), st.lists(triples, max_size=40))
def test_graph_set_operations_are_set_semantics(a_list, b_list):
    a, b = Graph().add_all(a_list), Graph().add_all(b_list)
    sa, sb = set(a), set(b)
    assert set(a + b) == sa | sb
    assert set(a - b) == sa - sb
    assert set(a & b) == sa & sb


@given(st.lists(triples, min_size=1, max_size=40), st.data())
def test_graph_pattern_matches_are_consistent(triple_list, data):
    g = Graph().add_all(triple_list)
    target = data.draw(st.sampled_from(triple_list))
    assert target in g
    assert target in set(g.triples((target.subject, None, None)))
    assert target in set(g.triples((None, target.predicate, None)))
    assert target in set(g.triples((None, None, target.object)))


@given(st.lists(triples, max_size=40))
def test_graph_remove_then_absent(triple_list):
    g = Graph().add_all(triple_list)
    for t in triple_list:
        g.remove(*t)
    assert len(g) == 0


# -- mass/digest invariants -------------------------------------------------------


@given(sequences)
def test_peptide_mass_positive_and_additive(sequence):
    mass = peptide_mass(sequence)
    assert mass > WATER_MONO
    if len(sequence) > 1:
        left = peptide_mass(sequence[:1])
        right = peptide_mass(sequence[1:])
        assert abs((left + right - WATER_MONO) - mass) < 1e-6


@given(sequences, st.integers(min_value=0, max_value=3))
def test_digest_fragments_are_substrings(sequence, missed):
    for peptide in tryptic_digest(sequence, missed_cleavages=missed, min_length=1):
        assert sequence[peptide.start:peptide.end] == peptide.sequence
        assert peptide.missed_cleavages <= missed


@given(sequences)
def test_limit_digest_is_a_partition(sequence):
    peptides = tryptic_digest(
        sequence, missed_cleavages=0, min_length=1, max_length=10**6
    )
    reconstructed = "".join(p.sequence for p in peptides)
    assert reconstructed == sequence


@given(sequences, st.integers(min_value=1, max_value=3))
def test_digest_monotone_in_missed_cleavages(sequence, missed):
    fewer = tryptic_digest(sequence, missed_cleavages=missed - 1, min_length=1)
    more = tryptic_digest(sequence, missed_cleavages=missed, min_length=1)
    assert {p.sequence for p in fewer} <= {p.sequence for p in more}


# -- statistics --------------------------------------------------------------------


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
def test_mean_stddev_bounds(values):
    mean, std = mean_and_stddev(values)
    assert min(values) - 1e-9 <= mean <= max(values) + 1e-9
    assert std >= 0.0


@given(
    st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50),
    st.floats(min_value=-50, max_value=50),
)
def test_mean_shift_invariance(values, shift):
    mean_a, std_a = mean_and_stddev(values)
    mean_b, std_b = mean_and_stddev([v + shift for v in values])
    assert abs((mean_a + shift) - mean_b) < 1e-6
    assert abs(std_a - std_b) < 1e-6


def _bits(pair):
    return tuple(value.hex() for value in pair)


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
    st.randoms(use_true_random=False),
)
def test_mean_stddev_is_permutation_invariant_to_the_bit(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert _bits(mean_and_stddev(values)) == _bits(mean_and_stddev(shuffled))


@given(
    st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=40),
    st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=40),
    st.randoms(use_true_random=False),
)
def test_running_summary_matches_the_batch_statistics(kept, transient, rng):
    """Adds and removes in any interleaving reproduce the batch bits."""
    operations = [("add", v) for v in kept] + [("add", v) for v in transient]
    rng.shuffle(operations)
    summary = ScoreSummary()
    pending = list(transient)
    for operation, value in operations:
        summary.add(value)
        # retract a transient value once it has been added
        if operation == "add" and value in pending and rng.random() < 0.5:
            pending.remove(value)
            summary.remove(value)
    for value in pending:
        summary.remove(value)
    assert summary.n == len(kept)
    assert _bits(summary.mean_and_stddev()) == _bits(mean_and_stddev(kept))


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=20),
    st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_non_finite_scores_propagate_like_float_arithmetic(finite, special, rng):
    """nan/inf reach the statistics as a float sum would carry them,
    and taking them back restores the finite collection's bits."""
    values = finite + special
    rng.shuffle(values)
    mean, std = mean_and_stddev(values)
    naive = math.fsum(finite) + sum(special)
    assert (math.isnan(mean) and math.isnan(naive)) or mean == naive
    assert std == 0.0 if len(values) == 1 else math.isnan(std)
    summary = ScoreSummary(values)
    for value in special:
        summary.remove(value)
    if finite:
        assert _bits(summary.mean_and_stddev()) == _bits(mean_and_stddev(finite))
    else:
        assert summary.n == 0


# -- action invariants ----------------------------------------------------------------


items_and_scores = st.lists(
    st.tuples(uri_names, st.floats(min_value=0, max_value=100)),
    min_size=0,
    max_size=30,
    unique_by=lambda pair: pair[0],
)


@given(items_and_scores, st.floats(min_value=0, max_value=100))
def test_splitter_covers_all_items(pairs, threshold):
    amap = AnnotationMap()
    items = []
    for name, score in pairs:
        item = EX[name]
        items.append(item)
        amap.set_tag(item, "score", score)
    splitter = SplitterAction(
        "s", [("hi", f"score > {threshold}"), ("lo", f"score <= {threshold}")]
    )
    outcome = splitter.execute(items, amap)
    routed = (
        set(outcome.items("hi"))
        | set(outcome.items("lo"))
        | set(outcome.items(DEFAULT_GROUP))
    )
    assert routed == set(items)
    # hi and lo partition exactly (no item matches both conditions)
    assert not set(outcome.items("hi")) & set(outcome.items("lo"))
    assert outcome.items(DEFAULT_GROUP) == []


@given(items_and_scores, st.floats(min_value=0, max_value=100))
def test_filter_is_splitter_special_case(pairs, threshold):
    amap = AnnotationMap()
    items = []
    for name, score in pairs:
        item = EX[name]
        items.append(item)
        amap.set_tag(item, "score", score)
    condition = f"score > {threshold}"
    filtered = FilterAction("f", condition).execute(items, amap)
    split = SplitterAction("s", [("keep", condition)]).execute(items, amap)
    assert filtered.items(FilterAction.ACCEPTED) == split.items("keep")


@given(items_and_scores)
def test_filter_preserves_order_and_subsets(pairs):
    amap = AnnotationMap()
    items = []
    for name, score in pairs:
        item = EX[name]
        items.append(item)
        amap.set_tag(item, "score", score)
    outcome = FilterAction("f", "score >= 50").execute(items, amap)
    kept = outcome.items(FilterAction.ACCEPTED)
    positions = [items.index(i) for i in kept]
    assert positions == sorted(positions)
    assert set(kept) <= set(items)


# -- annotation map invariants ------------------------------------------------------


@given(
    st.lists(uri_names, max_size=20, unique=True),
    st.lists(uri_names, max_size=20, unique=True),
)
def test_annotation_map_merge_union(names_a, names_b):
    a = AnnotationMap(EX[n] for n in names_a)
    b = AnnotationMap(EX[n] for n in names_b)
    a.merge(b)
    assert set(a.items()) == {EX[n] for n in names_a} | {EX[n] for n in names_b}


@given(st.lists(uri_names, min_size=1, max_size=20, unique=True), st.data())
def test_annotation_map_subset_idempotent(names, data):
    amap = AnnotationMap(EX[n] for n in names)
    chosen = data.draw(st.lists(st.sampled_from(names), unique=True))
    sub = amap.subset(EX[n] for n in chosen)
    assert sub.subset(sub.items()) == sub


# -- condition-language round-trip ---------------------------------------------


_ident = st.text(
    alphabet=string.ascii_letters, min_size=1, max_size=8
).filter(lambda s: s.lower() not in {"and", "or", "not", "in", "is",
                                     "null", "true", "false"})
_value = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-100, max_value=100, allow_nan=False).map(
        lambda f: round(f, 3)
    ),
    st.booleans(),
    st.text(alphabet=string.ascii_letters + " ", max_size=10),
)


def _literal_nodes():
    from repro.process.conditions import ast as cast

    return _value.map(cast.LiteralNode)


def _comparisons():
    from repro.process.conditions import ast as cast

    return st.builds(
        cast.Comparison,
        st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
        _ident.map(cast.Identifier),
        _literal_nodes(),
    )


def _condition_nodes(depth=2):
    from repro.process.conditions import ast as cast

    leaf = st.one_of(
        _comparisons(),
        st.builds(
            cast.Membership,
            _ident.map(cast.Identifier),
            st.lists(_literal_nodes(), min_size=1, max_size=3).map(tuple),
            st.booleans(),
        ),
        st.builds(cast.NullCheck, _ident.map(cast.Identifier), st.booleans()),
    )
    if depth == 0:
        return leaf
    sub = _condition_nodes(depth - 1)
    return st.one_of(
        leaf,
        st.builds(cast.AndNode, sub, sub),
        st.builds(cast.OrNode, sub, sub),
        st.builds(cast.NotNode, sub),
    )


@given(_condition_nodes())
@settings(max_examples=200)
def test_condition_unparse_parse_roundtrip(node):
    from repro.process.conditions.parser import parse_condition
    from repro.process.conditions.printer import unparse

    assert parse_condition(unparse(node)) == node


# -- service-message round-trip ---------------------------------------------------


_evidence_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=15),
    st.booleans(),
    uris,
)


@given(
    st.lists(
        st.tuples(uri_names, st.lists(
            st.tuples(uri_names, _evidence_values), max_size=4
        )),
        max_size=10,
        unique_by=lambda pair: pair[0],
    )
)
def test_annotation_map_message_roundtrip(entries):
    from repro.services.messages import AnnotationMapMessage

    amap = AnnotationMap()
    for item_name, evidence in entries:
        item = EX[item_name]
        amap.add_item(item)
        for evidence_name, value in evidence:
            amap.set_evidence(item, EX[evidence_name], value)
    parsed = AnnotationMapMessage.from_xml(AnnotationMapMessage(amap).to_xml())
    assert parsed.amap == amap
