"""Randomized compile differentials: optimized vs no-pass compilation.

The staged compiler's contract (``repro.qv.passes``): with default
options every workflow output — including the serialized annotation
map — is byte-identical to the no-pass translation (``NO_PASSES``,
the plain Sec. 6.1 rules that ``tests/test_compiler_ir.py`` freezes
as the Fig. 6 golden plan); with
``observed_outputs`` declared, the observed outputs still are.  This
file drives a seeded generator over the space of views the proteomics
scenario can execute (annotator subsets, QA mixes with fusable
duplicates, filter/splitter actions with random conditions) and checks
that contract under both the serial and the wavefront enactor, plus
the invocation-saving guarantee on the deterministic pushdown
workload.
"""

import random

import pytest

from repro.core.ispider import LiveImprintAnnotator, ResultSetHolder
from repro.qv import parse_quality_view
from repro.qv.diff import same_compiled_view
from repro.qv.passes import NO_PASSES, CompileOptions
from repro.runtime.parallel import ParallelEnactor
from repro.services.messages import AnnotationMapMessage
from repro.workflow.enactor import Enactor

from tests.test_compiler_ir import OBSERVED, PUSHDOWN_XML, Counter

N_VIEWS = 50
SEED = 20260806

#: QA types with the variable names their operators require.
QA_TYPES = {
    "q:HRScore": ("hitRatio",),
    "q:UniversalPIScore": ("hitRatio", "coverage"),
    "q:UniversalPIScore2": ("hitRatio", "coverage", "peptidesCount"),
    "q:PIScoreClassifier": ("coverage", "hitRatio"),
}
VARIABLE_EVIDENCE = {
    "hitRatio": "q:hitRatio",
    "coverage": "q:coverage",
    "peptidesCount": "q:peptidesCount",
}
EXTRA_EVIDENCE = ("q:masses",)


def _escape(text):
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _random_condition(rng, score_tags, class_tags):
    atoms = []
    for tag in score_tags:
        atoms.append(f"{tag} > {rng.choice([10, 25, 40, 60])}")
    for tag in class_tags:
        atoms.append(f"{tag} in {rng.choice(['q:high', 'q:high, q:mid'])}")
    atoms.append(f"hitRatio > 0.{rng.randint(1, 7)}")
    picked = rng.sample(atoms, min(len(atoms), rng.randint(1, 2)))
    return f" {rng.choice(['and', 'or'])} ".join(picked)


def generate_view(rng, index):
    """One random-but-valid view over the proteomics services."""
    lines = [f'<QualityView name="rand-{index}">']

    n_assertions = rng.randint(1, 3)
    assertions = []
    score_tags, class_tags = [], []
    for i in range(n_assertions):
        qa_type = rng.choice(sorted(QA_TYPES))
        tag = f"T{i}"
        if qa_type == "q:PIScoreClassifier":
            class_tags.append(tag)
            syn = ('tagSynType="q:class" '
                   'tagSemType="q:PIScoreClassification"')
        else:
            score_tags.append(tag)
            syn = 'tagSynType="q:score"'
        assertions.append((f"qa {i}", qa_type, tag, syn))

    needed = {
        VARIABLE_EVIDENCE[v] for _, qa_type, _, _ in assertions
        for v in QA_TYPES[qa_type]
    }
    # The first annotator covers everything the QAs read (plus random
    # extras); an optional second declares a random subset — often
    # fully unconsumed, which is what evidence pruning looks for.
    first = sorted(needed | set(rng.sample(EXTRA_EVIDENCE, rng.randint(0, 1))))
    pool = sorted(set(VARIABLE_EVIDENCE.values()) | set(EXTRA_EVIDENCE))
    annotators = [("ImprintOutputAnnotator", first)]
    if rng.random() < 0.5:
        annotators.append(
            ("EldpAnnotator", sorted(rng.sample(pool, rng.randint(1, 2))))
        )
    for name, evidence in annotators:
        lines.append(
            f'<Annotator serviceName="{name}" '
            f'serviceType="q:Imprint-output-annotation">'
        )
        lines.append('<variables repositoryRef="cache" persistent="false">')
        lines.extend(f'<var evidence="{e}"/>' for e in evidence)
        lines.append("</variables></Annotator>")

    for name, qa_type, tag, syn in assertions:
        lines.append(
            f'<QualityAssertion serviceName="{name}" '
            f'serviceType="{qa_type}" tagName="{tag}" {syn}>'
        )
        lines.append('<variables repositoryRef="cache">')
        lines.extend(
            f'<var variableName="{v}" evidence="{VARIABLE_EVIDENCE[v]}"/>'
            for v in QA_TYPES[qa_type]
        )
        lines.append("</variables></QualityAssertion>")

    for j in range(rng.randint(1, 2)):
        condition = _escape(_random_condition(rng, score_tags, class_tags))
        if rng.random() < 0.7:
            lines.append(
                f'<action name="act {j}"><filter>'
                f"<condition>{condition}</condition>"
                f"</filter></action>"
            )
        else:
            other = _escape(_random_condition(rng, score_tags, class_tags))
            lines.append(
                f'<action name="act {j}"><splitter>'
                f'<group name="strong"><condition>{condition}</condition>'
                f"</group>"
                f'<group name="weak"><condition>{other}</condition></group>'
                f"</splitter></action>"
            )
    lines.append("</QualityView>")
    return "\n".join(lines)


def snapshot(workflow, outputs, observed=None):
    """Comparable, serialized view of a run's (observed) outputs."""
    snap = {}
    for name in workflow.outputs:
        if observed is not None and name not in observed:
            continue
        value = outputs.get(name)
        if name == "annotationMap":
            snap[name] = AnnotationMapMessage(value).to_xml()
        else:
            snap[name] = list(value or [])
    return snap


def run(framework, workflow, items, enactor):
    framework.repositories.clear_transient()
    return enactor.run(workflow, {"dataSet": list(items)})


@pytest.fixture()
def loaded_framework(framework, result_set):
    holder = ResultSetHolder()
    holder.set(result_set)
    framework.deploy_annotation_service(
        "ImprintOutputAnnotator", LiveImprintAnnotator(holder)
    )
    return framework


@pytest.fixture()
def items(result_set, imprint_runs):
    return list(result_set.items_of_run(imprint_runs[0].run_id))[:10]


class TestRandomizedDifferential:
    def test_corpus_byte_equal_under_both_enactors(
        self, loaded_framework, items
    ):
        rng = random.Random(SEED)
        compiler = loaded_framework.compiler
        serial, wavefront = Enactor(), ParallelEnactor(max_workers=4)
        fired = set()
        observed_arms = 0
        for index in range(N_VIEWS):
            spec = parse_quality_view(generate_view(rng, index))
            reference = compiler.compile(spec, options=NO_PASSES)
            optimized, report = compiler.compile_with_report(spec)
            fired.update(report.fired())
            assert same_compiled_view(reference, optimized), index

            baseline = snapshot(
                reference, run(loaded_framework, reference, items, serial)
            )
            for enactor in (serial, wavefront):
                outputs = run(loaded_framework, optimized, items, enactor)
                assert snapshot(optimized, outputs) == baseline, (
                    f"view {index} diverged under "
                    f"{type(enactor).__name__}"
                )

            # Declare only the action verdicts observed: the aggressive
            # passes may now rewrite the plan, but those outputs must
            # still match the reference run exactly.
            observed = frozenset(
                name for name in reference.outputs if name != "annotationMap"
            )
            aggressive, report = compiler.compile_with_report(
                spec, options=CompileOptions(observed_outputs=observed)
            )
            fired.update(report.fired())
            observed_arms += 1
            expected = {k: v for k, v in baseline.items() if k in observed}
            for enactor in (serial, wavefront):
                outputs = run(loaded_framework, aggressive, items, enactor)
                assert snapshot(aggressive, outputs, observed) == expected, (
                    f"view {index} (observed mode) diverged under "
                    f"{type(enactor).__name__}"
                )
        # the corpus must actually exercise the optimizer
        assert {"qa-fusion", "enrichment-batching"} <= fired, fired
        assert observed_arms == N_VIEWS


class TestPushdownWorkload:
    """The deterministic workload behind the E17 acceptance numbers."""

    def test_all_four_passes_fire(self, loaded_framework):
        spec = parse_quality_view(PUSHDOWN_XML)
        _, report = loaded_framework.compiler.compile_with_report(
            spec, options=OBSERVED
        )
        assert report.fired() == [
            "evidence-pruning", "qa-fusion", "filter-pushdown",
            "enrichment-batching",
        ]

    def test_invocation_saving_with_equal_verdicts(
        self, loaded_framework, items
    ):
        spec = parse_quality_view(PUSHDOWN_XML)
        counter = Counter()
        for service in loaded_framework.services:
            service.fault_injector = counter
        reference = loaded_framework.compiler.compile(spec, options=NO_PASSES)
        optimized = loaded_framework.compiler.compile(spec, options=OBSERVED)

        for enactor in (Enactor(), ParallelEnactor(max_workers=4)):
            counter.n = 0
            ref_out = run(loaded_framework, reference, items, enactor)
            ref_calls = counter.n
            counter.n = 0
            opt_out = run(loaded_framework, optimized, items, enactor)
            opt_calls = counter.n
            assert (
                opt_out["keep_good_accepted"] == ref_out["keep_good_accepted"]
            )
            saving = 1 - opt_calls / ref_calls
            assert saving >= 0.25, (
                f"{type(enactor).__name__}: {ref_calls} -> {opt_calls} "
                f"({saving:.0%} saved)"
            )
