"""Tests for the staged compiler: frontend IR, passes, backend, schedule.

The no-pass compilation (``options=NO_PASSES``) is the differential
baseline, and a frozen golden plan pins it to the paper's Fig. 6
topology (Sec. 6.1 rules); these tests pin down the staged pipeline's
own machinery — lowering and canonical signatures, pass toggling and
gating, the fused / gated / batched processors the backend emits, and
the wavefront schedule annotation the parallel enactor consumes.  End-to-end
output equivalence over randomized views lives in
``tests/test_compile_differential.py``.
"""

import pytest

from repro.core.ispider import (
    LiveImprintAnnotator,
    ResultSetHolder,
    example_quality_view_xml,
)
from repro.qv import parse_quality_view
from repro.qv.backend import (
    FILTER_GATE,
    BatchEnrichmentProcessor,
    FilterGateProcessor,
    FusedAssertionProcessor,
    emit_workflow,
)
from repro.qv.compiler import (
    CONSOLIDATE,
    DATA_ENRICHMENT,
    AssertionProcessor,
    CompilationError,
    DataEnrichmentProcessor,
)
from repro.qv.diff import same_compiled_view
from repro.qv.ir import canonical_condition, lower_view, view_fingerprint
from repro.qv.passes import (
    NO_PASSES,
    PASS_NAMES,
    CompileOptions,
    default_passes,
)
from repro.rdf import Q
from repro.services.messages import AnnotationMapMessage
from repro.workflow.enactor import Enactor
from repro.workflow.model import Workflow, WorkflowError
from repro.workflow.processors import PythonProcessor
from repro.runtime.parallel import ParallelEnactor

#: A workload shaped so that *every* pass can fire: a second annotator
#: producing evidence nothing consumes (pruning), two assertions on the
#: same deployed HRScore service (fusion), and a pure-filter action
#: whose leading conjunct reads a single early tag (pushdown).
PUSHDOWN_XML = """
<QualityView name="pushdown-workload">
  <Annotator serviceName="ImprintOutputAnnotator"
             serviceType="q:Imprint-output-annotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:coverage"/>
      <var evidence="q:hitRatio"/>
      <var evidence="q:peptidesCount"/>
    </variables>
  </Annotator>
  <Annotator serviceName="EldpAnnotator"
             serviceType="q:Imprint-output-annotation">
    <variables repositoryRef="cache" persistent="false">
      <var evidence="q:masses"/>
    </variables>
  </Annotator>
  <QualityAssertion serviceName="HR score" serviceType="q:HRScore"
                    tagName="HR" tagSynType="q:score">
    <variables repositoryRef="cache">
      <var variableName="hitRatio" evidence="q:hitRatio"/>
    </variables>
  </QualityAssertion>
  <QualityAssertion serviceName="HR score b" serviceType="q:HRScore"
                    tagName="HRB" tagSynType="q:score">
    <variables repositoryRef="cache">
      <var variableName="hitRatio" evidence="q:hitRatio"/>
    </variables>
  </QualityAssertion>
  <QualityAssertion serviceName="HR MC score"
                    serviceType="q:UniversalPIScore2"
                    tagName="HRMC" tagSynType="q:score">
    <variables repositoryRef="cache">
      <var variableName="coverage" evidence="q:coverage"/>
      <var variableName="hitRatio" evidence="q:hitRatio"/>
      <var variableName="peptidesCount" evidence="q:peptidesCount"/>
    </variables>
  </QualityAssertion>
  <action name="keep good">
    <filter><condition>HR &gt; 40 and HRMC &gt; 30</condition></filter>
  </action>
</QualityView>
"""

#: Only the filter verdicts are consumed: unlocks pushdown + pruning.
OBSERVED = CompileOptions(observed_outputs=frozenset({"keep_good_accepted"}))


class Counter:
    """Counts service round trips via the fault-injector hook."""

    def __init__(self):
        self.n = 0

    def on_invocation(self, service):
        self.n += 1


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
    return list(result_set.items_of_run(imprint_runs[0].run_id))


class TestFrontendLowering:
    def test_example_view_inventory(self, loaded_framework):
        spec = parse_quality_view(example_quality_view_xml())
        ir = lower_view(spec, loaded_framework.compiler)
        assert [a.name for a in ir.annotators] == ["ImprintOutputAnnotator"]
        assert [b.name for b in ir.bundles] == [
            "HR MC score", "HR score", "PIScoreClassifier"
        ]
        assert all(not b.fused for b in ir.bundles)
        assert [a.name for a in ir.actions] == ["filter top k score"]
        assert ir.gate is None
        assert ir.enrichment.plan is None
        # evidence URIs are canonicalised during lowering
        assert Q.HitRatio in ir.enrichment.columns

    def test_verification_absorbed_into_frontend(self, loaded_framework):
        spec = parse_quality_view(example_quality_view_xml())
        ir = lower_view(spec, loaded_framework.compiler)
        assert any("verified against the IQ model" in n
                   for n in ir.frontend_notes)
        bad = parse_quality_view(
            example_quality_view_xml().replace("q:hitRatio", "q:Bogus")
        )
        with pytest.raises(Exception):
            lower_view(bad, loaded_framework.compiler)

    def test_assertion_indices_keep_declaration_order(self, loaded_framework):
        spec = parse_quality_view(PUSHDOWN_XML)
        ir = lower_view(spec, loaded_framework.compiler)
        assert [(m.index, m.name) for m in ir.assertions()] == [
            (0, "HR score"), (1, "HR score b"), (2, "HR MC score")
        ]

    def test_duplicate_assertion_names_rejected(self, loaded_framework):
        spec = parse_quality_view(example_quality_view_xml())
        spec.assertions.append(spec.assertions[0])
        with pytest.raises(CompilationError, match="share the name"):
            lower_view(spec, loaded_framework.compiler, validate=False)

    def test_fingerprint_stable_under_formatting(self):
        a = parse_quality_view(
            example_quality_view_xml("ScoreClass in q:high")
        )
        b = parse_quality_view(
            example_quality_view_xml("ScoreClass   in\n      q:high")
        )
        assert view_fingerprint(a) == view_fingerprint(b)

    def test_fingerprint_tracks_semantic_edits(self):
        a = parse_quality_view(example_quality_view_xml("ScoreClass in q:high"))
        b = parse_quality_view(example_quality_view_xml("ScoreClass in q:mid"))
        assert view_fingerprint(a) != view_fingerprint(b)

    def test_canonical_condition_round_trip(self):
        assert canonical_condition("HR   >   40") == canonical_condition(
            "HR > 40"
        )
        # unparseable text falls back to whitespace collapsing
        assert canonical_condition("not ) a condition") == "not ) a condition"


class TestPassToggles:
    def test_pipeline_has_the_documented_passes(self):
        assert tuple(p.name for p in default_passes(CompileOptions())) == (
            PASS_NAMES
        )

    def test_unknown_disabled_pass_rejected(self):
        with pytest.raises(CompilationError, match="no-such-pass"):
            default_passes(
                CompileOptions(disabled_passes=frozenset({"no-such-pass"}))
            )

    def test_disabled_pass_is_not_run(self, loaded_framework):
        spec = parse_quality_view(example_quality_view_xml())
        options = CompileOptions(
            disabled_passes=frozenset({"enrichment-batching"})
        )
        workflow, report = loaded_framework.compiler.compile_with_report(
            spec, options=options
        )
        assert "enrichment-batching" not in [run.name for run in report.runs]
        de = workflow.processors[DATA_ENRICHMENT]
        assert type(de) is DataEnrichmentProcessor

    def test_default_contract_keeps_unsound_passes_off(self, loaded_framework):
        """annotationMap observed => no pruning, no pushdown."""
        spec = parse_quality_view(PUSHDOWN_XML)
        workflow, report = loaded_framework.compiler.compile_with_report(spec)
        assert "evidence-pruning" not in report.fired()
        assert "filter-pushdown" not in report.fired()
        assert "qa-fusion" in report.fired()
        assert "EldpAnnotator" in workflow.processors
        assert FILTER_GATE not in workflow.processors

    def test_observed_contract_arms_all_passes(self, loaded_framework):
        spec = parse_quality_view(PUSHDOWN_XML)
        workflow, report = loaded_framework.compiler.compile_with_report(
            spec, options=OBSERVED
        )
        assert report.fired() == list(PASS_NAMES)
        text = report.render()
        assert "fired" in text and "frontend:" in text


class TestFusionEmission:
    def test_fused_processor_shape(self, loaded_framework):
        spec = parse_quality_view(PUSHDOWN_XML)
        workflow = loaded_framework.compiler.compile(spec)
        fused = workflow.processors["HR score + HR score b"]
        assert isinstance(fused, FusedAssertionProcessor)
        assert set(fused.output_ports) == {"annotationMap0", "annotationMap1"}
        assert [c["tag_name"] for c in fused.member_configs] == ["HR", "HRB"]
        # the unfusable third QA stays a standalone processor
        assert isinstance(
            workflow.processors["HR MC score"], AssertionProcessor
        )

    def test_consolidation_keeps_declaration_slots(self, loaded_framework):
        spec = parse_quality_view(PUSHDOWN_XML)
        workflow = loaded_framework.compiler.compile(spec)
        feeders = {
            link.sink.port: (link.source.processor, link.source.port)
            for link in workflow.incoming_links(CONSOLIDATE)
        }
        assert feeders == {
            "map0": ("HR score + HR score b", "annotationMap0"),
            "map1": ("HR score + HR score b", "annotationMap1"),
            "map2": ("HR MC score", "annotationMap"),
        }

    def test_fusion_saves_one_invocation_and_stays_byte_equal(
        self, loaded_framework, items
    ):
        spec = parse_quality_view(PUSHDOWN_XML)
        counter = Counter()
        for service in loaded_framework.services:
            service.fault_injector = counter

        reference = loaded_framework.compiler.compile(spec, options=NO_PASSES)
        optimized = loaded_framework.compiler.compile(spec)

        loaded_framework.repositories.clear_transient()
        counter.n = 0
        ref_out = Enactor().run(reference, {"dataSet": items})
        ref_calls = counter.n

        loaded_framework.repositories.clear_transient()
        counter.n = 0
        opt_out = Enactor().run(optimized, {"dataSet": items})
        opt_calls = counter.n

        assert opt_calls == ref_calls - 1  # the two HRScore QAs fused
        assert (
            AnnotationMapMessage(opt_out["annotationMap"]).to_xml()
            == AnnotationMapMessage(ref_out["annotationMap"]).to_xml()
        )
        assert opt_out["keep_good_accepted"] == ref_out["keep_good_accepted"]


class TestFilterGateEmission:
    def compile_observed(self, framework):
        spec = parse_quality_view(PUSHDOWN_XML)
        return framework.compiler.compile_with_report(spec, options=OBSERVED)

    def test_gate_present_and_offline(self, loaded_framework):
        workflow, _ = self.compile_observed(loaded_framework)
        gate = workflow.processors[FILTER_GATE]
        assert isinstance(gate, FilterGateProcessor)
        assert gate.predicate == "HR > 40"
        # no remote call behind the gate: resilience must leave it alone
        assert not hasattr(gate, "service")

    def test_gated_assertion_skips_empty_data_sets(self, loaded_framework):
        workflow, _ = self.compile_observed(loaded_framework)
        fused = workflow.processors["HR score + HR score b"]
        gated = workflow.processors["HR MC score"]
        assert fused.skip_on_empty is False  # the producer runs ungated
        assert gated.skip_on_empty is True
        feeders = {
            link.sink.port: link.source.processor
            for link in workflow.incoming_links("HR MC score")
        }
        assert feeders["dataSet"] == FILTER_GATE

    def test_pruning_removed_the_dead_annotator(self, loaded_framework):
        workflow, report = self.compile_observed(loaded_framework)
        assert "EldpAnnotator" not in workflow.processors
        de = workflow.processors[DATA_ENRICHMENT]
        assert isinstance(de, BatchEnrichmentProcessor)
        assert Q.Masses not in de.sources
        notes = [n for run in report.runs for n in run.notes]
        assert any("EldpAnnotator" in note for note in notes)

    def test_pushdown_refuses_collection_relative_qas(self, loaded_framework):
        """PIScoreClassifier scores against the whole collection, so it
        cannot be gated: the pass must leave the plan alone."""
        text = PUSHDOWN_XML.replace(
            'serviceName="HR MC score"\n                    '
            'serviceType="q:UniversalPIScore2"\n                    '
            'tagName="HRMC" tagSynType="q:score"',
            'serviceName="HR MC score" serviceType="q:PIScoreClassifier"\n'
            '                    tagName="HRMC" tagSynType="q:class"\n'
            '                    tagSemType="q:PIScoreClassification"',
        )
        text = text.replace(
            "<condition>HR &gt; 40 and HRMC &gt; 30</condition>",
            "<condition>HR &gt; 40 and HRMC in q:high</condition>",
        )
        spec = parse_quality_view(text)
        workflow, report = loaded_framework.compiler.compile_with_report(
            spec, options=OBSERVED
        )
        assert "filter-pushdown" not in report.fired()
        assert FILTER_GATE not in workflow.processors


#: Paper Fig. 6: the Sec. 5.1 example view compiled by the Sec. 6.1
#: rules with every pass disabled.  Frozen from the rule-by-rule
#: translation; any change to it is a change to the paper's topology.
FIG6_PROCESSORS = [
    ("ImprintOutputAnnotator", "AnnotatorProcessor", {"dataSet": 1}, {}),
    ("DataEnrichment", "DataEnrichmentProcessor",
     {"dataSet": 1}, {"annotationMap": 1}),
    ("HR MC score", "AssertionProcessor",
     {"dataSet": 1, "annotationMap": 1}, {"annotationMap": 1}),
    ("HR score", "AssertionProcessor",
     {"dataSet": 1, "annotationMap": 1}, {"annotationMap": 1}),
    ("PIScoreClassifier", "AssertionProcessor",
     {"dataSet": 1, "annotationMap": 1}, {"annotationMap": 1}),
    ("ConsolidateAssertions", "ConsolidateProcessor",
     {"map0": 1, "map1": 1, "map2": 1}, {"annotationMap": 1}),
    ("filter top k score", "ActionProcessor",
     {"dataSet": 1, "annotationMap": 1}, {"accepted": 1, "outcome": 1}),
]
FIG6_DATA_LINKS = sorted([
    ("", "dataSet", "ImprintOutputAnnotator", "dataSet"),
    ("", "dataSet", "DataEnrichment", "dataSet"),
    ("", "dataSet", "HR MC score", "dataSet"),
    ("DataEnrichment", "annotationMap", "HR MC score", "annotationMap"),
    ("", "dataSet", "HR score", "dataSet"),
    ("DataEnrichment", "annotationMap", "HR score", "annotationMap"),
    ("", "dataSet", "PIScoreClassifier", "dataSet"),
    ("DataEnrichment", "annotationMap", "PIScoreClassifier", "annotationMap"),
    ("HR MC score", "annotationMap", "ConsolidateAssertions", "map0"),
    ("HR score", "annotationMap", "ConsolidateAssertions", "map1"),
    ("PIScoreClassifier", "annotationMap", "ConsolidateAssertions", "map2"),
    ("ConsolidateAssertions", "annotationMap", "", "annotationMap"),
    ("", "dataSet", "filter top k score", "dataSet"),
    ("ConsolidateAssertions", "annotationMap",
     "filter top k score", "annotationMap"),
    ("filter top k score", "accepted", "", "filter_top_k_score_accepted"),
])
FIG6_CONTROL_LINKS = [("ImprintOutputAnnotator", "DataEnrichment")]
FIG6_OUTPUTS = ["annotationMap", "filter_top_k_score_accepted"]
FIG6_ASSERTION_CONFIGS = {
    "HR MC score": ("HR MC", {"coverage": Q.Coverage, "hitRatio": Q.HitRatio,
                              "peptidesCount": Q.PeptidesCount}),
    "HR score": ("HR", {"hitRatio": Q.HitRatio}),
    "PIScoreClassifier": ("ScoreClass",
                          {"coverage": Q.Coverage, "hitRatio": Q.HitRatio}),
}
FIG6_EVIDENCE = [Q.Coverage, Q.Masses, Q.HitRatio, Q.PeptidesCount]


def _plan(workflow):
    """A compiled workflow's topology as comparable plain values."""
    return {
        "processors": [
            (name, type(p).__name__, dict(p.input_ports), dict(p.output_ports))
            for name, p in workflow.processors.items()
        ],
        "data_links": sorted(
            (l.source.processor, l.source.port, l.sink.processor, l.sink.port)
            for l in workflow.data_links
        ),
        "control_links": [(c.source, c.sink) for c in workflow.control_links],
        "inputs": list(workflow.inputs),
        "outputs": list(workflow.outputs),
    }


class TestFig6Golden:
    """The no-pass plan of the Sec. 5.1 example is paper Fig. 6."""

    def compile(self, framework, options=NO_PASSES):
        spec = parse_quality_view(example_quality_view_xml())
        return framework.compiler.compile(spec, options=options)

    def test_no_pass_plan_is_the_frozen_fig6_topology(self, loaded_framework):
        assert _plan(self.compile(loaded_framework)) == {
            "processors": FIG6_PROCESSORS,
            "data_links": FIG6_DATA_LINKS,
            "control_links": FIG6_CONTROL_LINKS,
            "inputs": ["dataSet"],
            "outputs": FIG6_OUTPUTS,
        }

    def test_no_pass_plan_is_configured_by_the_view(self, loaded_framework):
        workflow = self.compile(loaded_framework)
        cache = loaded_framework.repositories.repository("cache")
        annotator = workflow.processors["ImprintOutputAnnotator"]
        assert annotator.evidence_types == FIG6_EVIDENCE
        assert annotator.store is cache
        # one DE reading every evidence type from the cache repository
        enrichment = workflow.processors[DATA_ENRICHMENT]
        assert enrichment.sources == {e: cache for e in FIG6_EVIDENCE}
        for name, (tag, variables) in FIG6_ASSERTION_CONFIGS.items():
            assert workflow.processors[name].config == {
                "name": name, "tag_name": tag, "variables": variables,
            }

    def test_default_plan_differs_only_in_the_enrichment_class(
        self, loaded_framework
    ):
        golden = _plan(self.compile(loaded_framework))
        default = _plan(self.compile(loaded_framework, options=None))
        changed = [
            (a, b) for a, b in zip(golden["processors"], default["processors"])
            if a != b
        ]
        assert changed == [(
            FIG6_PROCESSORS[1],
            ("DataEnrichment", "BatchEnrichmentProcessor",
             {"dataSet": 1}, {"annotationMap": 1}),
        )]
        golden.pop("processors")
        default.pop("processors")
        assert default == golden


class TestWavefrontSchedule:
    def test_compiled_workflow_carries_a_schedule(self, loaded_framework):
        spec = parse_quality_view(example_quality_view_xml())
        workflow = loaded_framework.compiler.compile(spec)
        schedule = workflow.schedule
        assert schedule is not None
        assert schedule.stages == (
            ("ImprintOutputAnnotator",),
            (DATA_ENRICHMENT,),
            ("HR MC score", "HR score", "PIScoreClassifier"),
            (CONSOLIDATE,),
            ("filter top k score",),
        )
        assert schedule.dependencies[DATA_ENRICHMENT] == frozenset(
            {"ImprintOutputAnnotator"}
        )
        assert CONSOLIDATE in schedule.dependents["HR score"]

    def test_structural_edits_invalidate_the_schedule(self, loaded_framework):
        spec = parse_quality_view(example_quality_view_xml())
        workflow = loaded_framework.compiler.compile(spec)
        assert workflow.schedule is not None
        workflow.add_processor(
            PythonProcessor("extra", lambda: 0, output_ports={"out": 0})
        )
        assert workflow.schedule is None
        refreshed = workflow.ensure_schedule()
        assert "extra" in refreshed.dependencies
        assert workflow.schedule is refreshed

    def test_cycles_are_rejected(self):
        workflow = Workflow("cyclic")
        for name in ("a", "b"):
            workflow.add_processor(PythonProcessor(name, lambda: 0))
        workflow.control("a", "b")
        workflow.control("b", "a")
        with pytest.raises(WorkflowError):
            workflow.compute_schedule()

    def test_parallel_enactor_consumes_the_cached_schedule(
        self, loaded_framework, items, monkeypatch
    ):
        spec = parse_quality_view(example_quality_view_xml())
        workflow = loaded_framework.compiler.compile(spec)
        assert workflow.schedule is not None

        def boom():
            raise AssertionError("schedule should have been reused")

        monkeypatch.setattr(workflow, "compute_schedule", boom)
        outputs = ParallelEnactor(max_workers=4).run(
            workflow, {"dataSet": items}
        )
        assert outputs["annotationMap"] is not None

    def test_parallel_enactor_recomputes_stale_schedules(self, items):
        workflow = Workflow("hand-built")
        workflow.add_input("xs")
        workflow.add_output("ys")
        workflow.add_processor(
            PythonProcessor("double", lambda xs: [x * 2 for x in xs],
                            input_ports={"xs": 1}, output_ports={"ys": 1})
        )
        workflow.connect("", "xs", "double", "xs")
        workflow.connect("double", "ys", "", "ys")
        assert workflow.schedule is None  # never compiled: no schedule
        outputs = ParallelEnactor(max_workers=2).run(workflow, {"xs": [1, 2]})
        assert outputs["ys"] == [2, 4]


class TestProvenance:
    def test_both_pipelines_stamp_the_same_fingerprint(self, loaded_framework):
        spec = parse_quality_view(PUSHDOWN_XML)
        reference = loaded_framework.compiler.compile(spec, options=NO_PASSES)
        optimized = loaded_framework.compiler.compile(spec, options=OBSERVED)
        assert reference.source_fingerprint == view_fingerprint(spec)
        assert optimized.source_fingerprint == view_fingerprint(spec)
        assert same_compiled_view(reference, optimized)

    def test_different_views_do_not_compare_equal(self, loaded_framework):
        a = loaded_framework.compiler.compile(
            parse_quality_view(PUSHDOWN_XML)
        )
        b = loaded_framework.compiler.compile(
            parse_quality_view(example_quality_view_xml())
        )
        assert not same_compiled_view(a, b)

    def test_hand_built_workflows_have_no_provenance(self, loaded_framework):
        compiled = loaded_framework.compiler.compile(
            parse_quality_view(example_quality_view_xml())
        )
        assert not same_compiled_view(Workflow("adhoc"), compiled)
        assert not same_compiled_view(Workflow("adhoc"), Workflow("adhoc"))

    def test_quality_view_compile_forwards_options(self, loaded_framework):
        view = loaded_framework.quality_view(PUSHDOWN_XML)
        plain = view.compile(options=NO_PASSES)
        assert plain.source_fingerprint == view_fingerprint(view.spec)
        assert "HR score + HR score b" not in plain.processors
        optimized = view.compile(force=True, options=OBSERVED)
        assert optimized.source_fingerprint == plain.source_fingerprint
        assert FILTER_GATE in optimized.processors


class TestExplainCLI:
    def test_compile_explain_renders_passes_and_schedule(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "view.xml"
        path.write_text(PUSHDOWN_XML)
        assert main([
            "compile", str(path), "--explain",
            "--observed-outputs", "keep_good_accepted",
        ]) == 0
        out = capsys.readouterr().out
        assert "fingerprint:" in out
        for name in PASS_NAMES:
            assert name in out
        assert "wave 0:" in out
        assert FILTER_GATE in out

    def test_disable_pass_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "view.xml"
        path.write_text(PUSHDOWN_XML)
        assert main([
            "compile", str(path), "--explain",
            "--disable-pass", "qa-fusion",
        ]) == 0
        assert "qa-fusion" not in capsys.readouterr().out


class TestBackendFallbacks:
    def test_emit_workflow_without_assertions(self, loaded_framework):
        text = """
        <QualityView name="bare">
          <Annotator serviceName="ImprintOutputAnnotator"
                     serviceType="q:Imprint-output-annotation">
            <variables repositoryRef="cache" persistent="false">
              <var evidence="q:hitRatio"/>
            </variables>
          </Annotator>
        </QualityView>
        """
        ir = lower_view(parse_quality_view(text), loaded_framework.compiler)
        workflow = emit_workflow(ir)
        assert CONSOLIDATE in workflow.processors
        workflow.validate()
