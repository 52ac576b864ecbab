"""Tests for QV compilation (Sec. 6.1) and embedding (Sec. 6.2).

The Figure-6 topology assertions live here: annotators first with
control links to a single Data Enrichment processor, DE fan-out to all
QAs, ConsolidateAssertions, then actions.
"""

import pytest

from repro.core.ispider import (
    LiveImprintAnnotator,
    ResultSetHolder,
    example_quality_view_xml,
)
from repro.qv import parse_quality_view
from repro.qv.compiler import (
    CONSOLIDATE,
    DATA_ENRICHMENT,
    ActionProcessor,
    AnnotatorProcessor,
    AssertionProcessor,
    CompilationError,
    DataEnrichmentProcessor,
    sanitize,
)
from repro.qv.passes import NO_PASSES
from repro.rdf import Q
from repro.workflow.model import ControlLink


@pytest.fixture()
def loaded_framework(framework):
    holder = ResultSetHolder()
    framework.deploy_annotation_service(
        "ImprintOutputAnnotator", LiveImprintAnnotator(holder)
    )
    return framework, holder


@pytest.fixture()
def compiled(loaded_framework):
    framework, _ = loaded_framework
    spec = parse_quality_view(example_quality_view_xml())
    return framework.compiler.compile(spec)


class TestFigure6Topology:
    def test_processor_inventory(self, compiled):
        names = set(compiled.processors)
        assert "ImprintOutputAnnotator" in names
        assert DATA_ENRICHMENT in names
        assert CONSOLIDATE in names
        assert {"HR MC score", "HR score", "PIScoreClassifier"} <= names
        assert "filter top k score" in names

    def test_single_data_enrichment(self, compiled):
        de_processors = [
            p for p in compiled.processors.values()
            if isinstance(p, DataEnrichmentProcessor)
        ]
        assert len(de_processors) == 1

    def test_control_link_annotator_to_de(self, compiled):
        assert (
            ControlLink("ImprintOutputAnnotator", DATA_ENRICHMENT)
            in compiled.control_links
        )

    def test_annotators_have_no_output_ports(self, compiled):
        annotator = compiled.processors["ImprintOutputAnnotator"]
        assert isinstance(annotator, AnnotatorProcessor)
        assert annotator.output_ports == {}

    def test_de_feeds_every_qa(self, compiled):
        for qa_name in ("HR MC score", "HR score", "PIScoreClassifier"):
            feeders = {
                link.source.processor
                for link in compiled.incoming_links(qa_name)
                if link.sink.port == "annotationMap"
            }
            assert feeders == {DATA_ENRICHMENT}

    def test_every_qa_feeds_consolidate(self, compiled):
        feeders = {
            link.source.processor for link in compiled.incoming_links(CONSOLIDATE)
        }
        assert feeders == {"HR MC score", "HR score", "PIScoreClassifier"}

    def test_actions_fed_from_consolidate(self, compiled):
        feeders = {
            link.source.processor
            for link in compiled.incoming_links("filter top k score")
            if link.sink.port == "annotationMap"
        }
        assert feeders == {CONSOLIDATE}

    def test_annotators_execute_before_de_and_qas(self, compiled):
        order = compiled.topological_order()
        assert order.index("ImprintOutputAnnotator") < order.index(DATA_ENRICHMENT)
        assert order.index(DATA_ENRICHMENT) < order.index("HR MC score")
        assert order.index(CONSOLIDATE) < order.index("filter top k score")

    def test_workflow_outputs(self, compiled):
        assert "annotationMap" in compiled.outputs
        assert "filter_top_k_score_accepted" in compiled.outputs

    def test_de_configured_with_evidence_repository_map(self, compiled):
        de = compiled.processors[DATA_ENRICHMENT]
        assert Q.HitRatio in de.sources
        assert Q.Coverage in de.sources
        assert de.sources[Q.HitRatio].name == "cache"

    def test_compiled_workflow_validates(self, compiled):
        compiled.validate()


class TestCompilationErrors:
    def test_unresolvable_service(self, framework):
        spec = parse_quality_view(example_quality_view_xml())
        # no annotation service deployed in the bare framework
        with pytest.raises(CompilationError, match="no binding or deployed"):
            framework.compiler.compile(spec)

    def test_validation_failure_propagates(self, loaded_framework):
        framework, _ = loaded_framework
        text = example_quality_view_xml().replace("q:hitRatio", "q:Bogus")
        spec = parse_quality_view(text)
        with pytest.raises(ValueError, match="validation"):
            framework.compiler.compile(spec)

    def test_annotator_resolving_to_qa_service_rejected(self, framework):
        # Bind the annotation concept to a QA endpoint (and deploy no
        # annotation service at all) to force the category clash.
        framework.bindings.bind_service(
            Q["Imprint-output-annotation"],
            framework.services.by_name("HRScore").endpoint,
        )
        spec = parse_quality_view(example_quality_view_xml())
        with pytest.raises(CompilationError, match="expected an annotation"):
            framework.compiler.compile(spec)


class TestSanitize:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("filter top k score", "filter_top_k_score"),
            ("a-b.c", "a_b_c"),
            ("___", "port"),
            ("ok_name", "ok_name"),
        ],
    )
    def test_sanitize(self, raw, expected):
        assert sanitize(raw) == expected


class TestPortCollisions:
    """sanitize() is many-to-one; colliding claims must fail loudly."""

    HEADER = """
        <QualityView name="collide">
          <Annotator serviceName="ImprintOutputAnnotator"
                     serviceType="q:Imprint-output-annotation">
            <variables repositoryRef="cache" persistent="false">
              <var evidence="q:hitRatio"/>
            </variables>
          </Annotator>
          <QualityAssertion serviceName="HR score" serviceType="q:HRScore"
                            tagName="HR" tagSynType="q:score">
            <variables repositoryRef="cache">
              <var variableName="hitRatio" evidence="q:hitRatio"/>
            </variables>
          </QualityAssertion>
    """

    def view(self, actions):
        return parse_quality_view(self.HEADER + actions + "</QualityView>")

    def test_actions_colliding_on_output_port(self, loaded_framework):
        framework, _ = loaded_framework
        spec = self.view("""
          <action name="top k!">
            <filter><condition>HR &gt; 40</condition></filter>
          </action>
          <action name="top k?">
            <filter><condition>HR &gt; 50</condition></filter>
          </action>
        """)
        with pytest.raises(CompilationError, match="collide"):
            framework.compiler.compile(spec)
        with pytest.raises(CompilationError, match="collide"):
            framework.compiler.compile(spec, options=NO_PASSES)

    def test_splitter_groups_colliding_on_port(self, loaded_framework):
        framework, _ = loaded_framework
        spec = self.view("""
          <action name="route">
            <splitter>
              <group name="a b"><condition>HR &gt; 40</condition></group>
              <group name="a:b"><condition>HR &gt; 50</condition></group>
            </splitter>
          </action>
        """)
        with pytest.raises(CompilationError, match="sanitize"):
            framework.compiler.compile(spec)
        with pytest.raises(CompilationError, match="sanitize"):
            framework.compiler.compile(spec, options=NO_PASSES)

    def test_distinct_ports_still_compile(self, loaded_framework):
        framework, _ = loaded_framework
        spec = self.view("""
          <action name="top k">
            <filter><condition>HR &gt; 40</condition></filter>
          </action>
        """)
        workflow = framework.compiler.compile(spec)
        assert "top_k_accepted" in workflow.outputs


class TestSplitterCompilation:
    def test_splitter_ports_include_default(self, loaded_framework):
        framework, _ = loaded_framework
        text = """
        <QualityView name="split-view">
          <Annotator serviceName="ImprintOutputAnnotator"
                     serviceType="q:Imprint-output-annotation">
            <variables repositoryRef="cache" persistent="false">
              <var evidence="q:hitRatio"/>
            </variables>
          </Annotator>
          <QualityAssertion serviceName="HR score" serviceType="q:HRScore"
                            tagName="HR" tagSynType="q:score">
            <variables repositoryRef="cache">
              <var variableName="hitRatio" evidence="q:hitRatio"/>
            </variables>
          </QualityAssertion>
          <action name="route">
            <splitter>
              <group name="strong"><condition>HR &gt; 50</condition></group>
              <group name="weak"><condition>HR &gt; 5</condition></group>
            </splitter>
          </action>
        </QualityView>
        """
        workflow = framework.compiler.compile(parse_quality_view(text))
        action = workflow.processors["route"]
        assert isinstance(action, ActionProcessor)
        assert set(action.group_ports) == {"strong", "weak", "default"}
        assert "route_default" in workflow.outputs


class TestEvidenceConditions:
    """Conditions are 'predicates on the values of QAs and of the
    evidence' (Sec. 4): filters on annotator-declared evidence must
    validate and evaluate, even without a QA mentioning that evidence."""

    VIEW = """
    <QualityView name="evidence-filter">
      <Annotator serviceName="ImprintOutputAnnotator"
                 serviceType="q:Imprint-output-annotation">
        <variables repositoryRef="cache" persistent="false">
          <var evidence="q:hitRatio"/>
          <var evidence="q:coverage"/>
        </variables>
      </Annotator>
      <QualityAssertion serviceName="HR score" serviceType="q:HRScore"
                        tagName="HR" tagSynType="q:score">
        <variables repositoryRef="cache">
          <var variableName="hitRatio" evidence="q:hitRatio"/>
        </variables>
      </QualityAssertion>
      <action name="direct">
        <filter><condition>coverage &gt; 0.3 and HR &gt; 10</condition></filter>
      </action>
    </QualityView>
    """

    def test_validates(self, loaded_framework):
        framework, _ = loaded_framework
        from repro.qv import parse_quality_view, validate_quality_view

        report = validate_quality_view(
            parse_quality_view(self.VIEW), framework.iq_model
        )
        assert report.ok(), report.errors

    def test_evidence_condition_evaluates(self, loaded_framework, result_set):
        framework, holder = loaded_framework
        holder.set(result_set)
        view = framework.quality_view(self.VIEW)
        result = view.run(result_set.items())
        kept = result.surviving("direct")
        assert kept
        for item in kept:
            hit = result_set.hit(item)
            assert hit.mass_coverage > 0.3
            assert hit.hit_ratio * 100 > 10
