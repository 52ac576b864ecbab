"""Tests for quality-view diffing and workflow depth linting."""

import pytest

from repro.core.ispider import example_quality_view_xml
from repro.qv import parse_quality_view
from repro.qv.diff import diff_views, render_diff
from repro.qv.passes import NO_PASSES
from repro.workflow import PythonProcessor, Workflow


class TestViewDiff:
    def spec(self, condition="ScoreClass in q:high"):
        return parse_quality_view(example_quality_view_xml(condition))

    def test_identical_views_empty_diff(self):
        diff = diff_views(self.spec(), self.spec())
        assert diff.is_empty()
        assert "identical" in render_diff(diff)

    def test_condition_edit_detected(self):
        old = self.spec("ScoreClass in q:high")
        new = self.spec("ScoreClass in q:high, q:mid and HR MC > 20")
        diff = diff_views(old, new)
        assert not diff.is_empty()
        (change,) = diff.changed_conditions.values()
        assert change[0] == ["ScoreClass in q:high"]
        assert "HR MC > 20" in change[1][0]
        text = render_diff(diff)
        assert "- ScoreClass in q:high" in text
        assert "+ ScoreClass in q:high, q:mid and HR MC > 20" in text

    def test_removed_assertion_detected(self):
        old = self.spec()
        new = self.spec()
        new.assertions = new.assertions[:2]  # drop the classifier
        diff = diff_views(old, new)
        assert diff.removed_assertions == ["PIScoreClassifier"]
        assert diff.added_assertions == []

    def test_added_annotator_detected(self):
        old = self.spec()
        new = self.spec()
        old.annotators = []
        diff = diff_views(old, new)
        assert diff.added_annotators == ["ImprintOutputAnnotator"]

    def test_variable_binding_change_detected(self):
        from dataclasses import replace

        old = self.spec()
        new = self.spec()
        assertion = new.assertions[1]  # HR score
        changed = replace(
            assertion,
            variables=tuple(
                replace(v, repository_ref="curated") for v in assertion.variables
            ),
        )
        new.assertions[1] = changed
        diff = diff_views(old, new)
        assert diff.changed_assertions == ["HR score"]

    def test_formatting_only_edit_registers_no_change(self):
        """Canonicalised conditions: whitespace edits do not diff."""
        old = self.spec("ScoreClass in q:high")
        new = self.spec("ScoreClass   in\n      q:high")
        assert diff_views(old, new).is_empty()

    def test_optimized_and_reference_compilations_stay_comparable(
        self, framework
    ):
        """Pass-induced reordering must not register as a view change:
        both pipelines stamp the same canonical fingerprint, and the
        spec-level diff of the (unchanged) view stays empty."""
        from repro.core.ispider import LiveImprintAnnotator, ResultSetHolder
        from repro.qv.diff import same_compiled_view

        framework.deploy_annotation_service(
            "ImprintOutputAnnotator", LiveImprintAnnotator(ResultSetHolder())
        )
        spec = self.spec()
        reference = framework.compiler.compile(spec, options=NO_PASSES)
        optimized = framework.compiler.compile(spec)
        assert reference.processors.keys() == optimized.processors.keys()
        assert same_compiled_view(reference, optimized)
        assert diff_views(spec, self.spec()).is_empty()

    def test_action_rename_is_remove_plus_add(self):
        old = self.spec()
        new = self.spec()
        from dataclasses import replace

        new.actions[0] = replace(new.actions[0], name="renamed")
        diff = diff_views(old, new)
        assert diff.added_actions == ["renamed"]
        assert diff.removed_actions == ["filter top k score"]


class TestDepthLint:
    def build(self, out_depth, in_depth):
        wf = Workflow("lint")
        wf.add_processor(
            PythonProcessor("src", lambda: 0, output_ports={"out": out_depth})
        )
        wf.add_processor(
            PythonProcessor("dst", lambda x: x,
                            input_ports={"x": in_depth},
                            output_ports={"y": 0})
        )
        wf.connect("src", "out", "dst", "x")
        return wf

    def test_matching_depths_clean(self):
        assert self.build(0, 0).depth_warnings() == []
        assert self.build(1, 1).depth_warnings() == []

    def test_list_into_scalar_warns_iteration(self):
        (warning,) = self.build(1, 0).depth_warnings()
        assert "implicit iteration" in warning

    def test_scalar_into_list_warns(self):
        (warning,) = self.build(0, 1).depth_warnings()
        assert "scalar" in warning

    def test_workflow_level_links_skipped(self):
        wf = Workflow("w")
        wf.add_input("x")
        wf.add_processor(
            PythonProcessor("p", lambda v: v,
                            input_ports={"v": 0}, output_ports={"o": 0})
        )
        wf.connect("", "x", "p", "v")
        assert wf.depth_warnings() == []

    def test_compiled_quality_view_is_depth_clean(self, framework):
        from repro.core.ispider import (
            LiveImprintAnnotator,
            ResultSetHolder,
            example_quality_view_xml,
        )

        framework.deploy_annotation_service(
            "ImprintOutputAnnotator", LiveImprintAnnotator(ResultSetHolder())
        )
        view = framework.quality_view(example_quality_view_xml())
        assert view.compile().depth_warnings() == []
