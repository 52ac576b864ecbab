"""The QualityView object: one view through its whole lifecycle."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.annotation.map import AnnotationMap
from repro.core.errors import QuratorError
from repro.core.results import QualityViewResult
from repro.qv.compiler import ActionProcessor, sanitize
from repro.qv.deployment import DeploymentDescriptor, embed_quality_workflow
from repro.qv.spec import QualityViewSpec
from repro.qv.validator import ValidationReport, validate_quality_view
from repro.qv.xml_io import quality_view_to_xml
from repro.rdf import URIRef
from repro.workflow.enactor import Enactor
from repro.workflow.model import Workflow

if TYPE_CHECKING:
    from repro.core.framework import QuratorFramework


class QualityView:
    """A personalised quality lens over data (paper Sec. 1).

    Lifecycle: the spec is validated against the IQ model, compiled into
    a quality workflow targeting the workflow environment, optionally
    embedded within a host workflow, and executed over concrete data
    sets — repeatedly, possibly editing action conditions in between.
    """

    def __init__(self, spec: QualityViewSpec, framework: "QuratorFramework") -> None:
        self.spec = spec
        self.framework = framework
        self._workflow: Optional[Workflow] = None
        #: The view's own resilience policy (see :meth:`with_resilience`).
        self.invoker = None

    @property
    def name(self) -> str:
        """The view's declared name."""

        return self.spec.name

    def to_xml(self) -> str:
        """The view serialised back to the Sec. 5.1 XML syntax."""

        return quality_view_to_xml(self.spec)

    # -- lifecycle -----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Validate the spec against the framework's IQ model."""

        return validate_quality_view(
            self.spec,
            self.framework.iq_model,
            known_repositories=set(self.framework.repositories.names()),
        )

    def compile(self, force: bool = False, options=None) -> Workflow:
        """Compile (and cache) the quality workflow for this view.

        ``options`` is forwarded to
        :meth:`repro.qv.compiler.QVCompiler.compile`; pass
        ``options=CompileOptions(observed_outputs=...)`` (with
        ``force=True`` if already compiled) to unlock the
        observed-output passes before handing the view to a runtime.
        """
        if self._workflow is None or force:
            try:
                self._workflow = self.framework.compiler.compile(
                    self.spec, options=options
                )
            except ValueError as exc:
                raise QuratorError(
                    f"cannot compile quality view {self.name!r}: {exc}", exc
                ) from exc
        return self._workflow

    def invalidate(self) -> None:
        """Drop the compiled workflow (after editing the spec)."""
        self._workflow = None

    def with_resilience(self, invoker) -> "QualityView":
        """Run this view under a resilient invoker's policy.

        :meth:`run` and the incremental enactor route service calls
        through ``invoker`` (retries, deadlines, circuit breakers) and
        degrade by its config's ``on_failure`` policies.  The policy is
        the view's, not its compiled plan's, so it survives recompiles;
        an enactor's own invoker (a runtime's) takes precedence.
        Returns ``self`` for chaining.
        """
        self.invoker = invoker
        return self

    def embed(
        self,
        host: Workflow,
        descriptor: DeploymentDescriptor,
        name: Optional[str] = None,
    ) -> Workflow:
        """Embed the compiled view within a host workflow (Sec. 6.2)."""
        try:
            return embed_quality_workflow(host, self.compile(), descriptor, name)
        except ValueError as exc:
            raise QuratorError(
                f"cannot embed quality view {self.name!r}: {exc}", exc
            ) from exc

    def run(
        self,
        items: Sequence[URIRef],
        enactor: Optional[Enactor] = None,
        clear_cache: bool = True,
    ) -> QualityViewResult:
        """Execute the view stand-alone over a data set.

        ``clear_cache=True`` (the default) resets transient repositories
        first, matching the per-execution scope of cache annotations.
        """
        if clear_cache:
            self.framework.repositories.clear_transient()
        workflow = self.compile()
        runner = enactor if enactor is not None else self.framework.enactor
        outputs = runner.enact(
            workflow, {"dataSet": list(items)}, self.invoker
        ).outputs
        return self._package(list(items), workflow, outputs)

    def _package(
        self, items: List[URIRef], workflow: Workflow, outputs
    ) -> QualityViewResult:
        result = QualityViewResult(
            view_name=self.name,
            items=items,
            annotation_map=outputs.get("annotationMap") or AnnotationMap(),
        )
        for processor in workflow.processors.values():
            if isinstance(processor, ActionProcessor):
                by_group = {}
                for group, port in processor.group_ports.items():
                    output_name = f"{sanitize(processor.name)}_{port}"
                    by_group[group] = list(outputs.get(output_name) or [])
                result.groups[processor.name] = by_group
        return result

    def __repr__(self) -> str:
        compiled = "compiled" if self._workflow is not None else "not compiled"
        return f"<QualityView {self.name!r} ({compiled})>"
