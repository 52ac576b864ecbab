"""The Qurator framework object."""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Union

from repro.annotation.functions import AnnotationFunction, AnnotationFunctionRegistry
from repro.annotation.manager import RepositoryManager
from repro.annotation.store import AnnotationStore
from repro.binding.registry import BindingRegistry
from repro.core.errors import QuratorError
from repro.core.quality_view import QualityView
from repro.ontology.iq_model import IQModel, build_iq_model
from repro.qa.classifier import PIScoreClassifierQA
from repro.qa.pi_score import HRScoreQA, UniversalPIScoreQA, UniversalPIScore2QA
from repro.qv.compiler import QVCompiler
from repro.qv.spec import QualityViewSpec
from repro.qv.xml_io import parse_quality_view
from repro.rdf import Q, URIRef
from repro.services.interface import AnnotationService, QualityAssertionService
from repro.services.registry import ServiceRegistry
from repro.workflow.enactor import Enactor
from repro.workflow.scavenger import Scavenger

if TYPE_CHECKING:
    from repro.runtime.config import RuntimeConfig
    from repro.runtime.service import ExecutionService


class QuratorFramework:
    """One configured deployment of the quality framework (paper Fig. 5)."""

    def __init__(self, iq_model: Optional[IQModel] = None) -> None:
        self.iq_model = iq_model if iq_model is not None else build_iq_model()
        self.repositories = RepositoryManager(self.iq_model)
        self.services = ServiceRegistry()
        self.bindings = BindingRegistry(self.iq_model.ontology)
        self.annotation_functions = AnnotationFunctionRegistry()
        self.scavenger = Scavenger()
        self.enactor = Enactor()
        self._compiler: Optional[QVCompiler] = None
        self._compiler_lock = threading.Lock()

    # -- repositories -----------------------------------------------------

    def create_repository(
        self, name: str, persistent: bool = True
    ) -> AnnotationStore:
        """Create (or fetch) a named annotation repository."""
        return self.repositories.get_or_create(name, persistent=persistent)

    @property
    def cache(self) -> AnnotationStore:
        """The per-execution scratch repository."""
        return self.repositories.repository(RepositoryManager.CACHE)

    # -- service deployment --------------------------------------------------

    def deploy_annotation_service(
        self,
        name: str,
        function: AnnotationFunction,
        bind: bool = True,
    ) -> AnnotationService:
        """Deploy an annotation function as a service; bind its concept."""
        service = AnnotationService(name, function.function_class, "", function)
        self.services.deploy(service)
        self.annotation_functions.register(function)
        if bind:
            self.bindings.bind_service(function.function_class, service.endpoint)
        self.scavenger.scan(self.services)
        return service

    def deploy_qa_service(
        self,
        name: str,
        concept: URIRef,
        operator_factory: Callable[..., Any],
        bind: bool = True,
        item_local: bool = False,
    ) -> QualityAssertionService:
        """Deploy a QA operator factory as a service; bind its concept.

        ``item_local`` declares the operator's verdicts independent of
        the rest of the collection (see
        :class:`~repro.services.interface.QualityAssertionService`),
        which lets the compiler push filters below the QA.
        """
        service = QualityAssertionService(
            name, concept, "", operator_factory, item_local=item_local
        )
        self.services.deploy(service)
        if bind:
            self.bindings.bind_service(concept, service.endpoint)
        self.scavenger.scan(self.services)
        return service

    def register_standard_services(self) -> None:
        """Deploy the paper's three example QAs under their IQ classes."""
        if "UniversalPIScore" not in self.services:
            self.deploy_qa_service(
                "UniversalPIScore",
                Q.UniversalPIScore,
                UniversalPIScoreQA,
                item_local=True,
            )
        if "UniversalPIScore2" not in self.services:
            self.deploy_qa_service(
                "UniversalPIScore2",
                Q.UniversalPIScore2,
                UniversalPIScore2QA,
                item_local=True,
            )
        if "HRScore" not in self.services:
            self.deploy_qa_service(
                "HRScore", Q.HRScore, HRScoreQA, item_local=True
            )
        if "PIScoreClassifier" not in self.services:
            self.deploy_qa_service(
                "PIScoreClassifier", Q.PIScoreClassifier, PIScoreClassifierQA
            )

    # -- quality views -----------------------------------------------------------

    @property
    def compiler(self) -> QVCompiler:
        """The (lazily built) quality-view compiler for this framework."""
        with self._compiler_lock:
            if self._compiler is None:
                self._compiler = QVCompiler(
                    self.iq_model, self.services, self.bindings, self.repositories
                )
            return self._compiler

    def quality_view(self, view: Union[str, QualityViewSpec]) -> QualityView:
        """Create a quality view from XML text or a parsed spec."""
        try:
            spec = parse_quality_view(view) if isinstance(view, str) else view
        except ValueError as exc:
            raise QuratorError(f"cannot parse quality view: {exc}", exc) from exc
        return QualityView(spec, self)

    def runtime(
        self, config: Optional["RuntimeConfig"] = None, **overrides: Any
    ) -> "ExecutionService":
        """A concurrent execution engine over this framework.

        Returns a started :class:`repro.runtime.service.ExecutionService`
        (job queue + worker pool); keyword overrides adjust the config,
        e.g. ``framework.runtime(workers=8, queue_policy="reject")``.
        ``backend="process"`` (or ``REPRO_RUNTIME_BACKEND=process``)
        selects the sharded process-pool backend instead — deploy every
        service *before* building the runtime then, because workers
        inherit the framework at fork time.  The caller owns its
        lifecycle — use it as a context manager or call ``shutdown()``.
        """
        from repro.runtime.config import BACKEND_PROCESS, RuntimeConfig
        from repro.runtime.service import ExecutionService

        if config is None:
            config = RuntimeConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        if config.backend == BACKEND_PROCESS:
            from repro.runtime.process import ProcessExecutionService

            return ProcessExecutionService(self, config)
        return ExecutionService(self, config)

    def resilient_invoker(self, config: Optional[Any] = None) -> Any:
        """A fault-tolerant service invoker bound to this framework.

        Builds a :class:`repro.resilience.ResilientInvoker` from the
        given :class:`~repro.resilience.ResilienceConfig` (defaults
        apply when omitted) and registers its circuit breakers as the
        service registry's health registry, so
        ``framework.services.health()`` reports per-endpoint breaker
        state.  The invoker (with its config) is the whole policy: pass
        it to :meth:`QualityView.with_resilience` or use
        ``runtime(resilience=...)`` for the managed path.
        """
        from repro.resilience import ResilientInvoker

        return ResilientInvoker(config, services=self.services)

    def end_execution(self) -> None:
        """Per-execution cleanup: clears transient (cache) repositories."""
        self.repositories.clear_transient()

    def __repr__(self) -> str:
        return (
            f"<QuratorFramework: {len(self.services)} services, "
            f"{len(self.bindings)} bindings, "
            f"repositories {self.repositories.names()}>"
        )
