"""Service wrappers exposing operators through the common interface.

Every Qurator service takes a ``DataSetMessage`` plus an
``AnnotationMapMessage`` and returns an ``AnnotationMapMessage`` — the
"same WSDL interface" of Sec. 5.  ``invoke_xml`` exercises the full
message path (serialise → process → serialise); ``invoke`` is the
native fast path the workflow enactor uses.
"""

from __future__ import annotations

import abc
import time
from typing import Any, Callable, Mapping, Optional

from repro.annotation.map import AnnotationMap
from repro.services.messages import AnnotationMapMessage, DataSetMessage
from repro.rdf import URIRef


class ServiceFault(RuntimeError):
    """The service-layer error envelope (a SOAP fault analogue).

    Carries the failing service's name and endpoint so retried or
    dead-lettered invocations stay debuggable from the trace alone, and
    keeps the underlying exception both as ``cause`` and as
    ``__cause__`` (raise sites use ``raise ... from exc``).
    """

    def __init__(
        self,
        service: str,
        message: str,
        endpoint: Optional[str] = None,
        cause: Optional[BaseException] = None,
    ) -> None:
        where = f" at {endpoint}" if endpoint else ""
        super().__init__(f"fault from service {service!r}{where}: {message}")
        self.service = service
        self.fault_message = message
        self.endpoint = endpoint
        self.cause = cause


class Service(abc.ABC):
    """A deployed Qurator service: an endpoint plus the common interface.

    The paper's services are WSDL web services; ``latency`` models the
    network round trip of one invocation (seconds slept before
    processing, 0 by default).  Throughput experiments use it to study
    the concurrent runtime under realistic remote-call conditions.
    """

    def __init__(self, name: str, concept: URIRef, endpoint: str) -> None:
        self.name = name
        #: The IQ-model class this service implements.
        self.concept = concept
        self.endpoint = endpoint
        #: Simulated WSDL round-trip time per invocation, in seconds.
        self.latency: float = 0.0
        #: Optional :class:`repro.resilience.FaultInjector` consulted on
        #: every round trip (may sleep or raise an injected fault).
        self.fault_injector: Optional[Any] = None

    def with_latency(self, seconds: float) -> "Service":
        """Set the simulated round-trip time; returns self for chaining."""
        if seconds < 0:
            raise ValueError(f"latency must be >= 0, got {seconds}")
        self.latency = seconds
        return self

    def _round_trip(self) -> None:
        """Pay one invocation's simulated network cost.

        When a fault injector is attached it runs first, so an injected
        fault costs nothing extra while injected latency stacks on top
        of the service's own round-trip time.
        """
        if self.fault_injector is not None:
            self.fault_injector.on_invocation(self)
        if self.latency > 0:
            time.sleep(self.latency)

    @abc.abstractmethod
    def invoke(
        self,
        dataset: DataSetMessage,
        amap: AnnotationMap,
        context: Optional[Mapping[str, Any]] = None,
    ) -> AnnotationMap:
        """Process a data set + annotation map into a new annotation map."""

    def invoke_xml(self, dataset_xml: str, amap_xml: str) -> str:
        """The wire-format entry point used by the message-path tests."""
        try:
            dataset = DataSetMessage.from_xml(dataset_xml)
            amap = AnnotationMapMessage.from_xml(amap_xml).amap
            result = self.invoke(dataset, amap)
        except ServiceFault:
            raise
        except Exception as exc:
            raise ServiceFault(
                self.name, str(exc), endpoint=self.endpoint, cause=exc
            ) from exc
        return AnnotationMapMessage(result).to_xml()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} at {self.endpoint}>"


class QualityAssertionService(Service):
    """Exposes a :class:`QualityAssertionOperator` as a service.

    ``item_local`` declares that the operator's verdict for an item
    depends only on that item's own evidence vector — never on the
    rest of the collection.  The quality-view compiler's filter
    pushdown relies on it: an item-local QA may safely score a
    narrowed collection.  Collection-relative QAs (e.g. thresholds at
    avg ± stddev of the score distribution) must leave it False.
    """

    def __init__(
        self,
        name: str,
        concept: URIRef,
        endpoint: str,
        operator_factory: Callable[..., Any],
        item_local: bool = False,
    ) -> None:
        super().__init__(name, concept, endpoint)
        #: Builds the QA operator given the view's configuration
        #: (tag_name, tag_syn_type, tag_sem_type, variables).
        self.operator_factory = operator_factory
        #: Per-item verdicts only; see the class docstring.
        self.item_local = item_local

    def build_operator(self, **config: Any):
        """Instantiate the QA operator from view configuration."""

        return self.operator_factory(**config)

    def invoke(
        self,
        dataset: DataSetMessage,
        amap: AnnotationMap,
        context: Optional[Mapping[str, Any]] = None,
    ) -> AnnotationMap:
        """Process a data set + annotation map into a new map.

        A batched invocation passes a list of member operator
        configurations under the ``"operators"`` context key (the
        compiler's QA-fusion pass emits these): one round trip, the
        member operators chained over the same restricted map.  QA
        operators read only evidence vectors, so the chained result
        carries exactly the tags the member-by-member invocations
        would have produced.

        A ``"summary"`` context entry (a
        :class:`~repro.qa.classifier.ScoreSummary`) makes a
        collection-scoped operator label the data set against that
        collection summary rather than the data set's own; an
        incremental enactor passes it to relabel a subset of a larger
        collection.
        """

        self._round_trip()
        config = dict(context or {})
        member_configs = config.pop("operators", None)
        summary = config.pop("summary", None)
        restricted = amap.subset(dataset.items) if dataset.items else amap
        for item in dataset.items:
            restricted.add_item(item)
        if member_configs:
            result = restricted
            for member_config in member_configs:
                operator = self.build_operator(**dict(member_config))
                result = operator.execute(result)
            return result
        operator = self.build_operator(**config)
        if summary is not None:
            return operator.execute(restricted, summary=summary)
        return operator.execute(restricted)


class AnnotationService(Service):
    """Exposes an :class:`AnnotationFunction` as a service.

    The service computes evidence for the items in the data set and
    merges it into the annotation map; the caller (an Annotation
    operator or the compiled workflow) persists it to the repository.
    """

    def __init__(
        self,
        name: str,
        concept: URIRef,
        endpoint: str,
        function,
    ) -> None:
        super().__init__(name, concept, endpoint)
        self.function = function

    def invoke(
        self,
        dataset: DataSetMessage,
        amap: AnnotationMap,
        context: Optional[Mapping[str, Any]] = None,
    ) -> AnnotationMap:
        """Process a data set + annotation map into a new map."""

        self._round_trip()
        computed = self.function.annotate(
            list(dataset.items), set(self.function.provides), context
        )
        result = amap.copy()
        result.merge(computed)
        return result
