"""The view registry: named, compiled quality views shared by tenants.

``PUT /views/{name}`` lands here: the XML is parsed, validated against
the framework's IQ model, and compiled through the framework compiler —
which routes default-option compiles through the server's
:class:`~repro.serving.plans.PlanCache`, so signature-identical views
(same fingerprint) registered under different names or by different
tenants share one compiled workflow and one precomputed wavefront
schedule.  Registration is idempotent per (name, fingerprint):
re-registering the same XML bumps nothing but the tenant set; changed
XML bumps the version and swaps the plan.

With a *durable graph* attached (``repro serve --store-dir``), every
registration is also written — name, source XML, version, tenant set —
as triples in a disk-backed store, and a restarted registry re-parses,
re-validates and re-compiles each persisted view at construction.  A
restarted server therefore re-serves its registered views without any
client re-registration, with byte-identical enactment results.
"""

from __future__ import annotations

import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.core.errors import QuratorError
from repro.observability import get_event_log, get_registry
from repro.qv.ir import view_fingerprint
from repro.rdf import Graph, Literal, Namespace, URIRef

if TYPE_CHECKING:
    from repro.core.framework import QuratorFramework
    from repro.core.quality_view import QualityView
    from repro.serving.plans import PlanCache

#: Vocabulary of the persisted-registration triples.
SV = Namespace("http://qurator.org/serving#")
#: Subject namespace: one node per registered view name.
VIEW_NS = "http://qurator.org/serving/view/"


def _view_subject(name: str) -> URIRef:
    return URIRef(VIEW_NS + urllib.parse.quote(name, safe=""))


class UnknownViewError(KeyError):
    """No view is registered under the requested name."""


class RegistrationError(ValueError):
    """The submitted view failed to parse, validate, or compile."""


@dataclass
class RegisteredView:
    """One name's registered view and its shared compiled plan."""

    name: str
    view: "QualityView"
    fingerprint: str
    version: int
    registered_at: float
    plan_cache_hit: bool
    tenants: Set[str] = field(default_factory=set)
    enactments: int = 0
    #: The source XML as submitted (what a durable registry persists).
    xml: str = ""
    #: True when this record was rebuilt from the durable store.
    restored: bool = False

    def describe(self) -> Dict[str, object]:
        """The JSON-ready registration document."""
        workflow = self.view.compile()
        schedule = workflow.ensure_schedule()
        return {
            "name": self.name,
            "view": self.view.name,
            "fingerprint": self.fingerprint,
            "version": self.version,
            "registered_at": self.registered_at,
            "plan_cache": "hit" if self.plan_cache_hit else "miss",
            "tenants": sorted(self.tenants),
            "enactments": self.enactments,
            "restored": self.restored,
            "processors": len(workflow.processors),
            "waves": len(schedule.stages),
        }


class ViewRegistry:
    """Thread-safe name -> :class:`RegisteredView` map of one server."""

    def __init__(
        self,
        framework: "QuratorFramework",
        plan_cache: "PlanCache",
        durable_graph: Optional[Graph] = None,
    ) -> None:
        self.framework = framework
        self.plan_cache = plan_cache
        # Route every default-option compile of this framework through
        # the shared cache; this is what makes cross-tenant plan reuse
        # automatic rather than a serving-layer special case.
        framework.compiler.plan_cache = plan_cache
        self._views: Dict[str, RegisteredView] = {}
        self._lock = threading.Lock()
        self._durable = durable_graph
        if durable_graph is not None:
            self._restore()

    # -- durability --------------------------------------------------------

    def _persist(self, record: RegisteredView) -> None:
        """Write one registration's current state to the durable graph.

        One :meth:`Graph.update`: only the net change is written, as one
        WAL record, so a crash restores the old registration or the new
        one and an unchanged re-register writes nothing.
        """
        graph = self._durable
        if graph is None or not record.xml:
            return
        subject = _view_subject(record.name)
        additions = [
            (subject, SV.name, Literal(record.name)),
            (subject, SV.xml, Literal(record.xml)),
            (subject, SV.version, Literal(record.version)),
        ] + [
            (subject, SV.tenant, Literal(tenant))
            for tenant in sorted(record.tenants)
        ]
        graph.update([(subject, None, None)], additions)
        graph.flush()

    def _forget(self, name: str) -> None:
        graph = self._durable
        if graph is None:
            return
        graph.update([(_view_subject(name), None, None)])
        graph.flush()

    def _restore(self) -> None:
        """Re-register every view persisted in the durable graph.

        Each persisted view re-parses, re-validates, and re-compiles
        through the shared plan cache exactly as a fresh ``PUT`` would;
        the persisted version and tenant set are carried over.  A view
        that no longer compiles (e.g. the IQ model changed underneath
        it) is skipped with an event rather than failing startup.
        """
        graph = self._durable
        assert graph is not None
        restored = 0
        for subject in sorted(graph.subjects(SV.xml, None), key=str):
            name_term = graph.value(subject, SV.name, None)
            xml_term = graph.value(subject, SV.xml, None)
            version_term = graph.value(subject, SV.version, None)
            if name_term is None or xml_term is None:
                continue
            name = str(name_term.value if isinstance(name_term, Literal)
                       else name_term)
            xml_text = str(xml_term.value if isinstance(xml_term, Literal)
                           else xml_term)
            tenants = {
                str(t.value if isinstance(t, Literal) else t)
                for t in graph.objects(subject, SV.tenant)
            }
            try:
                version = int(version_term.value)  # type: ignore[union-attr]
            except (AttributeError, TypeError, ValueError):
                version = 1
            tenant_list = sorted(tenants) or ["public"]
            try:
                record = self.register(name, xml_text, tenant_list[0])
            except RegistrationError as exc:
                get_event_log().emit(
                    "serving.view.restore_failed",
                    view=name,
                    error=str(exc),
                )
                continue
            with self._lock:
                record.version = version
                record.tenants.update(tenant_list)
                record.restored = True
            restored += 1
        if restored:
            get_event_log().emit("serving.views.restored", count=restored)

    def register(
        self, name: str, xml_text: str, tenant: str
    ) -> RegisteredView:
        """Parse, validate, compile, and (re)register one view."""
        try:
            view = self.framework.quality_view(xml_text)
            report = view.validate()
            if not report.ok():
                raise RegistrationError(
                    "view failed validation: " + "; ".join(report.errors)
                )
            fingerprint = view_fingerprint(view.spec)
            hit = self.plan_cache.contains(fingerprint)
            view.compile()
        except RegistrationError:
            raise
        except (QuratorError, ValueError) as exc:
            raise RegistrationError(str(exc)) from exc
        with self._lock:
            existing = self._views.get(name)
            if existing is not None and existing.fingerprint == fingerprint:
                existing.tenants.add(tenant)
                existing.plan_cache_hit = True
                record = existing
            else:
                record = RegisteredView(
                    name=name,
                    view=view,
                    fingerprint=fingerprint,
                    version=(existing.version + 1) if existing else 1,
                    registered_at=time.time(),
                    plan_cache_hit=hit,
                    tenants={tenant},
                    xml=xml_text,
                )
                self._views[name] = record
            count = len(self._views)
        self._persist(record)
        get_registry().gauge(
            "repro_serving_views_registered",
            "Views currently registered with the server.",
        ).set(count)
        get_event_log().emit(
            "serving.view.registered",
            view=name,
            tenant=tenant,
            fingerprint=fingerprint[:16],
            version=record.version,
            plan_cache="hit" if record.plan_cache_hit else "miss",
        )
        return record

    def get(self, name: str) -> RegisteredView:
        """The registered view, or :class:`UnknownViewError`."""
        with self._lock:
            record = self._views.get(name)
        if record is None:
            raise UnknownViewError(name)
        return record

    def unregister(self, name: str) -> bool:
        """Drop one registration; False when the name was unknown."""
        with self._lock:
            removed = self._views.pop(name, None) is not None
            count = len(self._views)
        if removed:
            self._forget(name)
            get_registry().gauge(
                "repro_serving_views_registered",
                "Views currently registered with the server.",
            ).set(count)
        return removed

    def names(self) -> List[str]:
        """Registered names, sorted."""
        with self._lock:
            return sorted(self._views)

    def describe_all(self) -> List[Dict[str, object]]:
        """Every registration's document, name-sorted."""
        with self._lock:
            records = [self._views[name] for name in sorted(self._views)]
        return [record.describe() for record in records]

    def count_enactment(self, name: str) -> None:
        """Bump one view's enactment counter (unknown names ignored)."""
        with self._lock:
            record = self._views.get(name)
            if record is not None:
                record.enactments += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)
