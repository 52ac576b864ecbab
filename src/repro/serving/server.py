"""The multi-tenant quality-view server (``python -m repro serve``).

A threaded stdlib HTTP/JSON front end over one
:class:`~repro.core.framework.QuratorFramework` and one
:class:`~repro.runtime.service.ExecutionService`:

==============================  =============================================
``PUT /views/{name}``           register a view (XML or ``{"xml": ...}``);
                                compiles through the shared plan cache
``GET /views`` / ``{name}``     list / inspect registrations
``DELETE /views/{name}``        unregister
``POST /views/{name}/enact``    submit items through the runtime; per-tenant
                                token-bucket quotas and queue admission
                                control both answer 429 + ``Retry-After``
``GET /jobs`` / ``{id}``        job lifecycle and metrics
``GET /jobs/{id}/result``       the enactment's result document
``GET /deadletters``            jobs that exhausted their retry budget
``GET /datasets``               the server's named item catalogs
``GET /metrics`` / ``.json``    Prometheus text / joined JSON telemetry
``GET /healthz``                breaker states + queue depth + liveness
==============================  =============================================

Tenancy is declared per request (``X-Tenant`` header, default
``public``); tenants share compiled plans and the warm annotation
store but are rate-limited independently, so one tenant exhausting
its quota never blocks another (the end-to-end serving test pins
exactly this).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.observability import (
    PROMETHEUS_CONTENT_TYPE,
    get_event_log,
    get_registry,
    json_snapshot,
    render_prometheus,
)
from repro.rdf import URIRef
from repro.runtime.jobs import JobHandle, JobStatus
from repro.runtime.service import QueueFullError, RuntimeClosedError
from repro.serving import wire
from repro.serving.plans import PlanCache
from repro.serving.quotas import QuotaManager
from repro.serving.registry import (
    RegistrationError,
    UnknownViewError,
    ViewRegistry,
)
from repro.storage.errors import StorageError

if TYPE_CHECKING:
    from repro.core.framework import QuratorFramework
    from repro.runtime.service import ExecutionService

JSON_CONTENT_TYPE = "application/json"


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of one :class:`QualityViewServer`."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (``server.port`` reports it).
    port: int = 8099
    #: Per-tenant token-bucket refill rate (requests/second); ``None``
    #: disables quotas entirely.
    quota_rate: Optional[float] = 50.0
    #: Per-tenant burst capacity (tokens).
    quota_burst: float = 100.0
    #: LRU capacity of the shared compiled-plan cache.
    plan_cache_size: int = 128
    #: Tenant assumed when the request carries no ``X-Tenant`` header.
    default_tenant: str = "public"
    tenant_header: str = "X-Tenant"
    #: Largest accepted request body.
    max_body_bytes: int = 4 * 1024 * 1024
    #: Finished jobs kept inspectable through ``GET /jobs``.
    job_history: int = 1024
    #: Seconds a ``"wait": true`` enactment blocks before answering 504
    #: (a request ``"timeout"`` overrides, never exceeding this cap).
    wait_timeout: float = 60.0
    #: Durable state root (``repro serve --store-dir``).  When set, the
    #: view registry and the persistent annotation repositories open
    #: disk-backed stores under it: registered views and warm
    #: annotations survive restart.  ``None`` keeps everything
    #: in-memory.
    storage_dir: Optional[str] = None
    #: WAL sync policy of the serving stores (``always``/``batch``/
    #: ``none``); see ``repro.storage.wal``.
    storage_sync: str = "batch"

    def validated(self) -> "ServingConfig":
        """Range-check every field; returns self for chaining."""
        if self.port < 0:
            raise ValueError(f"port must be >= 0, got {self.port}")
        if self.quota_rate is not None and self.quota_rate <= 0:
            raise ValueError(
                f"quota_rate must be > 0 (or None to disable), "
                f"got {self.quota_rate}"
            )
        if self.quota_burst < 1:
            raise ValueError(
                f"quota_burst must be >= 1, got {self.quota_burst}"
            )
        if self.plan_cache_size < 1:
            raise ValueError(
                f"plan_cache_size must be >= 1, got {self.plan_cache_size}"
            )
        if self.job_history < 1:
            raise ValueError(
                f"job_history must be >= 1, got {self.job_history}"
            )
        if self.wait_timeout <= 0:
            raise ValueError(
                f"wait_timeout must be > 0 s, got {self.wait_timeout}"
            )
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        from repro.storage import SYNC_MODES

        if self.storage_sync not in SYNC_MODES:
            raise ValueError(
                f"storage_sync must be one of {SYNC_MODES}, "
                f"got {self.storage_sync!r}"
            )
        return self

    def with_overrides(self, **overrides: Any) -> "ServingConfig":
        """A copy with the given fields replaced (and re-validated)."""
        return replace(self, **overrides).validated()


@dataclass
class _JobRecord:
    """What the server remembers about one submitted enactment."""

    handle: JobHandle
    view: str
    tenant: str


class _Response(Exception):
    """An early-exit HTTP response raised from anywhere in a route."""

    def __init__(
        self,
        status: int,
        document: Any,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(str(status))
        self.status = status
        self.document = document
        self.headers = headers or {}


class QualityViewServer:
    """One serving deployment: registry + quotas + runtime behind HTTP.

    The server owns its plan cache, view registry, quota manager, and
    job history; the framework and runtime are injected (the CLI builds
    them, tests may share them).  ``start()`` binds the listening
    socket; ``serve_forever()`` blocks; ``shutdown()`` stops the accept
    loop; ``close()`` also closes the socket and, when asked, drains
    the runtime.
    """

    def __init__(
        self,
        framework: "QuratorFramework",
        runtime: "ExecutionService",
        config: Optional[ServingConfig] = None,
        datasets: Optional[Mapping[str, Sequence[URIRef]]] = None,
    ) -> None:
        self.framework = framework
        self.runtime = runtime
        self.config = (config or ServingConfig()).validated()
        self.plan_cache = PlanCache(self.config.plan_cache_size)
        self._views_graph = None
        if self.config.storage_dir is not None:
            # Durable serving: registered views persist under
            # <store-dir>/views, persistent annotation repositories
            # under <store-dir>/annotations/<name>.  A restarted
            # server re-serves both without re-registration or
            # re-annotation.
            import pathlib

            from repro.storage import open_store

            root = pathlib.Path(self.config.storage_dir)
            self._views_graph = open_store(
                str(root / "views"), sync=self.config.storage_sync
            )
            framework.repositories.attach_storage(str(root / "annotations"))
        self.views = ViewRegistry(
            framework, self.plan_cache, durable_graph=self._views_graph
        )
        self.quotas = QuotaManager(
            self.config.quota_rate, self.config.quota_burst
        )
        self.datasets: Dict[str, List[URIRef]] = {
            name: list(items) for name, items in (datasets or {}).items()
        }
        self._jobs: "OrderedDict[int, _JobRecord]" = OrderedDict()
        self._jobs_lock = threading.Lock()
        # Incremental stream sessions: one enactor per registered view,
        # keyed by the registration fingerprint so re-registering a view
        # with new XML drops the stale memo state.
        self._streams: Dict[str, Tuple[str, Any]] = {}
        self._streams_lock = threading.Lock()
        self._started_at = time.time()
        self._httpd: Optional[ThreadingHTTPServer] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "QualityViewServer":
        """Bind the listening socket (idempotent); returns self."""
        if self._httpd is None:
            self._httpd = ThreadingHTTPServer(
                (self.config.host, self.config.port), self._handler_class()
            )
            self._httpd.daemon_threads = True
        return self

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._httpd is None:
            raise RuntimeError("server is not started; call start() first")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """The server's base URL."""
        return f"http://{self.config.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown`."""
        self.start()
        assert self._httpd is not None
        self._httpd.serve_forever()

    def serve_in_background(self) -> threading.Thread:
        """Serve on a daemon thread; returns it."""
        self.start()
        thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serving",
            daemon=True,
        )
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop the accept loop (safe from any thread, idempotent)."""
        if self._httpd is not None:
            self._httpd.shutdown()

    def server_close(self) -> None:
        """Release the listening socket (``BaseServer`` lifecycle name,
        so :func:`repro.observability.serve_until_interrupt` drives
        this server like any stdlib one)."""
        if self._httpd is not None:
            self._httpd.server_close()
            self._httpd = None

    def close(self, shutdown_runtime: bool = False) -> None:
        """Shut down and release the socket; optionally drain the runtime.

        A durable server also flushes and closes its stores, so the
        next open replays nothing."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if shutdown_runtime:
            self.runtime.shutdown(drain=True)
        if self._views_graph is not None:
            self._views_graph.close()
            self._views_graph = None
            self.framework.repositories.close_all()

    def __enter__(self) -> "QualityViewServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- routing -----------------------------------------------------------

    def dispatch(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, str, bytes, Dict[str, str]]:
        """Serve one request; returns (status, content-type, body, headers).

        This is the whole HTTP surface minus socket handling, so tests
        can drive routes without a listening socket.
        """
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        started = time.perf_counter()
        route = "unknown"
        try:
            route, document, status, extra = self._route(
                method, path, body, headers
            )
            if route == "/metrics":
                payload: bytes = document  # pre-rendered Prometheus text
                content_type = PROMETHEUS_CONTENT_TYPE
            else:
                payload = wire.dumps(document)
                content_type = JSON_CONTENT_TYPE
        except _Response as response:
            status, extra = response.status, response.headers
            payload = wire.dumps(response.document)
            content_type = JSON_CONTENT_TYPE
        except wire.WireError as exc:
            status, extra = exc.status, {}
            payload = wire.dumps({"error": "bad_request", "message": str(exc)})
            content_type = JSON_CONTENT_TYPE
        except StorageError as exc:
            # Durable-store trouble answers with the same machine-
            # readable shape the storage layer raises (code + details).
            status, extra = 500, {}
            payload = wire.dumps({"error": exc.code, **exc.details()})
            content_type = JSON_CONTENT_TYPE
        except Exception as exc:  # noqa: BLE001 - request fault boundary
            status, extra = 500, {}
            payload = wire.dumps(
                {"error": type(exc).__name__, "message": str(exc)}
            )
            content_type = JSON_CONTENT_TYPE
        registry = get_registry()
        registry.counter(
            "repro_serving_http_requests_total",
            "HTTP requests served, by route template, method and status.",
            labels=("route", "method", "code"),
        ).labels(route=route, method=method, code=str(status)).inc()
        registry.histogram(
            "repro_serving_http_request_seconds",
            "Wall-clock seconds serving one HTTP request.",
            labels=("route",),
        ).labels(route=route).observe(time.perf_counter() - started)
        return status, content_type, payload, extra

    def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str],
    ) -> Tuple[str, Any, int, Dict[str, str]]:
        """(route template, document, status, headers) for one request."""
        path = path.split("?", 1)[0]
        parts = [part for part in path.split("/") if part]
        if parts == ["healthz"] and method == "GET":
            document, status = self._healthz()
            return "/healthz", document, status, {}
        if parts == ["metrics"] and method == "GET":
            return "/metrics", render_prometheus().encode("utf-8"), 200, {}
        if parts == ["metrics.json"] and method == "GET":
            return "/metrics.json", self._telemetry(), 200, {}
        if parts == ["datasets"] and method == "GET":
            return "/datasets", self._list_datasets(), 200, {}
        if parts == ["deadletters"] and method == "GET":
            return "/deadletters", self._deadletters(), 200, {}
        if parts and parts[0] == "views":
            if len(parts) == 1 and method == "GET":
                return "/views", {"views": self.views.describe_all()}, 200, {}
            if len(parts) == 2:
                name = parts[1]
                if method == "PUT":
                    document, status = self._register_view(
                        name, body, headers
                    )
                    return "/views/{name}", document, status, {}
                if method == "GET":
                    return (
                        "/views/{name}",
                        self._get_view(name).describe(),
                        200,
                        {},
                    )
                if method == "DELETE":
                    if not self.views.unregister(name):
                        raise _Response(404, self._unknown_view(name))
                    return "/views/{name}", {"deleted": name}, 200, {}
            if len(parts) == 3 and parts[2] == "enact" and method == "POST":
                document, status, extra = self._enact(
                    parts[1], body, headers
                )
                return "/views/{name}/enact", document, status, extra
            if len(parts) == 3 and parts[2] == "deltas" and method == "POST":
                document, status, extra = self._apply_delta(
                    parts[1], body, headers
                )
                return "/views/{name}/deltas", document, status, extra
        if parts and parts[0] == "jobs" and method == "GET":
            if len(parts) == 1:
                return "/jobs", self._list_jobs(), 200, {}
            if len(parts) == 2:
                record = self._get_job(parts[1])
                return (
                    "/jobs/{id}",
                    wire.encode_job(
                        record.handle, view=record.view, tenant=record.tenant
                    ),
                    200,
                    {},
                )
            if len(parts) == 3 and parts[2] == "result":
                return "/jobs/{id}/result", *self._job_result(parts[1]), {}
        raise _Response(
            404,
            {
                "error": "no_such_route",
                "message": f"{method} {path} is not served",
                "routes": [
                    "PUT /views/{name}", "GET /views", "GET /views/{name}",
                    "DELETE /views/{name}", "POST /views/{name}/enact",
                    "POST /views/{name}/deltas",
                    "GET /jobs", "GET /jobs/{id}", "GET /jobs/{id}/result",
                    "GET /deadletters", "GET /datasets", "GET /metrics",
                    "GET /metrics.json", "GET /healthz",
                ],
            },
        )

    # -- route implementations --------------------------------------------

    def _tenant(self, headers: Mapping[str, str]) -> str:
        return (
            headers.get(self.config.tenant_header.lower(), "").strip()
            or self.config.default_tenant
        )

    def _unknown_view(self, name: str) -> Dict[str, Any]:
        return {
            "error": "unknown_view",
            "message": f"no view registered as {name!r}",
            "views": self.views.names(),
        }

    def _get_view(self, name: str):
        try:
            return self.views.get(name)
        except UnknownViewError:
            raise _Response(404, self._unknown_view(name)) from None

    def _register_view(
        self, name: str, body: bytes, headers: Mapping[str, str]
    ) -> Tuple[Dict[str, Any], int]:
        tenant = self._tenant(headers)
        xml_text = wire.decode_view_registration(
            body, headers.get("content-type", "")
        )
        fresh = name not in self.views.names()
        try:
            record = self.views.register(name, xml_text, tenant)
        except RegistrationError as exc:
            raise _Response(
                422, {"error": "invalid_view", "message": str(exc)}
            ) from None
        document = record.describe()
        document["plan_cache_stats"] = self.plan_cache.stats()
        return document, 201 if fresh else 200

    def _enact(
        self, name: str, body: bytes, headers: Mapping[str, str]
    ) -> Tuple[Dict[str, Any], int, Dict[str, str]]:
        record = self._get_view(name)
        tenant = self._tenant(headers)
        items, wait, timeout = wire.decode_enact_request(
            wire.loads(body), self.datasets
        )
        decision = self.quotas.check(tenant)
        if not decision.allowed:
            self._count_enactment(tenant, "quota_rejected")
            raise _Response(
                429,
                {
                    "error": "quota_exhausted",
                    "tenant": tenant,
                    "retry_after": round(decision.retry_after, 3),
                },
                headers={"Retry-After": decision.retry_after_header()},
            )
        try:
            handle = self.runtime.submit(
                record.view,
                items,
                clear_cache=False,
                name=f"serve:{name}:{tenant}",
            )
        except QueueFullError as exc:
            self._count_enactment(tenant, "queue_rejected")
            raise _Response(
                429,
                {"error": "queue_full", "tenant": tenant, **exc.details()},
                headers={"Retry-After": "1"},
            ) from None
        except RuntimeClosedError as exc:
            raise _Response(
                503, {"error": "shutting_down", "message": str(exc)}
            ) from None
        self._count_enactment(tenant, "accepted")
        self.views.count_enactment(name)
        with self._jobs_lock:
            self._jobs[handle.job_id] = _JobRecord(handle, name, tenant)
            while len(self._jobs) > self.config.job_history:
                evicted_id, evicted = self._jobs.popitem(last=False)
                if not evicted.handle.done():
                    # Never forget a live job; re-insert and stop evicting.
                    self._jobs[evicted_id] = evicted
                    self._jobs.move_to_end(evicted_id, last=False)
                    break
        get_event_log().emit(
            "serving.enactment.accepted",
            view=name,
            tenant=tenant,
            job=handle.name,
            items=len(items),
        )
        job_document = wire.encode_job(handle, view=name, tenant=tenant)
        links = {
            "status": f"/jobs/{handle.job_id}",
            "result": f"/jobs/{handle.job_id}/result",
        }
        if not wait:
            return {"job": job_document, "links": links}, 202, {}
        deadline = min(
            timeout if timeout is not None else self.config.wait_timeout,
            self.config.wait_timeout,
        )
        if not handle.wait(deadline):
            return (
                {
                    "error": "timeout",
                    "message": f"job still {handle.status.value} "
                               f"after {deadline}s",
                    "job": wire.encode_job(handle, view=name, tenant=tenant),
                    "links": links,
                },
                504,
                {},
            )
        return self._finished_job_document(handle, name, tenant) + ({},)

    def _finished_job_document(
        self, handle: JobHandle, view: str, tenant: str
    ) -> Tuple[Dict[str, Any], int]:
        job_document = wire.encode_job(handle, view=view, tenant=tenant)
        if handle.status is JobStatus.SUCCEEDED:
            return (
                {
                    "job": job_document,
                    "result": wire.encode_result(handle.result()),
                },
                200,
            )
        status = 410 if handle.status is JobStatus.CANCELLED else 500
        return {"error": "job_failed", "job": job_document}, status

    def _apply_delta(
        self, name: str, body: bytes, headers: Mapping[str, str]
    ) -> Tuple[Dict[str, Any], int, Dict[str, str]]:
        """POST /views/{name}/deltas — incremental re-enactment.

        The body is ``{"delta": {...}}`` (see
        :func:`repro.stream.delta.delta_from_document`).  Admission
        reuses the tenant quota path of ``/enact``; the delta is then
        absorbed synchronously by the view's stream session — a
        per-view :class:`repro.stream.IncrementalEnactor` whose memo
        state lives as long as the registration (re-registering the
        view with different XML drops it).  The session owns a copy of
        the view parsed from the registered XML, so threshold deltas
        never edit the registered view; it fires under the runtime's
        resilience policy.  Upsert values act as
        invalidation hints here: the view's annotators re-read their
        own evidence sources for the touched items.
        """
        from repro.stream.delta import delta_from_document
        from repro.stream.incremental import IncrementalEnactor, StreamError

        record = self._get_view(name)
        tenant = self._tenant(headers)
        document = wire.loads(body)
        if not isinstance(document, dict) or "delta" not in document:
            raise _Response(
                422,
                {
                    "error": "invalid_delta",
                    "message": "body must be a JSON object with a 'delta' key",
                },
            )
        try:
            delta = delta_from_document(document["delta"])
        except ValueError as exc:
            raise _Response(
                422, {"error": "invalid_delta", "message": str(exc)}
            ) from None
        decision = self.quotas.check(tenant)
        if not decision.allowed:
            self._count_enactment(tenant, "quota_rejected")
            raise _Response(
                429,
                {
                    "error": "quota_exhausted",
                    "tenant": tenant,
                    "retry_after": round(decision.retry_after, 3),
                },
                headers={"Retry-After": decision.retry_after_header()},
            )
        with self._streams_lock:
            session = self._streams.get(name)
            if session is None or session[0] != record.fingerprint:
                view = self.framework.quality_view(record.xml)
                view.with_resilience(self.runtime.invoker)
                session = (record.fingerprint, IncrementalEnactor(view))
                self._streams[name] = session
        _fingerprint, enactor = session
        try:
            outcome = enactor.apply(delta)
        except StreamError as exc:
            raise _Response(
                422, {"error": "invalid_delta", "message": str(exc)}
            ) from None
        self._count_enactment(tenant, "accepted")
        self.views.count_enactment(name)
        get_event_log().emit(
            "serving.delta.accepted",
            view=name,
            tenant=tenant,
            fingerprint=outcome.report.delta_fingerprint,
            size=outcome.report.delta_size,
            items=outcome.report.items_total,
        )
        return (
            {
                "view": name,
                "tenant": tenant,
                "delta": {
                    "fingerprint": outcome.report.delta_fingerprint,
                    "size": outcome.report.delta_size,
                },
                "report": outcome.report.to_document(),
                "result": wire.encode_result(outcome.result),
            },
            200,
            {},
        )

    def _count_enactment(self, tenant: str, outcome: str) -> None:
        get_registry().counter(
            "repro_serving_enactments_total",
            "Enactment submissions by tenant and admission outcome "
            "(accepted/quota_rejected/queue_rejected).",
            labels=("tenant", "outcome"),
        ).labels(tenant=tenant, outcome=outcome).inc()

    def _get_job(self, job_id: str) -> _JobRecord:
        try:
            key = int(job_id)
        except ValueError:
            raise _Response(
                404,
                {"error": "unknown_job", "message": f"bad job id {job_id!r}"},
            ) from None
        with self._jobs_lock:
            record = self._jobs.get(key)
        if record is None:
            raise _Response(
                404,
                {"error": "unknown_job", "message": f"no job {key}"},
            )
        return record

    def _job_result(self, job_id: str) -> Tuple[Dict[str, Any], int]:
        record = self._get_job(job_id)
        handle = record.handle
        if not handle.done():
            return (
                {
                    "error": "not_finished",
                    "job": wire.encode_job(
                        handle, view=record.view, tenant=record.tenant
                    ),
                },
                409,
            )
        return self._finished_job_document(
            handle, record.view, record.tenant
        )

    def _list_jobs(self) -> Dict[str, Any]:
        with self._jobs_lock:
            records = list(self._jobs.values())
        return {
            "jobs": [
                wire.encode_job(r.handle, view=r.view, tenant=r.tenant)
                for r in records
            ]
        }

    def _deadletters(self) -> Dict[str, Any]:
        with self._jobs_lock:
            by_id = {
                record.handle.job_id: record
                for record in self._jobs.values()
            }
        letters = []
        for handle in list(self.runtime.dead_letters):
            record = by_id.get(handle.job_id)
            letters.append(
                wire.encode_job(
                    handle,
                    view=record.view if record else "",
                    tenant=record.tenant if record else "",
                )
            )
        return {"deadletters": letters}

    def _list_datasets(self) -> Dict[str, Any]:
        return {
            "datasets": {
                name: {"items": len(items)}
                for name, items in sorted(self.datasets.items())
            }
        }

    def _healthz(self) -> Tuple[Dict[str, Any], int]:
        health = self.framework.services.health()
        breakers = {
            endpoint: snap.state.value
            for endpoint, snap in sorted(health.items())
        }
        open_endpoints = sum(
            1 for state in breakers.values() if state == "open"
        )
        closed = self.runtime.closed
        status = "closed" if closed else (
            "degraded" if open_endpoints else "ok"
        )
        document = {
            "status": status,
            "uptime_s": round(time.time() - self._started_at, 3),
            "queue_depth": self.runtime.queue_depth(),
            "outstanding_jobs": self.runtime.outstanding,
            "workers": self.runtime.config.workers,
            "queue_capacity": self.runtime.config.queue_size,
            "views": len(self.views),
            "breakers": breakers,
            "open_endpoints": open_endpoints,
            "plan_cache": self.plan_cache.stats(),
            "storage": self._storage_health(),
        }
        get_registry().gauge(
            "repro_serving_uptime_seconds",
            "Seconds since the serving process started.",
        ).set(document["uptime_s"])
        return document, 503 if closed else 200

    def _storage_health(self) -> Dict[str, Any]:
        """The durable-store section of ``/healthz``."""
        if self._views_graph is None:
            return {"durable": False}
        stores: Dict[str, Any] = {
            "views": self._views_graph.backend.describe()
        }
        for store in self.framework.repositories:
            if store.durable:
                stores[f"annotations/{store.name}"] = (
                    store.graph.backend.describe()
                )
        return {
            "durable": True,
            "directory": self.config.storage_dir,
            "sync": self.config.storage_sync,
            "stores": stores,
        }

    def _telemetry(self) -> Dict[str, Any]:
        document = json_snapshot(
            services=self.framework.services, runtime=self.runtime
        )
        document["serving"] = {
            "views": self.views.describe_all(),
            "plan_cache": self.plan_cache.stats(),
            "tenants": self.quotas.tenants(),
            "queue_depth": self.runtime.queue_depth(),
            "outstanding_jobs": self.runtime.outstanding,
        }
        return document

    # -- stdlib handler ----------------------------------------------------

    def _handler_class(self):
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Buffer the socket writer so headers and body leave in one
            # write (flushed by ``handle_one_request``).  Unbuffered,
            # the body trails the headers in a second small segment
            # that Nagle's algorithm holds until the client's delayed
            # ACK: ~40 ms per response on a keep-alive connection.
            wbufsize = -1

            def _serve(self) -> None:
                length = int(self.headers.get("Content-Length") or 0)
                if length > outer.config.max_body_bytes:
                    payload = wire.dumps(
                        {
                            "error": "body_too_large",
                            "limit": outer.config.max_body_bytes,
                        }
                    )
                    self._reply(413, JSON_CONTENT_TYPE, payload, {})
                    return
                body = self.rfile.read(length) if length else b""
                status, content_type, payload, extra = outer.dispatch(
                    self.command,
                    self.path,
                    body,
                    dict(self.headers.items()),
                )
                self._reply(status, content_type, payload, extra)

            def _reply(
                self,
                status: int,
                content_type: str,
                payload: bytes,
                extra: Dict[str, str],
            ) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                for header, value in extra.items():
                    self.send_header(header, value)
                self.end_headers()
                self.wfile.write(payload)

            do_GET = _serve  # noqa: N815 - http.server API
            do_PUT = _serve  # noqa: N815
            do_POST = _serve  # noqa: N815
            do_DELETE = _serve  # noqa: N815

            def log_message(self, format: str, *args: Any) -> None:
                pass  # request accounting lives in the metric registry

        return _Handler


def build_server(
    framework: "QuratorFramework",
    runtime: "ExecutionService",
    config: Optional[ServingConfig] = None,
    datasets: Optional[Mapping[str, Sequence[URIRef]]] = None,
) -> QualityViewServer:
    """Construct (without binding) a :class:`QualityViewServer`."""
    return QualityViewServer(
        framework, runtime, config=config, datasets=datasets
    )
