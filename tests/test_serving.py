"""The multi-tenant serving tier: HTTP surface, plan sharing, quotas.

The acceptance scenario of the serving subsystem lives here: two
tenants register the same view spec, the fingerprint-keyed plan cache
compiles exactly once, every tenant's served enactment is byte-equal
to a direct :class:`ExecutionService` run, and one tenant exhausting
its quota answers 429 + ``Retry-After`` while the other keeps being
served.  A fast smoke test (register -> enact -> scrape ``/metrics``)
doubles as the CI serving gate.
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading
import time
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest

from repro.core.ispider import example_quality_view_xml, setup_framework
from repro.rdf import Graph
from repro.serving import (
    PlanCache,
    QualityViewServer,
    QuotaManager,
    ServingConfig,
    TokenBucket,
    ViewRegistry,
    WireError,
    wire,
)
from repro.serving.registry import _view_subject
from repro.storage import PagedBackend
from repro.storage.records import OP_BATCH, RecordScanner


@pytest.fixture(scope="module")
def serving_world(scenario, result_set):
    """A deployed framework + dataset catalog shared by this module.

    Module-scoped because ``setup_framework`` deploys services and the
    tests below treat the framework as read-only apart from view
    registrations (each server owns its own registry and plan cache).
    """
    framework, holder = setup_framework(scenario)
    holder.set(result_set)
    run_ids = sorted({result_set.run_id(item) for item in result_set.items()})
    datasets = {
        run_id: result_set.items_of_run(run_id) for run_id in run_ids
    }
    return framework, datasets, example_quality_view_xml()


def _request(url, method="GET", body=None, headers=None):
    """(status, parsed-or-text body, headers) for one HTTP exchange."""
    request = Request(url, data=body, method=method)
    for header, value in (headers or {}).items():
        request.add_header(header, value)
    try:
        with urlopen(request, timeout=60) as response:
            raw = response.read()
            status, response_headers = response.status, dict(response.headers)
    except HTTPError as error:
        raw = error.read()
        status, response_headers = error.code, dict(error.headers)
    text = raw.decode("utf-8")
    try:
        return status, json.loads(text), response_headers
    except json.JSONDecodeError:
        return status, text, response_headers


@pytest.fixture()
def server(serving_world):
    """One running server on an ephemeral port (quotas generous)."""
    framework, datasets, _ = serving_world
    runtime = framework.runtime(
        workers=2, queue_size=16, queue_policy="reject", name="serving-test"
    )
    config = ServingConfig(port=0, quota_rate=1000.0, quota_burst=1000.0)
    with QualityViewServer(
        framework, runtime, config=config, datasets=datasets
    ) as running:
        running.serve_in_background()
        yield running
    runtime.shutdown(drain=True)


class TestEndToEndServing:
    def test_two_tenants_one_compilation_byte_equal_results_quota_isolation(
        self, server, serving_world
    ):
        framework, datasets, xml = serving_world
        base = server.url
        dataset_name = sorted(datasets)[0]
        xml_headers = {"Content-Type": "application/xml"}

        # -- two tenants register the *same* view spec -------------------
        status, alice_doc, _ = _request(
            f"{base}/views/qv-alice", "PUT", xml.encode("utf-8"),
            {**xml_headers, "X-Tenant": "alice"},
        )
        assert status == 201
        assert alice_doc["plan_cache"] == "miss"
        status, bob_doc, _ = _request(
            f"{base}/views/qv-bob", "PUT", xml.encode("utf-8"),
            {**xml_headers, "X-Tenant": "bob"},
        )
        assert status == 201
        assert bob_doc["plan_cache"] == "hit"
        assert bob_doc["fingerprint"] == alice_doc["fingerprint"]

        # exactly one compilation, observable both in the registration
        # response and in the cache-hit metric counters
        stats = bob_doc["plan_cache_stats"]
        assert stats["compilations"] == 1
        assert stats["hits"] >= 1
        assert server.plan_cache.stats()["compilations"] == 1

        # -- both tenants' enactments are byte-equal to a direct run -----
        served = {}
        for tenant, view_name in (("alice", "qv-alice"), ("bob", "qv-bob")):
            status, document, _ = _request(
                f"{base}/views/{view_name}/enact", "POST",
                wire.dumps({"dataset": dataset_name, "wait": True}),
                {"X-Tenant": tenant},
            )
            assert status == 200, document
            assert document["job"]["status"] == "succeeded"
            assert document["job"]["tenant"] == tenant
            served[tenant] = wire.dumps(document["result"])

        view = framework.quality_view(xml)
        with framework.runtime(workers=2, name="direct") as direct:
            handle = direct.submit(
                view, datasets[dataset_name], clear_cache=False
            )
            direct_bytes = wire.dumps(wire.encode_result(handle.result(60)))
        assert served["alice"] == direct_bytes
        assert served["bob"] == direct_bytes

        # the direct run reused the same cached plan: still 1 compilation
        assert server.plan_cache.stats()["compilations"] == 1

        # -- quota exhaustion is per-tenant ------------------------------
        server.quotas.configure("alice", rate=0.001, burst=2.0)
        item = str(datasets[dataset_name][0])
        flood_body = wire.dumps({"items": [item]})
        statuses = []
        retry_after = None
        for _ in range(5):
            status, document, headers = _request(
                f"{base}/views/qv-alice/enact", "POST", flood_body,
                {"X-Tenant": "alice"},
            )
            statuses.append(status)
            if status == 429:
                assert document["error"] == "quota_exhausted"
                assert document["tenant"] == "alice"
                retry_after = headers.get("Retry-After")
        assert statuses == [202, 202, 429, 429, 429]
        assert retry_after is not None and int(retry_after) >= 1

        # ...while the other tenant keeps being served
        status, document, _ = _request(
            f"{base}/views/qv-bob/enact", "POST",
            wire.dumps({"items": [item], "wait": True}),
            {"X-Tenant": "bob"},
        )
        assert status == 200, document

    def test_smoke_register_enact_scrape(self, server, serving_world):
        """The CI smoke path: ephemeral port, register, enact, scrape."""
        _, datasets, xml = serving_world
        base = server.url
        status, _, _ = _request(
            f"{base}/views/smoke", "PUT", xml.encode("utf-8"),
            {"Content-Type": "application/xml"},
        )
        assert status == 201
        status, document, _ = _request(
            f"{base}/views/smoke/enact", "POST",
            wire.dumps({"dataset": sorted(datasets)[0], "wait": True}),
        )
        assert status == 200
        assert document["result"]["surviving"]

        status, scrape, _ = _request(f"{base}/metrics")
        assert status == 200
        assert "repro_serving_http_requests_total" in scrape
        assert "repro_serving_plan_cache_hits_total" in scrape
        assert "repro_serving_enactments_total" in scrape

        status, health, _ = _request(f"{base}/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["queue_depth"] >= 0
        assert "breakers" in health

        status, telemetry, _ = _request(f"{base}/metrics.json")
        assert status == 200
        assert telemetry["serving"]["plan_cache"]["entries"] >= 1

    def test_keep_alive_responses_are_not_delayed(self, server):
        """Headers and body leave in one write, so a keep-alive client
        never waits on Nagle's algorithm (~40 ms per response when the
        body trailed the headers in a second segment)."""
        connection = http.client.HTTPConnection(
            server.config.host, server.port, timeout=30
        )
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/datasets")
                response = connection.getresponse()
                assert response.status == 200
                json.loads(response.read())
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.3, f"20 keep-alive requests took {elapsed:.3f}s"


class TestDispatch:
    """Route behaviour driven through ``dispatch`` (no socket)."""

    @pytest.fixture()
    def app(self, serving_world):
        framework, datasets, xml = serving_world
        runtime = framework.runtime(
            workers=2, queue_size=8, queue_policy="reject", name="dispatch"
        )
        server = QualityViewServer(
            framework,
            runtime,
            config=ServingConfig(port=0, quota_rate=None),
            datasets=datasets,
        )
        yield server, xml, sorted(datasets)[0]
        runtime.shutdown(drain=True)

    @staticmethod
    def _call(server, method, path, body=b"", headers=None):
        status, _, payload, extra = server.dispatch(
            method, path, body, headers or {}
        )
        return status, json.loads(payload), extra

    def test_unknown_route_lists_the_surface(self, app):
        server, _, _ = app
        status, document, _ = self._call(server, "GET", "/nope")
        assert status == 404
        assert document["error"] == "no_such_route"
        assert "POST /views/{name}/enact" in document["routes"]

    def test_enact_unknown_view_404(self, app):
        server, _, dataset = app
        status, document, _ = self._call(
            server, "POST", "/views/ghost/enact",
            wire.dumps({"dataset": dataset}),
        )
        assert status == 404
        assert document["error"] == "unknown_view"

    def test_register_invalid_view_422(self, app):
        server, _, _ = app
        bad = "<QualityView name='broken'><Nope/></QualityView>"
        status, document, _ = self._call(
            server, "PUT", "/views/broken", bad.encode("utf-8"),
            {"Content-Type": "application/xml"},
        )
        assert status == 422
        assert document["error"] == "invalid_view"

    def test_malformed_json_body_400(self, app):
        server, xml, _ = app
        self._call(
            server, "PUT", "/views/v", xml.encode("utf-8"),
            {"Content-Type": "application/xml"},
        )
        status, document, _ = self._call(
            server, "POST", "/views/v/enact", b"{nope"
        )
        assert status == 400
        assert document["error"] == "bad_request"

    def test_enact_needs_exactly_one_data_source(self, app):
        server, xml, dataset = app
        self._call(
            server, "PUT", "/views/v2", xml.encode("utf-8"),
            {"Content-Type": "application/xml"},
        )
        status, _, _ = self._call(
            server, "POST", "/views/v2/enact",
            wire.dumps({"dataset": dataset, "items": []}),
        )
        assert status == 400
        status, document, _ = self._call(
            server, "POST", "/views/v2/enact",
            wire.dumps({"dataset": "no-such-run"}),
        )
        assert status == 404
        assert "no-such-run" in document["message"]

    def test_job_lifecycle_endpoints(self, app):
        server, xml, dataset = app
        self._call(
            server, "PUT", "/views/jobs-view", xml.encode("utf-8"),
            {"Content-Type": "application/xml"},
        )
        status, accepted, _ = self._call(
            server, "POST", "/views/jobs-view/enact",
            wire.dumps({"dataset": dataset}),
        )
        assert status == 202
        job_id = accepted["job"]["job_id"]
        assert accepted["links"]["result"] == f"/jobs/{job_id}/result"

        record = server._jobs[job_id]
        assert record.handle.wait(30)
        status, document, _ = self._call(server, "GET", f"/jobs/{job_id}")
        assert status == 200
        assert document["status"] == "succeeded"
        status, document, _ = self._call(
            server, "GET", f"/jobs/{job_id}/result"
        )
        assert status == 200
        assert document["result"]["view"]
        status, document, _ = self._call(server, "GET", "/jobs/999999")
        assert status == 404
        assert document["error"] == "unknown_job"
        status, document, _ = self._call(server, "GET", "/jobs")
        assert any(j["job_id"] == job_id for j in document["jobs"])

    def test_view_listing_and_unregistration(self, app):
        server, xml, _ = app
        self._call(
            server, "PUT", "/views/gone", xml.encode("utf-8"),
            {"Content-Type": "application/xml"},
        )
        status, document, _ = self._call(server, "GET", "/views/gone")
        assert status == 200 and document["name"] == "gone"
        status, document, _ = self._call(server, "DELETE", "/views/gone")
        assert status == 200 and document["deleted"] == "gone"
        status, _, _ = self._call(server, "DELETE", "/views/gone")
        assert status == 404

    def test_datasets_and_deadletters_endpoints(self, app):
        server, _, dataset = app
        status, document, _ = self._call(server, "GET", "/datasets")
        assert status == 200
        assert document["datasets"][dataset]["items"] > 0
        status, document, _ = self._call(server, "GET", "/deadletters")
        assert status == 200
        assert document["deadletters"] == []

    def test_threshold_deltas_leave_the_registered_view_alone(self, app):
        """A delta session edits a private copy of the view, never the
        registered one every tenant's ``/enact`` runs."""
        from repro.core.ispider import FILTER_ACTION
        from repro.qv.ir import view_fingerprint
        from repro.stream import Delta, delta_to_document

        server, xml, dataset = app
        for tenant in ("t1", "t2"):
            status, _, _ = self._call(
                server, "PUT", "/views/shared", xml.encode("utf-8"),
                {"Content-Type": "application/xml", "x-tenant": tenant},
            )
            assert status in (200, 201)

        def enact(tenant):
            status, accepted, _ = self._call(
                server, "POST", "/views/shared/enact",
                wire.dumps({"dataset": dataset}), {"x-tenant": tenant},
            )
            assert status == 202
            job_id = accepted["job"]["job_id"]
            assert server._jobs[job_id].handle.wait(30)
            status, document, _ = self._call(
                server, "GET", f"/jobs/{job_id}/result"
            )
            assert status == 200
            return document["result"]

        before = {tenant: enact(tenant) for tenant in ("t1", "t2")}
        assert any(before["t1"]["groups"][FILTER_ACTION].values())
        delta = Delta(thresholds={FILTER_ACTION: "HR > 100"})
        status, _, _ = self._call(
            server, "POST", "/views/shared/deltas",
            wire.dumps({"delta": delta_to_document(delta)}),
        )
        assert status == 200
        assert {tenant: enact(tenant) for tenant in ("t1", "t2")} == before
        record = server.views.get("shared")
        assert record.fingerprint == view_fingerprint(record.view.spec)


class TestDurableRegistration:
    """A registration persists as one net-change write on the paged
    engine: one WAL record, so a crash keeps the old or the new view."""

    def test_re_register_writes_one_record_or_none(
        self, scenario, result_set, tmp_path
    ):
        framework, holder = setup_framework(scenario)
        holder.set(result_set)
        live = tmp_path / "live"
        graph = Graph(backend=PagedBackend(str(live), sync="always"))
        registry = ViewRegistry(framework, PlanCache(4), durable_graph=graph)
        subject = _view_subject("lab")

        def registration(store):
            return sorted(store.triples((subject, None, None)), key=repr)

        registry.register("lab", example_quality_view_xml(), "alice")
        old = registration(graph)
        wal = live / "store.wal"
        base = wal.stat().st_size
        registry.register("lab", example_quality_view_xml(), "alice")
        assert wal.stat().st_size == base, "an unchanged view wrote WAL"
        registry.register(
            "lab", example_quality_view_xml("ScoreClass in q:mid"), "alice"
        )
        new = registration(graph)
        assert new != old
        graph.flush()
        image = tmp_path / "image"
        shutil.copytree(live, image)
        graph.close()
        full = (image / "store.wal").read_bytes()
        record = full[base:]
        payloads = list(RecordScanner(record))
        assert len(payloads) == 1 and payloads[0][0] == OP_BATCH

        work = tmp_path / "work"
        for cut in range(len(record) + 1):
            if work.exists():
                shutil.rmtree(work)
            shutil.copytree(image, work)
            (work / "store.wal").write_bytes(full[: base + cut])
            reopened = Graph(backend=PagedBackend(str(work), sync="none"))
            try:
                expected = new if cut == len(record) else old
                assert registration(reopened) == expected, f"cut {cut}"
            finally:
                reopened.close()


class TestPlanCache:
    def test_lru_eviction_and_stats(self):
        cache = PlanCache(capacity=2)
        built = []

        def compiler(tag):
            def build():
                built.append(tag)
                return f"plan-{tag}"
            return build

        assert cache.get_or_compile("a", compiler("a")) == "plan-a"
        assert cache.get_or_compile("a", compiler("a")) == "plan-a"
        assert cache.get_or_compile("b", compiler("b")) == "plan-b"
        assert cache.get_or_compile("c", compiler("c")) == "plan-c"  # evicts a
        assert built == ["a", "b", "c"]
        assert not cache.contains("a") and cache.contains("c")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["compilations"] == 3
        assert stats["evictions"] == 1
        assert len(cache) == 2

    def test_concurrent_same_fingerprint_compiles_once(self):
        cache = PlanCache(capacity=4)
        compiled = []
        barrier = threading.Barrier(8)

        def build():
            compiled.append(1)
            return object()

        results = [None] * 8

        def worker(index):
            barrier.wait()
            results[index] = cache.get_or_compile("same", build)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert len(compiled) == 1  # single-flight: one compilation total
        assert all(result is results[0] for result in results)


class TestQuotas:
    def test_token_bucket_refills_on_a_fake_clock(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_acquire()[0]
        assert bucket.try_acquire()[0]
        allowed, retry_after, _ = bucket.try_acquire()
        assert not allowed
        assert retry_after == pytest.approx(0.5)
        now[0] += 0.5  # exactly one token refilled
        assert bucket.try_acquire()[0]
        assert not bucket.try_acquire()[0]

    def test_manager_isolates_tenants_and_reports_them(self):
        now = [0.0]
        quotas = QuotaManager(rate=1.0, burst=1.0, clock=lambda: now[0])
        assert quotas.check("a").allowed
        refused = quotas.check("a")
        assert not refused.allowed
        assert refused.retry_after_header() == "1"
        assert quotas.check("b").allowed  # b has its own bucket
        assert set(quotas.tenants()) == {"a", "b"}

    def test_disabled_manager_always_allows(self):
        quotas = QuotaManager(rate=None)
        assert all(quotas.check("anyone").allowed for _ in range(100))
        assert not quotas.enabled


class TestServingConfig:
    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ServingConfig(port=-1).validated()
        with pytest.raises(ValueError):
            ServingConfig(quota_rate=0).validated()
        with pytest.raises(ValueError):
            ServingConfig(plan_cache_size=0).validated()
        with pytest.raises(ValueError):
            ServingConfig(wait_timeout=0).validated()

    def test_overrides_revalidate(self):
        config = ServingConfig().with_overrides(port=0, quota_rate=None)
        assert config.port == 0 and config.quota_rate is None
        with pytest.raises(ValueError):
            config.with_overrides(job_history=0)


class TestWire:
    def test_dumps_is_deterministic(self):
        left = wire.dumps({"b": 2, "a": {"d": [1, 2], "c": 1}})
        right = wire.dumps({"a": {"c": 1, "d": [1, 2]}, "b": 2})
        assert left == right

    def test_decode_registration_accepts_xml_and_json_wrapper(self):
        assert wire.decode_view_registration(
            b"<QualityView/>", "application/xml"
        ) == "<QualityView/>"
        assert wire.decode_view_registration(
            json.dumps({"xml": "<QualityView/>"}).encode("utf-8"),
            "application/json",
        ) == "<QualityView/>"
        with pytest.raises(WireError):
            wire.decode_view_registration(b'{"not_xml": 1}', "application/json")
