"""Tests for the concurrent selection service.

Covers the selector registry (atomic, fingerprint-gated hot-reload), the
micro-batching scheduler (bit-identity to sequential serving at any
client concurrency, admission control, deadlines, version isolation
within a batch) and the HTTP frontend + client (payload equality with
library selection, typed error mapping, health/stats), and the
frontend's write path (one send per reply, no reply held for an ACK,
``Expect: 100-continue``, typed JSON for the errors the stdlib raises).
"""

from __future__ import annotations

import io
import json
import socket
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection, HTTPResponse

import pytest

from repro.cloud.faults import FaultPlan
from repro.cloud.vmtypes import catalog
from repro.core.persistence import (
    archive_knowledge_fingerprint,
    save_selector,
)
from repro.core.vesta import VestaSelector
from repro.errors import (
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.service import (
    MicroBatchScheduler,
    SelectionService,
    SelectorRegistry,
    ServiceClient,
    recommendation_to_dict,
)
from repro.service import registry as registry_module
from repro.service.server import MAX_BODY_BYTES, serve
from repro.telemetry.latency import DurationSummary
from repro.workloads.catalog import get_workload, target_set, training_set

SEED = 7
VMS = catalog()[:10]
SOURCES = training_set()[:5]
TARGETS = tuple(w.name for w in target_set()[:6])


def _fresh_selector(**kwargs) -> VestaSelector:
    return VestaSelector(vms=VMS, sources=SOURCES, seed=SEED, **kwargs).fit()


@pytest.fixture(scope="module")
def selector():
    return _fresh_selector()


@pytest.fixture(scope="module")
def reference():
    """Sequential ground truth: a twin selector serving one at a time."""
    ref = _fresh_selector()
    return {
        (name, objective): ref.select(get_workload(name), objective)
        for name in TARGETS
        for objective in ("time", "budget")
    }


@pytest.fixture(scope="module")
def archive(selector, tmp_path_factory):
    path = tmp_path_factory.mktemp("service") / "knowledge.npz"
    save_selector(selector, path)
    return path


@pytest.fixture()
def registry(selector):
    reg = SelectorRegistry()
    reg.register("default", selector)
    return reg


class TestRegistry:
    def test_register_requires_fitted(self):
        reg = SelectorRegistry()
        with pytest.raises(ValidationError):
            reg.register("raw", VestaSelector(vms=VMS, sources=SOURCES))

    def test_get_unknown_name(self, registry):
        with pytest.raises(ValidationError):
            registry.get("nope")

    def test_handle_identity(self, registry, selector):
        handle = registry.get("default")
        assert handle.selector is selector
        assert handle.fingerprint == selector.knowledge_fingerprint()
        assert handle.generation == 1
        assert "default" in registry and len(registry) == 1
        described = registry.describe()["default"]
        assert described["fingerprint"] == handle.fingerprint
        assert described["vms"] == len(VMS)

    def test_reload_same_fingerprint_is_a_noop(self, registry, archive):
        before = registry.get("default")
        handle, swapped = registry.reload("default", archive)
        assert not swapped
        assert handle is before  # same snapshot, no generation bump

    def test_reload_swaps_on_fingerprint_change(self, archive, tmp_path):
        reg = SelectorRegistry()
        reg.load("default", archive)
        first = reg.get("default")
        other = _fresh_selector(k=5)
        other_path = tmp_path / "other.npz"
        save_selector(other, other_path)
        handle, swapped = reg.reload("default", other_path)
        assert swapped
        assert handle.generation == first.generation + 1
        assert handle.fingerprint != first.fingerprint
        # The old handle still serves for whoever holds it.
        assert first.selector.knowledge_fingerprint() == first.fingerprint

    def test_reload_under_a_fault_plan_skips_an_unchanged_archive(
        self, archive, monkeypatch
    ):
        """A fault plan is folded into the served fingerprint, so the
        peek must be compared with the archive the handle came from."""
        restores = []
        real_load = registry_module.load_selector

        def counted_load(path, **kwargs):
            restores.append(path)
            return real_load(path, **kwargs)

        monkeypatch.setattr(registry_module, "load_selector", counted_load)
        plan = FaultPlan(transient_prob=0.2, max_attempts=3, seed=5)
        reg = SelectorRegistry()
        first, swapped = reg.reload("default", archive, faults=plan)
        assert swapped
        assert first.fingerprint != archive_knowledge_fingerprint(archive)
        again, swapped = reg.reload("default", archive, faults=plan)
        assert not swapped and again is first
        assert restores == [archive]

    def test_archive_fingerprint_peek_matches_load(self, selector, archive):
        assert (
            archive_knowledge_fingerprint(archive)
            == selector.knowledge_fingerprint()
        )

    def test_unregister(self, registry):
        registry.unregister("default")
        assert "default" not in registry
        with pytest.raises(ServiceError):
            registry.unregister("default")


def _assert_matches_reference(payload_rec, expected) -> None:
    """Bit-level equality of a served recommendation with the sequential
    reference (exact float equality, full predictions vector)."""
    assert payload_rec.vm_name == expected.vm_name
    assert payload_rec.predicted_runtime_s == expected.predicted_runtime_s
    assert payload_rec.predicted_budget_usd == expected.predicted_budget_usd
    assert payload_rec.converged == expected.converged
    assert payload_rec.predictions == expected.predictions


class TestScheduler:
    @pytest.mark.parametrize("clients", [1, 4, 16])
    def test_bit_identical_to_sequential_at_any_concurrency(
        self, registry, reference, clients
    ):
        requests = [
            (name, objective)
            for name in TARGETS
            for objective in ("time", "budget")
        ] * 2
        with MicroBatchScheduler(registry, max_batch=8, queue_limit=256) as sched:
            with ThreadPoolExecutor(max_workers=clients) as pool:
                responses = list(
                    pool.map(lambda r: sched.select(r[0], r[1]), requests)
                )
            stats = sched.stats()
        for (name, objective), response in zip(requests, responses):
            _assert_matches_reference(
                response.recommendation, reference[(name, objective)]
            )
            assert response.fingerprint == registry.get("default").fingerprint
        assert stats["completed"] == len(requests)
        assert stats["rejected"] == 0
        # Repeat requests are answered by the recommendation memo cache
        # (bit-identity asserted above either way); everything else must
        # have flowed through batched waves.
        hits = stats["rec_cache"]["hits"]
        assert sum(
            size_count * int(size)
            for size, size_count in stats["batch_size_histogram"].items()
        ) == len(requests) - hits
        if clients == 1:
            # Sequential submission: the second pass over the request
            # list repeats the first exactly, so every repeat must hit.
            assert hits == len(requests) // 2
        if clients > 1:
            # Concurrent clients must actually coalesce sometimes.
            assert any(
                int(size) > 1 for size in stats["batch_size_histogram"]
            )

    def test_max_batch_one_is_the_sequential_degenerate(self, registry, reference):
        with MicroBatchScheduler(registry, max_batch=1) as sched:
            for name in TARGETS[:3]:
                response = sched.select(name)
                _assert_matches_reference(
                    response.recommendation, reference[(name, "time")]
                )
                assert response.batch_size == 1

    def test_queued_burst_is_served_in_waves_of_max_batch(
        self, registry, reference
    ):
        """Whatever is queued when the worker frees up is the next wave:
        a burst queued before ``start()`` is served as full waves of
        ``max_batch`` and then the rest, with no window in between."""
        keys = [(name, "time") for name in TARGETS] + [(TARGETS[0], "budget")]
        with MicroBatchScheduler(
            registry, max_batch=4, rec_cache_size=0, start=False
        ) as sched:
            futures = [sched.submit(name, objective) for name, objective in keys]
            sched.start()
            responses = [future.result(timeout=60) for future in futures]
            stats = sched.stats()
        assert [r.batch_size for r in responses] == [4] * 4 + [3] * 3
        assert [r.batch_id for r in responses] == [1] * 4 + [2] * 3
        assert stats["batch_size_histogram"] == {"3": 1, "4": 1}
        for key, response in zip(keys, responses):
            _assert_matches_reference(response.recommendation, reference[key])

    def test_overload_rejects_explicitly(self, registry):
        sched = MicroBatchScheduler(
            registry, max_batch=4, queue_limit=3, start=False
        )
        futures = [sched.submit(TARGETS[0]) for _ in range(3)]
        with pytest.raises(ServiceOverloadedError) as excinfo:
            sched.submit(TARGETS[1])
        assert excinfo.value.queue_limit == 3
        assert sched.stats()["rejected"] == 1
        assert sched.queue_depth == 3  # bounded: rejection, not growth
        sched.start()
        for future in futures:
            assert future.result(timeout=30).recommendation.vm_name
        sched.close()

    def test_expired_deadline_completes_with_error(self, registry):
        sched = MicroBatchScheduler(registry, start=False)
        doomed = sched.submit(TARGETS[0], timeout_s=0.0)
        alive = sched.submit(TARGETS[1], timeout_s=600.0)
        sched.start()
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=30)
        assert alive.result(timeout=30).recommendation.vm_name
        stats = sched.stats()
        assert stats["expired"] == 1 and stats["completed"] == 1
        sched.close()

    def test_submit_validates_before_admission(self, registry):
        with MicroBatchScheduler(registry, start=False) as sched:
            with pytest.raises(ValidationError):
                sched.submit(TARGETS[0], objective="latency")
            from repro.errors import CatalogError

            with pytest.raises(CatalogError):
                sched.submit("no-such-workload")
            assert sched.stats()["submitted"] == 0

    def test_close_fails_leftover_requests(self, registry):
        sched = MicroBatchScheduler(registry, start=False)
        future = sched.submit(TARGETS[0])
        sched.close()
        with pytest.raises(ServiceError):
            future.result(timeout=5)
        with pytest.raises(ServiceError):
            sched.submit(TARGETS[0])

    def test_latency_split_accounts_queue_and_service(self, registry):
        with MicroBatchScheduler(registry) as sched:
            response = sched.select(TARGETS[0])
        assert response.queued_ms >= 0.0
        assert response.service_ms >= 0.0


class TestHotReload:
    def test_no_version_mixing_within_a_response(self, archive, tmp_path):
        """Concurrent selects during repeated hot-reloads: every response
        comes from exactly one knowledge version and is bit-identical to
        that version's own sequential answer."""
        other = _fresh_selector(k=5)
        other_path = tmp_path / "other.npz"
        save_selector(other, other_path)

        reg = SelectorRegistry()
        reg.load("default", archive)
        fp_a = reg.get("default").fingerprint
        fp_b = other.knowledge_fingerprint()
        assert fp_a != fp_b

        ref_a, ref_b = _fresh_selector(), _fresh_selector(k=5)
        reference = {
            fp_a: {n: ref_a.select(get_workload(n)) for n in TARGETS},
            fp_b: {n: ref_b.select(get_workload(n)) for n in TARGETS},
        }

        responses = []
        responses_lock = threading.Lock()
        stop = threading.Event()

        def reloader():
            flip = False
            while not stop.is_set():
                reg.reload("default", other_path if flip else archive)
                flip = not flip

        with MicroBatchScheduler(reg, max_batch=4, queue_limit=256) as sched:
            reload_thread = threading.Thread(target=reloader, daemon=True)
            reload_thread.start()
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    for response in pool.map(
                        sched.select, [n for n in TARGETS for _ in range(4)]
                    ):
                        with responses_lock:
                            responses.append(response)
            finally:
                stop.set()
                reload_thread.join(timeout=10)

        by_batch: dict[int, set[str]] = {}
        for response in responses:
            assert response.fingerprint in (fp_a, fp_b)
            expected = reference[response.fingerprint][
                response.recommendation.workload
            ]
            _assert_matches_reference(response.recommendation, expected)
            by_batch.setdefault(response.batch_id, set()).add(
                response.fingerprint
            )
        # One knowledge version per coalesced batch, always.
        assert all(len(fps) == 1 for fps in by_batch.values())


def _read_until_close(host: str, port: int, data: bytes) -> tuple[bytes, bytes]:
    """Send ``data`` on a fresh connection; return the reply's head and
    body, read until the server closes (a reset after the reply, from
    request bytes the server left unread, ends the read too)."""
    reply = b""
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(data)
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass
    head, _, body = reply.partition(b"\r\n\r\n")
    return head, body


class TestHTTPFrontend:
    @pytest.fixture(scope="class")
    def running(self, request):
        selector = _fresh_selector()
        reg = SelectorRegistry()
        reg.register("default", selector)
        service = SelectionService(reg, queue_limit=64)
        server = serve(service, port=0)
        request.addfinalizer(server.close)
        host, port = server.address
        return selector, ServiceClient(host, port)

    def test_healthz(self, running):
        _, client = running
        health = client.healthz()
        assert health["status"] == "ok"
        assert "default" in health["selectors"]

    def test_select_payload_matches_library_selection(self, running, reference):
        _, client = running
        payload = client.select(TARGETS[0])
        expected = recommendation_to_dict(reference[(TARGETS[0], "time")])
        assert payload["recommendation"] == expected
        assert payload["model"]["selector"] == "default"
        assert payload["batch"]["size"] >= 1

    def test_budget_objective_over_http(self, running, reference):
        _, client = running
        payload = client.select(TARGETS[1], "budget")
        expected = recommendation_to_dict(reference[(TARGETS[1], "budget")])
        assert payload["recommendation"] == expected

    def test_concurrent_http_clients_stay_bit_identical(self, running, reference):
        _, client = running
        names = [n for n in TARGETS for _ in range(3)]
        with ThreadPoolExecutor(max_workers=9) as pool:
            payloads = list(pool.map(client.select, names))
        for name, payload in zip(names, payloads):
            assert payload["recommendation"] == recommendation_to_dict(
                reference[(name, "time")]
            )

    def test_statsz_exposes_serving_telemetry(self, running):
        _, client = running
        client.select(TARGETS[0])
        stats = client.statsz()
        sched = stats["schedulers"]["default"]
        assert sched["completed"] >= 1
        assert sched["queue_limit"] == 64
        assert set(sched["latency"]) >= {"count", "p50_ms", "p99_ms"}

    def test_error_mapping(self, running):
        from repro.errors import CatalogError

        _, client = running
        with pytest.raises(CatalogError) as excinfo:
            client.select("no-such-workload")
        # The wire message is the bare text, not a KeyError repr.
        assert excinfo.value.args[0] == "unknown workload 'no-such-workload'"
        with pytest.raises(ValidationError):
            client.select(TARGETS[0], "latency")
        with pytest.raises(ServiceError):
            client._request("GET", "/nope")

    def test_unknown_selector_is_a_client_error(self, running):
        _, client = running
        with pytest.raises(ValidationError):
            client.select(TARGETS[0], selector="other-model")

    @staticmethod
    def _post_declaring(client, content_length: str) -> tuple[int, bytes, dict]:
        """POST /select with a bare ``Content-Length`` and no body, then
        read until the server closes the connection (a hang times out)."""
        head, body = _read_until_close(
            client.host,
            client.port,
            b"POST /select HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode(),
        )
        return int(head.split()[1]), head, json.loads(body)

    def test_non_integer_content_length_is_400_and_closes(self, running):
        _, client = running
        status, head, body = self._post_declaring(client, "twelve")
        assert status == 400
        assert b"Connection: close" in head
        assert body["error"] == "ValidationError"
        assert client.select(TARGETS[0])["recommendation"]

    def test_negative_content_length_is_400_and_closes(self, running):
        _, client = running
        status, head, body = self._post_declaring(client, "-1")
        assert status == 400
        assert b"Connection: close" in head
        assert "Content-Length" in body["message"]

    def test_body_over_the_limit_is_413_and_closes(self, running):
        _, client = running
        status, head, body = self._post_declaring(client, str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert b"Connection: close" in head
        assert str(MAX_BODY_BYTES) in body["message"]


class TestWritePath:
    """Each reply leaves in one write, and no write waits for an ACK."""

    @pytest.fixture()
    def server(self, selector):
        reg = SelectorRegistry()
        reg.register("default", selector)
        server = serve(SelectionService(reg), port=0)
        yield server
        server.close()

    @pytest.fixture()
    def sends(self, monkeypatch):
        """Local port of every ``send``/``sendall`` call in the process."""
        ports: list[int] = []

        def counted(real):
            def call(sock, *args):
                ports.append(sock.getsockname()[1])
                return real(sock, *args)

            return call

        for method in ("send", "sendall"):
            monkeypatch.setattr(
                socket.socket, method, counted(getattr(socket.socket, method))
            )
        return ports

    def test_every_reply_leaves_in_one_send(self, server, sends):
        host, port = server.address
        client = ServiceClient(host, port)
        raw = HTTPConnection(host, port, timeout=10)

        def invalid_json():
            raw.request("POST", "/select", body=b"{", headers={})
            response = raw.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"] == "ValidationError"

        def unknown_path():
            with pytest.raises(ServiceError):
                client._request("GET", "/nope")

        def too_large():
            status, _, _ = TestHTTPFrontend._post_declaring(
                client, str(MAX_BODY_BYTES + 1)
            )
            assert status == 413

        replies = {
            "select miss": lambda: client.select(TARGETS[0]),
            "select memo hit": lambda: client.select(TARGETS[0]),
            "healthz": client.healthz,
            "statsz": client.statsz,
            "404": unknown_path,
            "400 invalid JSON": invalid_json,
            "413": too_large,
        }
        counts = {}
        for name, reply in replies.items():
            before = len(sends)
            outcome = reply()
            if name.startswith("select"):
                assert outcome["batch"]["cached"] is name.endswith("hit")
            counts[name] = sends[before:].count(port)
        client.close()
        raw.close()
        assert counts == dict.fromkeys(replies, 1)

    def test_a_reply_over_the_buffer_is_not_held_for_an_ack(self, selector):
        """A /healthz over 60 selectors outgrows the write buffer, so it
        leaves in two sends; the second must not wait for the client's
        delayed ACK (about 40 ms a round trip)."""
        reg = SelectorRegistry()
        for i in range(60):
            reg.register(f"selector-{i:02d}", selector)
        server = serve(SelectionService(reg), port=0)
        try:
            client = ServiceClient(*server.address)
            size = len(json.dumps(client.healthz()).encode())
            assert size > io.DEFAULT_BUFFER_SIZE
            round_trips = []
            for _ in range(15):
                start = time.perf_counter()
                client.healthz()
                round_trips.append(time.perf_counter() - start)
            client.close()
        finally:
            server.close()
        assert statistics.median(round_trips) < 0.020

    def test_expect_100_continue_gets_the_interim_reply(self, server):
        host, port = server.address
        body = json.dumps({"workload": TARGETS[0]}).encode()
        with socket.create_connection((host, port), timeout=2) as sock:
            sock.sendall(
                b"POST /select HTTP/1.1\r\nHost: test\r\n"
                b"Expect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            interim = b""
            try:
                while not interim.endswith(b"\r\n\r\n"):
                    interim += sock.recv(1)
            except TimeoutError:
                pytest.fail(f"no 100 Continue within 2 s (got {interim!r})")
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            response = HTTPResponse(sock)
            response.begin()
            assert response.status == 200
            payload = json.loads(response.read())
        client = ServiceClient(host, port)
        assert payload["recommendation"] == client.select(TARGETS[0])["recommendation"]
        client.close()

    def test_stdlib_errors_are_typed_json(self, server):
        host, port = server.address
        over_long = b"GET /" + b"x" * 65536 + b" HTTP/1.1\r\n\r\n"
        for request, status in (
            (b"PUT /select HTTP/1.1\r\nHost: test\r\n\r\n", b"501"),
            (over_long, b"414"),
        ):
            head, body = _read_until_close(host, port, request)
            assert head.split()[1] == status
            assert b"Content-Type: application/json" in head
            assert b"Connection: close" in head
            assert json.loads(body)["error"] == "ServiceError"
        # HEAD gets GET's head alone; HTTP/0.9 gets the body alone.
        conn = HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            get_body = conn.getresponse().read()
        finally:
            conn.close()
        for path, status, length in (
            (b"/healthz", b"200", len(get_body)),
            (b"/nope", b"404", None),
        ):
            head, body = _read_until_close(
                host,
                port,
                b"HEAD " + path + b" HTTP/1.1\r\nHost: test\r\n"
                b"Connection: close\r\n\r\n",
            )
            assert head.split()[1] == status and body == b""
            assert b"Content-Type: application/json" in head
            if length is not None:
                assert f"Content-Length: {length}".encode() in head
        reply = b"".join(_read_until_close(host, port, b"POST /select\r\n"))
        assert json.loads(reply)["error"] == "ServiceError"


class TestDurationSummary:
    def test_percentiles_over_window(self):
        summary = DurationSummary(window=100)
        for ms in range(1, 101):
            summary.record(ms / 1e3)
        assert summary.count == 100
        assert summary.percentile(50) == pytest.approx(0.0505, abs=1e-3)
        snap = summary.snapshot()
        assert snap["count"] == 100
        assert snap["max_ms"] == pytest.approx(100.0)

    def test_window_rolls(self):
        summary = DurationSummary(window=4)
        for value in (1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0):
            summary.record(value)
        assert summary.percentile(50) == pytest.approx(9.0)

    def test_empty_snapshot(self):
        assert DurationSummary().snapshot()["count"] == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            DurationSummary(window=0)
        with pytest.raises(ValidationError):
            DurationSummary().percentile(101)
