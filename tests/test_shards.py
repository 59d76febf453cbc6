"""Tests for the sharded serving tier and the scheduler's backpressure.

Covers the shard router (workload-identity routing, multi-shard
bit-identity to sequential serving at mixed concurrency, hot-reload
version isolation, no temp files, each shard's process-pool backend
and the knowledge and fault plan it sends its worker only when the
worker does not hold the wave's fingerprint, and a worker that outlives
a terminal Ctrl-C), served answers that equal a fresh ``select`` under
fault plans on every serving path, the scheduler's deadline enforcement
at both ends of a wave, deadline-based load-shedding under overload,
the 429 retry hint on the wire, and the thread safety of
:class:`DurationSummary`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection
from multiprocessing.connection import Connection
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cloud.catalog import get_catalog
from repro.cloud.faults import FaultPlan
from repro.cloud.vmtypes import catalog
from repro.core.persistence import clone_knowledge, save_selector
from repro.core.vesta import Recommendation, VestaSelector
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
    ShardRouter,
)
from repro.service import backend as backend_module
from repro.service.backend import InlineBackend, ProcessPoolBackend
from repro.service.server import serve
from repro.service.shards import shard_for
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


@pytest.fixture()
def registry(selector):
    reg = SelectorRegistry()
    reg.register("default", selector)
    return reg


def _wave(names):
    return [(get_workload(name), "time") for name in names]


def _assert_matches_reference(payload_rec, expected) -> None:
    """Bit-level equality of a served recommendation with the sequential
    reference (exact float equality, full predictions vector)."""
    assert payload_rec.vm_name == expected.vm_name
    assert payload_rec.predicted_runtime_s == expected.predicted_runtime_s
    assert payload_rec.predicted_budget_usd == expected.predicted_budget_usd
    assert payload_rec.converged == expected.converged
    assert payload_rec.predictions == expected.predictions


class TestShardRouting:
    def test_shard_for_is_stable_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for name in TARGETS:
                index = shard_for(name, shards)
                assert 0 <= index < shards
                assert index == shard_for(name, shards)  # deterministic

    def test_responses_come_from_the_routed_shard(self, registry, reference):
        with ShardRouter(registry, shards=4) as router:
            for name, response in zip(TARGETS, router.select_all(TARGETS)):
                assert response.shard == router.shard_for(name)
                _assert_matches_reference(
                    response.recommendation, reference[(name, "time")]
                )

    def test_service_builds_one_scheduler_or_a_pool_fleet(
        self, registry, selector
    ):
        # shards=1 is the plain scheduler serving the live handle inline;
        # shards>1 is a router whose every shard owns a worker process.
        with SelectionService(registry) as service:
            sched = service.scheduler()
            assert type(sched) is MicroBatchScheduler
            assert isinstance(sched.backend, InlineBackend)
            assert sched.registry.get("default").selector is selector
        with SelectionService(registry, shards=2) as service:
            router = service.scheduler()
            assert isinstance(router, ShardRouter)
            assert len(router.shards) == 2
            for shard in router.shards:
                assert isinstance(shard.backend, ProcessPoolBackend)

    def test_sharded_serving_writes_no_temp_files(
        self, registry, reference, tmp_path, monkeypatch
    ):
        # Workers get their knowledge through their pipes: nothing lands
        # in the temp directory, which a killed server could leave behind.
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmp))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        with ShardRouter(registry, shards=2) as router:
            for name, response in zip(TARGETS, router.select_all(TARGETS)):
                _assert_matches_reference(
                    response.recommendation, reference[(name, "time")]
                )
            assert list(tmp.iterdir()) == []
        assert list(tmp.iterdir()) == []


class TestShardBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("clients", [1, 8])
    def test_stream_equals_sequential(
        self, registry, reference, shards, clients
    ):
        requests = [
            (name, objective)
            for name in TARGETS
            for objective in ("time", "budget")
        ] * 2
        with ShardRouter(
            registry, shards=shards, max_batch=8, queue_limit=256
        ) as router:
            with ThreadPoolExecutor(max_workers=clients) as pool:
                responses = list(
                    pool.map(lambda r: router.select(*r), requests)
                )
                # A second pass must find every worker alive, unreplaced.
                responses += pool.map(lambda r: router.select(*r), requests)
            stats = router.stats()
        for (name, objective), response in zip(requests * 2, responses):
            _assert_matches_reference(
                response.recommendation, reference[(name, objective)]
            )
            assert response.fingerprint == registry.get("default").fingerprint
        assert stats["completed"] == len(responses)
        assert stats["rejected"] == 0 and stats["shed"] == 0
        assert stats["latency"]["count"] == len(responses)
        assert len(stats["per_shard"]) == shards
        served_shards = {response.shard for response in responses}
        assert served_shards == {
            shard_for(name, shards) for name, _ in requests
        }
        backends = [row["backend"] for row in stats["per_shard"]]
        pids = {backend["pid"] for backend in backends}
        assert len(pids) == shards and os.getpid() not in pids
        for backend in backends:
            assert backend["name"] == "pool"
            assert backend["alive"] and backend["restarts"] == 0


class TestPoolBackendRecovery:
    """A slow, dead or failing pool worker costs at most its own wave."""

    @pytest.fixture()
    def backend(self):
        backend = ProcessPoolBackend()
        yield backend
        backend.close()

    def _assert_wave(self, outcomes, names, reference):
        assert len(outcomes) == len(names)
        for name, outcome in zip(names, outcomes):
            _assert_matches_reference(outcome, reference[(name, "time")])

    def test_timed_out_wave_leaves_no_reply_for_the_next(
        self, backend, registry, reference
    ):
        handle = registry.get("default")
        backend._timeout_s = 1e-3  # no worker loads a replica that fast
        with pytest.raises(ServiceError, match="timed out"):
            backend.run(handle, _wave(TARGETS[:3]))
        backend._timeout_s = 300.0
        outcomes = backend.run(handle, _wave(TARGETS[3:]))
        self._assert_wave(outcomes, TARGETS[3:], reference)
        assert backend.describe()["restarts"] == 1

    def test_killed_worker_is_replaced_before_the_next_wave(
        self, backend, registry, reference
    ):
        handle = registry.get("default")
        self._assert_wave(
            backend.run(handle, _wave(TARGETS[:1])), TARGETS[:1], reference
        )
        pid = backend.describe()["pid"]
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while backend.describe()["alive"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not backend.describe()["alive"]
        self._assert_wave(
            backend.run(handle, _wave(TARGETS)), TARGETS, reference
        )
        described = backend.describe()
        assert described["restarts"] == 1
        assert described["alive"] and described["pid"] != pid

    def test_unexpected_error_fails_only_its_wave(
        self, backend, registry, reference
    ):
        handle = registry.get("default")
        # A bare name where a WorkloadSpec belongs: not a ReproError.
        (outcome,) = backend.run(handle, [(TARGETS[0], "time")])
        assert isinstance(outcome, ServiceError)
        assert "AttributeError" in str(outcome)
        self._assert_wave(
            backend.run(handle, _wave(TARGETS[:2])), TARGETS[:2], reference
        )
        assert backend.describe()["restarts"] == 0


class TestPoolWorkerReplicaCache:
    """The pool backend driving its worker loop on a thread, so the
    replicas the worker restores can be counted in-process."""

    @pytest.fixture()
    def threaded(self, monkeypatch):
        def thread_process(target, args, daemon):
            # The backend closes its end of the child pipe after start();
            # the thread keeps serving on a duplicate of it.
            conn = Connection(os.dup(args[0].fileno()))
            return threading.Thread(target=target, args=(conn,), daemon=daemon)

        context = SimpleNamespace(Pipe=multiprocessing.Pipe, Process=thread_process)
        monkeypatch.setattr(
            backend_module,
            "multiprocessing",
            SimpleNamespace(get_context=lambda method: context),
        )
        restores: list[dict] = []
        real_restore = backend_module.restore_knowledge

        def counting_restore(meta, arrays, **kwargs):
            restores.append(meta)
            return real_restore(meta, arrays, **kwargs)

        monkeypatch.setattr(backend_module, "restore_knowledge", counting_restore)
        backend = ProcessPoolBackend()
        yield backend, restores
        backend.close()
        assert not backend._proc.is_alive()

    def test_worker_reloads_only_when_the_fingerprint_moves(
        self, threaded, registry, reference
    ):
        """Waves for fingerprints A, A, B, A restore 3 replicas, and
        every answer is its own version's sequential answer."""
        backend, restores = threaded
        other = _fresh_selector(k=5)
        handle_a = registry.get("default")
        handle_b = SelectorRegistry().register("default", other)
        assert handle_a.fingerprint != handle_b.fingerprint
        names = TARGETS[:3]
        expected = {
            handle_a.fingerprint: [reference[(n, "time")] for n in names],
            handle_b.fingerprint: [
                other.select(get_workload(n)) for n in names
            ],
        }
        for handle in (handle_a, handle_a, handle_b, handle_a):
            outcomes = backend.run(handle, _wave(names))
            assert len(outcomes) == len(names)
            for outcome, want in zip(outcomes, expected[handle.fingerprint]):
                _assert_matches_reference(outcome, want)
        assert len(restores) == 3

    def test_failed_restore_answers_errors_then_gets_the_state_again(
        self, threaded, registry, reference, monkeypatch
    ):
        backend, restores = threaded
        real_state = backend_module.knowledge_state
        sent: list[dict] = []

        def first_state_broken(selector):
            meta, arrays = real_state(selector)
            if not sent:
                meta = {k: v for k, v in meta.items() if k != "hyperparams"}
            sent.append(meta)
            return meta, arrays

        monkeypatch.setattr(backend_module, "knowledge_state", first_state_broken)
        handle = registry.get("default")
        names = TARGETS[:2]
        failed = backend.run(handle, _wave(names))
        assert len(failed) == len(names)
        assert all(isinstance(outcome, ValidationError) for outcome in failed)
        for name, outcome in zip(names, backend.run(handle, _wave(names))):
            _assert_matches_reference(outcome, reference[(name, "time")])
        assert len(sent) == 2 and len(restores) == 2
        # A wave that fails after a good restore keeps the replica: a
        # bare name where a WorkloadSpec belongs is not a ReproError.
        (outcome,) = backend.run(handle, [(names[0], "time")])
        assert isinstance(outcome, ServiceError)
        for name, outcome in zip(names, backend.run(handle, _wave(names))):
            _assert_matches_reference(outcome, reference[(name, "time")])
        assert len(sent) == 2 and len(restores) == 2


class TestPoolWorkerFaultPlan:
    """A worker replica runs the fault plan its parent's selector runs."""

    @pytest.mark.parametrize(
        "catalog_name, plan",
        [
            # Exhausts spark-lr's retry budget on one probe.
            ("ec2", FaultPlan(
                transient_prob=0.15, max_attempts=3, seed=2, workloads=TARGETS
            )),
            # No plan: the replica must not derive the spot catalog's own.
            ("ec2-spot", FaultPlan.none()),
        ],
        ids=["transient", "spot-without-plan"],
    )
    def test_router_answers_like_select_under_the_selectors_plan(
        self, catalog_name, plan
    ):
        kwargs = dict(
            vms=get_catalog(catalog_name).vms[:24],
            sources=SOURCES,
            repetitions=3,
            seed=SEED,
            faults=plan,
            catalog=catalog_name,
        )
        reference = VestaSelector(**kwargs).fit()
        expected = {name: reference.select(get_workload(name)) for name in TARGETS}
        if plan.enabled:
            assert expected["spark-lr"].degraded
        else:
            assert not any(rec.fault_events for rec in expected.values())
        registry = SelectorRegistry()
        registry.register("default", VestaSelector(**kwargs).fit())
        with ShardRouter(registry, shards=2, rec_cache_size=0) as router:
            for name, response in zip(TARGETS, router.select_all(TARGETS)):
                assert response.recommendation == expected[name]

    def test_worker_returns_quietly_when_the_parent_is_gone(self):
        # A parent that died without sending the stop message leaves the
        # worker a pipe with no writer: its loop must end, not raise.
        parent, child = multiprocessing.Pipe()
        parent.close()
        try:
            assert backend_module._pool_worker(child) is None
        finally:
            child.close()


class TestPoolWorkerSignals:
    """A worker process is stopped by its parent, not by the terminal."""

    def test_worker_outlives_a_terminal_ctrl_c(self):
        """Ctrl-C in a terminal signals the whole process group; a worker
        leaves stopping to its parent and still exits 0 on ``None``."""
        ctx = multiprocessing.get_context("spawn")
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=backend_module._pool_worker, args=(child,), daemon=True
        )
        proc.start()
        child.close()
        try:
            # One round trip: the loop is running.  A state that fails to
            # restore answers the empty wave cleanly.
            parent.send(("fingerprint", ({}, {}, None), []))
            assert parent.poll(60) and parent.recv() == (None, [])
            os.kill(proc.pid, signal.SIGINT)
            proc.join(timeout=1.0)
            assert proc.is_alive()
            parent.send(None)
            proc.join(timeout=30)
            assert proc.exitcode == 0
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()
            parent.close()


#: The 12 Spark targets, the selection set the benchmark scores.
SPARK = tuple(w.name for w in target_set())

#: Exhausts the retry budget on probes of four Spark targets and on no
#: sandbox run.
SPARK_TRANSIENT = FaultPlan(
    transient_prob=0.2, max_attempts=3, seed=5, workloads=SPARK
)


@pytest.fixture(scope="module")
def spot_selector():
    """Fold-in selector on the spot catalog, whose interruption plan
    injects transient faults into its profiling runs."""
    return VestaSelector(seed=SEED, catalog="ec2-spot", cmf_mode="foldin").fit()


class TestServedFaultEvents:
    """A served answer equals a fresh ``select`` field for field — fault
    events, ``degraded`` and ``failed_probes`` included — on every
    serving path."""

    @pytest.mark.parametrize(
        "plan", [None, SPARK_TRANSIENT], ids=["spot", "transient"]
    )
    def test_every_path_answers_like_a_fresh_select(self, spot_selector, plan):
        def fresh():
            return clone_knowledge(spot_selector, faults=plan)

        objectives = ("time", "budget")
        requests = [(name, o) for name in SPARK for o in objectives]
        expected = [fresh().select(get_workload(n), o) for n, o in requests]
        assert any(rec.fault_events for rec in expected)
        if plan is not None:
            assert any(rec.failed_probes for rec in expected)

        sessions = fresh().online_many([get_workload(name) for name in SPARK])
        waved = [session.recommend(o) for session in sessions for o in objectives]
        assert waved == expected

        registry = SelectorRegistry()
        registry.register("default", fresh())
        with MicroBatchScheduler(registry, rec_cache_size=0) as scheduler:
            futures = [scheduler.submit(n, o) for n, o in requests]
            scheduled = [f.result().recommendation for f in futures]
        assert scheduled == expected

        registry = SelectorRegistry()
        registry.register("default", fresh())
        with ShardRouter(registry, shards=2, rec_cache_size=0) as router:
            futures = [router.submit(n, o) for n, o in requests]
            sharded = [f.result().recommendation for f in futures]
        assert sharded == expected


class TestShardHotReload:
    def test_no_version_mixing_mid_stream(self, selector, tmp_path):
        """Concurrent selects through 2 shards during repeated
        hot-reloads: every response comes from exactly one knowledge
        version and matches that version's own sequential answer."""
        other = _fresh_selector(k=5)
        archive_a = tmp_path / "a.npz"
        archive_b = tmp_path / "b.npz"
        save_selector(selector, archive_a)
        save_selector(other, archive_b)

        reg = SelectorRegistry()
        reg.load("default", archive_a)
        fp_a = reg.get("default").fingerprint
        fp_b = other.knowledge_fingerprint()
        assert fp_a != fp_b

        ref_a, ref_b = _fresh_selector(), _fresh_selector(k=5)
        reference = {
            fp_a: {n: ref_a.select(get_workload(n)) for n in TARGETS},
            fp_b: {n: ref_b.select(get_workload(n)) for n in TARGETS},
        }

        stop = threading.Event()

        def reloader():
            flip = False
            while not stop.is_set():
                reg.reload("default", archive_b if flip else archive_a)
                flip = not flip

        with ShardRouter(reg, shards=2, max_batch=4, queue_limit=256) as router:
            reload_thread = threading.Thread(target=reloader, daemon=True)
            reload_thread.start()
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    responses = list(pool.map(
                        router.select, [n for n in TARGETS for _ in range(4)]
                    ))
            finally:
                stop.set()
                reload_thread.join(timeout=10)

        by_batch: dict[tuple[int, int], set[str]] = {}
        for response in responses:
            assert response.fingerprint in (fp_a, fp_b)
            expected = reference[response.fingerprint][
                response.recommendation.workload
            ]
            _assert_matches_reference(response.recommendation, expected)
            by_batch.setdefault(
                (response.shard, response.batch_id), set()
            ).add(response.fingerprint)
        # One knowledge version per coalesced batch, on every shard.
        assert all(len(fps) == 1 for fps in by_batch.values())


def _fake_recommendation(name: str, objective: str = "time") -> Recommendation:
    return Recommendation(
        workload=name,
        objective=objective,
        vm_name="stub-vm",
        predicted_runtime_s=1.0,
        predicted_budget_usd=2.0,
        reference_vm_count=1,
        converged=True,
        predictions={"stub-vm": 1.0},
    )


class _StubSelector:
    """Selector double whose waves take a configurable time.

    ``entered`` is set when a wave starts (tests sequence on it) and
    ``gate``, when given, blocks the wave until released.
    """

    def __init__(self, delay_s: float = 0.0, gate: threading.Event | None = None):
        self.delay_s = delay_s
        self.gate = gate
        self.entered = threading.Event()

    def online_many(self, specs):
        self.entered.set()
        if self.gate is not None:
            self.gate.wait(timeout=30)
        if self.delay_s:
            time.sleep(self.delay_s)
        return [
            SimpleNamespace(
                recommend=lambda objective, name=s.name: _fake_recommendation(
                    name, objective
                )
            )
            for s in specs
        ]


def _stub_registry(selector) -> SimpleNamespace:
    handle = SimpleNamespace(
        name="default",
        selector=selector,
        fingerprint="stub-fingerprint",
        generation=1,
        registered_at=0.0,
    )
    return SimpleNamespace(
        get=lambda name: handle,
        describe=lambda: {"default": {"fingerprint": handle.fingerprint}},
        names=lambda: ("default",),
    )


class TestDeadlineEnforcement:
    def test_deadline_lapsing_during_the_wave_returns_error(self):
        """A request whose deadline lapses *during* batch execution must
        get DeadlineExceededError, not the stale (too late) answer."""
        registry = _stub_registry(_StubSelector(delay_s=0.3))
        spec = get_workload(TARGETS[0])
        with MicroBatchScheduler(
            registry, max_batch=4, queue_limit=8, start=False
        ) as sched:
            doomed = sched.submit(spec, timeout_s=0.05)
            fine = sched.submit(spec)
            sched.start()  # both are queued: one wave serves them together
            with pytest.raises(DeadlineExceededError) as excinfo:
                doomed.result(timeout=10)
            assert excinfo.value.stage == "served"
            assert excinfo.value.waited_s >= 0.05
            # The co-traveller without a deadline still gets its answer.
            response = fine.result(timeout=10)
            assert response.recommendation.vm_name == "stub-vm"
            assert response.batch_size == 2
            stats = sched.stats()
        assert stats["expired"] == 1
        assert stats["completed"] == 1

    def test_overload_sheds_doomed_queued_requests_first(self, registry):
        spec = get_workload(TARGETS[0])
        sched = MicroBatchScheduler(
            registry, max_batch=1, queue_limit=2, start=False
        )
        doomed = [sched.submit(spec, timeout_s=0.0) for _ in range(2)]
        time.sleep(0.01)  # let the zero deadlines lapse
        # Queue is full, but both queued requests are past their
        # deadline: shedding frees their slots and this one is admitted.
        admitted = sched.submit(spec)
        for future in doomed:
            with pytest.raises(DeadlineExceededError) as excinfo:
                future.result(timeout=1)
            assert excinfo.value.stage == "shed"
        assert not admitted.done()
        stats = sched.stats()
        assert stats["shed"] == 2
        assert stats["rejected"] == 0
        assert stats["queue_depth"] == 1
        sched.close()

    def test_unmeetable_incoming_deadline_is_shed_not_queued(self, registry):
        spec = get_workload(TARGETS[0])
        sched = MicroBatchScheduler(
            registry, max_batch=1, queue_limit=2, start=False
        )
        for _ in range(2):
            sched.submit(spec)  # no deadlines: nothing is sheddable
        with sched._stats_lock:
            sched._service_ewma_s = 5.0  # measured: ~5s per wave
        # Two waves ahead at ~5s each can never make a 100ms deadline.
        with pytest.raises(DeadlineExceededError) as excinfo:
            sched.submit(spec, timeout_s=0.1)
        assert excinfo.value.stage == "shed"
        assert sched.stats()["shed"] == 1
        sched.close()

    def test_overload_rejection_carries_queue_context(self, registry):
        spec = get_workload(TARGETS[0])
        sched = MicroBatchScheduler(
            registry, max_batch=1, queue_limit=2, start=False
        )
        for _ in range(2):
            sched.submit(spec)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            sched.submit(spec)  # no deadline: nothing to shed, reject
        assert excinfo.value.queue_limit == 2
        assert excinfo.value.queue_depth == 2
        assert excinfo.value.retry_after_s > 0
        sched.close()


class TestRetryAfterOnTheWire:
    @pytest.fixture()
    def overloaded(self, request):
        """A served stub whose single worker is parked mid-wave and whose
        queue (limit 1) is full — the next request must get a 429."""
        gate = threading.Event()
        stub = _StubSelector(gate=gate)
        service = SelectionService(
            _stub_registry(stub), max_batch=1, queue_limit=1
        )
        server = serve(service, port=0)
        request.addfinalizer(server.close)
        request.addfinalizer(gate.set)
        host, port = server.address
        client = ServiceClient(host, port)
        pool = ThreadPoolExecutor(max_workers=2)
        request.addfinalizer(lambda: pool.shutdown(wait=False))
        in_flight = [pool.submit(client.select, TARGETS[0])]
        assert stub.entered.wait(timeout=10)  # worker parked on wave 1
        in_flight.append(pool.submit(client.select, TARGETS[0]))
        sched = service.scheduler()
        deadline = time.monotonic() + 10
        while sched.queue_depth < 1:  # request 2 occupies the queue
            assert time.monotonic() < deadline
            time.sleep(0.005)
        return SimpleNamespace(
            host=host, port=port, client=client, gate=gate,
            in_flight=in_flight,
        )

    def test_429_body_and_header(self, overloaded):
        conn = HTTPConnection(overloaded.host, overloaded.port, timeout=10)
        try:
            conn.request(
                "POST", "/select",
                body=json.dumps({"workload": TARGETS[0]}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read().decode())
        finally:
            conn.close()
        assert response.status == 429
        assert int(response.getheader("Retry-After")) >= 1
        assert body["error"] == "ServiceOverloadedError"
        assert body["queue_limit"] == 1
        assert body["queue_depth"] == 1
        assert body["retry_after_s"] > 0

    def test_client_rebuilds_typed_overload_error(self, overloaded):
        with pytest.raises(ServiceOverloadedError) as excinfo:
            overloaded.client.select(TARGETS[0])
        assert excinfo.value.queue_limit == 1
        assert excinfo.value.queue_depth == 1
        assert excinfo.value.retry_after_s > 0
        overloaded.gate.set()
        for future in overloaded.in_flight:
            payload = future.result(timeout=10)
            assert payload["recommendation"]["vm_name"] == "stub-vm"
            assert "shard" in payload["batch"]


class TestDurationSummaryConcurrency:
    def test_concurrent_recording_loses_nothing(self):
        """Regression: unlocked ``record`` raced ``snapshot`` — a reader
        mid-wrap could mix a fresh sample into the stale tail, and
        concurrent writers could lose count increments."""
        summary = DurationSummary(window=64)
        writers, per_writer = 4, 5000
        failures: list[dict] = []
        done = threading.Event()

        def write():
            for _ in range(per_writer):
                summary.record(1.0)

        def read():
            while not done.is_set():
                snap = summary.snapshot()
                # Every recorded sample is 1.0: any other value in a
                # snapshot means it saw a slot the count didn't cover.
                if snap["count"] and snap["mean_ms"] != 1000.0:
                    failures.append(snap)

        threads = [threading.Thread(target=write) for _ in range(writers)]
        reader = threading.Thread(target=read)
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done.set()
        reader.join()
        assert not failures
        assert summary.count == writers * per_writer
        assert summary.snapshot()["count"] == writers * per_writer

    def test_aggregate_merges_windows(self):
        a, b = DurationSummary(), DurationSummary()
        for value in (0.010, 0.020, 0.030):
            a.record(value)
        b.record(0.100)
        merged = DurationSummary.aggregate([a, b])
        union = np.array([0.010, 0.020, 0.030, 0.100])
        assert merged["count"] == 4
        assert merged["max_ms"] == 100.0
        assert merged["p50_ms"] == round(float(np.percentile(union, 50)) * 1e3, 3)
        assert merged["p99_ms"] == round(float(np.percentile(union, 99)) * 1e3, 3)

    def test_aggregate_of_empty_summaries(self):
        assert DurationSummary.aggregate([DurationSummary()])["count"] == 0
