"""Tests for the serving fast path (grouped fold-in + memo caches).

Three layers, each pinned bit-identical to the code path it replaces:

- grouped, mask-keyed ``fold_in`` with a per-selector operator cache,
  pinned against the per-row solve loop ``CMF._fold_in_row_loop``;
- the scheduler's recommendation memo cache keyed by
  ``(knowledge fingerprint, workload, objective)``
  (``rec_cache_size=0`` disables);
- the HTTP client's pooled keep-alive connections with transparent
  reconnect, plus the wire-level request canonicalization that makes
  semantically identical requests serialize identically.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.catalog import ProviderCatalog, get_catalog
from repro.cloud.vmtypes import catalog
from repro.core.caching import LRUCache
from repro.core.cmf import CMF
from repro.core.persistence import load_selector, save_selector
from repro.core.vesta import VestaSelector
from repro.errors import DeadlineExceededError, ServiceError, ValidationError
from repro.service import (
    MicroBatchScheduler,
    SelectionService,
    SelectorRegistry,
    ServiceClient,
    ShardRouter,
    canonical_request,
    recommendation_to_dict,
)
from repro.service.server import serve
from repro.service.wire import error_to_dict
from repro.telemetry.latency import DurationSummary
from repro.workloads.catalog import get_workload, target_set, training_set

SEED = 7
VMS = catalog()[:10]
SOURCES = training_set()[:5]
TARGETS = tuple(w.name for w in target_set()[:6])


@pytest.fixture(scope="module")
def foldin_selector():
    """One fitted fold-in selector shared by the serving-layer tests."""
    return VestaSelector(
        vms=VMS, sources=SOURCES, seed=SEED, cmf_mode="foldin"
    ).fit()


@pytest.fixture()
def registry(foldin_selector):
    reg = SelectorRegistry()
    reg.register("default", foldin_selector)
    return reg


def _rec_payload(response) -> str:
    return json.dumps(
        recommendation_to_dict(response.recommendation), sort_keys=True
    )


# -- layer 1: grouped fold-in ---------------------------------------------------


class TestGroupedFoldIn:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_rows=st.integers(1, 16),
        n_patterns=st.integers(1, 4),
        j=st.integers(4, 12),
        g=st.integers(2, 5),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_byte_identical_to_row_loop(self, seed, n_rows, n_patterns, j, g):
        """Grouped solves — cold cache, warm cache — vs the row loop."""
        rng = np.random.default_rng(seed)
        cmf = CMF(latent_dim=g)
        L = rng.normal(size=(j, g))
        rows = rng.normal(size=(n_rows, j))
        patterns = (rng.random((n_patterns, j)) > 0.4).astype(float)
        mask = patterns[rng.integers(0, n_patterns, size=n_rows)]

        loop = cmf._fold_in_row_loop(L, rows, mask)
        grouped = cmf.fold_in(L, rows, mask)
        cache = LRUCache(maxsize=16)
        cold = cmf.fold_in(L, rows, mask, operator_cache=cache)
        warm = cmf.fold_in(L, rows, mask, operator_cache=cache)

        assert grouped.tobytes() == loop.tobytes()
        assert cold.tobytes() == loop.tobytes()
        assert warm.tobytes() == loop.tobytes()
        stats = cache.stats()
        # Second pass resolves every distinct mask from the cache.
        assert stats["size"] == len({m.tobytes() for m in mask})
        assert stats["hits"] >= stats["size"]

    def test_singular_gram_falls_back_to_lstsq(self):
        """Empty mask + reg=0: the gram is all zeros, ``solve`` raises,
        and both paths (and the cached-operator replay) must take the
        exact ``lstsq`` fallback the row loop takes."""
        g, j = 4, 8
        rng = np.random.default_rng(11)
        cmf = CMF(latent_dim=g, reg=0.0)
        L = rng.normal(size=(j, g))
        rows = rng.normal(size=(3, j))
        mask = np.vstack(
            [np.zeros(j), np.ones(j), np.zeros(j)]  # singular, fine, singular
        )

        loop = cmf._fold_in_row_loop(L, rows, mask)
        cache = LRUCache(maxsize=8)
        grouped = cmf.fold_in(L, rows, mask, operator_cache=cache)
        replay = cmf.fold_in(L, rows, mask, operator_cache=cache)

        assert grouped.tobytes() == loop.tobytes()
        assert replay.tobytes() == loop.tobytes()
        # The fallback rows really are the lstsq solution of the exact
        # singular system the math prescribes.
        gram = np.zeros((g, g))
        rhs = L.T @ (np.zeros(j) * rows[0])
        expected = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        assert grouped[0].tobytes() == expected.tobytes()
        assert grouped[2].tobytes() == expected.tobytes()

    def test_rank_deficient_l_falls_back_to_lstsq(self):
        """Rank-deficient L (duplicated columns) + reg=0 under a full
        mask: singular gram on the non-degenerate code path too."""
        g, j = 4, 8
        rng = np.random.default_rng(12)
        cmf = CMF(latent_dim=g, reg=0.0)
        col = rng.normal(size=(j, 1))
        L = np.hstack([col] * g)  # rank 1
        rows = rng.normal(size=(2, j))
        mask = np.ones((2, j))

        loop = cmf._fold_in_row_loop(L, rows, mask)
        grouped = cmf.fold_in(L, rows, mask)
        assert grouped.tobytes() == loop.tobytes()
        weighted = L * mask[0][:, None]
        gram = cmf.target_weight * (weighted.T @ L) + cmf.reg * np.eye(g)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram, np.zeros(g))  # really singular

    def test_operator_cache_scoped_to_factors(self, foldin_selector):
        """Repeat waves hit the mask-keyed cache; a refit that changes
        the ``source_factors`` artifact starts from an empty cache."""
        specs = [get_workload(name) for name in TARGETS[:3]]
        first = foldin_selector.select_many(specs)
        warm_stats = foldin_selector.foldin_cache_stats()
        assert warm_stats is not None and warm_stats["size"] >= 1
        second = foldin_selector.select_many(specs)
        stats = foldin_selector.foldin_cache_stats()
        assert stats["hits"] > warm_stats["hits"]
        assert [r.vm_name for r in second] == [r.vm_name for r in first]
        assert [r.predictions for r in second] == [r.predictions for r in first]

        try:
            foldin_selector.refit(lam=0.8)
            foldin_selector.select_many(specs[:1])
            fresh = foldin_selector.foldin_cache_stats()
            # New factors object => new cache: no carried-over hits.
            assert fresh["hits"] < stats["hits"]
        finally:
            foldin_selector.refit(lam=0.75)


# -- layer 2: recommendation memo cache ----------------------------------------


class TestRecommendationMemoCache:
    def test_hit_is_byte_identical_to_cold_and_uncached(self, registry):
        with MicroBatchScheduler(registry) as sched:
            miss = sched.select(TARGETS[0])
            hit = sched.select(TARGETS[0])
            stats = sched.stats()
        with MicroBatchScheduler(registry, rec_cache_size=0) as uncached:
            plain = uncached.select(TARGETS[0])
            assert uncached.stats()["rec_cache"] is None

        assert not miss.cached and hit.cached and not plain.cached
        assert _rec_payload(hit) == _rec_payload(miss) == _rec_payload(plain)
        # The hit points back at the wave that computed the entry.
        assert hit.batch_id == miss.batch_id
        assert hit.fingerprint == miss.fingerprint
        assert stats["rec_cache"]["hits"] == 1
        assert stats["completed"] == 2
        assert stats["latency"]["count"] == 2
        assert sum(
            count * int(size)
            for size, count in stats["batch_size_histogram"].items()
        ) == 1

    def test_lru_bound_and_eviction_counters(self, registry):
        with MicroBatchScheduler(registry, rec_cache_size=1) as sched:
            sched.select(TARGETS[0])
            sched.select(TARGETS[1])  # evicts TARGETS[0]
            third = sched.select(TARGETS[0])  # miss again
            stats = sched.stats()["rec_cache"]
        assert not third.cached
        assert stats == {
            "size": 1,
            "maxsize": 1,
            "hits": 0,
            "misses": 3,
            "evictions": 2,
        }

    def test_env_kill_switch(self, registry):
        """``rec_cache_size=0`` switches the memo cache off."""
        with MicroBatchScheduler(registry, rec_cache_size=0) as sched:
            first = sched.select(TARGETS[0])
            second = sched.select(TARGETS[0])
            stats = sched.stats()
        assert stats["rec_cache"] is None
        assert not first.cached and not second.cached
        # Every request flowed through a wave: today's path exactly.
        assert sum(
            count * int(size)
            for size, count in stats["batch_size_histogram"].items()
        ) == 2

    def test_objective_is_part_of_the_key(self, registry):
        with MicroBatchScheduler(registry) as sched:
            time_rec = sched.select(TARGETS[0], "time")
            budget_rec = sched.select(TARGETS[0], "budget")
            assert not budget_rec.cached
            again = sched.select(TARGETS[0], "budget")
        assert again.cached
        assert time_rec.recommendation.objective == "time"
        assert again.recommendation.objective == "budget"

    def test_hot_reload_never_serves_the_old_fingerprint(
        self, foldin_selector, tmp_path
    ):
        """Reload to a new knowledge fingerprint mid-stream: the next
        request must be computed fresh under (and stamped with) the new
        fingerprint — the old version's entries are unreachable because
        the fingerprint is in the key."""
        archive_a = tmp_path / "a.npz"
        save_selector(foldin_selector, archive_a)
        variant = load_selector(archive_a).refit(k=5)
        archive_b = tmp_path / "b.npz"
        save_selector(variant, archive_b)

        reg = SelectorRegistry()
        handle_a = reg.load("default", archive_a)
        with MicroBatchScheduler(reg) as sched:
            warm = sched.select(TARGETS[0])
            assert sched.select(TARGETS[0]).cached  # cache is live
            handle_b, swapped = reg.reload("default", archive_b)
            assert swapped and handle_b.fingerprint != handle_a.fingerprint

            fresh = sched.select(TARGETS[0])
            assert not fresh.cached  # computed, not replayed
            assert fresh.fingerprint == handle_b.fingerprint
            assert fresh.generation == handle_b.generation

            replay = sched.select(TARGETS[0])
            assert replay.cached and replay.fingerprint == handle_b.fingerprint
            assert _rec_payload(replay) == _rec_payload(fresh)

            # Rolling back to version A re-keys straight onto A's still
            # cached entries — and serves exactly A's bytes again.
            reg.reload("default", archive_a)
            rollback = sched.select(TARGETS[0])
            assert rollback.cached
            assert rollback.fingerprint == handle_a.fingerprint
            assert _rec_payload(rollback) == _rec_payload(warm)

    def test_fingerprint_identifies_the_catalog(self):
        """The memo key holds no catalog fingerprint: the knowledge
        fingerprint alone must tell the same VMs apart under another
        pricing rule or another catalog name."""
        ec2 = get_catalog("ec2")
        catalogs = (
            ec2,
            get_catalog("ec2-spot"),
            ProviderCatalog("ec2-copy", ec2.vms, ec2.pricing),
        )
        assert ec2.vms == catalogs[1].vms == catalogs[2].vms
        fingerprints = {
            VestaSelector(
                vms=VMS, sources=SOURCES[:4], seed=SEED, catalog=cat
            ).fit().knowledge_fingerprint()
            for cat in catalogs
        }
        assert len(fingerprints) == 3

    def test_sharded_fleet_aggregates_cache_counters(self, registry):
        with ShardRouter(registry, shards=2) as router:
            miss = router.select(TARGETS[0])
            hit = router.select(TARGETS[0])
            stats = router.stats()
        assert hit.cached and hit.shard == miss.shard
        assert _rec_payload(hit) == _rec_payload(miss)
        assert stats["rec_cache"]["hits"] == 1
        assert stats["rec_cache"]["maxsize"] == 2 * 512
        per_shard_hits = [row["rec_cache"]["hits"] for row in stats["per_shard"]]
        assert sum(per_shard_hits) == 1


# -- wire canonicalization ------------------------------------------------------


class TestWireCanonicalization:
    def test_round_trip_is_idempotent_and_order_free(self):
        scrambled = {
            "timeout_s": 5,
            "selector": "default",
            "objective": "budget",
            "workload": "spark-lr",
            "x-ignored": 1,
        }
        tidy = {
            "workload": "spark-lr",
            "objective": "budget",
            "selector": "default",
            "timeout_s": 5.0,
        }
        canonical = canonical_request(scrambled)
        assert canonical == tidy
        assert list(canonical) == ["workload", "objective", "selector", "timeout_s"]
        assert canonical_request(canonical) == canonical  # idempotent
        # Identical canonical form => identical serialized bytes.
        assert json.dumps(canonical) == json.dumps(canonical_request(tidy))

    def test_defaults_applied_and_key_ignores_timeout(self):
        assert canonical_request({"workload": "spark-lr"}) == {
            "workload": "spark-lr",
            "objective": "time",
        }

    def test_invalid_bodies_rejected(self):
        for bad in (
            [],
            {},
            {"workload": 7},
            {"workload": ""},
            {"workload": "spark-lr", "timeout_s": "soon"},
        ):
            with pytest.raises(ValidationError):
                canonical_request(bad)


# -- layer 3: client transport (and the stack end to end) ----------------------


@pytest.fixture()
def running(request, foldin_selector):
    reg = SelectorRegistry()
    reg.register("default", foldin_selector)
    service = SelectionService(reg, queue_limit=64)
    server = serve(service, port=0)
    request.addfinalizer(server.close)
    host, port = server.address
    return ServiceClient(host, port)


class TestClientTransport:
    def test_connection_reused_across_requests(self, running):
        client = running
        assert client.healthz()["status"] == "ok"
        conn = client._local.conn
        sock = conn.sock
        assert sock is not None
        client.statsz()
        client.select(TARGETS[0])
        assert client._local.conn is conn and conn.sock is sock

    def test_reconnects_after_connection_drop(self, running):
        client = running
        client.healthz()
        stale = client._local.conn
        stale.sock.close()  # server/kernel dropped us between requests
        payload = client.select(TARGETS[0])
        assert payload["recommendation"]["vm_name"]
        assert client._local.conn is not stale

    def test_close_then_reuse(self, running):
        client = running
        client.healthz()
        client.close()
        assert getattr(client._local, "conn", None) is None
        assert client.healthz()["status"] == "ok"

    def test_threads_do_not_share_connections(self, running):
        client = running
        client.healthz()
        seen = {}

        def probe():
            client.healthz()
            seen[threading.get_ident()] = client._local.conn

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(timeout=30)
        (other_conn,) = seen.values()
        assert other_conn is not client._local.conn

    def test_spelling_variants_share_one_cache_entry(self, running):
        """Canonicalization end to end: the same request spelled three
        ways yields one wave plus two byte-identical cache hits."""
        client = running
        first = client.select(TARGETS[1])
        assert first["batch"]["cached"] is False
        explicit = client.select(TARGETS[1], "time")
        scrambled = client._request(
            "POST",
            "/select",
            {"timeout_s": 60, "objective": "time", "workload": TARGETS[1]},
        )
        assert explicit["batch"]["cached"] is True
        assert scrambled["batch"]["cached"] is True
        assert explicit["recommendation"] == first["recommendation"]
        assert scrambled["recommendation"] == first["recommendation"]
        stats = client.statsz()["schedulers"]["default"]
        assert stats["rec_cache"]["hits"] >= 2
        described = client.healthz()["selectors"]["default"]
        assert described["foldin_cache"] is None or (
            described["foldin_cache"]["size"] >= 0
        )


class TestServiceFrontendEdges:
    def test_sharded_service_caches_over_http(self, foldin_selector):
        """The ShardRouter-backed service build: HTTP hits land in the
        per-shard caches and surface in the fleet-aggregated stats."""
        reg = SelectorRegistry()
        reg.register("default", foldin_selector)
        with SelectionService(reg, shards=2) as service:
            server = serve(service, port=0)
            try:
                client = ServiceClient(*server.address)
                first = client.select(TARGETS[0])
                assert first["batch"]["cached"] is False
                repeat = client.select(TARGETS[0])
                assert repeat["batch"]["cached"] is True
                assert repeat["recommendation"] == first["recommendation"]
                stats = client.statsz()["schedulers"]["default"]
                assert stats["rec_cache"]["hits"] >= 1
            finally:
                server.close()

    def test_constructor_validation(self, registry):
        with pytest.raises(ValidationError):
            SelectionService(registry, shards=0)
        with pytest.raises(ValidationError):
            MicroBatchScheduler(registry, rec_cache_size=-1, start=False)

    def test_closed_service_refuses_requests(self, registry):
        service = SelectionService(registry)
        service.select(TARGETS[0]).recommendation
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceError):
            service.select(TARGETS[0])

    def test_http_error_paths_raise_typed_errors(self, running):
        client = running
        with pytest.raises(ServiceError):
            client._request("POST", "/nope", {"workload": TARGETS[0]})
        with pytest.raises(ServiceError):
            client._request("GET", "/nope")
        with pytest.raises(ValidationError):
            client._request("POST", "/select", {})
        with pytest.raises(ValidationError):
            client._request("POST", "/select", {"workload": ""})

    def test_invalid_json_body_is_a_400(self, running):
        conn = HTTPConnection(running.host, running.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/select",
                b"{not json",
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"] == "ValidationError"
        finally:
            conn.close()

    def test_served_catalogs_map(self, running):
        catalogs = running.statsz()["catalogs"]
        assert catalogs["default"]["catalog"]
        assert catalogs["default"]["catalog_fingerprint"]

    def test_deadline_error_round_trips(self, running):
        """A lapsed deadline comes back as the same typed exception the
        in-process scheduler raises, enforcement stage included."""
        with pytest.raises(DeadlineExceededError) as excinfo:
            running.select(TARGETS[2], timeout_s=1e-6)
        assert excinfo.value.stage in ("queued", "served", "shed")

    def test_connection_refused_propagates_after_retry(self):
        client = ServiceClient("127.0.0.1", 1)  # nothing listens here
        with pytest.raises(OSError):
            client.healthz()

    def test_wire_error_and_catalog_payloads(self):
        deadline = error_to_dict(
            DeadlineExceededError(workload="w", waited_s=1.5, stage="queued")
        )
        assert deadline["error"] == "DeadlineExceededError"
        assert deadline["stage"] == "queued" and deadline["waited_s"] == 1.5


class TestDurationSummaryReset:
    def test_reset_starts_a_fresh_window(self):
        summary = DurationSummary(window=8)
        for value in (0.1, 0.2, 0.3):
            summary.record(value)
        assert summary.count == 3
        summary.reset()
        assert summary.count == 0
        assert summary.snapshot() == {
            "count": 0,
            "mean_ms": 0.0,
            "p50_ms": 0.0,
            "p99_ms": 0.0,
            "max_ms": 0.0,
        }
        summary.record(0.5)
        assert summary.count == 1
        assert summary.snapshot()["p50_ms"] == 500.0
