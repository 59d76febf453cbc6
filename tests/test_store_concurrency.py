"""Multi-threaded access to the sqlite-backed stores.

The serving subsystem shares one :class:`MetricsStore` /
:class:`ArtifactStore` between the thread that constructed the selector
and the scheduler worker (plus HTTP handler threads reading stats), so
both stores must tolerate cross-thread use and concurrent readers.
Before the hardening, any call from a non-constructor thread raised
``sqlite3.ProgrammingError`` (connections default to
``check_same_thread=True``).
"""

from __future__ import annotations

import sqlite3
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.artifacts import ArtifactStore
from repro.telemetry.collector import WorkloadProfile
from repro.telemetry.store import MetricsStore, SessionRecord


def _session(workload: str, *, vms: int = 4, seed: int = 0) -> SessionRecord:
    rng = np.random.default_rng(seed)
    return SessionRecord(
        workload=workload,
        objective="time",
        fingerprint="fp-test",
        converged=True,
        degraded=False,
        knowledge_match=0.9,
        vm_names=tuple(f"vm-{i}" for i in range(vms)),
        observed=rng.uniform(10.0, 100.0, size=vms),
        completed_row=rng.uniform(size=6),
        predicted=rng.uniform(10.0, 100.0, size=10),
    )


def _profile(workload: str, vm_name: str, nodes: int = 2, seed: int = 0):
    rng = np.random.default_rng(seed)
    return WorkloadProfile(
        workload=workload,
        framework="spark",
        vm_name=vm_name,
        nodes=nodes,
        runtimes=rng.uniform(10.0, 100.0, size=3),
        budgets=rng.uniform(0.1, 1.0, size=3),
        timeseries=rng.uniform(0.0, 1.0, size=(30, 20)),
        spilled=False,
    )


def _run_threads(workers, *, count: int = 8):
    """Run ``workers`` (callables taking a thread index) concurrently,
    re-raising the first exception from any thread."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(count)

    def wrap(fn, idx):
        try:
            barrier.wait(timeout=30)
            fn(idx)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=wrap, args=(workers[i % len(workers)], i))
        for i in range(count)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    if errors:
        raise errors[0]


class TestMetricsStoreConcurrency:
    def test_cross_thread_use(self, tmp_path):
        """A store built on one thread serves puts/gets from another."""
        store = MetricsStore(str(tmp_path / "m.db"))

        def use(_):
            store.put(_profile("wl-x", "vm-x"))
            assert store.get("wl-x", "vm-x", 2) is not None

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(use, 0).result(timeout=30)
        store.close()

    def test_concurrent_readers_and_writer(self, tmp_path):
        store = MetricsStore(str(tmp_path / "m.db"))
        for i in range(4):
            store.put(_profile("wl-seed", f"vm-{i}", seed=i))

        def writer(idx):
            for j in range(20):
                store.put(_profile(f"wl-{idx}", f"vm-{j % 5}", seed=j))

        def reader(_):
            for _ in range(40):
                profiles = store.profiles_for_workload("wl-seed")
                assert len(profiles) == 4
                assert store.get("wl-seed", "vm-0", 2).workload == "wl-seed"
                assert len(store) >= 4
                store.workloads()
                store.vm_names()

        _run_threads([writer, reader, reader, reader], count=8)
        assert len(store.profiles_for_workload("wl-seed")) == 4
        store.close()

    def test_concurrent_bulk_writers_serialize(self, tmp_path):
        """Two bulk transactions from different threads cannot interleave;
        both land completely."""
        store = MetricsStore(str(tmp_path / "m.db"))

        def bulk_writer(idx):
            with store.bulk() as tx:
                for j in range(10):
                    tx.put(_profile(f"wl-bulk-{idx}", f"vm-{j}", seed=j))

        _run_threads([bulk_writer], count=4)
        assert len(store) == 4 * 10
        store.close()

    def test_wal_mode_enabled_for_file_backed_store(self, tmp_path):
        """A file-backed store opens in WAL mode with the busy timeout,
        as ArtifactStore does; an in-memory one keeps sqlite's default."""
        path = str(tmp_path / "m.db")
        store = MetricsStore(path)
        conn = store._conn
        assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        assert conn.execute("PRAGMA busy_timeout").fetchone() == (30000,)
        store.put(_profile("wl-wal", "vm-0"))
        store.close()
        # ...and the file survives reopening by plain sqlite.
        plain = sqlite3.connect(path)
        assert plain.execute("SELECT COUNT(*) FROM profiles").fetchone() == (1,)
        plain.close()
        with MetricsStore() as memory:
            assert memory._conn.execute("PRAGMA journal_mode").fetchone() == ("memory",)


class TestSessionLogRetention:
    """Bounded session journal: deterministic oldest-first eviction even
    under concurrent writers and readers sharing one store (the serving
    scheduler journals while the learning loop and ``/statsz`` read)."""

    def test_roundtrip_preserves_record(self, tmp_path):
        store = MetricsStore(str(tmp_path / "m.db"))
        record = _session("wl-rt", seed=3)
        seq = store.log_session(record)
        (back,) = store.sessions("wl-rt")
        assert back.seq == seq
        assert back.workload == record.workload
        assert back.fingerprint == record.fingerprint
        assert back.vm_names == record.vm_names
        np.testing.assert_array_equal(back.observed, record.observed)
        np.testing.assert_array_equal(back.completed_row, record.completed_row)
        np.testing.assert_array_equal(back.predicted, record.predicted)
        store.close()

    def test_limit_bounds_rows_oldest_first(self, tmp_path):
        store = MetricsStore(str(tmp_path / "m.db"))
        for i in range(10):
            store.log_session(_session(f"wl-{i}", seed=i), limit=4)
        assert store.session_count() == 4
        kept = [r.workload for r in store.sessions()]
        assert kept == [f"wl-{i}" for i in range(6, 10)]
        store.close()

    def test_prune_sessions_returns_removed(self, tmp_path):
        store = MetricsStore(str(tmp_path / "m.db"))
        for i in range(8):
            store.log_session(_session(f"wl-{i}", seed=i))
        assert store.prune_sessions(keep=3) == 5
        assert [r.workload for r in store.sessions()] == ["wl-5", "wl-6", "wl-7"]
        assert store.prune_sessions(keep=3) == 0  # idempotent
        store.close()

    def test_invalid_bounds_rejected(self, tmp_path):
        from repro.errors import ValidationError

        store = MetricsStore(str(tmp_path / "m.db"))
        with pytest.raises(ValidationError):
            store.log_session(_session("wl"), limit=0)
        with pytest.raises(ValidationError):
            store.prune_sessions(keep=-1)
        bad = _session("wl")
        object.__setattr__(bad, "observed", np.zeros(99))
        with pytest.raises(ValidationError):
            store.log_session(bad)
        store.close()

    def test_concurrent_journal_writers_stay_bounded(self, tmp_path):
        store = MetricsStore(str(tmp_path / "m.db"))
        limit = 16

        def journaller(idx):
            for j in range(25):
                store.log_session(_session(f"wl-{idx}-{j}", seed=j), limit=limit)

        def reader(_):
            for _ in range(40):
                assert store.session_count() <= limit
                for record in store.sessions():
                    assert record.observed.shape == (4,)

        _run_threads([journaller, journaller, reader, reader], count=8)
        assert store.session_count() == limit
        # Retention kept exactly the newest ``limit`` rows by seq.
        seqs = [r.seq for r in store.sessions()]
        assert seqs == sorted(seqs)
        assert len(seqs) == limit
        assert seqs[-1] - seqs[0] == limit - 1
        store.close()


class TestArtifactStoreConcurrency:
    def test_cross_thread_use(self, tmp_path):
        store = ArtifactStore(tmp_path / "a.db")

        def use(_):
            store.put("k-x", "stage", {"a": np.arange(4.0)}, {"m": 1})
            hit = store.get("k-x")
            assert hit is not None and hit.meta == {"m": 1}

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(use, 0).result(timeout=30)
        store.close()

    def test_concurrent_put_get(self, tmp_path):
        store = ArtifactStore(tmp_path / "a.db")
        rng = np.random.default_rng(3)
        payloads = {f"k-{i}": rng.uniform(size=(8, 8)) for i in range(12)}
        for key, arr in payloads.items():
            store.put(key, "warm", {"w": arr})

        def writer(idx):
            for j in range(10):
                store.put(f"w-{idx}-{j}", "stage", {"x": np.full(16, float(j))})

        def reader(_):
            for key, arr in payloads.items():
                hit = store.get(key)
                assert hit is not None
                np.testing.assert_array_equal(hit.arrays["w"], arr)
            assert len(store) >= len(payloads)
            store.entries("warm")

        _run_threads([writer, reader, reader, reader], count=8)
        assert len(store.entries("warm")) == len(payloads)
        store.close()

    def test_concurrent_invalidate_is_safe(self, tmp_path):
        store = ArtifactStore(tmp_path / "a.db")
        for i in range(20):
            store.put(f"k-{i}", "doomed", {"x": np.zeros(4)})

        def invalidator(_):
            store.invalidate("doomed")

        def reader(_):
            for i in range(20):
                store.get(f"k-{i}")  # hit or miss, never an exception

        _run_threads([invalidator, reader, reader, reader], count=8)
        assert len(store.entries("doomed")) == 0
        store.close()


def test_metrics_store_rejects_bad_series(tmp_path):
    """Validation still fires when called off-thread."""
    store = MetricsStore(str(tmp_path / "m.db"))
    bad = _profile("wl", "vm")
    object.__setattr__(bad, "timeseries", np.zeros((30, 7)))

    def use(_):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            store.put(bad)

    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(use, 0).result(timeout=30)
    store.close()
