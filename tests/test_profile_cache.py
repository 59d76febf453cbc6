"""Correctness of the content-addressed profile cache.

Covers hit/miss accounting, invalidation when any key component changes
(seed, repetitions, noise-model fingerprint), recovery from a corrupted
database file, and concurrent writers sharing one WAL-mode store.
"""

import sqlite3
import threading

import numpy as np
import pytest

from repro.cloud.vmtypes import catalog
from repro.telemetry.campaign import (
    ProfileCache,
    ProfilingCampaign,
    noise_fingerprint,
    profile_cache_key,
)
from repro.telemetry.collector import DataCollector
from repro.workloads.catalog import training_set

SPECS = training_set()[:2]
VMS = catalog()[:3]
REPS = 3
GRID = len(SPECS) * len(VMS)


class TestHitMissAccounting:
    def test_cold_then_warm(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        cold = ProfilingCampaign(repetitions=REPS, seed=0, cache=path)
        cold.runtime_matrix(SPECS, VMS)
        assert cold.counters.scheduled == GRID
        assert cold.counters.cache_misses == GRID
        assert cold.counters.cache_hits == 0
        assert cold.counters.computed == GRID
        assert cold.counters.hit_rate == 0.0

        warm = ProfilingCampaign(repetitions=REPS, seed=0, cache=path)
        warm.runtime_matrix(SPECS, VMS)
        assert warm.counters.cache_hits == GRID
        assert warm.counters.computed == 0
        assert warm.counters.hit_rate == 1.0
        assert warm.counters.progress == 1.0

    def test_memo_hits_within_one_campaign(self):
        campaign = ProfilingCampaign(repetitions=REPS, seed=0)
        campaign.collect_grid(SPECS, VMS)
        campaign.collect_grid(SPECS, VMS)
        assert campaign.counters.scheduled == 2 * GRID
        assert campaign.counters.computed == GRID
        assert campaign.counters.cache_hits == GRID

    def test_cache_object_counts_persistent_lookups(self, tmp_path):
        cache = ProfileCache(str(tmp_path / "cache.sqlite"))
        campaign = ProfilingCampaign(repetitions=REPS, seed=0, cache=cache)
        campaign.runtime_matrix(SPECS, VMS)
        assert cache.misses == GRID
        assert cache.hits == 0
        assert len(cache) == GRID


class TestInvalidation:
    def profile_and_key(self, **overrides):
        params = dict(
            spec=SPECS[0],
            vm=VMS[0],
            nodes=SPECS[0].nodes,
            seed=0,
            repetitions=REPS,
            sample_period_s=5.0,
            fingerprint=noise_fingerprint(),
        )
        params.update(overrides)
        return profile_cache_key(**params)

    def test_key_changes_with_each_component(self):
        base = self.profile_and_key()
        assert self.profile_and_key(seed=1) != base
        assert self.profile_and_key(repetitions=REPS + 1) != base
        assert self.profile_and_key(nodes=SPECS[0].nodes + 1) != base
        assert self.profile_and_key(fingerprint="deadbeef") != base
        assert self.profile_and_key(spec=SPECS[1]) != base
        assert self.profile_and_key(vm=VMS[1]) != base
        assert self.profile_and_key(kind="p90") != base

    def test_changed_seed_misses(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        ProfilingCampaign(repetitions=REPS, seed=0, cache=path).runtime_matrix(
            SPECS, VMS
        )
        other = ProfilingCampaign(repetitions=REPS, seed=1, cache=path)
        other.runtime_matrix(SPECS, VMS)
        assert other.counters.cache_hits == 0
        assert other.counters.computed == GRID

    def test_changed_repetitions_misses(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        ProfilingCampaign(repetitions=REPS, seed=0, cache=path).runtime_matrix(
            SPECS, VMS
        )
        other = ProfilingCampaign(
            repetitions=REPS + 2, seed=0, cache=path
        )
        other.runtime_matrix(SPECS, VMS)
        assert other.counters.cache_hits == 0

    def test_changed_fingerprint_prunes_stale_generation(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        old = ProfileCache(path, fingerprint="old-generation")
        campaign = ProfilingCampaign(repetitions=REPS, seed=0, cache=old)
        campaign.runtime_matrix(SPECS, VMS)
        assert len(old) == GRID
        old.close()

        fresh = ProfileCache(path)  # current fingerprint differs
        assert fresh.pruned == GRID
        assert len(fresh) == 0
        relying = ProfilingCampaign(repetitions=REPS, seed=0, cache=fresh)
        relying.runtime_matrix(SPECS, VMS)
        assert relying.counters.cache_hits == 0
        assert relying.counters.computed == GRID


class TestCorruptionFallback:
    def test_corrupted_file_is_recreated_and_recomputed(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        (tmp_path / "cache.sqlite").write_bytes(b"this is not a sqlite database")
        cache = ProfileCache(path)
        assert cache.recovered
        assert (tmp_path / "cache.sqlite.corrupt").exists()

        campaign = ProfilingCampaign(repetitions=REPS, seed=0, cache=cache)
        matrix = campaign.runtime_matrix(SPECS, VMS)
        dc = DataCollector(repetitions=REPS, seed=0)
        expected = np.array([[dc.runtime_only(s, vm) for vm in VMS] for s in SPECS])
        np.testing.assert_array_equal(matrix, expected)

    def test_unopenable_path_degrades_to_memory(self, tmp_path):
        path = str(tmp_path)  # a directory: sqlite cannot open it
        cache = ProfileCache(path)
        assert cache.recovered
        campaign = ProfilingCampaign(repetitions=REPS, seed=0, cache=cache)
        matrix = campaign.runtime_matrix(SPECS, VMS)
        assert matrix.shape == (len(SPECS), len(VMS))
        assert campaign.counters.computed == GRID

    def test_write_failure_is_silent(self, tmp_path):
        cache = ProfileCache(str(tmp_path / "cache.sqlite"))
        cache._store.close()  # sabotage: writes now raise underneath
        campaign = ProfilingCampaign(repetitions=REPS, seed=0, cache=cache)
        matrix = campaign.runtime_matrix(SPECS, VMS)  # must not raise
        assert np.isfinite(matrix).all()


class TestConcurrentWriters:
    def test_threaded_writers_do_not_corrupt_the_store(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        seeds = [0, 1, 2, 3]
        errors: list[Exception] = []

        def campaign_run(seed: int) -> None:
            try:
                cache = ProfileCache(path)
                ProfilingCampaign(
                    repetitions=REPS, seed=seed, cache=cache
                ).runtime_matrix(SPECS, VMS)
                cache.close()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=campaign_run, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        # Every generation's entries landed and the file is readable.
        check = ProfileCache(path)
        assert len(check) == GRID * len(seeds)
        for seed in seeds:
            warm = ProfilingCampaign(repetitions=REPS, seed=seed, cache=check)
            warm.runtime_matrix(SPECS, VMS)
        assert check.hits == GRID * len(seeds)

    def test_wal_mode_enabled_for_file_backed_cache(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        cache = ProfileCache(path)
        mode = cache._store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        cache.close()
        # and the file survives reopening by plain sqlite
        assert sqlite3.connect(path).execute(
            "SELECT COUNT(*) FROM scalar_cache"
        ).fetchone() == (0,)


class TestStoreNodesThreading:
    def test_get_requires_explicit_nodes(self, tmp_path):
        """The old nodes=4 default silently mismatched cluster sizes."""
        from repro.telemetry.store import MetricsStore

        spec = SPECS[0].with_nodes(6)
        profile = DataCollector(repetitions=2, seed=0).collect(spec, VMS[0])
        with MetricsStore() as store:
            store.put(profile)
            assert store.get(spec.name, VMS[0].name, nodes=6) is not None
            assert store.get(spec.name, VMS[0].name, nodes=4) is None
            with pytest.raises(TypeError):
                store.get(spec.name, VMS[0].name)  # nodes is now required
