"""Determinism of the parallel profiling campaign engine.

The engine's core guarantee: because every (workload, VM, seed) triple
derives its own noise stream, a campaign is **bit-identical** to the
serial :class:`DataCollector` path for any worker count, any grid
iteration order, and any cache state.  These tests assert that guarantee
element-wise, that an offline :class:`VestaSelector` fit built on the
campaign is invariant to the worker count, and that each wave picks
inline or pool execution from its own size.

Small test grids run inline under the shipped size rule, so the
pool-versus-serial pins force the pool through the ``force_pool``
fixture and assert that it actually started.
"""

import multiprocessing
import os

import numpy as np
import pytest

import repro.telemetry.campaign as campaign_module
from repro.baselines.ground_truth import GroundTruth
from repro.cloud.vmtypes import catalog
from repro.core.persistence import load_selector, save_selector
from repro.core.vesta import VestaSelector
from repro.telemetry.campaign import ProfilingCampaign
from repro.telemetry.collector import DataCollector
from repro.workloads.catalog import target_set, training_set

SPECS = training_set()[:3]
VMS = catalog()[:5]
REPS = 3


def serial_runtime_matrix(seed: int) -> np.ndarray:
    dc = DataCollector(repetitions=REPS, seed=seed)
    return np.array([[dc.runtime_only(s, vm) for vm in VMS] for s in SPECS])


def assert_profiles_identical(a, b) -> None:
    assert a.workload == b.workload
    assert a.vm_name == b.vm_name
    assert a.nodes == b.nodes
    assert a.spilled == b.spilled
    np.testing.assert_array_equal(a.runtimes, b.runtimes)
    np.testing.assert_array_equal(a.budgets, b.budgets)
    np.testing.assert_array_equal(a.timeseries, b.timeseries)


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_runtime_matrix_bit_identical(self, seed, workers, force_pool):
        serial = serial_runtime_matrix(seed)
        started = force_pool(workers)
        parallel = ProfilingCampaign(repetitions=REPS, seed=seed)
        np.testing.assert_array_equal(parallel.runtime_matrix(SPECS, VMS), serial)
        assert started == [workers]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_collect_grid_bit_identical(self, workers, force_pool):
        dc = DataCollector(repetitions=REPS, seed=7)
        started = force_pool(workers)
        campaign = ProfilingCampaign(repetitions=REPS, seed=7)
        grid = campaign.collect_grid(SPECS, VMS)
        for spec in SPECS:
            for vm in VMS:
                assert_profiles_identical(
                    grid[(spec.name, vm.name)], dc.collect(spec, vm)
                )
        assert started == ([] if workers == 1 else [workers])

    def test_single_pair_matches_collector(self):
        campaign = ProfilingCampaign(repetitions=REPS, seed=11)
        dc = DataCollector(repetitions=REPS, seed=11)
        spec, vm = SPECS[0], VMS[0]
        assert_profiles_identical(campaign.collect(spec, vm), dc.collect(spec, vm))
        assert campaign.runtime_only(spec, vm) == dc.runtime_only(spec, vm)


class TestGridOrderInvariance:
    def test_runtime_matrix_invariant_to_iteration_order(self, force_pool):
        started = force_pool(2)
        forward = ProfilingCampaign(repetitions=REPS, seed=7)
        m_fwd = forward.runtime_matrix(SPECS, VMS)
        reverse = ProfilingCampaign(repetitions=REPS, seed=7)
        m_rev = reverse.runtime_matrix(tuple(reversed(SPECS)), tuple(reversed(VMS)))
        np.testing.assert_array_equal(m_fwd, m_rev[::-1, ::-1])
        assert started == [2, 2]

    def test_collect_grid_invariant_to_iteration_order(self, force_pool):
        started = force_pool(2)
        grid_fwd = ProfilingCampaign(repetitions=REPS, seed=3).collect_grid(SPECS, VMS)
        force_pool(3)
        grid_rev = ProfilingCampaign(repetitions=REPS, seed=3).collect_grid(
            tuple(reversed(SPECS)), tuple(reversed(VMS))
        )
        assert grid_fwd.keys() == grid_rev.keys()
        for key in grid_fwd:
            assert_profiles_identical(grid_fwd[key], grid_rev[key])
        assert started == [2, 3]

    def test_warm_cache_does_not_change_results(self, tmp_path, force_pool):
        path = str(tmp_path / "cache.sqlite")
        started = force_pool(2)
        cold = ProfilingCampaign(repetitions=REPS, seed=7, cache=path)
        m_cold = cold.runtime_matrix(SPECS, VMS)
        warm = ProfilingCampaign(repetitions=REPS, seed=7, cache=path)
        m_warm = warm.runtime_matrix(SPECS, VMS)
        np.testing.assert_array_equal(m_cold, m_warm)
        assert warm.counters.cache_hits == len(SPECS) * len(VMS)
        assert warm.counters.computed == 0
        assert started == [2]  # the warm campaign had nothing to fan out


@pytest.mark.slow
class TestFitInvariance:
    """An offline fit is identical whatever the campaign parallelism."""

    FIT_KWARGS = dict(
        sources=training_set()[:5],
        vms=catalog()[:10],
        repetitions=REPS,
        k=3,
        correlation_probe_count=3,
        seed=7,
    )

    def test_fit_invariant_to_jobs(self, force_pool):
        serial = VestaSelector(**self.FIT_KWARGS).fit()
        started = force_pool(2)
        parallel = VestaSelector(**self.FIT_KWARGS).fit()
        np.testing.assert_array_equal(serial.perf, parallel.perf)
        np.testing.assert_array_equal(serial.correlations, parallel.correlations)
        np.testing.assert_array_equal(serial.U, parallel.U)
        np.testing.assert_array_equal(serial.V, parallel.V)
        np.testing.assert_array_equal(serial.kept_features, parallel.kept_features)
        assert started and set(started) == {2}

    def test_fit_predictions_invariant_to_jobs(self, force_pool):
        serial = VestaSelector(**self.FIT_KWARGS).fit()
        started = force_pool(3)
        parallel = VestaSelector(**self.FIT_KWARGS).fit()
        spec = training_set()[5]
        rec_s = serial.select(spec)
        rec_p = parallel.select(spec)
        assert rec_s.vm_name == rec_p.vm_name
        assert rec_s.predicted_runtime_s == rec_p.predicted_runtime_s
        assert rec_s.predictions == rec_p.predictions
        assert 3 in started


def _pool_sized_grid():
    """Specs × the full catalog, at least two workers' worth of cells."""
    vms = catalog()
    rows = -(-2 * campaign_module._CELLS_PER_WORKER // len(vms))
    return training_set()[:rows], vms


def _matrix_in_daemon(queue) -> None:
    """Child body: a pool-sized wave inside a daemonic process.

    Two CPUs make the size rule alone ask for two workers, which a
    daemonic process may not start.
    """
    os.cpu_count = lambda: 2
    specs, vms = _pool_sized_grid()
    try:
        queue.put(ProfilingCampaign(repetitions=REPS, seed=7).runtime_matrix(specs, vms))
    except Exception as exc:
        queue.put(repr(exc))


class TestWaveSizeRule:
    """Each wave chooses inline or pool execution from its own size."""

    @pytest.fixture()
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the campaign started a process pool")

        monkeypatch.setattr(campaign_module, "ProcessPoolExecutor", refuse)

    def test_serving_wave_and_ground_truth_row_run_inline(
        self, no_pool, fitted_vesta, tmp_path
    ):
        path = tmp_path / "knowledge.npz"
        save_selector(fitted_vesta, path)
        cold = load_selector(path)  # fresh campaign: every probe cell misses
        recs = cold.select_many(target_set()[:8])
        assert len(recs) == 8
        assert cold.campaign.counters.computed >= 8
        truth = GroundTruth(seed=7)
        row = truth.runtimes(target_set()[0])
        assert row.shape == (len(truth.vms),)
        assert truth.campaign.counters.computed == len(truth.vms)

    def test_large_matrix_fans_out_bit_identically(self, force_pool, monkeypatch):
        shipped = campaign_module._CELLS_PER_WORKER
        specs, vms = _pool_sized_grid()
        started = force_pool(1)
        inline = ProfilingCampaign(repetitions=REPS, seed=7).runtime_matrix(specs, vms)
        assert started == []
        # The shipped constant and two CPUs: the rule's own choice for
        # this wave is a two-worker pool.
        monkeypatch.setattr(campaign_module, "_CELLS_PER_WORKER", shipped)
        monkeypatch.setattr(campaign_module.os, "cpu_count", lambda: 2)
        pooled = ProfilingCampaign(repetitions=REPS, seed=7).runtime_matrix(specs, vms)
        assert started == [2]
        np.testing.assert_array_equal(pooled, inline)

    def test_daemonic_process_runs_inline(self):
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        child = ctx.Process(target=_matrix_in_daemon, args=(queue,), daemon=True)
        child.start()
        try:
            result = queue.get(timeout=120)
        finally:
            child.join(timeout=30)
        assert not child.is_alive()
        assert not isinstance(result, str), result
        specs, vms = _pool_sized_grid()
        expected = ProfilingCampaign(repetitions=REPS, seed=7).runtime_matrix(specs, vms)
        np.testing.assert_array_equal(result, expected)
