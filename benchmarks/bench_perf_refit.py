"""Performance benches: the staged knowledge pipeline.

A cold ``fit()`` pays for the whole profiling campaign; a ``refit(k=…)``
against a warm artifact store only re-runs the K-Means smoothing stage.
These benches measure both paths and assert the headline claim of the
staged pipeline: a warm-store k sweep beats cold refits by ≥3×.
"""

import numpy as np
from trajectory import timed

from repro.cloud.vmtypes import catalog
from repro.core.vesta import VestaSelector
from repro.workloads.catalog import training_set

SOURCES = training_set()[:4]
VMS = catalog()[:12]
SEED = 7
K_VALUES = (3, 5, 7, 9)


def _selector(store=None, k=K_VALUES[0]):
    return VestaSelector(sources=SOURCES, vms=VMS, seed=SEED, k=k, store=store)


def test_perf_fit_cold(benchmark):
    """Cold offline fit — campaign plus every pipeline stage."""
    sel = benchmark(lambda: _selector().fit())
    assert sel.perf.shape == (len(SOURCES), len(VMS))


def test_perf_refit_warm_store(benchmark, tmp_path):
    """Warm-store k sweep: every upstream stage served from sqlite."""
    path = str(tmp_path / "store.sqlite")
    _selector(store=path).fit()

    def sweep():
        # Fresh selector each round: stages come from the store, not the
        # in-process memory cache, and no campaign runs at all.
        sel = _selector(store=path).fit()
        for k in K_VALUES[1:]:
            sel.refit(k=k)
        assert sel.campaign.counters.computed == 0
        return sel

    sel = benchmark(sweep)
    assert sel.k == K_VALUES[-1]


def test_warm_refit_sweep_at_least_3x_faster_than_cold(tmp_path):
    """The acceptance bar: a warm-store k sweep ≥3× the cold-fit sweep."""
    path = str(tmp_path / "store.sqlite")

    def cold_sweep():
        for k in K_VALUES:
            _selector(k=k).fit()

    cold = timed(cold_sweep, rounds=1)
    _selector(store=path).fit()

    def warm_sweep():
        sel = _selector(store=path).fit()
        for k in K_VALUES[1:]:
            sel.refit(k=k)

    warm = timed(warm_sweep)
    speedup = cold / warm
    print(f"\ncold fit sweep: {cold * 1e3:.1f} ms   warm refit sweep: "
          f"{warm * 1e3:.1f} ms   speedup: {speedup:.1f}x")
    assert speedup >= 3.0


def test_warm_refit_results_identical_to_cold(tmp_path):
    """Speed must not change a single bit of the knowledge."""
    path = str(tmp_path / "store.sqlite")
    _selector(store=path).fit()
    warm = _selector(store=path).fit()
    for k in K_VALUES:
        warm.refit(k=k)
        cold = _selector(k=k).fit()
        np.testing.assert_array_equal(warm.V, cold.V)
        np.testing.assert_array_equal(warm.vm_clusters, cold.vm_clusters)
        np.testing.assert_array_equal(warm.U, cold.U)
    assert warm.campaign.counters.computed == 0
