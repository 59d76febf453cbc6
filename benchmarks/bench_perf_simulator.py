"""Performance benches: the substrate's own speed.

These are true pytest-benchmark timings (multiple rounds): the analytic
simulator must stay fast enough that a full profiling campaign
(30 workloads x 100 VM types x 10 repetitions) regenerates in minutes —
the property that makes the reproduction tractable at all.

Two paths are timed: the scalar reference (``simulate_run``, one cell at
a time — the executable specification) and the vectorized batch core
(``simulate_batch`` over a 64-cell grid in structure-of-arrays passes).
The batch-vs-scalar numbers land in ``BENCH_sim.json`` at the repo root
(same trajectory convention as ``BENCH_online.json``) so future PRs can
compare.
"""

import numpy as np
from trajectory import ROOT, record, timed

from repro.cloud.vmtypes import catalog
from repro.frameworks.registry import simulate_batch, simulate_run
from repro.telemetry.collector import DataCollector
from repro.workloads.catalog import get_workload, training_set

RESULTS_PATH = ROOT / "BENCH_sim.json"

#: The batch row's grid: 8 workloads x 8 VM types = 64 cells.
BATCH_SPECS = training_set()[:8]
BATCH_VMS = [vm.name for vm in catalog()[:8]]
BATCH_CELLS = [(spec, vm) for spec in BATCH_SPECS for vm in BATCH_VMS]


def test_perf_runtime_only(benchmark):
    """A runtime-only simulated run (the ground-truth sweep hot path)."""
    spec = get_workload("spark-lr")
    result = benchmark(
        lambda: simulate_run(spec, "m5.xlarge", with_timeseries=False)
    )
    assert result.runtime_s > 0


def test_perf_run_with_telemetry(benchmark):
    """A full run including the 20-metric time series."""
    spec = get_workload("hadoop-kmeans")
    rng = np.random.default_rng(0)
    result = benchmark(lambda: simulate_run(spec, "m5.xlarge", rng=rng))
    assert result.timeseries.shape[1] == 20


def test_perf_collector_p90(benchmark):
    """The Data Collector's 10-repetition P90 protocol."""
    spec = get_workload("hive-join")
    collector = DataCollector(repetitions=10, seed=0)
    runtime = benchmark(lambda: collector.runtime_only(spec, "c5.xlarge"))
    assert runtime > 0


def _batch_full(cells):
    return simulate_batch(
        cells, rngs=[np.random.default_rng(k) for k in range(len(cells))]
    )


def _scalar_full(cells):
    return [
        simulate_run(spec, vm, rng=np.random.default_rng(k))
        for k, (spec, vm) in enumerate(cells)
    ]


def test_perf_simulate_batch_64_cells(benchmark):
    """The vectorized core: 64 full runs (telemetry included), one call."""
    results = benchmark(lambda: _batch_full(BATCH_CELLS))
    assert len(results) == 64
    assert all(r is not None and r.timeseries is not None for r in results)


def test_batch_64_cells_beats_scalar_loop():
    """The batch core must clearly outrun 64 scalar calls — and say by
    how much, for the perf trajectory.

    Planning stays scalar by design (the engines are the executable
    spec), so the win comes from phase pricing and the telemetry render;
    a runtime-only grid is planner-bound and nearly ties, which is why
    this row measures the full run.
    """
    batch_s = timed(lambda: _batch_full(BATCH_CELLS))
    scalar_s = timed(lambda: _scalar_full(BATCH_CELLS))
    speedup = scalar_s / batch_s
    record(
        RESULTS_PATH,
        batch_64_cells_ms=round(batch_s * 1e3, 3),
        scalar_loop_64_cells_ms=round(scalar_s * 1e3, 3),
        batch_vs_scalar_speedup=round(speedup, 2),
    )
    print(
        f"\nbatch 64 cells: {batch_s * 1e3:.1f} ms   "
        f"scalar loop: {scalar_s * 1e3:.1f} ms   speedup: {speedup:.1f}x"
    )
    assert speedup >= 1.5
