"""Performance benches: the profiling campaign engine.

The campaign is the repo's dominant wall-clock cost (the 30 × 100 × 10
offline sweep); these benches measure the cold sweep (which rides the
vectorized batch simulator), the per-cell scalar reference it must stay
bit-identical to (a plain :class:`DataCollector` loop), and inline versus
process-pool waves on either side of the campaign's size rule.  The
inline-versus-pool medians land in ``BENCH_sim.json`` with the CPU count
they ran on.  Warm reuse across processes is the artifact store's job
(``bench_perf_refit.py``).
"""

import os
import statistics
import time

import pytest
from trajectory import ROOT, record

import repro.telemetry.campaign as campaign_module
from repro.cloud.vmtypes import catalog
from repro.telemetry.campaign import ProfilingCampaign
from repro.telemetry.collector import DataCollector
from repro.workloads.catalog import training_set

SPECS = training_set()[:4]
VMS = catalog()[:12]
REPS = 10
SEED = 7


def test_perf_campaign_cold_serial(benchmark):
    """Cold (workload × VM) profile sweep: 48 cells, one inline wave."""
    grid = benchmark(
        lambda: ProfilingCampaign(repetitions=REPS, seed=SEED).collect_grid(SPECS, VMS)
    )
    assert len(grid) == len(SPECS) * len(VMS)


def test_perf_campaign_cold_scalar_reference(benchmark):
    """The same cold sweep as a plain per-cell :class:`DataCollector` loop.

    This is the pre-batching reference cost: the gap between this row
    and ``test_perf_campaign_cold_serial`` is the vectorization win.
    """

    def scalar_sweep():
        collector = DataCollector(repetitions=REPS, seed=SEED)
        return {
            (spec.name, vm.name): collector.collect(spec, vm)
            for spec in SPECS
            for vm in VMS
        }

    grid = benchmark(scalar_sweep)
    assert len(grid) == len(SPECS) * len(VMS)


def test_inline_vs_pool_around_the_size_rule():
    """Inline versus two-worker-pool waves on either side of the size rule.

    Times a fresh campaign's cold runtime matrix over the fit's training
    workloads at 4, 8, 30 and 100 VM types: a serving-sized wave and the
    fit's correlation grid (the rule runs both inline), a mid-size wave
    and the fit's full matrix (both get a pool).  Each size runs forced
    inline and forced onto a two-worker pool, alternating, and records
    medians of 9 with the CPU count.  Nothing is asserted: where the crossover sits depends on the
    host, which is what the rows record.
    """
    specs = training_set()

    def timed_ms(vms, workers: int) -> float:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(campaign_module, "_CELLS_PER_WORKER", 1)
            patch.setattr(campaign_module.os, "cpu_count", lambda: workers)
            start = time.perf_counter()
            ProfilingCampaign(repetitions=REPS, seed=SEED).runtime_matrix(specs, vms)
            return (time.perf_counter() - start) * 1e3

    rows = {}
    for per_spec in (4, 8, 30, 100):
        vms = catalog()[:per_spec]
        runs = {1: [], 2: []}
        for rep in range(9):
            for workers in ((1, 2) if rep % 2 else (2, 1)):
                runs[workers].append(timed_ms(vms, workers))
        cells = len(specs) * len(vms)
        rows[f"campaign_inline_{cells}_cells_ms"] = round(statistics.median(runs[1]), 3)
        rows[f"campaign_pool2_{cells}_cells_ms"] = round(statistics.median(runs[2]), 3)
    record(
        ROOT / "BENCH_sim.json",
        campaign_cells_per_worker=campaign_module._CELLS_PER_WORKER,
        campaign_cpu_count=os.cpu_count(),
        **rows,
    )
    print("\n" + "   ".join(f"{key}: {value}" for key, value in rows.items()))
