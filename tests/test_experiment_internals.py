"""Unit tests of the experiment modules' internal helpers and shapes."""

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    ext_crosscloud,
    fig01_heatmaps,
    fig03_overhead_curve,
    fig12_progression,
    seed_sensitivity,
    tab05_alternatives,
)
from repro.errors import ValidationError


class TestGridVm:
    def test_cell_resources(self):
        vm = fig01_heatmaps.grid_vm(8, 16.0)
        assert vm.vcpus == 8
        assert vm.mem_gb == 16.0
        assert vm.family == "GRID"
        assert vm.price_per_hour > 0

    def test_price_linear_in_resources(self):
        a = fig01_heatmaps.grid_vm(4, 8.0).price_per_hour
        b = fig01_heatmaps.grid_vm(8, 16.0).price_per_hour
        assert b == pytest.approx(2 * a)

    def test_io_scales_sublinearly(self):
        small = fig01_heatmaps.grid_vm(2, 4.0)
        big = fig01_heatmaps.grid_vm(32, 64.0)
        assert big.disk_mbps < 16 * small.disk_mbps


class TestVmSubset:
    def test_requested_count(self):
        for n in (5, 20, 100):
            subset = fig03_overhead_curve._vm_subset(n)
            assert len(subset) == n

    def test_spread_across_families(self):
        subset = fig03_overhead_curve._vm_subset(20)
        families = {vm.family for vm in subset}
        assert len(families) >= 10


class TestRankedTrace:
    def test_monotone_best_so_far(self):
        runtimes = np.array([50.0, 10.0, 30.0, 20.0])
        trace = fig12_progression._ranked_trace(
            order=[1, 2, 3], gt_runtimes=runtimes, budget=5, head=[50.0]
        )
        assert trace == (50.0, 10.0, 10.0, 10.0, 10.0)

    def test_pads_to_budget(self):
        runtimes = np.array([5.0])
        trace = fig12_progression._ranked_trace(
            order=[0], gt_runtimes=runtimes, budget=4, head=[9.0]
        )
        assert len(trace) == 4
        assert trace[-1] == 5.0

    def test_budget_truncates(self):
        runtimes = np.array([9.0, 8.0, 7.0, 6.0])
        trace = fig12_progression._ranked_trace(
            order=[0, 1, 2, 3], gt_runtimes=runtimes, budget=2, head=[10.0]
        )
        assert len(trace) == 2


class TestSweepResult:
    def test_best_value_and_format(self):
        r = ablations.SweepResult("lambda", (0.0, 0.75, 1.0), (20.0, 10.0, 30.0))
        assert r.best_value == 0.75
        text = r.format_table()
        assert "lambda" in text and "best" in text

    def test_raw_metric_variant_signature_names(self):
        v = ablations.RawMetricVesta()
        assert len(v.signature_names()) == 10
        assert "cpu_user" in v.signature_names()


class TestSeedSensitivityResult:
    def test_ordering_and_ci(self):
        r = seed_sensitivity.SeedSensitivityResult(
            seeds=(1, 2, 3),
            vesta=(10.0, 12.0, 11.0),
            paris=(30.0, 35.0, 32.0),
            ernest=(12.0, 13.0, 14.0),
        )
        assert r.ordering_holds()
        lo, hi = r.ci("vesta")
        assert lo <= np.mean(r.vesta) <= hi
        text = seed_sensitivity.format_table(r)
        assert "CI95" in text

    def test_ordering_fails_when_paris_wins(self):
        r = seed_sensitivity.SeedSensitivityResult(
            seeds=(1,), vesta=(20.0,), paris=(10.0,), ernest=(15.0,)
        )
        assert not r.ordering_holds()


class TestTab05:
    def test_rows_and_format(self):
        result = tab05_alternatives.run()
        assert len(result.paris_reference_vms) == 4
        assert len(result.ernest_probe_scales) == 3
        text = tab05_alternatives.format_table(result)
        assert "PARIS" in text and "Ernest" in text


class TestCrossCloudTransfer:
    def test_donor_signatures_reused_not_reprofiled(self, fitted_vesta):
        vesta = ext_crosscloud._transferred_vesta(fitted_vesta, "azure", seed=7)
        assert vesta.catalog.name == "azure"
        assert vesta.stage_report["corr_signatures"].action == "memory"
        np.testing.assert_array_equal(vesta.correlations, fitted_vesta.correlations)
