"""Tests for metrics, the Data Collector, and the metrics store."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.frameworks.registry import get_engine, simulate_run
from repro.frameworks.resources import MAX_SAMPLES, build_timeseries
from repro.cloud.cluster import Cluster
from repro.cloud.vmtypes import get_vm_type
from repro.telemetry.collector import DataCollector, WorkloadProfile
from repro.telemetry.metrics import (
    EXECUTION_METRICS,
    METRIC_INDEX,
    METRIC_NAMES,
    NUM_METRICS,
    RESOURCE_METRICS,
    metric_column,
)
from repro.telemetry.store import MetricsStore
from repro.workloads.catalog import get_workload


class TestMetricDefinitions:
    def test_twenty_metrics(self):
        assert NUM_METRICS == 20
        assert len(METRIC_NAMES) == 20

    def test_paper_enumerated_metrics_present(self):
        # Section 3.1's explicit list.
        explicit = {
            "cpu_system", "cpu_user", "cpu_idle",
            "mem_used", "mem_buffer", "mem_cache",
            "disk_read", "disk_write",
            "net_send", "net_recv", "net_drop",
            "tasks_compute", "tasks_communication", "tasks_synchronization",
            "data_per_cycle", "data_per_iteration", "data_per_parallelism",
        }
        assert explicit <= set(METRIC_NAMES)

    def test_partition_resource_execution(self):
        assert set(RESOURCE_METRICS) | set(EXECUTION_METRICS) == set(METRIC_NAMES)
        assert not set(RESOURCE_METRICS) & set(EXECUTION_METRICS)

    def test_metric_column_lookup(self):
        assert metric_column("cpu_user") == METRIC_INDEX["cpu_user"]
        with pytest.raises(KeyError):
            metric_column("gpu_util")


class TestTimeseries:
    def test_shape_and_nonnegativity(self, spark_lr, small_cluster, rng):
        phases = get_engine("spark").plan(spark_lr, small_cluster)
        from repro.frameworks.base import BSPScheduler

        results = [BSPScheduler().simulate_phase(p, small_cluster) for p in phases]
        series = build_timeseries(results, spark_lr, small_cluster, rng=rng)
        assert series.shape[1] == NUM_METRICS
        assert np.all(series >= 0)

    def test_fraction_metrics_bounded(self, spark_lr, rng):
        r = simulate_run(spark_lr, "m5.xlarge", rng=rng)
        for name in ("cpu_user", "cpu_idle", "mem_used", "disk_util", "net_drop"):
            col = r.timeseries[:, METRIC_INDEX[name]]
            assert np.all(col <= 1.0 + 1e-9), name

    def test_sample_cap_enforced(self, hadoop_terasort):
        r = simulate_run(hadoop_terasort, "t3a.small", sample_period_s=0.01)
        assert r.timeseries.shape[0] <= MAX_SAMPLES + 64  # one block per phase

    def test_sample_count_tracks_runtime(self, spark_lr):
        r = simulate_run(spark_lr, "m5.xlarge", sample_period_s=5.0)
        expected = r.base_runtime_s / 5.0
        assert r.timeseries.shape[0] == pytest.approx(expected, rel=0.5)

    def test_invalid_period_rejected(self, spark_lr, small_cluster):
        with pytest.raises(ValidationError):
            build_timeseries([], spark_lr, small_cluster, sample_period_s=0.0)

    def test_empty_phases_give_empty_series(self, spark_lr, small_cluster):
        series = build_timeseries([], spark_lr, small_cluster)
        assert series.shape == (0, NUM_METRICS)

    def test_compute_phase_shows_cpu_activity(self, spark_lr):
        r = simulate_run(spark_lr, "c5.xlarge")
        cpu = r.timeseries[:, METRIC_INDEX["cpu_user"]]
        assert cpu.max() > 0.3


class TestDataCollector:
    def test_profile_shape(self, spark_lr):
        dc = DataCollector(repetitions=5, seed=1)
        p = dc.collect(spark_lr, "m5.xlarge")
        assert isinstance(p, WorkloadProfile)
        assert p.runtimes.shape == (5,)
        assert p.budgets.shape == (5,)
        assert p.timeseries.shape[1] == NUM_METRICS

    def test_p90_is_conservative(self, spark_lr):
        p = DataCollector(repetitions=10, seed=1).collect(spark_lr, "m5.xlarge")
        assert p.runtime_p90 >= np.median(p.runtimes)

    def test_reproducible_across_instances(self, spark_lr):
        a = DataCollector(repetitions=5, seed=3).collect(spark_lr, "m5.xlarge")
        b = DataCollector(repetitions=5, seed=3).collect(spark_lr, "m5.xlarge")
        np.testing.assert_array_equal(a.runtimes, b.runtimes)

    def test_order_independent_streams(self, spark_lr, hadoop_terasort):
        dc1 = DataCollector(repetitions=3, seed=3)
        dc1.collect(hadoop_terasort, "c5.large")
        after = dc1.collect(spark_lr, "m5.xlarge")
        fresh = DataCollector(repetitions=3, seed=3).collect(spark_lr, "m5.xlarge")
        np.testing.assert_array_equal(after.runtimes, fresh.runtimes)

    def test_runtime_only_matches_collect_p90(self, spark_lr):
        dc = DataCollector(repetitions=10, seed=4)
        fast = dc.runtime_only(spark_lr, "m5.xlarge")
        full = dc.collect(spark_lr, "m5.xlarge").runtime_p90
        assert fast == pytest.approx(full, rel=0.02)

    def test_svdpp_high_variance(self):
        dc = DataCollector(repetitions=10, seed=5)
        lr = dc.collect(get_workload("spark-lr"), "m5.xlarge")
        svd = dc.collect(get_workload("spark-svd++"), "m5.xlarge")
        assert svd.runtime_cv > 3 * lr.runtime_cv

    def test_invalid_repetitions(self):
        with pytest.raises(ValidationError):
            DataCollector(repetitions=0)


class TestMetricsStore:
    @pytest.fixture()
    def profile(self, spark_lr):
        return DataCollector(repetitions=3, seed=1).collect(spark_lr, "m5.xlarge")

    def test_roundtrip(self, profile):
        with MetricsStore() as store:
            store.put(profile)
            back = store.get("spark-lr", "m5.xlarge", nodes=profile.nodes)
        assert back is not None
        np.testing.assert_array_equal(back.runtimes, profile.runtimes)
        np.testing.assert_array_equal(back.timeseries, profile.timeseries)
        assert back.framework == profile.framework
        assert back.spilled == profile.spilled

    def test_missing_returns_none(self, spark_lr):
        with MetricsStore() as store:
            assert store.get("spark-lr", "m5.xlarge", nodes=spark_lr.nodes) is None

    def test_replace_on_same_key(self, profile, spark_lr):
        with MetricsStore() as store:
            store.put(profile)
            store.put(profile)
            assert len(store) == 1

    def test_listing(self, profile, hadoop_terasort):
        other = DataCollector(repetitions=2, seed=2).collect(hadoop_terasort, "c5.large")
        with MetricsStore() as store:
            store.put(profile)
            store.put(other)
            assert store.workloads() == ["hadoop-terasort", "spark-lr"]
            assert store.vm_names() == ["c5.large", "m5.xlarge"]
            assert len(store.profiles_for_workload("spark-lr")) == 1

    def test_bulk_context(self, profile):
        with MetricsStore() as store:
            with store.bulk():
                store.put(profile)
            assert len(store) == 1

    def test_file_backed_persistence(self, profile, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        store = MetricsStore(path)
        store.put(profile)
        store.close()
        reopened = MetricsStore(path)
        assert reopened.get("spark-lr", "m5.xlarge", nodes=profile.nodes) is not None
        reopened.close()

    def test_bad_series_shape_rejected(self, profile):
        import dataclasses

        broken = dataclasses.replace(profile, timeseries=np.zeros((4, 3)))
        with MetricsStore() as store:
            with pytest.raises(ValidationError):
                store.put(broken)


class TestStoreNodesThreading:
    def test_get_requires_explicit_nodes(self):
        """The old nodes=4 default silently mismatched cluster sizes."""
        spec = get_workload("spark-lr").with_nodes(6)
        vm = get_vm_type("m5.xlarge")
        profile = DataCollector(repetitions=2, seed=0).collect(spec, vm)
        with MetricsStore() as store:
            store.put(profile)
            assert store.get(spec.name, vm.name, nodes=6) is not None
            assert store.get(spec.name, vm.name, nodes=4) is None
            with pytest.raises(TypeError):
                store.get(spec.name, vm.name)  # nodes is required
