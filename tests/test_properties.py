"""Property-based tests (hypothesis) on the simulator's core invariants.

These state the physical laws the BSP model must obey for *any* workload
shape: monotonicity in demand, scale invariance of correlations, bounded
utilizations, and budget consistency.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.cluster import Cluster
from repro.cloud.pricing import MIN_BILLED_SECONDS
from repro.cloud.vmtypes import catalog, get_vm_type
from repro.frameworks.base import BSPScheduler, Phase, PhaseKind
from repro.frameworks.registry import simulate_run
from repro.workloads.catalog import ALGORITHM_PROFILES
from repro.workloads.spec import Suite, UseCase, WorkloadSpec

VM_NAMES = [vm.name for vm in catalog()]

phase_strategy = st.builds(
    Phase,
    name=st.just("prop"),
    kind=st.sampled_from(list(PhaseKind)),
    tasks=st.integers(1, 300),
    cpu_secs_per_task=st.floats(0.0, 50.0),
    disk_read_gb=st.floats(0.0, 2.0),
    disk_write_gb=st.floats(0.0, 2.0),
    net_gb=st.floats(0.0, 2.0),
    mem_gb_per_task=st.floats(0.0, 8.0),
    task_overhead_s=st.floats(0.0, 2.0),
    fixed_overhead_s=st.floats(0.0, 10.0),
)


def spec_strategy():
    return st.builds(
        lambda alg, gb, nodes: WorkloadSpec(
            name=f"prop-{alg}",
            framework="spark",
            algorithm=alg,
            use_case=UseCase.ML,
            suite=Suite.HIBENCH,
            demand=ALGORITHM_PROFILES[alg],
            input_gb=gb,
            nodes=nodes,
        ),
        st.sampled_from(["lr", "sort", "kmeans", "grep", "join"]),
        st.floats(0.5, 20.0),
        st.integers(2, 8),
    )


class TestPhaseProperties:
    @given(phase_strategy, st.sampled_from(VM_NAMES))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_duration_positive_and_utilizations_bounded(self, phase, vm_name):
        cluster = Cluster(vm=get_vm_type(vm_name), nodes=4)
        r = BSPScheduler().simulate_phase(phase, cluster)
        assert r.duration_s > 0
        assert 0.0 <= r.cpu_busy_frac <= 1.0
        assert 0.0 <= r.io_wait_frac <= 1.0
        assert 0.0 <= r.mem_used_frac <= 1.0
        assert 0.0 <= r.mem_demand_frac <= 1.0
        assert r.disk_read_mbps_node >= 0
        assert r.disk_write_mbps_node >= 0
        assert r.waves == math.ceil(
            phase.tasks / (r.concurrency_per_node * cluster.nodes)
        )

    @given(phase_strategy, st.sampled_from(VM_NAMES), st.floats(1.1, 4.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_more_cpu_work_never_faster(self, phase, vm_name, factor):
        cluster = Cluster(vm=get_vm_type(vm_name), nodes=4)
        sched = BSPScheduler()
        base = sched.simulate_phase(phase, cluster).duration_s
        import dataclasses

        heavier = dataclasses.replace(
            phase, cpu_secs_per_task=phase.cpu_secs_per_task * factor + 0.1
        )
        assert sched.simulate_phase(heavier, cluster).duration_s >= base - 1e-9

    @given(phase_strategy, st.sampled_from(VM_NAMES))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_more_nodes_never_slower(self, phase, vm_name):
        vm = get_vm_type(vm_name)
        sched = BSPScheduler()
        small = sched.simulate_phase(phase, Cluster(vm=vm, nodes=2)).duration_s
        big = sched.simulate_phase(phase, Cluster(vm=vm, nodes=8)).duration_s
        # Larger clusters can pay more cross-node traffic per GB shuffled,
        # but a single phase's demands are per-task here, so wall time can
        # only improve or stay flat.
        assert big <= small + 1e-6


class TestRunProperties:
    @given(spec_strategy(), st.sampled_from(VM_NAMES))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_runtime_budget_consistency(self, spec, vm_name):
        r = simulate_run(spec, vm_name, with_timeseries=False)
        vm = get_vm_type(vm_name)
        expected = (
            vm.price_per_hour * spec.nodes * max(r.runtime_s, MIN_BILLED_SECONDS) / 3600
        )
        assert r.budget_usd == pytest.approx(expected)

    @given(spec_strategy(), st.sampled_from(VM_NAMES), st.floats(1.2, 3.0))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_more_data_never_much_faster(self, spec, vm_name, factor):
        # Discrete wave scheduling is not perfectly monotone: growing the
        # input can shift task counts past a packing boundary and shave a
        # few percent (real Spark shows the same quantization artefacts).
        # The property is monotonicity up to that quantization tolerance.
        base = simulate_run(spec, vm_name, with_timeseries=False).runtime_s
        bigger = simulate_run(
            spec.with_input(spec.input_gb * factor), vm_name, with_timeseries=False
        ).runtime_s
        assert bigger >= 0.93 * base

    @given(spec_strategy())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_correlation_vector_always_valid(self, spec):
        from repro.analysis.correlation import correlation_vector

        r = simulate_run(spec, "m5.xlarge", rng=np.random.default_rng(0))
        v = correlation_vector(r.timeseries)
        assert v.shape == (10,)
        assert np.all(np.abs(v) <= 1.0)
        assert np.all(np.isfinite(v))

    @given(spec_strategy(), st.sampled_from(VM_NAMES))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_determinism(self, spec, vm_name):
        a = simulate_run(spec, vm_name, with_timeseries=False).runtime_s
        b = simulate_run(spec, vm_name, with_timeseries=False).runtime_s
        assert a == b


class TestStreamSeedProperties:
    """The campaign's determinism rests on `_stream_seed` stability."""

    @given(
        st.text(min_size=1, max_size=30),
        st.text(min_size=1, max_size=20),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_stable_32bit_and_reproducible(self, workload, vm_name, seed):
        import zlib

        from repro.telemetry.collector import _stream_seed

        value = _stream_seed(workload, vm_name, seed)
        assert value == _stream_seed(workload, vm_name, seed)
        assert 0 <= value < 2**32
        assert value == zlib.crc32(f"{workload}|{vm_name}|{seed}".encode())

    def test_stable_across_process_boundaries(self):
        """Seeds computed in a spawned interpreter match in-process values.

        Spawn (not fork) forces a genuine re-import of the module in the
        child, which is exactly what a campaign worker on a spawn-default
        platform would do.
        """
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.telemetry.campaign import _stream_seed_batch
        from repro.telemetry.collector import _stream_seed

        triples = [
            (w, v, s)
            for w in ("spark-lr", "hadoop-terasort", "hive-join", "wl|pipe")
            for v in ("m5.xlarge", "c5.large")
            for s in (0, 7, 2**31 - 1)
        ]
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            half = len(triples) // 2
            remote = []
            for chunk in pool.map(_stream_seed_batch, [triples[:half], triples[half:]]):
                remote.extend(chunk)
        assert remote == [_stream_seed(w, v, s) for (w, v, s) in triples]


class TestProfileRoundTripProperties:
    """Randomized WorkloadProfile persistence through MetricsStore."""

    finite = st.floats(
        min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False
    )

    @given(
        runtimes=st.lists(finite, min_size=1, max_size=12),
        budgets=st.lists(finite, min_size=1, max_size=12),
        samples=st.integers(0, 6),
        nodes=st.integers(1, 16),
        spilled=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_put_get_roundtrip(self, runtimes, budgets, samples, nodes, spilled, data):
        from repro.telemetry.collector import WorkloadProfile
        from repro.telemetry.metrics import NUM_METRICS
        from repro.telemetry.store import MetricsStore

        series = np.array(
            [
                [data.draw(self.finite) for _ in range(NUM_METRICS)]
                for _ in range(samples)
            ]
        ).reshape(samples, NUM_METRICS)
        profile = WorkloadProfile(
            workload="prop-wl",
            framework="spark",
            vm_name="m5.xlarge",
            nodes=nodes,
            runtimes=np.array(runtimes),
            budgets=np.array(budgets),
            timeseries=series,
            spilled=spilled,
        )
        with MetricsStore() as store:
            store.put(profile)
            back = store.get("prop-wl", "m5.xlarge", nodes=nodes)
        assert back is not None
        assert back.nodes == nodes
        assert back.spilled == spilled
        np.testing.assert_array_equal(back.runtimes, profile.runtimes)
        np.testing.assert_array_equal(back.budgets, profile.budgets)
        np.testing.assert_array_equal(back.timeseries, profile.timeseries)
