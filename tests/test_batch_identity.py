"""Scalar-vs-batch identity harness for the vectorized simulator core.

The contract under test: :func:`repro.frameworks.registry.simulate_batch`
(and every batched layer above it — collector, campaign) is **bitwise**
equal to looping the scalar reference path.  Not approximately equal —
``==`` on every float, because the vectorized scheduler promises to
replay the scalar engine's operand order exactly.  Any drift here means
the batch path has silently become a different model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.cluster import Cluster
from repro.cloud.faults import FaultPlan
from repro.cloud.vmtypes import catalog, get_vm_type
from repro.errors import OutOfMemoryError, ProbeFailedError, ValidationError
from repro.frameworks.base import BSPScheduler, Phase, PhaseKind
from repro.frameworks.batch import flatten_plans, simulate_cells
from repro.frameworks.registry import resolve_cells, simulate_batch, simulate_run
from repro.frameworks.resources import build_timeseries_batch
from repro.telemetry.collector import DataCollector, _stream_seed
from repro.workloads.catalog import ALGORITHM_PROFILES
from repro.workloads.spec import DemandProfile, Suite, UseCase, WorkloadSpec

VM_NAMES = [vm.name for vm in catalog()]

FRAMEWORKS = ("hadoop", "hive", "spark", "flink")


def make_spec(alg, framework, gb, nodes, name=None):
    return WorkloadSpec(
        name=name or f"bid-{framework}-{alg}",
        framework=framework,
        algorithm=alg,
        use_case=UseCase.ML,
        suite=Suite.HIBENCH,
        demand=ALGORITHM_PROFILES[alg],
        input_gb=gb,
        nodes=nodes,
        sql_ops=("scan", "shuffle-join", "aggregate") if framework == "hive" else (),
    )


def hog_spec(name="bid-hog"):
    """A placement no spill budget can save: blows past MAX_SPILL_RATIO."""
    return WorkloadSpec(
        name=name,
        framework="spark",
        algorithm="lr",
        use_case=UseCase.ML,
        suite=Suite.HIBENCH,
        demand=DemandProfile(
            compute_per_gb=10.0, shuffle_fraction=0.3, mem_blowup=500000.0
        ),
        input_gb=8.0,
        nodes=2,
    )


def _collect_many(collector, cells, *, nodes=None, runtime_only=False):
    """One :meth:`DataCollector.profile_many` pass over ``(spec, vm)``
    cells of one kind; the values, without their fault events, or the
    first failed cell's error raised, as a serial loop would."""
    results = collector.profile_many(
        [(spec, vm, nodes, runtime_only) for spec, vm in cells]
    )
    for value, _ in results:
        if isinstance(value, Exception):
            raise value
    return [value for value, _ in results]


spec_strategy = st.builds(
    make_spec,
    st.sampled_from(["lr", "sort", "kmeans", "grep", "join", "page-rank", "wordcount"]),
    st.sampled_from(FRAMEWORKS),
    st.floats(0.5, 24.0),
    st.integers(1, 8),
)

cell_strategy = st.tuples(
    spec_strategy,
    st.sampled_from(VM_NAMES),
    st.one_of(st.none(), st.integers(1, 10)),
)


def assert_run_results_identical(batch_result, scalar_result):
    """Field-for-field bitwise equality of two RunResult records."""
    for name in (
        "workload",
        "framework",
        "vm_name",
        "nodes",
        "runtime_s",
        "budget_usd",
        "noise_multiplier",
        "sample_period_s",
    ):
        assert getattr(batch_result, name) == getattr(scalar_result, name), name
    # PhaseResult is a frozen dataclass: == compares every float exactly.
    assert batch_result.phases == scalar_result.phases
    if scalar_result.timeseries is None:
        assert batch_result.timeseries is None
    else:
        assert batch_result.timeseries.shape == scalar_result.timeseries.shape
        assert np.array_equal(batch_result.timeseries, scalar_result.timeseries)


class TestSimulateBatchIdentity:
    """simulate_batch == [simulate_run(cell) for cell in cells], bit for bit."""

    @given(
        cells=st.lists(cell_strategy, min_size=1, max_size=6),
        seed=st.integers(0, 2**31 - 1),
        period=st.sampled_from([1.0, 5.0, 7.5]),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_randomized_cells_bitwise_equal(self, cells, seed, period):
        mults = [
            1.0 + 0.37 * ((seed + k * 17) % 11) / 11.0 for k in range(len(cells))
        ]
        batch = simulate_batch(
            cells,
            noise_multipliers=mults,
            sample_period_s=period,
            rngs=[np.random.default_rng(seed + k) for k in range(len(cells))],
        )
        for k, (spec, vm, nodes) in enumerate(cells):
            scalar = simulate_run(
                spec,
                vm,
                nodes=nodes,
                noise_multiplier=mults[k],
                sample_period_s=period,
                rng=np.random.default_rng(seed + k),
            )
            assert_run_results_identical(batch[k], scalar)

    def test_catalog_grid_without_timeseries(self):
        """A dense grid across all four engines and every catalog VM."""
        specs = [
            make_spec(alg, fw, 6.0, 4)
            for fw, alg in zip(FRAMEWORKS, ("sort", "join", "lr", "page-rank"))
        ]
        cells = [(spec, vm) for spec in specs for vm in VM_NAMES]
        batch = simulate_batch(cells, with_timeseries=False)
        for k, (spec, vm) in enumerate(cells):
            scalar = simulate_run(spec, vm, with_timeseries=False)
            assert_run_results_identical(batch[k], scalar)

    def test_duplicate_cells_get_independent_rngs(self):
        spec = make_spec("kmeans", "spark", 4.0, 3)
        cells = [(spec, "m5.xlarge"), (spec, "m5.xlarge")]
        batch = simulate_batch(
            cells, rngs=[np.random.default_rng(1), np.random.default_rng(2)]
        )
        a = simulate_run(spec, "m5.xlarge", rng=np.random.default_rng(1))
        b = simulate_run(spec, "m5.xlarge", rng=np.random.default_rng(2))
        assert np.array_equal(batch[0].timeseries, a.timeseries)
        assert np.array_equal(batch[1].timeseries, b.timeseries)
        assert not np.array_equal(batch[0].timeseries, batch[1].timeseries)

    def test_validation_errors(self):
        spec = make_spec("lr", "spark", 2.0, 2)
        with pytest.raises(ValidationError):
            simulate_batch([(spec, "m5.xlarge")], oom="ignore")
        with pytest.raises(ValidationError):
            simulate_batch([(spec, "m5.xlarge")], noise_multipliers=[1.0, 2.0])
        with pytest.raises(ValidationError):
            simulate_batch([(spec, "m5.xlarge")], noise_multipliers=[0.0])
        with pytest.raises(ValidationError):
            simulate_batch([(spec, "m5.xlarge")], rngs=[])
        with pytest.raises(ValidationError):
            simulate_batch([(spec, "m5.xlarge", 2, "extra")])


class TestOOMBoundary:
    """Raise-vs-mask semantics at the infeasibility boundary."""

    def test_raise_matches_scalar_message(self):
        hog = hog_spec()
        with pytest.raises(OutOfMemoryError) as scalar_exc:
            simulate_run(hog, "m5.xlarge", with_timeseries=False)
        with pytest.raises(OutOfMemoryError) as batch_exc:
            simulate_batch([(hog, "m5.xlarge")], with_timeseries=False)
        assert str(batch_exc.value) == str(scalar_exc.value)

    def test_raises_at_first_failing_cell_in_cell_order(self):
        ok = make_spec("sort", "hadoop", 4.0, 2)
        first = hog_spec("bid-hog-first")
        second = hog_spec("bid-hog-second")
        # The serial loop would hit `first` on c5.large before `second`.
        with pytest.raises(OutOfMemoryError) as scalar_exc:
            simulate_run(first, "c5.large", with_timeseries=False)
        with pytest.raises(OutOfMemoryError) as batch_exc:
            simulate_batch(
                [(ok, "m5.xlarge"), (first, "c5.large"), (second, "m5.xlarge")],
                with_timeseries=False,
            )
        assert str(batch_exc.value) == str(scalar_exc.value)

    def test_mask_returns_none_and_keeps_feasible_cells_identical(self):
        ok = make_spec("grep", "hive", 3.0, 2)
        cells = [(ok, "m5.xlarge"), (hog_spec(), "m5.xlarge"), (ok, "c5.2xlarge")]
        batch = simulate_batch(
            cells,
            oom="mask",
            rngs=[np.random.default_rng(k) for k in range(3)],
        )
        assert batch[1] is None
        for k in (0, 2):
            spec, vm = cells[k][0], cells[k][1]
            scalar = simulate_run(spec, vm, rng=np.random.default_rng(k))
            assert_run_results_identical(batch[k], scalar)


class TestTimeseriesBatch:
    """Direct contract checks on the batched telemetry renderer."""

    def test_oom_cell_requested_raises_validation_error(self):
        specs, clusters = resolve_cells([(hog_spec(), "m5.xlarge")])
        sim = simulate_cells(specs, clusters)
        assert bool(sim.oom_cells[0])
        with pytest.raises(ValidationError):
            build_timeseries_batch(sim, specs, clusters, cells=[0])

    def test_bad_period_and_rng_count_rejected(self):
        specs, clusters = resolve_cells([(make_spec("lr", "spark", 2.0, 2), "m5.xlarge")])
        sim = simulate_cells(specs, clusters)
        with pytest.raises(ValidationError):
            build_timeseries_batch(sim, specs, clusters, sample_period_s=0.0)
        with pytest.raises(ValidationError):
            build_timeseries_batch(
                sim, specs, clusters, rngs=[np.random.default_rng(0)] * 2
            )

    def test_subset_render_matches_full_batch(self):
        cells = [
            (make_spec("sort", "hadoop", 5.0, 3), "m5.xlarge"),
            (make_spec("kmeans", "spark", 5.0, 3), "c5.2xlarge"),
            (make_spec("join", "hive", 5.0, 3), "r5.xlarge"),
        ]
        specs, clusters = resolve_cells(cells)
        sim = simulate_cells(specs, clusters)
        rngs = [np.random.default_rng(40 + k) for k in range(3)]
        full = build_timeseries_batch(
            sim, specs, clusters, rngs=[np.random.default_rng(40 + k) for k in range(3)]
        )
        only_last = build_timeseries_batch(
            sim, specs, clusters, cells=[2], rngs=[rngs[2]]
        )
        assert set(full) == {0, 1, 2} and set(only_last) == {2}
        assert np.array_equal(full[2], only_last[2])


class TestFlattenPlans:
    """flatten_plans feeds hand-built phases through the batched scheduler."""

    def test_length_mismatch_rejected(self):
        cluster = Cluster(vm=get_vm_type("m5.xlarge"), nodes=2)
        with pytest.raises(ValidationError):
            flatten_plans([[]], [cluster, cluster])

    @given(
        phases=st.lists(
            st.builds(
                Phase,
                name=st.just("flat"),
                kind=st.sampled_from(list(PhaseKind)),
                tasks=st.integers(1, 200),
                cpu_secs_per_task=st.floats(0.0, 30.0),
                disk_read_gb=st.floats(0.0, 2.0),
                disk_write_gb=st.floats(0.0, 2.0),
                net_gb=st.floats(0.0, 2.0),
                mem_gb_per_task=st.floats(0.0, 12.0),
                task_overhead_s=st.floats(0.0, 2.0),
                fixed_overhead_s=st.floats(0.0, 5.0),
                skew=st.floats(0.0, 1.5),
            ),
            min_size=1,
            max_size=5,
        ),
        vm_name=st.sampled_from(VM_NAMES),
        nodes=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_priced_columns_match_scalar_simulate_phase(self, phases, vm_name, nodes):
        cluster = Cluster(vm=get_vm_type(vm_name), nodes=nodes)
        sched = BSPScheduler()
        priced = sched.simulate_phases(flatten_plans([phases], [cluster]))
        for j, phase in enumerate(phases):
            scalar = sched.simulate_phase(phase, cluster)
            assert not priced.infeasible[j]
            assert priced.duration_s[j] == scalar.duration_s
            assert priced.concurrency[j] == scalar.concurrency_per_node
            assert priced.waves[j] == scalar.waves
            assert priced.spilled_gb[j] == scalar.spilled_gb_per_task
            assert priced.cpu_busy[j] == scalar.cpu_busy_frac
            assert priced.io_wait[j] == scalar.io_wait_frac
            assert priced.mem_used[j] == scalar.mem_used_frac
            assert priced.mem_demand[j] == scalar.mem_demand_frac
            assert priced.disk_read_rate[j] == scalar.disk_read_mbps_node
            assert priced.disk_write_rate[j] == scalar.disk_write_mbps_node
            assert priced.net_rate[j] == scalar.net_mbps_node
            assert priced.net_overload[j] == scalar.net_overload_frac


class TestCollectorBatchIdentity:
    """profile_many replays the scalar 10-rep protocol, cell by cell."""

    CELLS = [
        (make_spec("lr", "spark", 6.0, 3), "m5.xlarge"),
        (make_spec("sort", "hadoop", 6.0, 3), "c5.2xlarge"),
        (make_spec("join", "hive", 6.0, 3), "r5.xlarge"),
        (make_spec("page-rank", "flink", 6.0, 3), "m5.2xlarge"),
    ]

    def assert_profiles_identical(self, a, b):
        assert (a.workload, a.framework, a.vm_name, a.nodes, a.spilled) == (
            b.workload,
            b.framework,
            b.vm_name,
            b.nodes,
            b.spilled,
        )
        assert np.array_equal(a.runtimes, b.runtimes)
        assert np.array_equal(a.budgets, b.budgets)
        assert np.array_equal(a.timeseries, b.timeseries)
        assert a.runtime_p90 == b.runtime_p90
        assert a.budget_p90 == b.budget_p90

    def test_collect_batch_matches_collect(self):
        batched = _collect_many(DataCollector(seed=11), self.CELLS)
        scalar = DataCollector(seed=11)
        for got, (spec, vm) in zip(batched, self.CELLS):
            self.assert_profiles_identical(got, scalar.collect(spec, vm))

    def test_runtime_only_batch_matches_runtime_only(self):
        batched = _collect_many(
            DataCollector(seed=11), self.CELLS, nodes=5, runtime_only=True
        )
        scalar = DataCollector(seed=11)
        for got, (spec, vm) in zip(batched, self.CELLS):
            assert got == scalar.runtime_only(spec, vm, nodes=5)

    def test_mixed_fast_and_profile_requests(self):
        requests = [
            (self.CELLS[0][0], self.CELLS[0][1], None, True),
            (self.CELLS[1][0], self.CELLS[1][1], 6, False),
            (self.CELLS[2][0], self.CELLS[2][1], None, False),
            (self.CELLS[3][0], self.CELLS[3][1], 2, True),
        ]
        results = DataCollector(seed=4).profile_many(requests)
        scalar = DataCollector(seed=4)
        for (value, events), (spec, vm, nodes, fast) in zip(results, requests):
            assert events == ()
            if fast:
                assert value == scalar.runtime_only(spec, vm, nodes=nodes)
            else:
                self.assert_profiles_identical(
                    value, scalar.collect(spec, vm, nodes=nodes)
                )

    def test_faulted_protocol_and_event_log_identical(self):
        plan = FaultPlan(
            seed=3,
            transient_prob=0.15,
            straggle_prob=0.2,
            drop_prob=0.003,
            max_attempts=8,
        )
        batched = DataCollector(seed=11, faults=plan)
        scalar = DataCollector(seed=11, faults=plan)
        got = _collect_many(batched, self.CELLS)
        want = [scalar.collect(spec, vm) for spec, vm in self.CELLS]
        for a, b in zip(got, want):
            self.assert_profiles_identical(a, b)
        assert batched.drain_fault_events() == scalar.drain_fault_events()

    def test_oom_cell_raises_like_serial_loop(self):
        cells = [self.CELLS[0], (hog_spec(), "m5.xlarge"), self.CELLS[1]]
        with pytest.raises(OutOfMemoryError) as scalar_exc:
            DataCollector(seed=11).collect(hog_spec(), "m5.xlarge")
        with pytest.raises(OutOfMemoryError) as batch_exc:
            _collect_many(DataCollector(seed=11), cells)
        assert str(batch_exc.value) == str(scalar_exc.value)

    def test_failed_cells_return_error_and_events(self):
        """A failed cell is returned, not raised: its error and events are
        what the scalar collector raises and logs for it, and the cells
        after it still run."""
        # Seed 2 exhausts the budget on cells 1 and 2; the hog cannot fit.
        plan = FaultPlan(seed=2, transient_prob=0.3, max_attempts=3)
        cells = [*self.CELLS, (hog_spec(), "m5.xlarge")]
        batch = DataCollector(seed=11, faults=plan)
        results = batch.profile_many([(spec, vm, None, True) for spec, vm in cells])
        scalar = DataCollector(seed=11, faults=plan)
        failed = []
        for (got, events), (spec, vm) in zip(results, cells):
            base = len(scalar.fault_events)
            try:
                want = scalar.runtime_only(spec, vm)
            except (ProbeFailedError, OutOfMemoryError) as exc:
                assert type(got) is type(exc)
                assert str(got) == str(exc)
                failed.append(type(exc))
            else:
                assert got == want
            assert events == tuple(scalar.fault_events[base:])
        assert failed == [ProbeFailedError, ProbeFailedError, OutOfMemoryError]
        assert batch.drain_fault_events() == scalar.drain_fault_events()

    def test_seeding_contract_is_order_independent(self):
        """Stream seeds hang off (workload, vm, seed) — not batch position."""
        reversed_cells = list(reversed(self.CELLS))
        a = _collect_many(DataCollector(seed=9), self.CELLS)
        b = _collect_many(DataCollector(seed=9), reversed_cells)
        for got, want in zip(a, reversed(b)):
            self.assert_profiles_identical(got, want)
        stream = _stream_seed(self.CELLS[0][0].name, "m5.xlarge", 9)
        assert stream == _stream_seed(self.CELLS[0][0].name, "m5.xlarge", 9)


class TestCampaignBatchingGate:
    """The campaign's batched chunks against a plain scalar collector loop:
    results and fault logs must be indistinguishable."""

    SPECS = tuple(
        make_spec(alg, fw, 5.0, 3)
        for fw, alg in zip(FRAMEWORKS, ("grep", "sort", "lr", "join"))
    )
    VMS = ("m5.xlarge", "c5.2xlarge", "r5.xlarge")

    def test_campaign_results_identical_across_gate(self):
        from repro.telemetry.campaign import ProfilingCampaign

        plan = FaultPlan(
            seed=3,
            transient_prob=0.15,
            straggle_prob=0.2,
            drop_prob=0.003,
            max_attempts=8,
        )
        campaign = ProfilingCampaign(seed=7, faults=plan)
        batched_matrix = campaign.runtime_matrix(self.SPECS, self.VMS)
        batched_grid = campaign.collect_grid(self.SPECS[:2], self.VMS[:2])

        scalar = DataCollector(seed=7, faults=plan)
        scalar_matrix = np.array(
            [[scalar.runtime_only(spec, vm) for vm in self.VMS] for spec in self.SPECS]
        )
        scalar_grid = {
            (spec.name, vm): scalar.collect(spec, vm)
            for spec in self.SPECS[:2]
            for vm in self.VMS[:2]
        }
        assert np.array_equal(batched_matrix, scalar_matrix)
        assert campaign.fault_log == scalar.drain_fault_events()
        assert len(campaign.fault_log) > 0
        assert set(batched_grid) == set(scalar_grid)
        for key, a in batched_grid.items():
            b = scalar_grid[key]
            assert np.array_equal(a.runtimes, b.runtimes)
            assert np.array_equal(a.budgets, b.budgets)
            assert np.array_equal(a.timeseries, b.timeseries)
            assert a.spilled == b.spilled

    @pytest.mark.parametrize("hog_first", [False, True], ids=["fault-first", "oom-first"])
    @pytest.mark.parametrize("runtime_only", [True, False], ids=["p90", "profile"])
    def test_grid_raises_the_serial_loops_first_failure(self, hog_first, runtime_only):
        """A grid holding an exhausted fault budget and an infeasible
        placement raises whichever the serial loop meets first, with the
        serial loop's fault log."""
        from repro.telemetry.campaign import ProfilingCampaign

        plan = FaultPlan(transient_prob=0.5, max_attempts=2, seed=3)
        specs = (hog_spec(), self.SPECS[0])
        specs = specs if hog_first else specs[::-1]
        serial = ProfilingCampaign(seed=7, faults=plan)
        run_cell = serial.runtime_only if runtime_only else serial.collect
        with pytest.raises((ProbeFailedError, OutOfMemoryError)) as want:
            for spec in specs:
                for vm in self.VMS:
                    run_cell(spec, vm)
        grid = ProfilingCampaign(seed=7, faults=plan)
        run_grid = grid.runtime_matrix if runtime_only else grid.collect_grid
        with pytest.raises((ProbeFailedError, OutOfMemoryError)) as got:
            run_grid(specs, self.VMS)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert grid.fault_log == serial.fault_log
