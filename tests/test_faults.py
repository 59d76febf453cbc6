"""Fault-injection layer: determinism, resilience and degradation.

Three contracts under test:

1. **Bit-identity when disabled** — ``FaultPlan.none()`` (and ``None``)
   leave every collector/campaign output identical to a fault-free build.
2. **Determinism when enabled** — the same plan + campaign seed produces
   identical runtimes, fault counters and fault logs for any worker
   count; decisions hash the (workload, VM, repetition, attempt) triple
   and never consume shared RNG state.
3. **Graceful degradation** — permanently failed probe runs downgrade an
   :class:`OnlineSession` (widened match threshold, ``degraded``
   recommendation) instead of crashing it.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.cloud.faults import MIN_KEPT_SAMPLES, FaultDecision, FaultPlan
from repro.cloud.vmtypes import catalog
from repro.core.persistence import load_selector, save_selector
from repro.core.vesta import VestaSelector
from repro.errors import ProbeFailedError, TransientRunError, ValidationError
from repro.telemetry.campaign import ProfilingCampaign
from repro.telemetry.collector import DataCollector
from repro.telemetry.metrics import CampaignCounters
from repro.workloads.catalog import training_set

SPECS = training_set()[:2]
VMS = catalog()[:3]
REPS = 3

#: Retries but never exhausts the 8-attempt budget on the small grid.
SURVIVABLE = FaultPlan(
    transient_prob=0.25, straggle_prob=0.3, drop_prob=0.1, max_attempts=8, seed=5
)


class TestFaultPlanConstruction:
    def test_validation(self):
        with pytest.raises(ValidationError):
            FaultPlan(transient_prob=1.5)
        with pytest.raises(ValidationError):
            FaultPlan(drop_prob=-0.1)
        with pytest.raises(ValidationError):
            FaultPlan(max_attempts=0)
        with pytest.raises(ValidationError):
            FaultPlan(straggle_alpha=0.0)
        with pytest.raises(ValidationError):
            FaultPlan(backoff_base_s=-1.0)

    def test_from_spec(self):
        plan = FaultPlan.from_spec(
            "transient=0.2, straggle=0.1, drop=0.05, scale=0.4, alpha=2, "
            "attempts=5, backoff=0.01, seed=3, workloads=spark-lr;hive-join, "
            "vms=m5.xlarge"
        )
        assert plan.transient_prob == 0.2
        assert plan.straggle_prob == 0.1
        assert plan.drop_prob == 0.05
        assert plan.straggle_scale == 0.4
        assert plan.straggle_alpha == 2.0
        assert plan.max_attempts == 5
        assert plan.backoff_base_s == 0.01
        assert plan.seed == 3
        assert plan.workloads == ("spark-lr", "hive-join")
        assert plan.vms == ("m5.xlarge",)

    def test_from_spec_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            FaultPlan.from_spec("bogus=1")
        with pytest.raises(ValidationError):
            FaultPlan.from_spec("transient")
        with pytest.raises(ValidationError):
            FaultPlan.from_spec("transient=xyz")

    def test_from_env(self):
        env = {
            "REPRO_FAULT_TRANSIENT": "0.2",
            "REPRO_FAULT_SEED": "9",
            "REPRO_FAULT_VMS": "m5.large;c4.xlarge",
        }
        plan = FaultPlan.from_env(env)
        assert plan is not None
        assert plan.transient_prob == 0.2
        assert plan.seed == 9
        assert plan.vms == ("m5.large", "c4.xlarge")
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"UNRELATED": "1"}) is None

    def test_restriction(self):
        plan = SURVIVABLE.restricted_to(workloads=("spark-lr",), vms=("m5.large",))
        assert plan.applies_to("spark-lr", "m5.large")
        assert not plan.applies_to("spark-lr", "m5.xlarge")
        assert not plan.applies_to("hive-join", "m5.large")
        assert SURVIVABLE.applies_to("anything", "anywhere")

    def test_enabled(self):
        assert not FaultPlan.none().enabled
        assert not FaultPlan(straggle_scale=0.9).enabled
        assert FaultPlan(transient_prob=0.1).enabled
        assert FaultPlan(drop_prob=0.1).enabled

    def test_fingerprint(self):
        assert FaultPlan.none().fingerprint() == ""
        a = FaultPlan(transient_prob=0.2, seed=1).fingerprint()
        b = FaultPlan(transient_prob=0.2, seed=2).fingerprint()
        assert a and b and a != b
        assert FaultPlan(transient_prob=0.2, seed=1).fingerprint() == a


class TestFaultDecisions:
    def test_decide_is_deterministic(self):
        plan = FaultPlan(transient_prob=0.3, straggle_prob=0.3, seed=4)
        for rep in range(5):
            first = plan.decide("spark-lr", "m5.xlarge", rep)
            again = plan.decide("spark-lr", "m5.xlarge", rep)
            assert first == again

    def test_decide_varies_with_coordinates(self):
        plan = FaultPlan(transient_prob=0.5, seed=4)
        outcomes = {
            plan.decide("spark-lr", "m5.xlarge", rep, attempt).transient
            for rep in range(10)
            for attempt in range(3)
        }
        assert outcomes == {True, False}

    def test_disabled_plan_is_clean(self):
        plan = FaultPlan.none()
        assert plan.decide("spark-lr", "m5.xlarge", 0) == FaultDecision()

    def test_check_raises_transient(self):
        plan = FaultPlan(transient_prob=1.0, seed=0)
        with pytest.raises(TransientRunError):
            plan.check("spark-lr", "m5.xlarge", 0)

    def test_backoff_schedule(self):
        plan = FaultPlan(transient_prob=0.5, backoff_base_s=0.5)
        assert [plan.backoff_s(a) for a in range(3)] == [0.5, 1.0, 2.0]

    def test_drop_mask_floor(self):
        plan = FaultPlan(drop_prob=1.0, seed=0)
        keep = plan.drop_mask(40, "w", "vm", 0)
        assert int(keep.sum()) == MIN_KEPT_SAMPLES
        # Short series are never dropped below their own length.
        short = plan.drop_mask(2, "w", "vm", 0)
        assert int(short.sum()) == 2

    def test_errors_survive_pickling(self):
        err = TransientRunError("w", "vm", 1, 2)
        clone = pickle.loads(pickle.dumps(err))
        assert (clone.workload, clone.vm_name, clone.repetition, clone.attempt) == (
            "w", "vm", 1, 2,
        )
        perr = pickle.loads(pickle.dumps(ProbeFailedError("w", "vm", 3)))
        assert (perr.workload, perr.vm_name, perr.attempts) == ("w", "vm", 3)


class TestDisabledBitIdentity:
    """The fault layer, switched off, must be invisible."""

    def test_collector_identical(self):
        base = DataCollector(repetitions=REPS, seed=7)
        none = DataCollector(repetitions=REPS, seed=7, faults=FaultPlan.none())
        for spec in SPECS:
            for vm in VMS:
                a = base.collect(spec, vm)
                b = none.collect(spec, vm)
                np.testing.assert_array_equal(a.runtimes, b.runtimes)
                np.testing.assert_array_equal(a.timeseries, b.timeseries)
                assert base.runtime_only(spec, vm) == none.runtime_only(spec, vm)
        assert none.fault_events == []

    def test_campaign_identical(self):
        base = ProfilingCampaign(repetitions=REPS, seed=7)
        none = ProfilingCampaign(repetitions=REPS, seed=7, faults=FaultPlan.none())
        np.testing.assert_array_equal(
            base.runtime_matrix(SPECS, VMS), none.runtime_matrix(SPECS, VMS)
        )
        assert none.faults is None
        assert none.fault_log == []
        assert none.counters.fault_count == 0


class TestEnabledDeterminism:
    def faulted_campaign(self) -> ProfilingCampaign:
        return ProfilingCampaign(repetitions=REPS, seed=7, faults=SURVIVABLE)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_runtime_matrix_invariant_to_jobs(self, workers, force_pool):
        serial = self.faulted_campaign()
        serial_matrix = serial.runtime_matrix(SPECS, VMS)
        started = force_pool(workers)
        parallel = self.faulted_campaign()
        np.testing.assert_array_equal(
            serial_matrix, parallel.runtime_matrix(SPECS, VMS)
        )
        assert started == [workers]
        assert serial.fault_log == parallel.fault_log
        assert len(serial.fault_log) > 0
        for field in ("retries", "stragglers", "permanent_failures", "dropped_samples"):
            assert getattr(serial.counters, field) == getattr(parallel.counters, field)

    def test_collect_grid_invariant_to_jobs(self, force_pool):
        ga = self.faulted_campaign().collect_grid(SPECS, VMS)
        started = force_pool(3)
        gb = self.faulted_campaign().collect_grid(SPECS, VMS)
        assert started == [3]
        assert ga.keys() == gb.keys()
        for key in ga:
            np.testing.assert_array_equal(ga[key].runtimes, gb[key].runtimes)
            np.testing.assert_array_equal(ga[key].timeseries, gb[key].timeseries)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(transient_prob=0.5, max_attempts=2, seed=3),
            FaultPlan(transient_prob=0.5, max_attempts=3, seed=3),
        ],
        ids=["first-cell", "thirteenth-cell"],
    )
    def test_exhausted_grid_fails_like_the_serial_loop(
        self, plan, workers, force_pool
    ):
        """A grid that runs out of retries raises the serial loop's first
        failed cell, with the serial loop's fault log, whatever the pool."""
        specs, vms = training_set()[:4], catalog()[:12]
        serial = ProfilingCampaign(repetitions=REPS, seed=7, faults=plan)
        with pytest.raises(ProbeFailedError) as want:
            for spec in specs:
                for vm in vms:
                    serial.runtime_only(spec, vm)
        started = force_pool(workers)
        grid = ProfilingCampaign(repetitions=REPS, seed=7, faults=plan)
        with pytest.raises(ProbeFailedError) as got:
            grid.runtime_matrix(specs, vms)
        assert started == ([workers] if workers > 1 else [])
        assert (got.value.workload, got.value.vm_name, got.value.events) == (
            want.value.workload,
            want.value.vm_name,
            want.value.events,
        )
        assert grid.fault_log == serial.fault_log
        assert grid.counters.computed == serial.counters.computed

    def test_memoized_failure_ends_a_read_before_any_later_miss(self):
        """A failed cell is memoized with its events: reading it again
        raises the same error without running or logging anything, and a
        grid read that meets it stops there, as a serial loop would."""
        plan = FaultPlan(transient_prob=0.5, max_attempts=3, seed=3)
        specs, vms = training_set()[:4], catalog()[:12]
        campaign = ProfilingCampaign(repetitions=REPS, seed=7, faults=plan)
        with pytest.raises(ProbeFailedError) as first:
            campaign.runtime_matrix(specs, vms)
        spec = next(s for s in specs if s.name == first.value.workload)
        vm = next(v for v in vms if v.name == first.value.vm_name)
        log, counters = list(campaign.fault_log), dataclasses.replace(campaign.counters)
        with pytest.raises(ProbeFailedError) as again:
            campaign.runtime_matrix((spec,), vms)
        assert str(again.value) == str(first.value)
        assert campaign.fault_log == log
        assert campaign.counters.computed == counters.computed
        assert campaign.counters.cache_misses == counters.cache_misses
        assert campaign.counters.scheduled == counters.scheduled + vms.index(vm) + 1
        ((error, events),) = campaign.prefetch([(spec, vm, True)])
        assert str(error) == str(first.value)
        assert events[-len(first.value.events):] == first.value.events
        assert events == tuple(e for e in log if (e.workload, e.vm_name) == (spec.name, vm.name))

    def test_faults_actually_change_results(self):
        clean = ProfilingCampaign(repetitions=REPS, seed=7)
        faulted = self.faulted_campaign()
        assert not np.array_equal(
            clean.runtime_matrix(SPECS, VMS), faulted.runtime_matrix(SPECS, VMS)
        )

    def test_fault_plans_use_distinct_config_fingerprints(self):
        """Stage artifacts fitted under a plan never collide with clean
        ones: the plan enters every stage address through the campaign's
        config fingerprint, and a disabled plan leaves it unchanged."""
        clean = ProfilingCampaign(repetitions=REPS, seed=7).config_fingerprint()
        none = ProfilingCampaign(repetitions=REPS, seed=7, faults=FaultPlan.none())
        assert none.config_fingerprint() == clean
        assert self.faulted_campaign().config_fingerprint() != clean

    def test_straggle_inflates_runtimes(self):
        spec, vm = SPECS[0], VMS[0]
        plan = FaultPlan(straggle_prob=1.0, straggle_scale=1.0, seed=2)
        clean = DataCollector(repetitions=REPS, seed=7).collect(spec, vm)
        slow = DataCollector(repetitions=REPS, seed=7, faults=plan).collect(spec, vm)
        assert np.all(slow.runtimes > clean.runtimes)
        events = DataCollector(repetitions=REPS, seed=7, faults=plan)
        events.collect(spec, vm)
        straggles = [e for e in events.drain_fault_events() if e.kind == "straggle"]
        assert len(straggles) == REPS
        assert all(e.detail > 1.0 for e in straggles)

    def test_drop_loses_samples(self):
        spec, vm = SPECS[0], VMS[0]
        plan = FaultPlan(drop_prob=0.5, seed=2)
        clean = DataCollector(repetitions=REPS, seed=7).collect(spec, vm)
        dropped = DataCollector(repetitions=REPS, seed=7, faults=plan).collect(spec, vm)
        assert dropped.timeseries.shape[0] < clean.timeseries.shape[0]
        assert dropped.timeseries.shape[0] >= MIN_KEPT_SAMPLES
        # Runtimes are untouched: only telemetry rows vanish.
        np.testing.assert_array_equal(dropped.runtimes, clean.runtimes)

    def test_retry_budget_exhaustion_raises(self):
        plan = FaultPlan(transient_prob=1.0, max_attempts=2, seed=0)
        dc = DataCollector(repetitions=REPS, seed=7, faults=plan)
        with pytest.raises(ProbeFailedError) as info:
            dc.collect(SPECS[0], VMS[0])
        assert info.value.attempts == 2
        assert [e.kind for e in info.value.events] == [
            "transient", "transient", "permanent",
        ]

    def test_transient_events_record_backoff(self):
        plan = FaultPlan(
            transient_prob=0.25, max_attempts=8, backoff_base_s=0.0, seed=5
        )
        dc = DataCollector(repetitions=REPS, seed=7, faults=plan)
        for spec in SPECS:
            for vm in VMS:
                dc.collect(spec, vm)
        transients = [e for e in dc.drain_fault_events() if e.kind == "transient"]
        assert transients, "plan should have caused at least one retry"
        assert all(e.backoff_s == plan.backoff_s(e.attempt) for e in transients)


class TestCampaignCounters:
    def test_record_fault_routing(self):
        counters = CampaignCounters()
        counters.record_fault("transient")
        counters.record_fault("transient")
        counters.record_fault("permanent")
        counters.record_fault("straggle", 1.8)
        counters.record_fault("drop", 5.0)
        assert counters.retries == 2
        assert counters.permanent_failures == 1
        assert counters.stragglers == 1
        assert counters.dropped_samples == 5
        assert counters.fault_count == 9
        assert "2 retried" in counters.summary()
        assert "5 samples dropped" in counters.summary()
        counters.reset()
        assert counters.fault_count == 0
        assert "retried" not in counters.summary()


FIT_KWARGS = dict(
    sources=training_set()[:5],
    vms=catalog()[:12],
    repetitions=REPS,
    k=3,
    correlation_probe_count=3,
    seed=7,
)


@pytest.fixture(scope="module")
def clean_selector():
    return VestaSelector(**FIT_KWARGS).fit()


@pytest.fixture(scope="module")
def target_spec():
    return training_set()[5]


def probe_killing_plan(clean_selector, spec, vms=None, **kwargs):
    """A plan that permanently fails (some of) ``spec``'s probe runs."""
    probes = clean_selector.online(spec).probe_vms
    names = tuple(vm.name for vm in probes) if vms is None else vms
    return (
        FaultPlan(
            transient_prob=1.0,
            max_attempts=2,
            seed=3,
            workloads=(spec.name,),
            vms=names,
            **kwargs,
        ),
        probes,
    )


class TestOnlineDegradation:
    def test_all_probes_fail_degrades_to_sandbox_only(
        self, clean_selector, target_spec
    ):
        plan, probes = probe_killing_plan(clean_selector, target_spec)
        sel = VestaSelector(faults=plan, **FIT_KWARGS).fit()
        session = sel.online(target_spec)
        rec = session.recommend()
        assert rec.degraded
        assert set(rec.failed_probes) == {vm.name for vm in probes}
        assert rec.reference_vm_count == 1  # sandbox only
        assert session.effective_match_threshold == 0.0
        assert len(rec.fault_events) > 0
        assert any(e.kind == "permanent" for e in rec.fault_events)
        assert rec.vm_name  # still recommends something

    def test_partial_failure_widens_threshold_proportionally(
        self, clean_selector, target_spec
    ):
        probes = clean_selector.online(target_spec).probe_vms
        plan, _ = probe_killing_plan(
            clean_selector, target_spec, vms=(probes[0].name,)
        )
        sel = VestaSelector(faults=plan, **FIT_KWARGS).fit()
        session = sel.online(target_spec)
        rec = session.recommend()
        assert rec.degraded
        assert rec.failed_probes == (probes[0].name,)
        surviving = (len(probes) - 1) / len(probes)
        assert session.effective_match_threshold == pytest.approx(
            sel.match_threshold * surviving
        )
        # Sandbox + the surviving probes remain observed.
        assert rec.reference_vm_count == len(probes)

    def test_degraded_offline_fit_unaffected(self, clean_selector, target_spec):
        plan, _ = probe_killing_plan(clean_selector, target_spec)
        sel = VestaSelector(faults=plan, **FIT_KWARGS).fit()
        # The plan is restricted to the target workload, so the offline
        # knowledge is bit-identical to the clean fit.
        np.testing.assert_array_equal(sel.perf, clean_selector.perf)
        np.testing.assert_array_equal(sel.U, clean_selector.U)

    def test_step_skips_permanently_failed_vms(self, clean_selector, target_spec):
        plan, probes = probe_killing_plan(clean_selector, target_spec)
        sel = VestaSelector(faults=plan, **FIT_KWARGS).fit()
        session = sel.online(target_spec)
        failed = set(session.failed_probes)
        name, runtime = session.step()
        assert name not in failed
        assert runtime > 0

    def test_clean_plan_session_not_degraded(self, clean_selector, target_spec):
        rec = clean_selector.online(target_spec).recommend()
        assert not rec.degraded
        assert rec.failed_probes == ()
        assert rec.fault_events == ()


class TestPersistenceRoundTrip:
    def test_roundtrip_recommendations_identical(
        self, clean_selector, target_spec, tmp_path
    ):
        path = save_selector(clean_selector, tmp_path / "knowledge.npz")
        loaded = load_selector(path)
        a = clean_selector.select(target_spec)
        b = loaded.select(target_spec)
        assert a == b
        assert not b.degraded

    def test_roundtrip_preserves_degradation_behaviour(
        self, clean_selector, target_spec, tmp_path
    ):
        plan, probes = probe_killing_plan(clean_selector, target_spec)
        path = save_selector(clean_selector, tmp_path / "knowledge.npz")
        loaded = load_selector(path, faults=plan)
        direct = VestaSelector(faults=plan, **FIT_KWARGS).fit()
        a = direct.select(target_spec)
        b = loaded.select(target_spec)
        assert b.degraded
        assert a.vm_name == b.vm_name
        assert a.predicted_runtime_s == b.predicted_runtime_s
        assert a.failed_probes == b.failed_probes
        assert set(b.failed_probes) == {vm.name for vm in probes}


class TestCLIFaults:
    def test_profile_with_fault_spec(self, capsys):
        from repro.cli import main

        code = main([
            "profile",
            "--workloads", SPECS[0].name,
            "--vms", VMS[0].name, VMS[1].name,
            "--reps", "3",
            "--faults", "transient=0.25,straggle=0.3,attempts=8,seed=5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults on" in out

    def test_profile_faults_from_env(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULT_STRAGGLE", "0.3")
        monkeypatch.setenv("REPRO_FAULT_SEED", "5")
        code = main([
            "profile",
            "--workloads", SPECS[0].name,
            "--vms", VMS[0].name,
            "--reps", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults on" in out

    def test_profile_without_faults(self, capsys):
        from repro.cli import main

        code = main([
            "profile",
            "--workloads", SPECS[0].name,
            "--vms", VMS[0].name,
            "--reps", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults on" not in out
