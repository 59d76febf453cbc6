"""Provider-catalog dimension: registry properties, pricing identity,
persistence compatibility, and serving guards.

The load-bearing contract tested here is *bit identity of the default
path*: with the ``ec2`` catalog (explicit or implicit), every layer —
scalar billing, vectorized campaign budgets, stage fingerprints, archives,
served recommendations — must produce exactly the bytes the pre-catalog
code produced.  ``tests/data/vesta_v2_ec2.npz`` and its expected-payload
JSON were generated by the pre-catalog code and are never regenerated.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cloud.catalog import (
    DEFAULT_CATALOG,
    PricingModel,
    ProviderCatalog,
    catalog_names,
    get_catalog,
    pricing_override,
    reference_spread,
    register_catalog,
    resolve_catalog,
)
from repro.cloud.pricing import MIN_BILLED_SECONDS, budget_for_runtime, hourly_price
from repro.errors import CatalogError, ServiceError, ValidationError
from repro.workloads.catalog import get_workload

DATA = Path(__file__).parent / "data"
ALL_CATALOGS = ("ec2", "azure", "multi", "ec2-spot")


class TestRegistryProperties:
    def test_builtin_names_registered(self):
        assert set(ALL_CATALOGS) <= set(catalog_names())

    @pytest.mark.parametrize("name", ALL_CATALOGS)
    def test_unique_vm_names(self, name):
        cat = get_catalog(name)
        names = cat.vm_names()
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("name", ALL_CATALOGS)
    def test_strictly_positive_resources_and_prices(self, name):
        for vm in get_catalog(name).vms:
            assert vm.vcpus > 0
            assert vm.mem_gb > 0
            assert vm.disk_mbps > 0
            assert vm.net_gbps > 0
            assert vm.price_per_hour > 0
            assert vm.cpu_speed > 0

    @pytest.mark.parametrize("name", ALL_CATALOGS)
    def test_fingerprint_stable_across_materializations(self, name):
        first = get_catalog(name).fingerprint()
        assert get_catalog(name).fingerprint() == first
        # A fresh instance over the same content fingerprints identically.
        cat = get_catalog(name)
        clone = ProviderCatalog(cat.name, tuple(cat.vms), cat.pricing)
        assert clone.fingerprint() == first

    def test_fingerprint_is_content_not_name(self):
        ec2 = get_catalog("ec2")
        renamed = ProviderCatalog("elsewhere", ec2.vms, ec2.pricing)
        assert renamed.fingerprint() == ec2.fingerprint()

    def test_fingerprint_sensitive_to_vm_order(self):
        ec2 = get_catalog("ec2")
        reordered = ProviderCatalog(
            "reordered", tuple(reversed(ec2.vms)), ec2.pricing
        )
        assert reordered.fingerprint() != ec2.fingerprint()

    def test_pricing_fingerprint_stable_under_tuple_vs_list_ordering(self):
        a = PricingModel(
            name="x", per_vm_increments=(("az-", 0.0), ("ec-", 60.0))
        )
        b = PricingModel(
            name="x", per_vm_increments=(("az-", 0.0), ("ec-", 60.0))
        )
        assert a.fingerprint() == b.fingerprint()
        flipped = PricingModel(
            name="x", per_vm_increments=(("ec-", 60.0), ("az-", 0.0))
        )
        # Prefix order is semantic (first match wins) — it must show.
        assert flipped.fingerprint() != a.fingerprint()

    def test_unknown_catalog_lists_known(self):
        with pytest.raises(CatalogError, match="known:"):
            get_catalog("gcp")

    def test_resolve_catalog_accepts_str_instance_none(self):
        ec2 = get_catalog("ec2")
        assert resolve_catalog("ec2") is ec2
        assert resolve_catalog(ec2) is ec2
        assert resolve_catalog(None).name == DEFAULT_CATALOG

    def test_resolve_catalog_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CATALOG", "azure")
        assert resolve_catalog(None).name == "azure"

    def test_register_rejects_duplicate_vm_names(self):
        ec2 = get_catalog("ec2")
        with pytest.raises(ValidationError):
            ProviderCatalog("dup", ec2.vms + ec2.vms[:1], ec2.pricing)

    def test_register_and_fetch_custom(self):
        ec2 = get_catalog("ec2")
        register_catalog(
            "tiny-test", lambda: ProviderCatalog("tiny-test", ec2.vms[:3], ec2.pricing)
        )
        assert len(get_catalog("tiny-test")) == 3

    def test_reference_spread_deterministic_and_family_diverse(self):
        az = get_catalog("azure")
        picks = reference_spread(az.vms, 4)
        assert picks == reference_spread(az.vms, 4)
        assert len({vm.family for vm in picks}) == len(picks)
        assert all(vm in az.vms for vm in picks)


class TestPricingIdentity:
    def test_default_override_is_none(self):
        assert pricing_override(get_catalog("ec2")) is None
        assert pricing_override(None) is None
        assert pricing_override(get_catalog("azure")) is not None

    def test_scalar_default_matches_ec2_model(self):
        """model=None legacy arithmetic == the explicit ec2 PricingModel."""
        ec2 = get_catalog("ec2")
        for vm in ec2.vms[::7]:
            for rt in (1.0, 59.9, 60.0, 61.5, 3600.0):
                assert budget_for_runtime(vm, rt) == ec2.pricing.budget(vm, rt)
                assert hourly_price(vm, 3) == ec2.pricing.hourly_price(vm, 3)

    @pytest.mark.parametrize("name", ALL_CATALOGS)
    def test_scalar_equals_vectorized_budgets(self, name):
        """Satellite guard: one billing rule, two code paths, same bytes.

        The scalar ``budget_for_runtime`` and the collector's vectorized
        batch budgets must agree bitwise under every provider's billing
        increment (EC2's 60 s floor, Azure's per-second, multi's per-VM
        prefix override, spot's discounted rate).
        """
        from repro.telemetry.collector import DataCollector

        cat = get_catalog(name)
        model = pricing_override(cat)
        vms = cat.vms[:: max(1, len(cat.vms) // 12)]
        spec = get_workload("spark-lr")
        collector = DataCollector(
            repetitions=3, seed=11, pricing=model, catalog=cat
        )
        scalar_profiles = {vm.name: collector.collect(spec, vm) for vm in vms}
        batch = DataCollector(
            repetitions=3, seed=11, pricing=model, catalog=cat
        ).profile_many([(spec, vm, None, False) for vm in vms])
        for vm, (vectorized, _events) in zip(vms, batch):
            scalar = scalar_profiles[vm.name]
            # Same runtimes, and bitwise-equal per-repetition budgets
            # between the scalar loop and the vectorized batch path.
            np.testing.assert_array_equal(vectorized.runtimes, scalar.runtimes)
            np.testing.assert_array_equal(vectorized.budgets, scalar.budgets)
            # Both agree with the scalar billing formula per repetition.
            for rt, b in zip(scalar.runtimes, scalar.budgets):
                assert b == budget_for_runtime(
                    vm, float(rt), scalar.nodes, model=model
                )

    @pytest.mark.parametrize("name", ALL_CATALOGS)
    def test_vesta_predict_budgets_match_scalar(self, name):
        from repro.core.vesta import VestaSelector

        cat = get_catalog(name)
        model = pricing_override(cat)
        v = VestaSelector(
            vms=cat.vms[:8], seed=7, repetitions=2, catalog=cat
        ).fit()
        spec = get_workload("spark-lr")
        session = v.online(spec)
        runtimes = session.predict_runtimes()
        budgets = session.predict_budgets()
        for vm, rt, b in zip(v.vms, runtimes, budgets):
            assert b == budget_for_runtime(vm, float(rt), spec.nodes, model=model)

    def test_azure_bills_per_second(self):
        az = get_catalog("azure")
        vm = az.vms[0]
        assert az.pricing.increment_for(vm.name) == 0.0
        assert az.pricing.budget(vm, 10.0) == pytest.approx(
            vm.price_per_hour * 10.0 / 3600.0
        )

    def test_multi_bills_azure_vms_per_second_and_ec2_by_minute(self):
        multi = get_catalog("multi")
        assert multi.pricing.increment_for("az-b2s") == 0.0
        assert multi.pricing.increment_for("m5.xlarge") == MIN_BILLED_SECONDS

    def test_spot_rate_discounted(self):
        spot = get_catalog("ec2-spot")
        vm = spot.vms[0]
        assert spot.pricing.effective_rate(vm) == pytest.approx(
            vm.price_per_hour * 0.31
        )


class TestSpotInterruptions:
    def test_plan_deterministic_per_seed(self):
        spot = get_catalog("ec2-spot").pricing
        a, b = spot.interruption_plan(7), spot.interruption_plan(7)
        assert a == b
        assert a.enabled
        assert a.transient_prob == pytest.approx(0.05)
        assert spot.interruption_plan(8) != a

    def test_riskless_catalogs_have_no_plan(self):
        for name in ("ec2", "azure", "multi"):
            assert get_catalog(name).pricing.interruption_plan(7) is None

    def test_campaign_derives_spot_faults(self):
        from repro.telemetry.campaign import ProfilingCampaign

        spot = ProfilingCampaign(repetitions=2, seed=7, catalog="ec2-spot")
        assert spot.faults is not None and spot.faults.enabled
        ondemand = ProfilingCampaign(repetitions=2, seed=7, catalog="ec2")
        assert ondemand.faults is None

    def test_campaign_fingerprint_gated_on_default(self):
        from repro.telemetry.campaign import ProfilingCampaign

        base = ProfilingCampaign(repetitions=2, seed=7)
        ec2 = ProfilingCampaign(repetitions=2, seed=7, catalog="ec2")
        az = ProfilingCampaign(repetitions=2, seed=7, catalog="azure")
        assert ec2.config_fingerprint() == base.config_fingerprint()
        assert az.config_fingerprint() != base.config_fingerprint()


class TestPersistenceCompatibility:
    def test_prepr_ec2_archive_bit_identical(self):
        """The checked-in pre-catalog archive still selects bitwise alike."""
        from repro.core.persistence import load_selector
        from repro.service.wire import recommendation_to_dict

        expected = json.loads((DATA / "vesta_v2_ec2_expected.json").read_text())
        v = load_selector(DATA / "vesta_v2_ec2.npz")
        assert v.catalog.name == "ec2"
        assert v.knowledge_fingerprint() == expected["knowledge_fingerprint"]
        assert v.pipeline.fingerprints() == expected["stage_fingerprints"]
        for wname, objs in expected["recommendations"].items():
            for objective, payload in objs.items():
                rec = v.select(get_workload(wname), objective=objective)
                got = json.loads(json.dumps(recommendation_to_dict(rec)))
                assert got == payload, (wname, objective)

    def test_full_catalog_foldin_archive_bit_identical(self):
        """Every Table-3 workload on the 100-VM catalog serves the pinned bytes.

        The archive is ``save_selector(VestaSelector(seed=7,
        cmf_mode="foldin").fit())``; loading it instead of fitting keeps
        the pin independent of K-Means and ALS arithmetic.  Its catalog
        holds non-burstable VMs, so the sandbox feasibility rule and the
        full 100-VM prediction vector are both under the pin.  The
        expected file holds the SHA-256 of ``json.dumps`` of each
        payload: every workload × objective, plus one ``select_many``.
        """
        import hashlib

        from repro.core.persistence import load_selector
        from repro.service.wire import recommendation_to_dict
        from repro.workloads.catalog import all_workloads

        def digest(rec):
            return hashlib.sha256(
                json.dumps(recommendation_to_dict(rec)).encode()
            ).hexdigest()

        expected = json.loads((DATA / "vesta_v4_ec2_foldin_expected.json").read_text())
        v = load_selector(DATA / "vesta_v4_ec2_foldin.npz")
        assert len(v.vms) == 100 and v.cmf_mode == "foldin"
        assert v.knowledge_fingerprint() == expected["knowledge_fingerprint"]
        assert v.pipeline.fingerprints() == expected["stage_fingerprints"]
        workloads = all_workloads()
        got = {
            f"{w.name}/{objective}": digest(v.select(w, objective=objective))
            for w in workloads
            for objective in ("time", "budget")
        }
        assert got == expected["select"]
        many = expected["select_many"]
        recs = v.select_many(workloads, objective=many["objective"])
        assert [digest(r) for r in recs] == many["digests"]

    def test_v1_archive_loads_as_implicit_ec2(self):
        from repro.core.persistence import load_selector

        v = load_selector(DATA / "vesta_v1.npz")
        assert v.catalog.name == "ec2"
        assert v.catalog.is_default

    def test_v3_azure_round_trip(self, tmp_path):
        from repro.core.persistence import load_selector, save_selector
        from repro.core.vesta import VestaSelector
        from repro.workloads.catalog import training_set

        az = get_catalog("azure")
        v = VestaSelector(
            vms=az.vms[:8], sources=training_set()[:4], seed=7,
            repetitions=2, catalog="azure",
        ).fit()
        path = tmp_path / "az.npz"
        save_selector(v, path)
        loaded = load_selector(path)
        assert loaded.catalog.name == "azure"
        assert loaded.catalog.fingerprint() == az.fingerprint()
        spec = get_workload("spark-lr")
        assert loaded.select(spec) == v.select(spec)

    def test_archive_refuses_catalog_content_drift(self, tmp_path):
        from repro.core import persistence
        from repro.core.persistence import load_selector, save_selector
        from repro.core.vesta import VestaSelector
        from repro.workloads.catalog import training_set

        az = get_catalog("azure")
        v = VestaSelector(
            vms=az.vms[:6], sources=training_set()[:3], seed=7,
            repetitions=2, catalog="azure",
        ).fit()
        path = tmp_path / "az.npz"
        save_selector(v, path)
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(data["meta"]).decode())
        meta["catalog_fingerprint"] = "0" * 16
        data["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez(path, **data)
        with pytest.raises(ValidationError, match="fingerprint"):
            load_selector(path)
        # v4 (lifecycle promotions) still stamps + checks the catalog.
        assert persistence.FORMAT_VERSION == 4


class TestServingGuards:
    def _fitted(self, catalog_name):
        from repro.core.vesta import VestaSelector
        from repro.workloads.catalog import training_set

        cat = get_catalog(catalog_name)
        return VestaSelector(
            vms=cat.vms[:6], sources=training_set()[:3], seed=7,
            repetitions=2, catalog=cat,
        ).fit()

    def test_handle_reports_catalog(self):
        from repro.service.registry import SelectorRegistry

        reg = SelectorRegistry()
        reg.register("default", self._fitted("azure"))
        info = reg.describe()["default"]
        assert info["catalog"] == "azure"
        assert info["catalog_fingerprint"] == get_catalog("azure").fingerprint()

    def test_reload_refuses_cross_catalog_swap(self, tmp_path):
        from repro.core.persistence import save_selector
        from repro.service.registry import SelectorRegistry

        reg = SelectorRegistry()
        reg.register("default", self._fitted("ec2"))
        path = tmp_path / "azure.npz"
        save_selector(self._fitted("azure"), path)
        with pytest.raises(ServiceError, match="refused"):
            reg.reload("default", path)
        # The served handle is untouched by the refused swap.
        assert reg.describe()["default"]["catalog"] == "ec2"

    def test_statsz_reports_catalog(self):
        from repro.service.registry import SelectorRegistry
        from repro.service.server import SelectionService

        reg = SelectorRegistry()
        reg.register("default", self._fitted("azure"))
        with SelectionService(reg) as svc:
            stats = svc.stats()
        assert stats["catalogs"]["default"]["catalog"] == "azure"


class TestCatalogCLI:
    def test_list_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["catalog", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_CATALOGS:
            assert name in out

    def test_list_json_round_trips(self, capsys):
        from repro.cli import main

        assert main(["catalog", "--list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload}
        assert by_name["ec2"]["fingerprint"] == get_catalog("ec2").fingerprint()

    def test_dump_named_catalog_json(self, capsys):
        from repro.cli import main

        assert main(["catalog", "--catalog", "azure", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["catalog"] == "azure"
        assert len(payload["vms"]) == 25

    def test_unknown_catalog_exit_code(self, capsys):
        from repro.cli import main

        assert main(["catalog", "--catalog", "gcp"]) == 1
        assert "unknown catalog" in capsys.readouterr().err

    def test_unknown_family_exit_code(self):
        from repro.cli import main

        assert main(["catalog", "--family", "nope"]) == 2
