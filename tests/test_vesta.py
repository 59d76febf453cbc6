"""Tests for the end-to-end VestaSelector (Algorithm 1)."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.vesta import OnlineSession, Predictions, Recommendation, VestaSelector
from repro.errors import ValidationError
from repro.workloads.catalog import get_workload, training_set


class TestOfflineFit:
    def test_fit_builds_knowledge(self, fitted_vesta):
        v = fitted_vesta
        n_src, n_vm = len(v.sources), len(v.vms)
        assert v.perf.shape == (n_src, n_vm)
        assert np.all(v.perf > 0)
        assert v.correlations.shape == (n_src, 10)
        assert v.U.shape == (n_src, v.label_space.n_labels)
        assert v.V.shape == (n_vm, v.label_space.n_labels)

    def test_feature_selection_drops_some(self, fitted_vesta):
        assert 2 <= len(fitted_vesta.kept_features) <= 9
        assert fitted_vesta.feature_importance.sum() == pytest.approx(1.0)

    def test_near_best_scores_normalized(self, fitted_vesta):
        nb = fitted_vesta.near_best
        assert np.all((0 < nb) & (nb <= 1.0 + 1e-12))
        # Each workload's best VM scores exactly 1.
        np.testing.assert_allclose(nb.max(axis=1), 1.0)

    def test_kmeans_clusters_cover_catalog(self, fitted_vesta):
        assert fitted_vesta.vm_clusters.shape == (len(fitted_vesta.vms),)
        assert len(np.unique(fitted_vesta.vm_clusters)) > 1

    def test_cluster_smoothing_makes_v_constant_within_cluster(self, fitted_vesta):
        v = fitted_vesta
        for c in np.unique(v.vm_clusters):
            members = np.nonzero(v.vm_clusters == c)[0]
            block = v.V[members]
            assert np.allclose(block, block[0])

    def test_graph_holds_all_sources(self, fitted_vesta):
        names = fitted_vesta.graph.workload_names(target=False)
        assert set(names) == {w.name for w in fitted_vesta.sources}

    def test_defaults_match_paper(self):
        v = VestaSelector()
        assert v.k == 9           # Figure 11
        assert v.lam == 0.75      # Section 5.3
        assert v.probes == 3      # Section 4.2
        assert v.campaign.repetitions == 10  # Section 4.1

    def test_select_before_fit_rejected(self, spark_lr):
        with pytest.raises(ValidationError):
            VestaSelector().select(spark_lr)

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            VestaSelector(k=0)
        with pytest.raises(ValidationError):
            VestaSelector(probes=-1)
        with pytest.raises(ValidationError):
            VestaSelector(vms=())


class TestOnlineSession:
    @pytest.fixture(scope="class")
    def session(self, fitted_vesta):
        return fitted_vesta.online(get_workload("spark-lr"))

    def test_initial_reference_vms(self, session):
        # Sandbox + 3 probes (Section 4.2).
        assert session.reference_vm_count == 4
        assert session.sandbox_vm.name in session.observations
        for vm in session.probe_vms:
            assert vm.name in session.observations

    def test_completed_row_nonnegative(self, session, fitted_vesta):
        row = session.completed_row
        assert row.shape == (fitted_vesta.label_space.n_labels,)
        assert np.all(row >= 0)
        assert row.sum() > 0

    def test_predictions_cover_catalog(self, session, fitted_vesta):
        pred = session.predict_runtimes()
        assert pred.shape == (len(fitted_vesta.vms),)
        assert np.all(pred > 0)

    def test_observed_vms_predict_exactly(self, session, fitted_vesta):
        pred = session.predict_runtimes()
        for name, obs in session.observations.items():
            assert pred[fitted_vesta.vm_index(name)] == pytest.approx(obs)

    def test_predict_single_vm_consistent(self, session, fitted_vesta):
        pred = session.predict_runtimes()
        assert session.predict_runtime("z1d.xlarge") == pytest.approx(
            pred[fitted_vesta.vm_index("z1d.xlarge")]
        )

    def test_budget_predictions_scale_with_price(self, session, fitted_vesta):
        budgets = session.predict_budgets()
        assert budgets.shape == (len(fitted_vesta.vms),)
        assert np.all(budgets > 0)

    def test_recommendation_fields(self, session):
        rec = session.recommend()
        assert isinstance(rec, Recommendation)
        assert rec.workload == "spark-lr"
        assert rec.objective == "time"
        assert rec.vm_name in rec.predictions
        assert rec.predicted_runtime_s > 0
        assert rec.predicted_budget_usd > 0

    def test_recommend_is_argmin_of_predictions(self, session):
        rec = session.recommend()
        assert rec.predicted_runtime_s == pytest.approx(min(rec.predictions.values()))

    def test_budget_objective_prefers_cheaper_vm(self, session):
        time_rec = session.recommend("time")
        budget_rec = session.recommend("budget")
        assert budget_rec.predicted_budget_usd <= time_rec.predicted_budget_usd

    def test_invalid_objective_rejected(self, session):
        with pytest.raises(ValidationError):
            session.recommend("carbon")

    def test_step_observes_new_vm(self, fitted_vesta):
        session = fitted_vesta.online(get_workload("spark-grep"))
        before = session.reference_vm_count
        vm_name, runtime = session.step()
        assert session.reference_vm_count == before + 1
        assert runtime > 0
        assert vm_name in session.observations

    def test_observe_is_idempotent(self, fitted_vesta):
        session = fitted_vesta.online(get_workload("spark-count"))
        first = session.observe("m5.2xlarge")
        count = session.reference_vm_count
        second = session.observe("m5.2xlarge")
        assert first == second
        assert session.reference_vm_count == count

    def test_observe_unknown_vm_rejected(self, session):
        with pytest.raises(ValidationError):
            session.observe("quantum.42xlarge")


class TestTransferBehaviour:
    def test_reproducible_selection(self):
        a = VestaSelector(seed=11, sources=training_set()[:6]).fit()
        b = VestaSelector(seed=11, sources=training_set()[:6]).fit()
        ra = a.select(get_workload("spark-grep"))
        rb = b.select(get_workload("spark-grep"))
        assert ra.vm_name == rb.vm_name
        assert ra.predicted_runtime_s == rb.predicted_runtime_s

    def test_outlier_target_flagged_non_convergent(self, fitted_vesta):
        """A synthetic workload with an alien correlation signature should
        trip the paper's converge limitation (the Spark-CF mechanism)."""
        session = fitted_vesta.online(get_workload("spark-lr"))
        # Forge a target row orthogonal to every source: mass on intervals
        # no source occupies.
        alien = np.zeros(fitted_vesta.label_space.n_labels)
        occupied = fitted_vesta.U.sum(axis=0) > 0
        alien[~occupied] = 1.0
        sims = fitted_vesta.predictor.similarities(alien)
        assert sims.max() < fitted_vesta.match_threshold

    def test_selection_quality_vs_ground_truth(self, fitted_vesta, ground_truth):
        """The headline behaviour: near-best picks from 4 reference VMs."""
        errors = []
        for name in ("spark-lr", "spark-kmeans", "spark-pca", "spark-count"):
            spec = get_workload(name)
            rec = fitted_vesta.select(spec)
            errors.append(ground_truth.selection_error(spec, rec.vm_name))
        assert float(np.mean(errors)) < 0.25

    def test_in_framework_selection_quality(self, fitted_vesta, ground_truth):
        for name in ("hadoop-nutch", "hive-aggregation"):
            spec = get_workload(name)
            rec = fitted_vesta.select(spec)
            assert ground_truth.selection_error(spec, rec.vm_name) < 0.3


class TestCorrelationProbeSelection:
    """The family-spread subset used for correlation-signature profiling."""

    def test_exact_count_when_enough_families(self):
        from repro.cloud.vmtypes import catalog

        vms = catalog()
        sel = VestaSelector(vms=vms, correlation_probe_count=8)
        picked = sel._corr_probe_vms()
        assert len(picked) == 8
        # One VM per family: with >= 8 families no family repeats.
        assert len({vm.family for vm in picked}) == 8

    @pytest.mark.parametrize("count", [1, 3, 5, 8, 12])
    def test_exact_count_across_requests(self, count):
        from repro.cloud.vmtypes import catalog

        sel = VestaSelector(vms=catalog(), correlation_probe_count=count)
        assert len(sel._corr_probe_vms()) == count

    def test_topped_up_when_fewer_families_than_count(self):
        from repro.cloud.vmtypes import catalog

        # Restrict to two families; ask for more probes than families.
        vms = tuple(vm for vm in catalog() if vm.family in ("M5", "C4"))
        assert len({vm.family for vm in vms}) == 2
        sel = VestaSelector(vms=vms, correlation_probe_count=5)
        picked = sel._corr_probe_vms()
        assert len(picked) == 5
        assert len({vm.name for vm in picked}) == 5
        # Every family is still represented before any is repeated.
        assert {vm.family for vm in picked} == {"M5", "C4"}

    def test_order_independent(self):
        from repro.cloud.vmtypes import catalog

        vms = catalog()
        forward = VestaSelector(vms=vms, correlation_probe_count=8)
        reverse = VestaSelector(
            vms=tuple(reversed(vms)), correlation_probe_count=8
        )
        shuffled = VestaSelector(
            vms=tuple(np.random.default_rng(3).permutation(np.array(vms, dtype=object))),
            correlation_probe_count=8,
        )
        names = {vm.name for vm in forward._corr_probe_vms()}
        assert {vm.name for vm in reverse._corr_probe_vms()} == names
        assert {vm.name for vm in shuffled._corr_probe_vms()} == names

    def test_prefers_mid_sizes(self):
        from repro.cloud.vmtypes import SIZE_LADDER, catalog

        sel = VestaSelector(vms=catalog(), correlation_probe_count=8)
        ladder = list(SIZE_LADDER)
        mid = ladder.index("xlarge")
        for vm in sel._corr_probe_vms():
            # Each pick is its family's closest-to-xlarge shape.
            family = [v for v in catalog() if v.family == vm.family]
            best = min(abs(ladder.index(v.size) - mid) for v in family)
            assert abs(ladder.index(vm.size) - mid) == best


class TestCompactPredictions:
    """``Recommendation.predictions`` is a read-only view over one array.

    Served on the 100-VM Table-4 catalog (the checked-in fold-in archive
    of ``VestaSelector(seed=7, cmf_mode="foldin")``), so a served answer's
    footprint is the full catalog's.
    """

    ARCHIVE = Path(__file__).parent / "data" / "vesta_v4_ec2_foldin.npz"

    @pytest.fixture(scope="class")
    def selector(self):
        from repro.core.persistence import load_selector

        return load_selector(self.ARCHIVE)

    @pytest.fixture(scope="class")
    def served(self, selector):
        session = selector.online(get_workload("spark-lr"))
        return session, session.recommend("budget")

    def test_equals_catalog_dict_of_floats(self, selector, served):
        session, rec = served
        expected = {
            vm.name: float(rt) for vm, rt in zip(selector.vms, session.predict_runtimes())
        }
        assert isinstance(rec.predictions, Predictions)
        assert len(rec.predictions) == len(selector.vms) == 100
        assert list(rec.predictions) == [vm.name for vm in selector.vms]
        assert dict(rec.predictions) == expected
        assert list(dict(rec.predictions.items()).items()) == list(expected.items())
        assert list(rec.predictions.values()) == list(expected.values())
        assert rec.predictions == expected and expected == rec.predictions
        values = [rec.predictions[name] for name in expected]
        values += list(rec.predictions.values())
        values += [v for _, v in rec.predictions.items()]
        assert all(type(v) is float for v in values)
        assert ("m5.xlarge", expected["m5.xlarge"]) in rec.predictions.items()
        assert "no-such-vm" not in rec.predictions
        assert rec.predictions.get("no-such-vm") is None
        with pytest.raises(KeyError):
            rec.predictions["no-such-vm"]
        with pytest.raises(TypeError):
            rec.predictions["m5.xlarge"] = 1.0  # type: ignore[index]
        assert repr(rec.predictions).startswith("Predictions({'")

    def test_backed_by_the_session_array(self, selector, served):
        session, rec = served
        assert rec.predictions._runtimes is session.predict_runtimes()
        assert rec.predictions._names is selector._vm_names
        assert not rec.predictions._runtimes.flags.writeable

    def test_survives_pickle_and_the_wire(self, served):
        import json
        import pickle

        from repro.service.wire import recommendation_to_dict

        _, rec = served
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec
        assert isinstance(back.predictions, Predictions)
        assert list(back.predictions.items()) == list(rec.predictions.items())
        payload = recommendation_to_dict(rec)
        wire = json.loads(json.dumps(payload))["predictions"]
        assert wire == rec.predictions
        assert list(wire) == list(rec.predictions)
        assert json.dumps(wire) == json.dumps(payload["predictions"])

    def test_wire_copy_is_one_tolist(self, served, monkeypatch):
        """The wire dict comes from one ``tolist()``, with no per-VM lookup:
        a memo-hit ``/select`` serializes it on every request."""
        import dataclasses

        from repro.service.wire import recommendation_to_dict

        _, rec = served
        calls = []

        class CountingArray(np.ndarray):
            def tolist(self):
                calls.append("tolist")
                return super().tolist()

        def no_lookup(self, name):
            raise AssertionError(f"per-VM lookup of {name!r}")

        counted = dataclasses.replace(
            rec,
            predictions=Predictions(
                rec.predictions._names,
                rec.predictions._runtimes.view(CountingArray),
            ),
        )
        monkeypatch.setattr(Predictions, "__getitem__", no_lookup)
        payload = recommendation_to_dict(counted)
        assert calls == ["tolist"]
        assert type(payload["predictions"]) is dict
        assert list(payload["predictions"].values()) == rec.predictions._runtimes.tolist()

    def test_served_responses_retain_under_2kb_each(self, selector):
        """200 served answers on the 100-VM catalog keep < 2 KB apiece.

        A dict of 100 Python floats alone takes about 5.7 KB; the view
        keeps the session's 800-byte runtime array and a shared name tuple.
        """
        import gc
        import tracemalloc

        from repro.service import SelectionService, SelectorRegistry
        from repro.workloads.catalog import all_workloads

        registry = SelectorRegistry()
        registry.reload("default", self.ARCHIVE)
        service = SelectionService(registry, rec_cache_size=0)
        try:
            scheduler = service.scheduler()
            keys = [(w.name, o) for w in all_workloads() for o in ("time", "budget")]
            for name, objective in keys:  # warm every profiling cell
                scheduler.select(name, objective)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = [scheduler.select(*keys[i % len(keys)]) for i in range(200)]
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        finally:
            service.close()
        assert len(kept) == 200
        assert all(len(r.recommendation.predictions) == 100 for r in kept)
        assert retained / len(kept) < 2048, f"{retained / len(kept):.0f} B per response"
