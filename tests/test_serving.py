"""Tests for the low-latency serving path.

Covers the offline/online CMF split (``source_factors`` stage + exact
closed-form fold-in), the batched multi-target selection
(:meth:`VestaSelector.select_many`), the online prediction memoization,
and persistence of the new stage (round-trip + pre-split archives).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.cloud.pricing import budget_for_runtime
from repro.cloud.vmtypes import catalog
from repro.core.cmf import CMF, SourceFactors
from repro.core.persistence import load_selector, save_selector
from repro.core.vesta import VestaSelector
from repro.errors import ValidationError
from repro.workloads.catalog import target_set, training_set

SEED = 7
V1_ARCHIVE = Path(__file__).parent / "data" / "vesta_v1.npz"

#: The paper's near-best tolerance: a pick within 30% of the best
#: predicted score counts as near-best (tau = 0.3).  The full path's own
#: recommendations move within this band across CMF init seeds, so it is
#: the tightest defensible cross-mode agreement bound.
NEAR_BEST_BAND = 0.30


@pytest.fixture(scope="module")
def small_full():
    """Full-mode selector on a reduced grid (fast offline fit)."""
    return VestaSelector(
        vms=catalog()[:14], sources=training_set()[:6], seed=SEED
    ).fit()


def _foldin_copy(selector, path, **kwargs):
    """A fold-in twin of ``selector`` sharing its fitted knowledge.

    Save/load round-trips the stage artifacts, so the twin reuses the
    archived stages; cmf_mode is in no stage fingerprint, so the refit
    recomputes nothing.
    """
    save_selector(selector, path)
    return load_selector(path, **kwargs).refit(cmf_mode="foldin")


@pytest.fixture(scope="module")
def small_foldin(small_full, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "small.npz"
    return _foldin_copy(small_full, path)


@pytest.fixture(scope="module")
def foldin_vesta(fitted_vesta, tmp_path_factory):
    """Fold-in twin of the session-scoped full-catalog selector."""
    path = tmp_path_factory.mktemp("serving-full") / "vesta.npz"
    return _foldin_copy(fitted_vesta, path)


class TestFoldInSolver:
    """CMF.fold_in is an exact closed-form masked ridge solve."""

    def _problem(self, rows=3, labels=20, g=8, seed=0):
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(labels, g))
        ustar = rng.uniform(size=(rows, labels))
        mask = (rng.uniform(size=(rows, labels)) < 0.4).astype(float)
        mask[:, 0] = 1.0  # at least one observed entry per row
        return L, ustar, mask

    def test_solves_the_normal_equations(self):
        cmf = CMF(latent_dim=8)
        L, ustar, mask = self._problem()
        astar = cmf.fold_in(L, ustar, mask)
        mu, reg = cmf.target_weight, cmf.reg
        for i in range(ustar.shape[0]):
            gram = mu * (L * mask[i][:, None]).T @ L + reg * np.eye(8)
            rhs = mu * L.T @ (mask[i] * ustar[i])
            np.testing.assert_allclose(gram @ astar[i], rhs, atol=1e-10)

    def test_batch_bit_identical_to_single_rows(self):
        cmf = CMF(latent_dim=8)
        L, ustar, mask = self._problem(rows=5)
        batched = cmf.fold_in(L, ustar, mask)
        singles = np.vstack(
            [
                cmf.fold_in(L, ustar[i : i + 1], mask[i : i + 1])
                for i in range(ustar.shape[0])
            ]
        )
        assert batched.tobytes() == singles.tobytes()

    def test_default_mask_means_fully_observed(self):
        cmf = CMF(latent_dim=8)
        L, ustar, _ = self._problem()
        full = cmf.fold_in(L, ustar, np.ones_like(ustar))
        assert cmf.fold_in(L, ustar).tobytes() == full.tobytes()

    def test_reproduces_a_joint_fit_row(self):
        """Folding a target row back in against the joint fit's own L
        recovers that fit's completed row (up to SGD residual)."""
        rng = np.random.default_rng(3)
        U = rng.uniform(size=(5, 12))
        V = rng.uniform(size=(6, 12))
        ustar = rng.uniform(size=(1, 12))
        mask = np.zeros_like(ustar)
        mask[0, :5] = 1.0
        cmf = CMF(latent_dim=4, seed=SEED)
        joint = cmf.fit(U, V, ustar, mask)
        assert joint.converged
        astar = cmf.fold_in(joint.L, ustar, mask)
        refolded = astar @ joint.L.T
        assert np.max(np.abs(refolded - joint.completed_ustar)) < 0.15

    def test_shape_validation(self):
        cmf = CMF(latent_dim=8)
        L, ustar, mask = self._problem()
        with pytest.raises(ValidationError):
            cmf.fold_in(L[:, :5], ustar, mask)  # wrong latent dim
        with pytest.raises(ValidationError):
            cmf.fold_in(L, ustar[:, :7], mask[:, :7])  # label mismatch
        with pytest.raises(ValidationError):
            cmf.fold_in(L, ustar, mask[:, :7])  # mask mismatch
        with pytest.raises(ValidationError):
            cmf.fold_in(L, ustar[0], None)  # 1-D rows


class TestSourceFactorsOffline:
    def test_factor_sources_converges_and_reconstructs(self, small_full):
        factors = small_full.source_factors
        assert isinstance(factors, SourceFactors)
        assert factors.converged
        g = small_full.latent_dim
        n_labels = small_full.label_space.n_labels
        assert factors.A.shape == (len(small_full.sources), g)
        assert factors.B.shape == (len(small_full.vms), g)
        assert factors.L.shape == (n_labels, g)
        rec_err = np.linalg.norm(
            small_full.U - factors.A @ factors.L.T
        ) / np.linalg.norm(small_full.U)
        assert rec_err < 0.5

    def test_als_objective_decreases_monotonically(self):
        rng = np.random.default_rng(0)
        U = rng.uniform(size=(6, 15))
        V = rng.uniform(size=(8, 15))
        cmf = CMF(latent_dim=4, max_epochs=50, tol=0.0)

        # Re-run the ALS objective trace by hand via successively tighter
        # iteration budgets: each prefix must not increase the objective.
        def objective(f):
            return (
                cmf.lam * ((U - f.A @ f.L.T) ** 2).sum()
                + (1 - cmf.lam) * ((V - f.B @ f.L.T) ** 2).sum()
                + cmf.reg
                * ((f.A**2).sum() + (f.B**2).sum() + (f.L**2).sum())
            )

        objs = []
        for epochs in (1, 2, 5, 10, 25):
            trial = CMF(latent_dim=4, max_epochs=epochs, tol=0.0, seed=0)
            objs.append(objective(trial.factor_sources(U, V)))
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_foldin_without_fit_rejected(self):
        sel = VestaSelector(
            vms=catalog()[:8], sources=training_set()[:3], cmf_mode="foldin"
        )
        row = np.ones((1, 10))
        with pytest.raises(ValidationError, match="source_factors"):
            sel.complete_rows(row, row)

    def test_invalid_cmf_mode_rejected(self, small_full):
        with pytest.raises(ValidationError, match="cmf_mode"):
            VestaSelector(cmf_mode="blend")
        with pytest.raises(ValidationError, match="cmf_mode"):
            small_full.refit(cmf_mode="hybrid")

    def test_refit_to_foldin_recomputes_nothing(self, small_full):
        """cmf_mode is in no stage fingerprint: switching modes is free."""
        computed = small_full.campaign.counters.computed
        small_full.refit(cmf_mode="foldin")
        try:
            from repro.core.pipeline import CACHED_STAGES

            actions = {n: r.action for n, r in small_full.stage_report.items()}
            assert all(actions[n] == "memory" for n in CACHED_STAGES), actions
            assert small_full.campaign.counters.computed == computed
        finally:
            small_full.refit(cmf_mode="full")


class TestServingEquivalence:
    def test_small_grid_recommendations_identical(
        self, small_full, small_foldin
    ):
        for spec in target_set()[:4]:
            full_s = small_full.online(spec)
            fold_s = small_foldin.online(spec)
            assert full_s.observations == fold_s.observations
            assert full_s.converged == fold_s.converged
            assert full_s.degraded == fold_s.degraded
            for objective in ("time", "budget"):
                assert (
                    full_s.recommend(objective).vm_name
                    == fold_s.recommend(objective).vm_name
                ), (spec.name, objective)

    def test_full_catalog_near_best_agreement(self, fitted_vesta, foldin_vesta):
        """On the full Table-4 catalog the two modes agree within the
        near-best band: the fold-in pick's regret under the *full* model
        stays inside tau = 0.3, the bound within which the full path's
        own picks move across CMF init seeds."""
        for spec in target_set():
            full_s = fitted_vesta.online(spec)
            fold_s = foldin_vesta.online(spec)
            # The profiling half of the session is mode-independent.
            assert full_s.observations == fold_s.observations, spec.name
            assert full_s.degraded == fold_s.degraded
            assert full_s.converged == fold_s.converged, spec.name
            if not full_s.converged:
                continue  # both fell back to the same sparse row
            for objective, scores in (
                ("time", full_s.predict_runtimes()),
                ("budget", full_s.predict_budgets()),
            ):
                pick = foldin_vesta.vm_index(fold_s.recommend(objective).vm_name)
                best = float(scores.min())
                regret = (float(scores[pick]) - best) / best
                assert regret <= NEAR_BEST_BAND, (spec.name, objective, regret)


class TestSelectMany:
    def test_batch_matches_sequential_foldin(self, small_foldin):
        specs = target_set()[:5]
        batch = small_foldin.select_many(specs)
        sequential = tuple(small_foldin.select(s) for s in specs)
        for b, s in zip(batch, sequential):
            assert b.vm_name == s.vm_name
            assert b.predicted_runtime_s == s.predicted_runtime_s
            assert b.predicted_budget_usd == s.predicted_budget_usd
            assert b.predictions == s.predictions
            assert b.converged == s.converged

    def test_batch_matches_sequential_full_mode(self, small_full):
        specs = target_set()[:3]
        batch = small_full.select_many(specs)
        sequential = tuple(small_full.select(s) for s in specs)
        for b, s in zip(batch, sequential):
            assert b.vm_name == s.vm_name
            assert b.predictions == s.predictions

    def test_parallel_jobs_bit_identical(
        self, small_full, small_foldin, tmp_path_factory, force_pool
    ):
        path = tmp_path_factory.mktemp("serving-jobs") / "small.npz"
        twin = _foldin_copy(small_full, path)
        specs = target_set()[:4]
        serial = small_foldin.select_many(specs, objective="budget")
        started = force_pool(2)
        parallel = twin.select_many(specs, objective="budget")
        assert started == [2]
        for a, b in zip(serial, parallel):
            assert a.vm_name == b.vm_name
            assert a.predictions == b.predictions

    def test_batch_objective_and_empty_batch(self, small_foldin):
        assert small_foldin.online_many(()) == ()
        assert small_foldin.select_many((), objective="budget") == ()

    def test_unfitted_rejected(self):
        sel = VestaSelector(vms=catalog()[:8], sources=training_set()[:3])
        with pytest.raises(ValidationError, match="not fitted"):
            sel.online_many(target_set()[:2])


class TestPredictionMemoization:
    @pytest.fixture()
    def session(self, small_foldin):
        return small_foldin.online(target_set()[0])

    @pytest.fixture()
    def predict_calls(self, small_foldin, monkeypatch):
        calls = []
        orig = small_foldin.predictor.predict

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(small_foldin.predictor, "predict", counting)
        return calls

    def test_recommend_runs_one_prediction_pass(self, session, predict_calls):
        session.recommend("time")
        assert len(predict_calls) == 1
        # Budget scores derive from the memoized runtimes: still one pass.
        session.recommend("budget")
        assert len(predict_calls) == 1
        assert session.predict_runtimes() is session.predict_runtimes()

    def test_observe_invalidates_memo(self, session, predict_calls):
        before = session.predict_runtimes()
        unobserved = next(
            vm.name
            for vm in session._sel.vms
            if vm.name not in session.observations
        )
        measured = session.observe(unobserved)
        after = session.predict_runtimes()
        assert len(predict_calls) == 2
        assert after is not before
        idx = session._sel.vm_index(unobserved)
        assert after[idx] == measured

    def test_step_invalidates_memo(self, session, predict_calls):
        session.recommend("time")
        name, runtime = session.step("time")
        after = session.predict_runtimes()
        assert len(predict_calls) == 2
        assert after[session._sel.vm_index(name)] == runtime

    def test_prediction_vectors_are_readonly(self, session):
        assert not session.predict_runtimes().flags.writeable
        assert not session.predict_budgets().flags.writeable
        with pytest.raises(ValueError):
            session.predict_runtimes()[0] = 0.0

    def test_budget_vectorization_matches_scalar_billing(self, session):
        budgets = session.predict_budgets()
        runtimes = session.predict_runtimes()
        for i, vm in enumerate(session._sel.vms):
            scalar = budget_for_runtime(
                vm, float(runtimes[i]), nodes=session.spec.nodes
            )
            assert budgets[i] == scalar, vm.name


class TestServingPersistence:
    def test_roundtrip_preserves_source_factors(self, small_full, tmp_path):
        path = save_selector(small_full, tmp_path / "model.npz")
        loaded = load_selector(path)
        orig = small_full.source_factors
        assert loaded.cmf_mode == small_full.cmf_mode
        for name in ("A", "B", "L"):
            np.testing.assert_array_equal(
                getattr(loaded.source_factors, name), getattr(orig, name)
            )
        assert loaded.source_factors.converged == orig.converged

    def test_foldin_mode_survives_roundtrip(self, small_foldin, tmp_path):
        path = save_selector(small_foldin, tmp_path / "foldin.npz")
        loaded = load_selector(path)
        assert loaded.cmf_mode == "foldin"
        rec = loaded.select(target_set()[0])
        assert rec.vm_name == small_foldin.select(target_set()[0]).vm_name

    def test_v2_archive_without_factors_recomputes_them(
        self, small_full, tmp_path
    ):
        """A version-2 archive written before the offline/online split has
        no source_factors bundle (and no cmf_mode hyperparameter): loading
        derives the factors from the restored U/V."""
        import json

        path = save_selector(small_full, tmp_path / "pre_split.npz")
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            arrays = {
                key: data[key]
                for key in data.files
                if key != "meta" and not key.startswith("source_factors.")
            }
        meta["hyperparams"].pop("cmf_mode")
        meta["stage_fingerprints"].pop("source_factors", None)
        stripped = tmp_path / "stripped.npz"
        np.savez_compressed(
            stripped,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **arrays,
        )
        loaded = load_selector(stripped)
        assert loaded.cmf_mode == "full"  # constructor default fills the gap
        orig = small_full.source_factors
        for name in ("A", "B", "L"):
            np.testing.assert_array_equal(
                getattr(loaded.source_factors, name), getattr(orig, name)
            )
        loaded.refit(cmf_mode="foldin")
        rec = loaded.select(target_set()[1])
        assert rec.vm_name in {vm.name for vm in loaded.vms}

    def test_v1_archive_gets_derived_factors(self):
        sel = load_selector(V1_ARCHIVE)
        factors = sel.source_factors
        assert factors.A.shape == (len(sel.sources), sel.latent_dim)
        assert factors.L.shape == (sel.label_space.n_labels, sel.latent_dim)
        sel.refit(cmf_mode="foldin")
        row = np.ones((1, sel.label_space.n_labels))
        (result,) = sel.complete_rows(row, row)
        assert result.completed_ustar.shape == (1, sel.label_space.n_labels)
