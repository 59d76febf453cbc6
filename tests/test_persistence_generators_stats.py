"""Tests for model persistence, the workload generator, and stats helpers."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import bootstrap_mean_ci, mape, percentile_band
from repro.core.persistence import (
    FORMAT_VERSION,
    archive_knowledge_fingerprint,
    load_selector,
    save_selector,
)
from repro.core.vesta import VestaSelector
from repro.errors import ValidationError
from repro.frameworks.registry import simulate_run
from repro.workloads.generators import ARCHETYPES, WorkloadGenerator
from repro.workloads.catalog import get_workload

V1_ARCHIVE = Path(__file__).parent / "data" / "vesta_v1.npz"


class TestPersistence:
    def test_roundtrip_preserves_knowledge(self, fitted_vesta, tmp_path):
        path = save_selector(fitted_vesta, tmp_path / "vesta.npz")
        loaded = load_selector(path)
        np.testing.assert_array_equal(loaded.perf, fitted_vesta.perf)
        np.testing.assert_array_equal(loaded.U, fitted_vesta.U)
        np.testing.assert_array_equal(loaded.V, fitted_vesta.V)
        np.testing.assert_array_equal(loaded.kept_features, fitted_vesta.kept_features)
        assert loaded.label_space.feature_names == fitted_vesta.label_space.feature_names
        assert [w.name for w in loaded.sources] == [w.name for w in fitted_vesta.sources]

    def test_loaded_selector_selects_identically(self, fitted_vesta, tmp_path):
        path = save_selector(fitted_vesta, tmp_path / "vesta.npz")
        loaded = load_selector(path)
        spec = get_workload("spark-grep")
        a = fitted_vesta.online(spec).recommend()
        b = loaded.online(spec).recommend()
        assert a.vm_name == b.vm_name
        assert a.predicted_runtime_s == pytest.approx(b.predicted_runtime_s)

    def test_unfitted_save_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            save_selector(VestaSelector(), tmp_path / "x.npz")

    def test_suffix_added_when_missing(self, fitted_vesta, tmp_path):
        path = save_selector(fitted_vesta, tmp_path / "model")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_version_mismatch_rejected(self, fitted_vesta, tmp_path):
        import json

        path = save_selector(fitted_vesta, tmp_path / "vesta.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["format_version"] = FORMAT_VERSION + 1
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(tmp_path / "future.npz", **arrays)
        with pytest.raises(ValidationError):
            load_selector(tmp_path / "future.npz")

    def test_corrupt_names_rejected(self, fitted_vesta, tmp_path):
        import json

        path = save_selector(fitted_vesta, tmp_path / "vesta.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["vms"][0] = "warp.42xlarge"
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ValidationError):
            load_selector(tmp_path / "bad.npz")


def _with_meta(path, tmp_path, edit) -> Path:
    """Copy of the archive at ``path`` whose metadata ``edit`` rewrites."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = edit(json.loads(bytes(arrays["meta"]).decode()))
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    out = tmp_path / "edited.npz"
    np.savez_compressed(out, **arrays)
    return out


def _drop(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def _set(key, value):
    return lambda meta: {**meta, key: value}


def _set_hyperparam(key, value):
    return lambda meta: {**meta, "hyperparams": {**meta["hyperparams"], key: value}}


class TestArchiveUpgrade:
    """Every archive goes through one upgrade-and-restore path."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: [meta],
            _drop("hyperparams"),
            _drop("repetitions"),
            _set("stage_fingerprints", ["perf_matrix"]),
            _set_hyperparam("k", "9"),
            _set("promotions", [{"lineage": "x"}]),
        ],
        ids=[
            "meta-not-object",
            "no-hyperparams",
            "no-repetitions",
            "fingerprints-not-object",
            "string-k",
            "unnamed-promotion",
        ],
    )
    def test_malformed_metadata_raises_validation_error(
        self, fitted_vesta, tmp_path, edit
    ):
        path = save_selector(fitted_vesta, tmp_path / "vesta.npz")
        broken = _with_meta(path, tmp_path, edit)
        with pytest.raises(ValidationError):
            load_selector(broken)
        with pytest.raises(ValidationError):
            archive_knowledge_fingerprint(broken)

    def test_v1_archive_upgrades_without_adopting(self):
        sel = load_selector(V1_ARCHIVE)
        assert sel.knowledge_fingerprint() == "a1fdf45a9a6b40ce"
        assert archive_knowledge_fingerprint(V1_ARCHIVE) is None
        # No stage carries an archived fingerprint, so none is adopted;
        # the factors are derived from the restored U/V.
        assert sel.pipeline._memory == {}
        assert sel.source_factors.A.shape == (len(sel.sources), sel.latent_dim)
        assert (sel.label_width, sel.label_softness) == (0.05, 2)

    def test_missing_bundle_raises_validation_error(self, tmp_path):
        # A directory is not an archive: `.npz` is the one on-disk format.
        with pytest.raises(ValidationError, match="cannot read archive"):
            load_selector(tmp_path)


class TestWorkloadGenerator:
    def test_seeded_reproducibility(self):
        a = WorkloadGenerator(seed=3).sample_many(5)
        b = WorkloadGenerator(seed=3).sample_many(5)
        assert [w.name for w in a] == [w.name for w in b]
        assert [w.input_gb for w in a] == [w.input_gb for w in b]

    def test_archetype_constrains_profile(self):
        gen = WorkloadGenerator(seed=1)
        for _ in range(10):
            w = gen.sample(archetype="iterative-ml", framework="spark")
            assert w.demand.iterations >= 5
            assert w.demand.cacheable_fraction >= 0.8
            a = ARCHETYPES["iterative-ml"]
            assert a.compute_per_gb[0] <= w.demand.compute_per_gb <= a.compute_per_gb[1]

    def test_hive_samples_get_plans(self):
        gen = WorkloadGenerator(seed=2)
        w = gen.sample(framework="hive")
        assert w.sql_ops

    def test_generated_workloads_simulate_everywhere(self):
        gen = WorkloadGenerator(seed=4)
        for w in gen.sample_many(6):
            r = simulate_run(w, "m5.xlarge", with_timeseries=False)
            assert r.runtime_s > 0

    def test_unique_names(self):
        gen = WorkloadGenerator(seed=5)
        names = [w.name for w in gen.sample_many(20)]
        assert len(set(names)) == 20

    def test_unknown_archetype_rejected(self):
        with pytest.raises(ValidationError):
            WorkloadGenerator().sample(archetype="quantum")

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            WorkloadGenerator().sample_many(-1)

    def test_generated_selectable_by_vesta(self, fitted_vesta):
        w = WorkloadGenerator(seed=6).sample(archetype="iterative-ml", framework="spark")
        rec = fitted_vesta.select(w)
        assert rec.predicted_runtime_s > 0


class TestStats:
    def test_mape_equation7(self):
        pred = np.array([110.0, 90.0])
        truth = np.array([100.0, 100.0])
        assert mape(pred, truth) == pytest.approx(10.0)

    def test_mape_zero_for_perfect(self):
        x = np.array([3.0, 5.0, 7.0])
        assert mape(x, x) == 0.0

    def test_mape_validation(self):
        with pytest.raises(ValidationError):
            mape(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            mape(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValidationError):
            mape(np.array([]), np.array([]))

    def test_percentile_band_paper_default(self, rng):
        values = rng.normal(size=1000)
        lo, hi = percentile_band(values)
        assert lo < np.median(values) < hi

    def test_percentile_band_validation(self):
        with pytest.raises(ValidationError):
            percentile_band(np.array([]))
        with pytest.raises(ValidationError):
            percentile_band(np.array([1.0]), lo=80, hi=20)

    def test_bootstrap_ci_contains_mean(self, rng):
        values = rng.normal(5.0, 1.0, size=200)
        lo, hi = bootstrap_mean_ci(values, seed=1)
        assert lo < values.mean() < hi
        assert hi - lo < 1.0

    def test_bootstrap_ci_deterministic(self, rng):
        values = rng.normal(size=50)
        assert bootstrap_mean_ci(values, seed=2) == bootstrap_mean_ci(values, seed=2)

    @given(st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_mape_nonnegative_property(self, truth):
        t = np.array(truth)
        assert mape(t * 1.1, t) >= 0
        assert mape(t, t) == pytest.approx(0.0)
