"""Shared, cached experiment fixtures and metrics.

Every experiment draws from the same seeded pipeline instances so results
are mutually consistent and the (simulated) offline profiling campaign
runs once per process.  The default seed (7) is arbitrary but fixed; all
EXPERIMENTS.md numbers use it.

Metrics
-------
``mape_vs_best``
    The paper's Equation 7 reading used for Figure 6: the absolute
    percentage gap between the system's *predicted result* (its predicted
    runtime at its chosen VM type) and the ground-truth best runtime.  It
    charges both a bad pick and a biased prediction — which is what makes
    Ernest's optimistic extrapolations on disk-bound Hadoop jobs score
    badly even when its argmax happens to be acceptable.
``selection_regret``
    Pure pick quality: (runtime at chosen VM − best runtime) / best.
    Used for the Figure 12/13 search progressions.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from repro.baselines.ernest import Ernest
from repro.baselines.ground_truth import GroundTruth
from repro.baselines.paris import Paris
from repro.cloud.faults import FaultPlan
from repro.core.artifacts import ArtifactStore
from repro.core.vesta import VestaSelector
from repro.workloads.catalog import training_set
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "DEFAULT_SEED",
    "campaign_options",
    "shared_store",
    "ground_truth",
    "fitted_vesta",
    "fitted_paris",
    "shared_ernest",
    "mape_vs_best",
    "selection_regret",
]

DEFAULT_SEED = 7


def campaign_options() -> dict:
    """Profiling-campaign options shared by every experiment fixture.

    Read from the environment so figure runners and the test suite can
    opt into persistence without touching call sites:

    - ``REPRO_PROFILE_CACHE`` — persistent profile-cache sqlite path
      (default: in-process memoization only);
    - ``REPRO_FAULT_*`` — fault-injection plan (see
      :meth:`repro.cloud.faults.FaultPlan.from_env`; default: none);
    - ``REPRO_ARTIFACT_STORE`` — stage-artifact store sqlite path for
      :func:`shared_store` (default: one in-memory store per process).

    The fixtures below are memoized **per resolved option set**: changing
    the environment mid-process builds fresh fixtures under the new
    options instead of silently serving ones fitted under the old.
    """
    return {
        "cache": os.environ.get("REPRO_PROFILE_CACHE") or None,
        "faults": FaultPlan.from_env(),
    }


def _options_key() -> tuple:
    """Hashable identity of the resolved environment options.

    Fixture memoization keys on this, so a fixture is only reused while
    the campaign options (and artifact-store path) that built it are
    still in force.
    """
    opts = campaign_options()
    return (
        opts["cache"],
        opts["faults"],
        os.environ.get("REPRO_ARTIFACT_STORE") or None,
        # Fixtures resolve the session-default provider catalog at build
        # time (REPRO_CATALOG); key on it so switching catalogs builds
        # fresh fixtures instead of serving ones fitted elsewhere.
        os.environ.get("REPRO_CATALOG") or None,
    )


def _options_from_key(key: tuple) -> dict:
    return {"cache": key[0], "faults": key[1]}


@lru_cache(maxsize=4)
def _store_for(key: tuple) -> ArtifactStore:
    return ArtifactStore(key[2] or ":memory:")


def shared_store() -> ArtifactStore:
    """The stage-artifact store every experiment fixture shares.

    One store per resolved option set: Vesta fits publish their stage
    artifacts here, the baselines read the PerfMatrix artifact back, and
    the sweep runners reuse unchanged stages across hyperparameter
    values.
    """
    return _store_for(_options_key())


def ground_truth(seed: int = DEFAULT_SEED) -> GroundTruth:
    """Cached exhaustive-search oracle."""
    return _ground_truth(seed, _options_key())


@lru_cache(maxsize=8)
def _ground_truth(seed: int, key: tuple) -> GroundTruth:
    return GroundTruth(seed=seed, store=_store_for(key), **_options_from_key(key))


def fitted_vesta(seed: int = DEFAULT_SEED, k: int = 9) -> VestaSelector:
    """Cached Vesta selector, offline-fitted on the Table-3 training set."""
    return _fitted_vesta(seed, k, _options_key())


@lru_cache(maxsize=8)
def _fitted_vesta(seed: int, k: int, key: tuple) -> VestaSelector:
    return VestaSelector(
        seed=seed, k=k, store=_store_for(key), **_options_from_key(key)
    ).fit()


def fitted_paris(seed: int = DEFAULT_SEED) -> Paris:
    """Cached PARIS baseline trained on the (Hadoop+Hive) training set."""
    return _fitted_paris(seed, _options_key())


@lru_cache(maxsize=8)
def _fitted_paris(seed: int, key: tuple) -> Paris:
    return Paris(seed=seed, store=_store_for(key), **_options_from_key(key)).fit(
        training_set()
    )


@lru_cache(maxsize=4)
def shared_ernest(seed: int = DEFAULT_SEED) -> Ernest:
    """Cached Ernest baseline (per-workload θ are cached inside)."""
    return Ernest(seed=seed)


def mape_vs_best(
    spec: WorkloadSpec,
    predicted_runtimes: np.ndarray,
    *,
    seed: int = DEFAULT_SEED,
) -> float:
    """Equation-7 MAPE (%): |predicted(t_pred) − T(t_best)| / T(t_best)."""
    gt = ground_truth(seed)
    predicted_runtimes = np.asarray(predicted_runtimes, dtype=float)
    best = gt.best_value(spec)
    chosen = float(predicted_runtimes[int(np.argmin(predicted_runtimes))])
    return abs(chosen - best) / best * 100.0


def selection_regret(
    spec: WorkloadSpec,
    vm_name: str,
    objective: str = "time",
    *,
    seed: int = DEFAULT_SEED,
) -> float:
    """Relative regret (%) of picking ``vm_name`` under ``objective``."""
    return ground_truth(seed).selection_error(spec, vm_name, objective) * 100.0
