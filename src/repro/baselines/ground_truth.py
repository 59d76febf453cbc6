"""Brute-force exhaustive search — the paper's ground-truth oracle.

Section 5.2: *"we first observe ground truth 'best' results by
exhaustively running workloads on 120 VM types"*.  :class:`GroundTruth`
runs every candidate VM type through the Data Collector's P90 protocol and
caches the response surfaces, providing the reference against which every
selector's MAPE is computed.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.catalog import ProviderCatalog, pricing_override, resolve_catalog
from repro.cloud.cluster import Cluster
from repro.cloud.faults import FaultPlan
from repro.cloud.vmtypes import VMType
from repro.core.artifacts import ArtifactStore
from repro.core.pipeline import shared_perf_rows
from repro.errors import ValidationError
from repro.telemetry.campaign import ProfileCache, ProfilingCampaign
from repro.workloads.spec import WorkloadSpec

__all__ = ["GroundTruth"]


class GroundTruth:
    """Exhaustive (workload × VM type) P90 runtime/budget surfaces.

    Surfaces are computed lazily per workload and cached; with the
    analytic simulator a full 100-type sweep costs tens of milliseconds,
    where the paper spent real EC2 hours — the one place the substitution
    buys tractability without changing semantics.

    When an :class:`~repro.core.artifacts.ArtifactStore` is shared with a
    fitted Vesta of the same campaign configuration and VM tuple, the
    surfaces are served from the stored PerfMatrix artifact — identical
    bytes, zero duplicate campaign runs.
    """

    def __init__(
        self,
        vms: tuple[VMType, ...] | None = None,
        *,
        repetitions: int = 10,
        seed: int = 0,
        cache: ProfileCache | str | None = None,
        faults: FaultPlan | None = None,
        store: ArtifactStore | str | None = None,
        catalog: ProviderCatalog | str | None = None,
    ) -> None:
        self.catalog = resolve_catalog(catalog)
        self.vms = self.catalog.vms if vms is None else tuple(vms)
        if not self.vms:
            raise ValidationError("need at least one VM type")
        self._pricing = pricing_override(self.catalog)
        self.campaign = ProfilingCampaign(
            repetitions=repetitions,
            seed=seed,
            cache=cache,
            faults=faults,
            catalog=self.catalog,
        )
        self.store = ArtifactStore(store) if isinstance(store, str) else store
        self._runtime_cache: dict[str, np.ndarray] = {}
        self._vm_index = {vm.name: i for i, vm in enumerate(self.vms)}

    def runtimes(self, spec: WorkloadSpec) -> np.ndarray:
        """P90 runtime of ``spec`` on every VM type (cached).

        Resolution order: the per-instance cache, a compatible PerfMatrix
        artifact from the shared store, then the profiling campaign.
        """
        if spec.name not in self._runtime_cache:
            row = shared_perf_rows(self.store, self.campaign, self.vms).get(spec.name)
            if row is None:
                row = self.campaign.runtime_matrix((spec,), self.vms)[0]
            self._runtime_cache[spec.name] = row
        return self._runtime_cache[spec.name]

    def budgets(self, spec: WorkloadSpec) -> np.ndarray:
        """P90 budget (USD) of ``spec`` on every VM type."""
        runtimes = self.runtimes(spec)
        return np.array(
            [
                Cluster(vm=vm, nodes=spec.nodes, pricing=self._pricing).budget(rt)
                for vm, rt in zip(self.vms, runtimes)
            ]
        )

    def surface(self, spec: WorkloadSpec, objective: str = "time") -> np.ndarray:
        """Runtime or budget surface, by objective name."""
        if objective == "time":
            return self.runtimes(spec)
        if objective == "budget":
            return self.budgets(spec)
        raise ValidationError(f"objective must be 'time' or 'budget', got {objective!r}")

    def best_vm(self, spec: WorkloadSpec, objective: str = "time") -> VMType:
        """The ground-truth best VM type under ``objective``."""
        return self.vms[int(np.argmin(self.surface(spec, objective)))]

    def best_value(self, spec: WorkloadSpec, objective: str = "time") -> float:
        """The ground-truth optimal runtime/budget."""
        return float(self.surface(spec, objective).min())

    def value_of(
        self, spec: WorkloadSpec, vm_name: str, objective: str = "time"
    ) -> float:
        """Ground-truth runtime/budget of a specific VM type."""
        try:
            idx = self._vm_index[vm_name]
        except KeyError:
            raise ValidationError(f"unknown VM type {vm_name!r}") from None
        return float(self.surface(spec, objective)[idx])

    def selection_error(
        self, spec: WorkloadSpec, vm_name: str, objective: str = "time"
    ) -> float:
        """Relative regret of picking ``vm_name``: (chosen − best) / best.

        This is the per-run quantity inside the paper's Equation 7 MAPE:
        the performance difference between the predicted and ground-truth
        best VM types, as a fraction of the ground truth.
        """
        best = self.best_value(spec, objective)
        chosen = self.value_of(spec, vm_name, objective)
        return (chosen - best) / best
