"""PARIS baseline (Yadwadkar et al., SoCC '17), per the paper's Table 5.

PARIS predicts a workload's performance on every candidate VM type from

1. a **fingerprint**: the workload is run on a small fixed set of
   *reference* VM types, recording runtimes and low-level resource
   utilization statistics;
2. a **Random Forest** mapping (fingerprint, VM-type specs) → runtime,
   trained offline on benchmark workloads profiled across many VM types.

The paper's critique (Figure 2, Table 5) is that this mapping is learned
from *low-level metrics within a framework*: a forest trained on Hadoop
and Hive workloads mispredicts Spark workloads because the same
fingerprint implies different scaling behaviour under a different engine.
:class:`Paris` reproduces both modes:

- **transferred**: ``fit(source_workloads)`` then ``predict`` on Spark —
  the fragile reuse of Figure 2;
- **from scratch**: ``fit(spark_workloads)`` — accurate but requiring the
  new framework to be profiled across the full VM catalog, the 100
  reference-VM overhead of Figure 8.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.random_forest import RandomForestRegressor
from repro.cloud.catalog import ProviderCatalog, reference_spread, resolve_catalog
from repro.cloud.faults import FaultPlan
from repro.cloud.vmtypes import VMType
from repro.core.artifacts import ArtifactStore
from repro.core.pipeline import shared_perf_rows
from repro.errors import CatalogError, ValidationError
from repro.telemetry.campaign import ProfilingCampaign
from repro.telemetry.metrics import METRIC_INDEX
from repro.workloads.spec import WorkloadSpec

__all__ = ["Paris", "DEFAULT_REFERENCE_VMS"]

#: Default fingerprint reference VM types: two shapes per PARIS's protocol
#: extended to four to span the catalog's resource axes.
DEFAULT_REFERENCE_VMS: tuple[str, ...] = (
    "m5.large",
    "c5.2xlarge",
    "r5.xlarge",
    "i3.2xlarge",
)

#: Low-level utilization statistics folded into the fingerprint.
_FINGERPRINT_METRICS: tuple[str, ...] = (
    "cpu_user",
    "cpu_wait",
    "mem_used",
    "mem_cache",
    "disk_util",
    "net_send",
)


class Paris:
    """Random-Forest VM-type predictor over fingerprint + VM specs.

    Parameters
    ----------
    vms:
        Candidate VM types to rank.
    reference_vms:
        Names of the fingerprint reference VM types.  ``None`` picks the
        EC2 defaults when the catalog has them, else a deterministic
        family spread of the candidates.
    catalog:
        Provider catalog (name, instance, or ``None`` for the default).
    n_estimators:
        Forest size.
    repetitions:
        Data Collector repetitions for fingerprinting/training runs.
    seed:
        Master seed.
    faults:
        Optional fault-injection plan (see
        :class:`~repro.telemetry.campaign.ProfilingCampaign`).
    store:
        Optional :class:`~repro.core.artifacts.ArtifactStore` (or path)
        shared with a fitted Vesta: training label rows and reference-VM
        runtimes covered by a compatible PerfMatrix artifact are served
        from the store instead of re-running the campaign.
    """

    def __init__(
        self,
        vms: tuple[VMType, ...] | None = None,
        *,
        reference_vms: tuple[str, ...] | None = None,
        n_estimators: int = 40,
        repetitions: int = 10,
        seed: int = 0,
        faults: FaultPlan | None = None,
        store: ArtifactStore | str | None = None,
        catalog: ProviderCatalog | str | None = None,
    ) -> None:
        self.catalog = resolve_catalog(catalog)
        self.vms = self.catalog.vms if vms is None else tuple(vms)
        if not self.vms:
            raise ValidationError("need at least one VM type")
        if reference_vms is not None and not reference_vms:
            raise ValidationError("need at least one reference VM")
        if reference_vms is None:
            # EC2's four-shape reference set when the catalog has those
            # names; otherwise a deterministic family spread.
            try:
                self.reference_vms = tuple(
                    self.catalog.get(n) for n in DEFAULT_REFERENCE_VMS
                )
            except CatalogError:
                self.reference_vms = reference_spread(
                    self.vms, len(DEFAULT_REFERENCE_VMS)
                )
        else:
            self.reference_vms = tuple(self.catalog.get(n) for n in reference_vms)
        self.campaign = ProfilingCampaign(
            repetitions=repetitions,
            seed=seed,
            faults=faults,
            catalog=self.catalog,
        )
        self.store = ArtifactStore(store) if isinstance(store, str) else store
        self.seed = seed
        self._forest = RandomForestRegressor(n_estimators=n_estimators, seed=seed)
        self._fitted = False
        self._vm_index = {vm.name: i for i, vm in enumerate(self.vms)}
        # Log-scaled VM spec features; precomputed once.
        self._vm_features = np.log1p(
            np.vstack([vm.spec_vector() for vm in self.vms])
        )

    # -- fingerprinting -----------------------------------------------------------

    @property
    def reference_vm_count(self) -> int:
        """Runs of a *new* workload needed before prediction (Figure 8)."""
        return len(self.reference_vms)

    def fingerprint(self, spec: WorkloadSpec) -> np.ndarray:
        """Run ``spec`` on the reference VMs and build its feature vector.

        Components: log-runtimes on the reference VMs, runtime ratios
        (shape of the response), and mean low-level utilizations from the
        first reference run — the "low-level metrics" the paper says do
        not transfer across frameworks.  The first reference needs a full
        profile (timeseries); the remaining runtime-only references are
        served from a shared PerfMatrix artifact when one covers them.
        """
        shared_row = shared_perf_rows(self.store, self.campaign, self.vms).get(
            spec.name
        )
        self._prefetch_fingerprints([(spec, shared_row)])
        profile = self.campaign.collect(spec, self.reference_vms[0])
        runtimes = [profile.runtime_p90]
        for vm in self.reference_vms[1:]:
            if shared_row is not None and vm.name in self._vm_index:
                runtimes.append(float(shared_row[self._vm_index[vm.name]]))
            else:
                runtimes.append(self.campaign.runtime_only(spec, vm))
        runtimes = np.asarray(runtimes)
        cols = [METRIC_INDEX[m] for m in _FINGERPRINT_METRICS]
        utils = profile.timeseries[:, cols].mean(axis=0)
        return np.concatenate(
            [np.log(runtimes), runtimes / runtimes[0], np.log1p(utils)]
        )

    def _prefetch_fingerprints(self, pairs) -> None:
        """Batch fingerprint reference runs into one campaign wave.

        ``pairs`` is ``(spec, shared_row)`` per workload; cells a shared
        PerfMatrix artifact already covers are skipped, the rest — the
        full profile on the first reference VM plus the runtime-only
        remainder — go through the campaign's vectorized batch path, so
        the :meth:`fingerprint` calls that follow are memo hits.
        """
        cells: list[tuple[WorkloadSpec, VMType, bool]] = []
        for spec, shared_row in pairs:
            cells.append((spec, self.reference_vms[0], False))
            for vm in self.reference_vms[1:]:
                if not (shared_row is not None and vm.name in self._vm_index):
                    cells.append((spec, vm, True))
        if cells:
            self.campaign.prefetch(cells)

    def _rows_for(
        self, fingerprint: np.ndarray
    ) -> np.ndarray:
        """Stack (fingerprint ⊕ vm spec) rows for every candidate VM."""
        fp = np.broadcast_to(fingerprint, (len(self.vms), fingerprint.size))
        return np.hstack([fp, self._vm_features])

    # -- training -----------------------------------------------------------------------

    def fit(self, workloads: tuple[WorkloadSpec, ...]) -> "Paris":
        """Train the forest on ``workloads`` profiled across every VM type.

        Each training workload contributes ``len(vms)`` rows: its
        fingerprint concatenated with one VM's specs, labelled with the
        log P90 runtime on that VM.
        """
        if not workloads:
            raise ValidationError("need at least one training workload")
        X_rows: list[np.ndarray] = []
        y_rows: list[np.ndarray] = []
        # Label rows covered by a shared PerfMatrix artifact are reused
        # verbatim (the campaign is deterministic, so the bytes match);
        # only the remainder is profiled.
        shared = shared_perf_rows(self.store, self.campaign, self.vms)
        rows = {name: row for name, row in shared.items()}
        missing = tuple(spec for spec in workloads if spec.name not in rows)
        if missing:
            for spec, row in zip(
                missing, self.campaign.runtime_matrix(missing, self.vms)
            ):
                rows[spec.name] = row
        label_matrix = np.vstack([rows[spec.name] for spec in workloads])
        self._prefetch_fingerprints(
            [(spec, shared.get(spec.name)) for spec in workloads]
        )
        for spec, runtimes in zip(workloads, label_matrix):
            fp = self.fingerprint(spec)
            X_rows.append(self._rows_for(fp))
            y_rows.append(np.log(runtimes))
        self._forest.fit(np.vstack(X_rows), np.concatenate(y_rows))
        self._fitted = True
        return self

    # -- prediction ------------------------------------------------------------------------

    def predict_runtimes(self, spec: WorkloadSpec) -> np.ndarray:
        """Predicted P90 runtime of ``spec`` on every candidate VM."""
        if not self._fitted:
            raise ValidationError("Paris is not fitted; call fit() first")
        fp = self.fingerprint(spec)
        return np.exp(self._forest.predict(self._rows_for(fp)))

    def select(self, spec: WorkloadSpec, objective: str = "time") -> str:
        """Best VM-type name under ``objective``."""
        runtimes = self.predict_runtimes(spec)
        if objective == "time":
            scores = runtimes
        elif objective == "budget":
            prices = self.catalog.pricing.rates_array(self.vms)
            scores = runtimes * prices * spec.nodes
        else:
            raise ValidationError(
                f"objective must be 'time' or 'budget', got {objective!r}"
            )
        return self.vms[int(np.argmin(scores))].name
