"""Vesta: offline knowledge abstraction + online transfer-learning selection.

:class:`VestaSelector` is Algorithm 1 end to end.

**Offline** (:meth:`VestaSelector.fit`, Section 4.1):

1. run every source workload on every VM type with the Data Collector
   (P90-of-10 runtimes) → performance matrix P;
2. profile each source workload's 20-metric time series on a spread of VM
   types and reduce to its 10 correlation similarities (Table 1);
3. PCA-rank the correlations and keep the important ones (Figure 9);
4. discretize into 0.05-interval labels → source workload-label matrix U
   (Equation 3 / the bipartite graph's blue edges);
5. compute per-(VM, workload) *near-best* scores from P, aggregate them
   through U into the raw label-VM affinities, and smooth with a k=9
   K-Means over VM types (Figure 11) → label-VM matrix V.

**Online** (:meth:`VestaSelector.online` / :meth:`VestaSelector.select`,
Section 4.2):

1. run the target once on a sandbox VM (correlation vector) and on 3
   random probe VMs (runtime anchors);
2. build the sparse target row U* and complete it with CMF (λ = 0.75)
   against the shared U/V knowledge;
3. predict the full VM-response curve by similarity + probe scaling and
   pick the best VM for the requested objective (time or budget).

Non-convergent CMF (the paper's Spark-CF case) falls back to the raw
sandbox-estimated row, mirroring the paper's converge limitation.
"""

from __future__ import annotations

import zlib
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.correlation import (
    CORRELATION_NAMES,
    aggregate_correlation_vectors,
    correlation_vector,
)
from repro.analysis.intervals import INTERVAL_WIDTH
from repro.cloud.catalog import ProviderCatalog, resolve_catalog
from repro.cloud.faults import FaultEvent, FaultPlan
from repro.cloud.vmtypes import SIZE_LADDER, VMType
from repro.core.artifacts import ArtifactStore, content_fingerprint
from repro.core.caching import LRUCache
from repro.core.cmf import CMF, CMFResult
from repro.core.pipeline import NEAR_BEST_TAU, KnowledgePipeline
from repro.core.sandbox import choose_probe_vms, choose_sandbox_vm
from repro.errors import ProbeFailedError, ValidationError
from repro.telemetry.campaign import ProfileCache, ProfilingCampaign, outcome_value
from repro.workloads.catalog import training_set
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "VestaSelector",
    "OnlineSession",
    "Recommendation",
    "Predictions",
    "NEAR_BEST_TAU",
]

#: Hyperparameters :meth:`VestaSelector.refit` may change.  Everything
#: that defines the profiling campaign itself (seed, repetitions, VM and
#: source sets, fault plan) is fixed at construction: changing those is a
#: new selector, not a refit.
REFIT_PARAMS: frozenset[str] = frozenset(
    {
        "k",
        "lam",
        "latent_dim",
        "keep_mass",
        "probes",
        "correlation_probe_count",
        "top_m",
        "temperature",
        "match_threshold",
        "affinity_weight",
        "label_width",
        "label_softness",
        "cmf_mode",
    }
)


def _probe_plan(
    selector: "VestaSelector", spec: WorkloadSpec
) -> tuple[VMType, tuple[VMType, ...]]:
    """Deterministic sandbox + probe VM choice for one target workload.

    :meth:`VestaSelector.online_many` computes it once per target, reads
    the target's cells in its wave and hands plan and outcomes to the
    session; :meth:`VestaSelector.online` is a wave of one.  So a batch
    profiles exactly the cells a sequence of individual sessions would.
    """
    sandbox = choose_sandbox_vm(spec, selector.vms)
    # zlib.crc32, not hash(): Python string hashing is randomized per
    # process and would make probe choices unreproducible.
    probe_seed = selector.seed ^ zlib.crc32(spec.name.encode())
    probes = choose_probe_vms(
        spec,
        count=selector.probes,
        seed=probe_seed,
        vms=selector.vms,
        exclude=(sandbox.name,),
    )
    return sandbox, probes


class Predictions(Mapping):
    """Read-only ``{vm_name: predicted runtime}`` in catalog order.

    A view over a session's frozen runtime array and its selector's
    VM-name tuple, so a served :class:`Recommendation` holds one array
    instead of a dict of Python floats.  Values read as ``float``;
    :meth:`items` and :meth:`values` read the array with one ``tolist()``,
    so ``dict(predictions.items())`` costs no per-VM lookup.
    """

    __slots__ = ("_names", "_runtimes")

    def __init__(self, names: tuple[str, ...], runtimes: np.ndarray) -> None:
        self._names = names
        self._runtimes = runtimes

    def __getitem__(self, name: str) -> float:
        try:
            return self._runtimes.item(self._names.index(name))
        except ValueError:
            raise KeyError(name) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def _as_dict(self) -> dict[str, float]:
        return dict(zip(self._names, self._runtimes.tolist()))

    def items(self) -> ItemsView[str, float]:
        return self._as_dict().items()

    def values(self) -> ValuesView[float]:
        return self._as_dict().values()

    def __reduce__(self):
        return type(self), (self._names, self._runtimes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._as_dict()!r})"


@dataclass(frozen=True)
class Recommendation:
    """Outcome of one online selection.

    ``predictions`` maps every catalog VM, in catalog order, to its
    predicted P90 runtime in seconds: a read-only :class:`Predictions`
    over the session's runtime array (a wire round trip gives a plain
    dict, which compares equal).
    ``reference_vm_count`` is the training-overhead currency of Figure 8:
    how many distinct VM types the target workload was actually run on.
    ``degraded`` flags a selection that survived permanent probe failures
    by proceeding with the surviving observations (down to sandbox-only);
    ``failed_probes`` names the lost probes.  ``fault_events`` are the
    fault events of the runs the session observed — sandbox, probes,
    then each :meth:`~OnlineSession.observe`/:meth:`~OnlineSession.step`
    read, in that order — whichever wave ran them, so a served answer
    equals a fresh :meth:`VestaSelector.select`.  A cell served from the
    persistent profile cache contributes none: the cache stores values
    only.
    """

    workload: str
    objective: str
    vm_name: str
    predicted_runtime_s: float
    predicted_budget_usd: float
    reference_vm_count: int
    converged: bool
    predictions: Mapping[str, float] = field(repr=False)
    degraded: bool = False
    failed_probes: tuple[str, ...] = ()
    fault_events: tuple[FaultEvent, ...] = field(default=(), repr=False)


class OnlineSession:
    """Online predicting state for one target workload (Section 4.2).

    Created via :meth:`VestaSelector.online_many` (or
    :meth:`VestaSelector.online`, a wave of one), which reads the
    sandbox and probe cells in one campaign wave, hands each session its
    own cells' ``(outcome, fault_events)`` and completes the rows
    together.  Holds the probe observations, the CMF-completed
    workload-label row, the fault events of the runs it observed, and
    exposes incremental refinement: :meth:`observe` adds a measured VM,
    :meth:`step` greedily measures the current predicted-best VM —
    the search progression plotted in Figures 12/13.

    **Graceful degradation.**  Under an enabled fault plan a probe run
    can fail permanently; the session then proceeds with the surviving
    probes (down to sandbox-only) instead of crashing: the knowledge
    match threshold is widened proportionally to the surviving probe
    fraction (fewer anchors → accept weaker source matches rather than
    refuse to recommend) and the resulting :class:`Recommendation` is
    stamped ``degraded=True`` with the fault log attached.  Only a
    permanently failed *sandbox* run — the one observation nothing can
    substitute for — still raises :class:`ProbeFailedError`.
    """

    def __init__(
        self,
        selector: "VestaSelector",
        spec: WorkloadSpec,
        plan: tuple[VMType, tuple[VMType, ...]],
        outcomes,
    ) -> None:
        self._sel = selector
        self.spec = spec
        self.sandbox_vm, self.probe_vms = plan
        self.observations: dict[str, float] = {}
        self.converged = True
        self.degraded = False
        self.failed_probes: tuple[str, ...] = ()
        self.effective_match_threshold = selector.match_threshold
        self._failed_observations: set[str] = set()
        self._events: list[FaultEvent] = []
        self._row: np.ndarray | None = None
        self._predicted_runtimes: np.ndarray | None = None
        self._predicted_budgets: np.ndarray | None = None
        self._collect_observations(outcomes)

    # -- initialization -----------------------------------------------------------

    def _collect_observations(self, outcomes) -> None:
        """Adopt the sandbox + probe outcomes: build the sparse target row.

        ``outcomes`` holds the campaign's ``(outcome, fault_events)`` for
        the sandbox cell, then for each probe cell.
        """
        sel = self._sel
        (profile, events), *probes = outcomes
        self._events.extend(events)
        profile = outcome_value(profile)
        corr = sel.signature_from_profile(profile)
        self.correlation_vector = corr
        self.observations[self.sandbox_vm.name] = profile.runtime_p90
        failed: list[str] = []
        for vm, (runtime, events) in zip(self.probe_vms, probes):
            self._events.extend(events)
            if isinstance(runtime, ProbeFailedError):
                # Permanently lost probe: proceed with the survivors.
                failed.append(vm.name)
            else:
                self.observations[vm.name] = outcome_value(runtime)
        self.failed_probes = tuple(failed)
        self._failed_observations.update(failed)
        if failed:
            self.degraded = True
            surviving = len(self.probe_vms) - len(failed)
            self.effective_match_threshold = sel.match_threshold * (
                surviving / len(self.probe_vms)
            )
        self._sparse_row = sel.label_space.membership(corr)
        self._mask = (self._sparse_row > 0).astype(float)

    def _complete_row(self, result: CMFResult) -> None:
        """Adopt one completed-row CMF result (full fit or fold-in)."""
        sel = self._sel
        sparse_row = self._sparse_row
        # Knowledge-match score: how similar the completed target row is to
        # its nearest source workload in label space.  An outlier target
        # (the paper's Spark-CF) has no matching source knowledge — the
        # paper reports this as SGD non-convergence and stops the online
        # process at a converge limitation.
        completed_raw = np.maximum(result.completed_ustar[0], 0.0)
        query = completed_raw if completed_raw.sum() > 0 else sparse_row
        sims = sel.predictor.similarities(query)
        self.knowledge_match = float(sims.max()) if sims.size else 0.0
        self.converged = (
            result.converged
            and self.knowledge_match >= self.effective_match_threshold
        )
        if self.converged and completed_raw.sum() > 0:
            # CMF output lives in reconstruction space; the clipped
            # reconstruction is the completed membership row.
            self._row = completed_raw
        else:
            # The paper's Spark-CF case: stop the online process at the
            # converge limitation and use the raw sandbox estimate.
            self._row = sparse_row
            self.converged = False
        self.cmf_result = result
        self._invalidate_predictions()

    # -- predictions -------------------------------------------------------------------

    @property
    def completed_row(self) -> np.ndarray:
        if self._row is None:
            raise ValidationError("online session is not initialized")
        return self._row

    @property
    def reference_vm_count(self) -> int:
        """Distinct VM types this target has been run on (Figure 8)."""
        return len(self.observations)

    @property
    def fault_events(self) -> tuple[FaultEvent, ...]:
        """Fault events of the runs this session observed, in read order.

        Sandbox, probes, then each :meth:`observe` read; a cell the
        persistent profile cache served carries none.
        """
        return tuple(self._events)

    def _invalidate_predictions(self) -> None:
        """Drop memoized prediction vectors (new observation or new row)."""
        self._predicted_runtimes = None
        self._predicted_budgets = None

    def predict_runtimes(self) -> np.ndarray:
        """Predicted P90 runtime on every catalog VM (observed = measured).

        Blends the probe-calibrated source-profile transfer with the
        bipartite graph's label→VM affinity path (see
        :meth:`SimilarityPredictor.predict`).  The vector is memoized —
        :meth:`recommend` and the :meth:`step` loops reuse it — and
        invalidated whenever a new observation changes the inputs.
        """
        if self._predicted_runtimes is None:
            sel = self._sel
            vm_index = sel._vm_index
            idx = np.fromiter(
                (vm_index[n] for n in self.observations),
                dtype=int,
                count=len(self.observations),
            )
            obs = np.fromiter(
                self.observations.values(), dtype=float, count=len(self.observations)
            )
            affinity = sel.V @ self.completed_row
            pred = sel.predictor.predict(
                self.completed_row,
                idx,
                obs,
                affinity=affinity,
                affinity_tau=NEAR_BEST_TAU,
                affinity_weight=sel.affinity_weight,
            )
            pred.setflags(write=False)
            self._predicted_runtimes = pred
        return self._predicted_runtimes

    def predict_runtime(self, vm: VMType | str) -> float:
        """Predicted runtime on one VM type (Figure 7's quantity)."""
        name = vm if isinstance(vm, str) else vm.name
        return float(self.predict_runtimes()[self._sel.vm_index(name)])

    def predict_budgets(self) -> np.ndarray:
        """Predicted budget (USD) on every catalog VM.

        Vectorized over the selector's precomputed rate and billing-floor
        arrays — the arithmetic matches
        :func:`repro.cloud.pricing.budget_for_runtime` under the
        catalog's pricing rule bit for bit (for EC2 the floor array is
        the historical :data:`MIN_BILLED_SECONDS` constant broadcast).
        """
        if self._predicted_budgets is None:
            runtimes = self.predict_runtimes()
            billed = np.maximum(runtimes, self._sel._billing_increments)
            budgets = (self._sel._prices * self.spec.nodes) * billed / 3600.0
            budgets.setflags(write=False)
            self._predicted_budgets = budgets
        return self._predicted_budgets

    # -- refinement --------------------------------------------------------------------

    def observe(self, vm: VMType | str) -> float:
        """Measure the target on ``vm`` and fold it into the predictions.

        Raises :class:`ProbeFailedError` when the run fails permanently
        under the active fault plan.
        """
        name = vm if isinstance(vm, str) else vm.name
        index = self._sel.vm_index(name)  # validates once, reused below
        if name not in self.observations:
            ((runtime, events),) = self._sel.campaign.prefetch(
                [(self.spec, self._sel.vms[index], True)]
            )
            self._events.extend(events)
            if isinstance(runtime, ProbeFailedError):
                self._failed_observations.add(name)
                self.degraded = True
            self.observations[name] = outcome_value(runtime)
            self._invalidate_predictions()
        return self.observations[name]

    def step(self, objective: str = "time") -> tuple[str, float]:
        """Greedy search step: measure the predicted-best unobserved VM.

        Returns ``(vm_name, observed_runtime)``.  Repeated calls trace the
        Figure 12/13 optimization progressions.  VMs whose measurement
        fails permanently under the fault plan are skipped (the session
        degrades) and the next-best candidate is measured instead.
        """
        scores = self._objective_scores(objective)
        order = np.argsort(scores)
        for i in order:
            name = self._sel.vms[i].name
            if name in self.observations or name in self._failed_observations:
                continue
            try:
                return name, self.observe(name)
            except ProbeFailedError:
                continue
        raise ValidationError("all VM types already observed or permanently failed")

    def _objective_scores(self, objective: str) -> np.ndarray:
        if objective == "time":
            return self.predict_runtimes()
        if objective == "budget":
            return self.predict_budgets()
        raise ValidationError(f"objective must be 'time' or 'budget', got {objective!r}")

    def recommend(self, objective: str = "time") -> Recommendation:
        """Current best VM under ``objective``."""
        runtimes = self.predict_runtimes()
        scores = self._objective_scores(objective)  # memo hit for "time"
        best = int(np.argmin(scores))
        vm = self._sel.vms[best]
        budget = float(self.predict_budgets()[best])
        return Recommendation(
            workload=self.spec.name,
            objective=objective,
            vm_name=vm.name,
            predicted_runtime_s=float(runtimes[best]),
            predicted_budget_usd=budget,
            reference_vm_count=self.reference_vm_count,
            converged=self.converged,
            predictions=Predictions(self._sel._vm_names, runtimes),
            degraded=self.degraded,
            failed_probes=self.failed_probes,
            fault_events=self.fault_events,
        )


class VestaSelector:
    """The Vesta system: offline knowledge + online VM-type selection.

    Parameters
    ----------
    vms:
        Candidate VM types (default: the full Table-4 catalog).
    sources:
        Source workloads used to abstract knowledge (default: the 13
        Table-3 training workloads).
    k:
        K-Means cluster count over VM types (the paper tunes to 9).
    lam:
        CMF λ tradeoff (paper best practice: 0.75).
    latent_dim:
        CMF latent feature count *g*.
    keep_mass:
        PCA-importance mass retained by feature selection.
    probes:
        Random probe VMs for online initialization (paper: 3).
    repetitions:
        Data Collector repetitions per (workload, VM) pair (paper: 10).
    correlation_probe_count:
        VM types per source workload used to estimate correlation
        signatures (time-series collection is the expensive part; the
        median over a family-spread subset is statistically equivalent).
    top_m, temperature:
        Similarity-predictor blending knobs.
    match_threshold:
        Minimum knowledge-match score (nearest-source similarity of the
        completed target row) below which the online phase declares the
        target non-convergent, per the paper's Spark-CF converge
        limitation.
    affinity_weight:
        Log-space weight of the label→VM affinity path in runtime
        prediction (0 = profile transfer only, 1 = affinity only).
    label_width, label_softness:
        Interval width (paper: 0.05) and soft-membership kernel radius of
        the label universe (see :class:`~repro.core.labels.LabelSpace`).
    cmf_mode:
        How online sessions complete the sparse target row.  ``"full"``
        (default) re-runs the full collective factorization per target —
        the paper-faithful reproduction path, bit-identical to every
        historical experiment.  ``"foldin"`` freezes the offline
        ``source_factors`` stage (U ≈ A Lᵀ, V ≈ B Lᵀ, computed once at
        :meth:`fit` time) and solves each target row as an exact
        closed-form masked ridge fold-in against L — the low-latency
        serving path.
    seed:
        Master seed for every stochastic component.
    cache:
        Persistent profile cache — a sqlite path or a ready
        :class:`~repro.telemetry.campaign.ProfileCache`; ``None`` keeps
        memoization in-process only.
    faults:
        Optional :class:`~repro.cloud.faults.FaultPlan` injected into the
        profiling campaign.  The default fault-free plan leaves every
        result bit-identical; an enabled plan exercises the retry and
        online-degradation paths (see :class:`OnlineSession`).
    store:
        Optional :class:`~repro.core.artifacts.ArtifactStore` (or sqlite
        path) holding content-addressed stage artifacts.  :meth:`fit`
        reuses any stored stage whose fingerprint matches and persists
        the stages it computes, so fitted knowledge is shared across
        processes and :meth:`refit` sweeps stay warm across runs.
    catalog:
        :class:`~repro.cloud.catalog.ProviderCatalog` (or registry name)
        supplying the default VM set, the billing rule for budget
        predictions, and — for spot catalogs — the deterministic
        interruption fault plan.  Defaults to ``REPRO_CATALOG`` / the
        EC2 Table-4 catalog, which is bit-identical to the pre-catalog
        selector; non-default catalogs are stamped into stage
        fingerprints and archives.
    """

    def __init__(
        self,
        vms: tuple[VMType, ...] | None = None,
        sources: tuple[WorkloadSpec, ...] | None = None,
        *,
        k: int = 9,
        lam: float = 0.75,
        latent_dim: int = 8,
        keep_mass: float = 0.8,
        probes: int = 3,
        repetitions: int = 10,
        correlation_probe_count: int = 8,
        top_m: int = 8,
        temperature: float = 0.3,
        match_threshold: float = 0.35,
        affinity_weight: float = 0.25,
        label_width: float = INTERVAL_WIDTH,
        label_softness: int = 2,
        cmf_mode: str = "full",
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
        self.sources = training_set() if sources is None else tuple(sources)
        if not self.sources:
            raise ValidationError("need at least one source workload")
        self._validate_hyperparams(
            k=k,
            probes=probes,
            correlation_probe_count=correlation_probe_count,
            label_width=label_width,
            label_softness=label_softness,
            cmf_mode=cmf_mode,
        )
        self.k = k
        self.lam = lam
        self.latent_dim = latent_dim
        self.keep_mass = keep_mass
        self.probes = probes
        self.correlation_probe_count = correlation_probe_count
        self.top_m = top_m
        self.temperature = temperature
        self.match_threshold = match_threshold
        self.affinity_weight = affinity_weight
        self.label_width = label_width
        self.label_softness = label_softness
        self.cmf_mode = cmf_mode
        self.seed = seed
        self.campaign = ProfilingCampaign(
            repetitions=repetitions,
            seed=seed,
            cache=cache,
            faults=faults,
            catalog=self.catalog,
        )
        if store is None or isinstance(store, ArtifactStore):
            self.store = store
        else:
            self.store = ArtifactStore(str(store))
        self.pipeline = KnowledgePipeline(self)

        self._vm_names = tuple(vm.name for vm in self.vms)
        self._vm_index = {name: i for i, name in enumerate(self._vm_names)}
        # Effective hourly rates and billing floors under the catalog's
        # pricing rule; for the default EC2 catalog these are exactly the
        # list prices and the 60 s constant (bitwise).
        self._prices = self.catalog.pricing.rates_array(self.vms)
        self._billing_increments = self.catalog.pricing.increments_array(self.vms)
        #: Lifecycle-promoted sources (see :meth:`promote`); empty until
        #: the knowledge lifecycle grows this selector's knowledge.
        self.promotions: tuple = ()
        self._fitted = False

    @staticmethod
    def _validate_hyperparams(**params) -> None:
        """Shared precondition checks for ``__init__`` and :meth:`refit`."""
        checks = {
            "k": lambda v: v >= 1,
            "probes": lambda v: v >= 0,
            "correlation_probe_count": lambda v: v >= 1,
            "label_width": lambda v: 0 < v <= 2.0,
            "label_softness": lambda v: v >= 0,
            "keep_mass": lambda v: 0 < v <= 1.0,
            "cmf_mode": lambda v: v in ("full", "foldin"),
        }
        bounds = {
            "k": "k must be >= 1",
            "probes": "probes must be >= 0",
            "correlation_probe_count": "correlation_probe_count must be >= 1",
            "label_width": "label_width must be in (0, 2]",
            "label_softness": "label_softness must be >= 0",
            "keep_mass": "keep_mass must be in (0, 1]",
            "cmf_mode": "cmf_mode must be 'full' or 'foldin'",
        }
        for name, value in params.items():
            if name in checks and not checks[name](value):
                raise ValidationError(bounds[name])

    # -- helpers ----------------------------------------------------------------

    def _cmf(self) -> CMF:
        """The CMF instance shared by offline factorization and online
        completion — one construction site so both halves agree on every
        hyperparameter."""
        return CMF(latent_dim=self.latent_dim, lam=self.lam, seed=self.seed)

    def _foldin_operator_cache(self, factors) -> LRUCache:
        """Mask-keyed gram-matrix cache scoped to one ``source_factors``.

        The gram ``(μ LᵀdiagₘL + reg·I)`` depends only on the probe mask
        once L and the hyperparameters are fixed, and both are frozen
        inside the ``source_factors`` artifact's lifetime — so the cache
        is held next to (and invalidated with) that artifact: a refit or
        hot-reload produces a new factors object and thereby an empty
        cache, by construction.  Steady-state serving sees a handful of
        distinct masks (one per probe plan), so 256 entries is generous.
        """
        held = getattr(self, "_foldin_ops", None)
        if held is None or held[0] is not factors:
            held = (factors, LRUCache(maxsize=256))
            self._foldin_ops = held
        return held[1]

    def foldin_cache_stats(self) -> dict | None:
        """Counters of the fold-in operator cache; ``None`` before first use."""
        held = getattr(self, "_foldin_ops", None)
        return None if held is None else held[1].stats()

    def complete_rows(
        self, rows: np.ndarray, masks: np.ndarray
    ) -> tuple[CMFResult, ...]:
        """Complete sparse target rows per the selector's ``cmf_mode``.

        ``"full"`` re-runs the collective factorization per row (the
        reproduction path, bit-identical to the historical inline fit);
        ``"foldin"`` solves all rows in one exact closed-form batch
        against the offline ``source_factors`` stage.  Fold-in rows are
        independent, so batch and one-at-a-time completion agree bit for
        bit.
        """
        rows = np.asarray(rows, dtype=float)
        masks = np.asarray(masks, dtype=float)
        if rows.ndim != 2 or masks.shape != rows.shape:
            raise ValidationError(
                f"rows {rows.shape} and masks {masks.shape} must be "
                "matching 2-D arrays"
            )
        if self.cmf_mode == "foldin":
            factors = getattr(self, "source_factors", None)
            if factors is None:
                raise ValidationError(
                    "cmf_mode='foldin' needs the offline source_factors "
                    "stage; call fit() first"
                )
            astar = self._cmf().fold_in(
                factors.L,
                rows,
                masks,
                operator_cache=self._foldin_operator_cache(factors),
            )
            return tuple(
                CMFResult(
                    A=factors.A,
                    B=factors.B,
                    Astar=astar[i : i + 1],
                    L=factors.L,
                    objective_history=np.empty(0),
                    converged=factors.converged,
                )
                for i in range(rows.shape[0])
            )
        return tuple(
            self._cmf().fit(self.U, self.V, rows[i : i + 1], masks[i : i + 1])
            for i in range(rows.shape[0])
        )

    def vm_index(self, name: str) -> int:
        try:
            return self._vm_index[name]
        except KeyError:
            raise ValidationError(f"VM type {name!r} not in this selector's set") from None

    @staticmethod
    def _mid_size_key(vm: VMType) -> tuple[int, int, str]:
        # Prefer mid-size shapes: they exercise all resources without
        # degenerate (always-saturated or always-idle) series.  Ranking
        # by ladder distance from xlarge (ties broken by ladder position,
        # then name) is a total order, so the pick per family cannot
        # depend on the iteration order of the candidate set.
        ladder = list(SIZE_LADDER)
        mid = ladder.index("xlarge")
        pos = ladder.index(vm.size) if vm.size in ladder else mid
        return (abs(pos - mid), pos, vm.name)

    def _corr_probe_vms(self) -> tuple[VMType, ...]:
        """Family-spread VM subset for correlation-signature profiling.

        Picks one mid-size VM per family, then an evenly spaced subset of
        exactly ``correlation_probe_count`` families.  When the candidate
        set has fewer families than that, the subset is topped up with
        the next-most-mid-size VMs of the already-used families, so the
        requested size is met whenever ``len(self.vms)`` allows.
        """
        count = self.correlation_probe_count
        per_family: dict[str, VMType] = {}
        for vm in self.vms:
            best = per_family.get(vm.family)
            if best is None or self._mid_size_key(vm) < self._mid_size_key(best):
                per_family[vm.family] = vm
        spread = sorted(per_family.values(), key=lambda v: v.name)
        if len(spread) >= count:
            # Evenly spaced family subset; linspace over the sorted spread
            # yields exactly `count` distinct indices covering both ends.
            idx = np.linspace(0, len(spread) - 1, count).round().astype(int)
            return tuple(spread[i] for i in idx)
        chosen = list(spread)
        chosen_names = {vm.name for vm in chosen}
        extras = sorted(
            (vm for vm in self.vms if vm.name not in chosen_names),
            key=self._mid_size_key,
        )
        chosen.extend(extras[: count - len(chosen)])
        return tuple(chosen)

    # -- signature extraction hooks ------------------------------------------------
    #
    # Subclasses (e.g. the raw-low-level-metric ablation variant) override
    # these to swap the knowledge features while keeping labels, CMF and
    # prediction identical.

    def signature_names(self) -> tuple[str, ...]:
        """Names of the per-workload signature features (Table-1 defaults)."""
        return CORRELATION_NAMES

    def _source_signature(self, spec: WorkloadSpec, vms) -> np.ndarray:
        """Offline signature of a source workload: median of per-run
        correlation vectors over a family-spread VM subset."""
        vectors = np.vstack(
            [
                correlation_vector(self.campaign.collect(spec, vm).timeseries)
                for vm in vms
            ]
        )
        return aggregate_correlation_vectors(vectors)

    def signature_from_profile(self, profile) -> np.ndarray:
        """Online signature (kept features only) from one sandbox profile."""
        return correlation_vector(profile.timeseries)[self.kept_features]

    # -- offline phase ---------------------------------------------------------------

    def fit(self) -> "VestaSelector":
        """Run the offline profiling + knowledge-abstraction pipeline.

        Executes the staged knowledge pipeline (see
        :class:`~repro.core.pipeline.KnowledgePipeline`): performance
        matrix P → correlation signatures → PCA feature selection →
        label matrix U → K-Means-smoothed affinity matrix V → knowledge
        graph and predictor.  Stages whose content-addressed fingerprints
        match an artifact in :attr:`store` (or the in-process cache) are
        reused; outputs are bit-identical to running every stage fresh.
        :attr:`stage_report` records how each stage was satisfied.
        """
        self.stage_report = self.pipeline.run()
        self._fitted = True
        return self

    def refit(self, **hyperparams) -> "VestaSelector":
        """Change downstream hyperparameters and rebuild only what moved.

        Accepts any subset of :data:`REFIT_PARAMS` as keyword arguments
        (e.g. ``refit(k=7)`` for the Figure 11 sweep, or
        ``refit(keep_mass=0.6)``, ``refit(label_width=0.1)`` for the
        ablations) and re-executes the stage graph: only the stages whose
        fingerprints changed are recomputed — a new ``k`` reuses P, the
        correlations, the PCA selection and U; a purely-online knob such
        as ``lam`` or ``probes`` recomputes no cached stage at all (only
        the cheap in-memory graph and predictor are rebuilt).

        Campaign-defining parameters (seed, repetitions, sources, VM set,
        fault plan) cannot be refit: construct a new selector instead.
        """
        unknown = set(hyperparams) - REFIT_PARAMS
        if unknown:
            raise ValidationError(
                f"cannot refit {sorted(unknown)}; refittable hyperparameters "
                f"are {sorted(REFIT_PARAMS)}"
            )
        self._validate_hyperparams(**hyperparams)
        for name, value in hyperparams.items():
            setattr(self, name, value)
        self.stage_report = self.pipeline.run()
        self._fitted = True
        return self

    def promote(self, promotions) -> "VestaSelector":
        """Splice gated promotions into the source knowledge and refit.

        Appends :class:`~repro.core.pipeline.PromotedSource` rows to
        :attr:`promotions` and re-executes the stage graph.  Everything
        campaign-derived (P, correlations, feature selection, U) is a
        cache hit; only the promotions splice and the affinity → factors
        → knowledge chain recompute, so growing the knowledge costs zero
        extra campaign cells.  On pipeline failure the promotion list is
        rolled back, leaving the selector's previous knowledge intact.
        """
        if not self._fitted:
            raise ValidationError("promote needs a fitted selector; call fit() first")
        new = tuple(promotions)
        if not new:
            return self
        previous = self.promotions
        self.promotions = previous + new
        try:
            self.stage_report = self.pipeline.run()
        except Exception:
            self.promotions = previous
            raise
        return self

    def knowledge_fingerprint(self) -> str:
        """Digest identifying this selector's fitted knowledge *version*.

        Covers every stage fingerprint of the knowledge pipeline (which
        in turn covers the campaign configuration, sources, VM set and
        all knowledge hyperparameters) plus the online completion mode.
        Two fitted selectors with equal fingerprints answer every
        selection request bit-identically, so the serving registry uses
        this digest to decide whether a hot-reload actually swaps
        anything — and stamps it into every service response.
        """
        if not self._fitted:
            raise ValidationError(
                "knowledge_fingerprint needs a fitted selector; call fit() first"
            )
        return content_fingerprint(
            stages=self.pipeline.fingerprints(), cmf_mode=self.cmf_mode
        )[:16]

    # -- online phase ---------------------------------------------------------------------

    def online(self, spec: WorkloadSpec) -> OnlineSession:
        """Open an online predicting session for a target workload: a
        wave of one (see :meth:`online_many`)."""
        return self.online_many((spec,))[0]

    def select(self, spec: WorkloadSpec, objective: str = "time") -> Recommendation:
        """One-shot best-VM selection (sandbox + probes + CMF + predict)."""
        return self.online(spec).recommend(objective)

    def online_many(self, specs) -> tuple[OnlineSession, ...]:
        """Open online sessions for a batch of targets in one wave.

        All sandbox and probe cells of the whole batch are read through
        the campaign in one :meth:`~ProfilingCampaign.prefetch` wave, and
        each session is built from its own cells' outcomes and fault
        events; then every target row is completed in one
        :meth:`complete_rows` call — a single batched solve under
        ``cmf_mode="foldin"``.  Results, fault events included, are
        bit-identical to opening the sessions one by one.  A session
        whose sandbox run failed raises that failure, the first in
        target order.
        """
        if not self._fitted:
            raise ValidationError("VestaSelector is not fitted; call fit() first")
        plans = [(spec, _probe_plan(self, spec)) for spec in specs]
        cells: list[tuple[WorkloadSpec, VMType, bool]] = []
        for spec, (sandbox, probes) in plans:
            cells.append((spec, sandbox, False))
            cells.extend((spec, vm, True) for vm in probes)
        outcomes = iter(self.campaign.prefetch(cells))
        sessions = tuple(
            OnlineSession(
                self, spec, plan, [next(outcomes) for _ in range(1 + len(plan[1]))]
            )
            for spec, plan in plans
        )
        if sessions:
            rows = np.vstack([s._sparse_row for s in sessions])
            masks = np.vstack([s._mask for s in sessions])
            results = self.complete_rows(rows, masks)
            for session, result in zip(sessions, results):
                session._complete_row(result)
        return sessions

    def select_many(
        self, specs, objective: str = "time"
    ) -> tuple[Recommendation, ...]:
        """Batched one-shot selection: one recommendation per target.

        The batched counterpart of :meth:`select` — same results, one
        profiling wave and one row-completion solve for the whole batch.
        """
        return tuple(
            session.recommend(objective) for session in self.online_many(specs)
        )
