"""Staged offline knowledge pipeline with content-addressed artifacts.

:meth:`VestaSelector.fit` used to run the paper's offline phase — the
expensive part of Vesta, weeks of EC2 time in the original — as one
opaque block, so changing a single downstream knob (``k`` for Figure 11,
``keep_mass`` or the label width for the ablations) refit everything
from profiling up.  :class:`KnowledgePipeline` decomposes it into seven
explicit stages::

    PerfMatrix ──────────────────────────────┐
        │                                    │
    CorrSignatures → FeatureSelection → LabelMatrixU
                                             │
                                      AffinityMatrixV
                                             │
                                      SourceFactors
                                             │
                                         Knowledge

Each stage is a pure function of its hyperparameters and upstream
artifacts, and each artifact is addressed by a **fingerprint** digesting
exactly those inputs (plus the campaign configuration: seed,
repetitions, noise-model and fault-plan fingerprints).  Executing the
graph therefore reuses any stage whose fingerprint is unchanged — from
the in-process memory cache, or across processes from an
:class:`~repro.core.artifacts.ArtifactStore` — and
:meth:`VestaSelector.refit` becomes cheap: a new ``k`` reuses P, the
correlations, the PCA selection and U; a new ``keep_mass`` reuses P and
the correlations; a new λ recomputes no cached stage at all (only the
cheap in-memory knowledge objects are rebuilt).

Both the computed and the cache-hit path route a stage's arrays through
the same ``apply`` step, so a staged fit is bit-identical to the
monolithic one for a fixed seed no matter which stages were served from
where.  A store artifact that fails apply-time validation (corrupt or
inconsistent content) is treated as a miss and recomputed — a broken
store can never break a fit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.feature_selection import select_by_importance
from repro.analysis.kmeans import KMeans
from repro.core.artifacts import ArtifactStore, content_fingerprint
from repro.core.graph import KnowledgeGraph
from repro.core.labels import LabelSpace
from repro.core.predictor import SimilarityPredictor
from repro.errors import ValidationError
from repro.telemetry.campaign import ProfilingCampaign, _spec_token, _vm_token

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.vesta import VestaSelector

__all__ = [
    "KnowledgePipeline",
    "PromotedSource",
    "StageResult",
    "STAGES",
    "CACHED_STAGES",
    "NEAR_BEST_TAU",
    "cluster_affinity",
    "near_best_scores",
    "promotions_token",
    "shared_perf_rows",
    "specs_token",
    "vms_token",
]

#: Softness of the near-best score: nb = exp(-slowdown / NEAR_BEST_TAU).
NEAR_BEST_TAU = 0.3

#: Bump when a stage's computation changes so existing artifacts
#: (which would now be wrong) stop being addressable.
PIPELINE_VERSION = 1

#: Execution order of the stage graph.  ``promotions`` sits between the
#: campaign-derived matrices and everything knowledge-bearing: it splices
#: lifecycle-promoted sources into U and P, so affinity/factors/knowledge
#: downstream see the grown knowledge while the campaign stages above are
#: untouched (zero extra campaign cells per promotion).
STAGES: tuple[str, ...] = (
    "perf_matrix",
    "corr_signatures",
    "feature_selection",
    "labels_u",
    "promotions",
    "affinity_v",
    "source_factors",
    "knowledge",
)

#: Stages whose arrays are persisted.  ``knowledge`` builds in-memory
#: objects (graph, predictor) derived deterministically from the cached
#: stages, so persisting it would only duplicate bytes; ``promotions``
#: derives from the selector's promotion list, which persistence stamps
#: into archive metadata instead.
CACHED_STAGES: frozenset[str] = frozenset(STAGES) - {"promotions", "knowledge"}


@dataclass(frozen=True)
class PromotedSource:
    """One served target promoted into the source knowledge.

    ``label_row`` is the target's CMF-completed workload-label row and
    ``perf_row`` its predicted-plus-observed per-VM runtime response —
    the two rows the promotion splices into U and P.  ``lineage`` names
    the knowledge fingerprint the session was served under, preserving
    which knowledge generation produced the row (the archive stamps it,
    so grown knowledge is auditable back to its origin).
    """

    name: str
    label_row: np.ndarray
    perf_row: np.ndarray
    lineage: str

    def __post_init__(self) -> None:
        for attr in ("label_row", "perf_row"):
            row = np.ascontiguousarray(getattr(self, attr), dtype=float)
            row.setflags(write=False)
            object.__setattr__(self, attr, row)


def promotions_token(promotions: tuple[PromotedSource, ...]) -> str:
    """Content digest of an ordered promotion tuple."""
    digest = hashlib.sha256()
    for promo in promotions:
        digest.update(promo.name.encode())
        digest.update(promo.lineage.encode())
        digest.update(promo.label_row.tobytes())
        digest.update(promo.perf_row.tobytes())
    return digest.hexdigest()


def near_best_scores(perf: np.ndarray) -> np.ndarray:
    """Per-(workload, VM) near-best scores ``exp(-slowdown / NEAR_BEST_TAU)``."""
    best = perf.min(axis=1, keepdims=True)
    slowdown = perf / best - 1.0
    return np.exp(-slowdown / NEAR_BEST_TAU)


def cluster_affinity(
    near_best: np.ndarray, U: np.ndarray, vm_clusters: np.ndarray
) -> np.ndarray:
    """Label-VM affinity matrix V, smoothed over VM clusters.

    Near-best scores are aggregated through U into raw label-VM
    affinities, and every VM takes the mean raw row of its cluster.
    """
    label_mass = U.sum(axis=0)
    v_raw = (near_best.T @ U) / np.where(label_mass > 0, label_mass, 1.0)
    V = np.empty_like(v_raw)
    for c in np.unique(vm_clusters):
        members = vm_clusters == c
        V[members] = v_raw[members].mean(axis=0)
    return V


def specs_token(specs) -> str:
    """Content digest of an ordered workload-spec tuple."""
    joined = "\n".join(_spec_token(spec) for spec in specs)
    return hashlib.sha256(joined.encode()).hexdigest()


def vms_token(vms) -> str:
    """Content digest of an ordered VM-type tuple."""
    joined = "\n".join(_vm_token(vm) for vm in vms)
    return hashlib.sha256(joined.encode()).hexdigest()


def shared_perf_rows(
    store: ArtifactStore | None,
    campaign: ProfilingCampaign,
    vms,
) -> dict[str, np.ndarray]:
    """Per-workload P90 rows from any compatible PerfMatrix artifact.

    A consumer (GroundTruth, PARIS) with the same campaign configuration
    and the same VM tuple as a fitted Vesta can serve its (workload, VM)
    runtimes straight from the stored performance matrix instead of
    re-running the campaign.  Returns ``{workload_name: runtimes_row}``
    for every workload covered by a compatible artifact; incompatible or
    malformed artifacts are skipped silently.
    """
    if store is None:
        return {}
    campaign_fp = campaign.config_fingerprint()
    vm_fp = vms_token(vms)
    rows: dict[str, np.ndarray] = {}
    for info in store.entries(stage="perf_matrix"):
        artifact = store.get(info.key)
        if artifact is None:
            continue
        meta = artifact.meta
        if meta.get("campaign") != campaign_fp or meta.get("vms_token") != vm_fp:
            continue
        perf = artifact.arrays.get("perf")
        names = meta.get("sources")
        if (
            perf is None
            or not isinstance(names, list)
            or perf.ndim != 2
            or perf.shape[0] != len(names)
            or perf.shape[1] != len(tuple(vms))
        ):
            continue
        for i, name in enumerate(names):
            rows.setdefault(name, np.asarray(perf[i], dtype=float))
    return rows


@dataclass(frozen=True)
class StageResult:
    """How one stage was satisfied during a pipeline run.

    ``action`` is ``"computed"`` (ran the stage), ``"memory"`` (reused
    the in-process artifact) or ``"store"`` (loaded from the artifact
    store).
    """

    name: str
    fingerprint: str
    action: str


class KnowledgePipeline:
    """Executes the offline stage graph for one :class:`VestaSelector`.

    The pipeline holds an in-process artifact cache keyed by stage
    fingerprint; the selector's optional
    :class:`~repro.core.artifacts.ArtifactStore` adds cross-process
    persistence.  :meth:`run` is idempotent: calling it again after the
    selector's hyperparameters changed re-executes exactly the stages
    whose fingerprints changed.
    """

    def __init__(self, selector: "VestaSelector") -> None:
        self.sel = selector
        self._memory: dict[str, tuple[str, dict[str, np.ndarray]]] = {}
        self.last_run: dict[str, StageResult] = {}

    @property
    def store(self) -> ArtifactStore | None:
        return self.sel.store

    # -- fingerprints ---------------------------------------------------------

    def _signature_token(self) -> str:
        """Identity of the selector's signature-extraction hooks.

        Subclasses override ``_source_signature`` /
        ``signature_from_profile`` / ``signature_names`` to swap the
        knowledge features (e.g. the raw-low-level-metric ablation);
        the defining class of each hook plus the feature names pins the
        correlation artifact to the extraction that produced it.
        """
        sel = self.sel
        return "|".join(
            (
                type(sel)._source_signature.__qualname__,
                type(sel).signature_from_profile.__qualname__,
                ",".join(sel.signature_names()),
            )
        )

    def fingerprints(self) -> dict[str, str]:
        """Current fingerprint of every stage, keyed by stage name."""
        sel = self.sel
        campaign_fp = sel.campaign.config_fingerprint()
        sources_fp = specs_token(sel.sources)
        # The catalog id + content fingerprint are stamped into the two
        # root stages (and propagate down the chain) — but only for
        # non-default catalogs, so every pre-catalog artifact keeps its
        # address and the EC2 path stays bit-identical.
        catalog_extra: dict[str, str] = {}
        if not sel.catalog.is_default:
            catalog_extra = {
                "catalog": sel.catalog.name,
                "catalog_fingerprint": sel.catalog.fingerprint(),
            }
        fp: dict[str, str] = {}
        fp["perf_matrix"] = content_fingerprint(
            pipeline_version=PIPELINE_VERSION,
            stage="perf_matrix",
            campaign=campaign_fp,
            sources=sources_fp,
            vms=vms_token(sel.vms),
            **catalog_extra,
        )
        fp["corr_signatures"] = content_fingerprint(
            pipeline_version=PIPELINE_VERSION,
            stage="corr_signatures",
            campaign=campaign_fp,
            sources=sources_fp,
            corr_vms=vms_token(sel._corr_probe_vms()),
            signature=self._signature_token(),
            **catalog_extra,
        )
        fp["feature_selection"] = content_fingerprint(
            pipeline_version=PIPELINE_VERSION,
            stage="feature_selection",
            upstream=fp["corr_signatures"],
            keep_mass=sel.keep_mass,
        )
        fp["labels_u"] = content_fingerprint(
            pipeline_version=PIPELINE_VERSION,
            stage="labels_u",
            upstream=fp["feature_selection"],
            label_width=sel.label_width,
            label_softness=sel.label_softness,
        )
        # Promotions follow the catalog idiom: the stage only gets a
        # fingerprint — and only stamps the downstream stages — when the
        # selector actually carries promoted sources, so an unpromoted
        # selector keeps every pre-lifecycle artifact address and the
        # learning-off serving path stays byte-identical.
        promo_extra: dict[str, str] = {}
        promotions = getattr(sel, "promotions", ())
        if promotions:
            fp["promotions"] = content_fingerprint(
                pipeline_version=PIPELINE_VERSION,
                stage="promotions",
                perf=fp["perf_matrix"],
                labels=fp["labels_u"],
                promotions=promotions_token(promotions),
            )
            promo_extra = {"promotions": fp["promotions"]}
        fp["affinity_v"] = content_fingerprint(
            pipeline_version=PIPELINE_VERSION,
            stage="affinity_v",
            perf=fp["perf_matrix"],
            labels=fp["labels_u"],
            k=sel.k,
            seed=sel.seed,
            **promo_extra,
        )
        fp["source_factors"] = content_fingerprint(
            pipeline_version=PIPELINE_VERSION,
            stage="source_factors",
            labels=fp["labels_u"],
            affinity=fp["affinity_v"],
            lam=sel.lam,
            latent_dim=sel.latent_dim,
            seed=sel.seed,
            **promo_extra,
        )
        fp["knowledge"] = content_fingerprint(
            pipeline_version=PIPELINE_VERSION,
            stage="knowledge",
            perf=fp["perf_matrix"],
            labels=fp["labels_u"],
            affinity=fp["affinity_v"],
            top_m=sel.top_m,
            temperature=sel.temperature,
            **promo_extra,
        )
        return fp

    # -- stage computations ---------------------------------------------------
    #
    # compute_* runs a stage from its upstream selector state and returns
    # the stage's arrays; apply_* validates arrays (they may come from an
    # untrusted store) and writes the selector state.  Every path —
    # computed, memory hit, store hit — goes through apply_*, which is
    # what makes a staged fit bit-identical regardless of cache state.

    def _compute_perf_matrix(self) -> dict[str, np.ndarray]:
        sel = self.sel
        # The campaign fans the grid out over worker processes and
        # memoizes; per-triple stream seeds keep it bit-identical to the
        # serial Data-Collector loop.
        return {"perf": sel.campaign.runtime_matrix(sel.sources, sel.vms)}

    def _apply_perf_matrix(self, arrays: dict[str, np.ndarray]) -> None:
        sel = self.sel
        perf = np.asarray(arrays["perf"], dtype=float)
        if perf.shape != (len(sel.sources), len(sel.vms)):
            raise ValidationError(
                f"performance matrix shape {perf.shape} inconsistent with "
                f"{len(sel.sources)} sources x {len(sel.vms)} VM types"
            )
        sel.perf = perf

    def _compute_corr_signatures(self) -> dict[str, np.ndarray]:
        sel = self.sel
        # Prefetch the whole (source × probe-VM) grid as one campaign wave
        # so the per-source signature loop below is all memo hits.
        corr_vms = sel._corr_probe_vms()
        sel.campaign.collect_grid(sel.sources, corr_vms)
        matrix = np.empty((len(sel.sources), len(sel.signature_names())))
        for i, spec in enumerate(sel.sources):
            matrix[i] = sel._source_signature(spec, corr_vms)
        return {"correlations": matrix}

    def _apply_corr_signatures(self, arrays: dict[str, np.ndarray]) -> None:
        sel = self.sel
        corr = np.asarray(arrays["correlations"], dtype=float)
        if corr.shape != (len(sel.sources), len(sel.signature_names())):
            raise ValidationError(
                f"correlation matrix shape {corr.shape} inconsistent with "
                f"{len(sel.sources)} sources x "
                f"{len(sel.signature_names())} signature features"
            )
        sel.correlations = corr

    def _compute_feature_selection(self) -> dict[str, np.ndarray]:
        sel = self.sel
        kept, importance = select_by_importance(
            sel.correlations, keep_mass=sel.keep_mass
        )
        return {
            "kept_features": np.asarray(kept, dtype=np.int64),
            "feature_importance": np.asarray(importance, dtype=float),
        }

    def _apply_feature_selection(self, arrays: dict[str, np.ndarray]) -> None:
        sel = self.sel
        kept = np.asarray(arrays["kept_features"], dtype=np.int64)
        n_features = len(sel.signature_names())
        if kept.size == 0 or kept.min() < 0 or kept.max() >= n_features:
            raise ValidationError(
                f"kept feature indices {kept!r} out of range for "
                f"{n_features} signature features"
            )
        sel.kept_features = kept
        sel.feature_importance = np.asarray(
            arrays["feature_importance"], dtype=float
        )

    def _compute_labels_u(self) -> dict[str, np.ndarray]:
        sel = self.sel
        label_space = self._label_space()
        kept = sel.kept_features
        return {"U": label_space.membership_matrix(sel.correlations[:, kept])}

    def _apply_labels_u(self, arrays: dict[str, np.ndarray]) -> None:
        sel = self.sel
        label_space = self._label_space()
        U = np.asarray(arrays["U"], dtype=float)
        if U.shape != (len(sel.sources), label_space.n_labels):
            raise ValidationError(
                f"U shape {U.shape} inconsistent with {len(sel.sources)} "
                f"sources x {label_space.n_labels} labels"
            )
        sel.label_space = label_space
        sel.U = U

    def _label_space(self) -> LabelSpace:
        sel = self.sel
        kept_names = tuple(sel.signature_names()[i] for i in sel.kept_features)
        return LabelSpace(
            kept_names, width=sel.label_width, softness=sel.label_softness
        )

    def _apply_promotions(self, arrays: dict[str, np.ndarray]) -> None:
        """Splice promoted sources into U and P for the downstream stages.

        The campaign-derived matrices are stashed as ``base_U`` /
        ``base_perf`` first, so persistence can archive the unaugmented
        stage arrays and reconstruct the augmentation from the promotion
        list on load.  ``knowledge_names`` carries the augmented row
        ordering for the knowledge graph and predictor.
        """
        sel = self.sel
        source_names = tuple(spec.name for spec in sel.sources)
        sel.base_U = sel.U
        sel.base_perf = sel.perf
        promotions = tuple(getattr(sel, "promotions", ()))
        if not promotions:
            sel.knowledge_names = source_names
            return
        n_labels = sel.U.shape[1]
        n_vms = len(sel.vms)
        names = list(source_names)
        for promo in promotions:
            if promo.label_row.shape != (n_labels,):
                raise ValidationError(
                    f"promotion {promo.name!r} label row shape "
                    f"{promo.label_row.shape} inconsistent with {n_labels} labels"
                )
            if promo.perf_row.shape != (n_vms,):
                raise ValidationError(
                    f"promotion {promo.name!r} perf row shape "
                    f"{promo.perf_row.shape} inconsistent with {n_vms} VM types"
                )
            if not np.isfinite(promo.perf_row).all() or (promo.perf_row <= 0).any():
                raise ValidationError(
                    f"promotion {promo.name!r} perf row must be positive and finite"
                )
            if promo.name in names:
                raise ValidationError(
                    f"promotion name {promo.name!r} collides with existing source"
                )
            names.append(promo.name)
        sel.U = np.vstack([sel.base_U] + [p.label_row for p in promotions])
        sel.perf = np.vstack([sel.base_perf] + [p.perf_row for p in promotions])
        sel.knowledge_names = tuple(names)

    def _compute_affinity_v(self) -> dict[str, np.ndarray]:
        sel = self.sel
        near_best = near_best_scores(sel.perf)
        # K-Means over VM types, each described by how it serves the
        # sources, smooths the affinities (Figure 11).
        kmeans = KMeans(min(sel.k, len(sel.vms)), seed=sel.seed).fit(near_best.T)
        vm_clusters = np.asarray(kmeans.labels_, dtype=np.int64)
        return {
            "near_best": near_best,
            "V": cluster_affinity(near_best, sel.U, vm_clusters),
            "kmeans_centers": kmeans.centers_,
            "vm_clusters": vm_clusters,
        }

    def _apply_affinity_v(self, arrays: dict[str, np.ndarray]) -> None:
        sel = self.sel
        n_vm = len(sel.vms)
        V = np.asarray(arrays["V"], dtype=float)
        vm_clusters = np.asarray(arrays["vm_clusters"], dtype=np.int64)
        near_best = np.asarray(arrays["near_best"], dtype=float)
        centers = np.asarray(arrays["kmeans_centers"], dtype=float)
        if V.shape != (n_vm, sel.U.shape[1]) or vm_clusters.shape != (n_vm,):
            raise ValidationError(
                f"affinity arrays V{V.shape} / clusters{vm_clusters.shape} "
                f"inconsistent with {n_vm} VM types x {sel.U.shape[1]} labels"
            )
        sel.near_best = near_best
        sel.V = V
        sel.vm_clusters = vm_clusters
        kmeans = KMeans(centers.shape[0], seed=sel.seed)
        kmeans.centers_ = centers
        kmeans.labels_ = vm_clusters
        sel.kmeans = kmeans

    def _compute_source_factors(self) -> dict[str, np.ndarray]:
        sel = self.sel
        # The offline half of the online/offline CMF split: factorize the
        # source knowledge once so online sessions can complete target
        # rows with a closed-form fold-in against the frozen L.
        factors = sel._cmf().factor_sources(sel.U, sel.V)
        return {
            "A": factors.A,
            "B": factors.B,
            "L": factors.L,
            "converged": np.asarray([factors.converged]),
        }

    def _apply_source_factors(self, arrays: dict[str, np.ndarray]) -> None:
        sel = self.sel
        from repro.core.cmf import SourceFactors

        A = np.asarray(arrays["A"], dtype=float)
        B = np.asarray(arrays["B"], dtype=float)
        L = np.asarray(arrays["L"], dtype=float)
        g = sel.latent_dim
        j = sel.U.shape[1]
        n_rows = sel.U.shape[0]  # sources plus any promoted rows
        if (
            A.shape != (n_rows, g)
            or B.shape != (len(sel.vms), g)
            or L.shape != (j, g)
        ):
            raise ValidationError(
                f"source-factor shapes A{A.shape} B{B.shape} L{L.shape} "
                f"inconsistent with {n_rows} sources x "
                f"{len(sel.vms)} VM types x {j} labels x latent dim {g}"
            )
        converged = bool(np.asarray(arrays["converged"]).ravel()[0])
        sel.source_factors = SourceFactors(A=A, B=B, L=L, converged=converged)

    def _apply_knowledge(self, arrays: dict[str, np.ndarray]) -> None:
        sel = self.sel
        names = getattr(sel, "knowledge_names", None) or tuple(
            spec.name for spec in sel.sources
        )
        graph = KnowledgeGraph(sel.label_space, tuple(vm.name for vm in sel.vms))
        for name, row in zip(names, sel.U):
            graph.add_source_workload(name, row)
        graph.set_label_vm_matrix(sel.V)
        sel.graph = graph
        sel.predictor = SimilarityPredictor(
            sel.perf, sel.U, top_m=sel.top_m, temperature=sel.temperature
        )

    # -- execution ---------------------------------------------------------------

    def _compute(self, name: str) -> dict[str, np.ndarray]:
        return getattr(self, f"_compute_{name}")()

    def _apply(self, name: str, arrays: dict[str, np.ndarray]) -> None:
        getattr(self, f"_apply_{name}")(arrays)

    def _artifact_meta(self, name: str, campaign_fp: str) -> dict:
        sel = self.sel
        meta = {
            "campaign": campaign_fp,
            "sources": [w.name for w in sel.sources],
            "vms": [vm.name for vm in sel.vms],
            "catalog": sel.catalog.name,
        }
        if name == "perf_matrix":
            meta["vms_token"] = vms_token(sel.vms)
        return meta

    def restore(
        self,
        name: str,
        arrays: dict[str, np.ndarray],
        *,
        fingerprint: str | None = None,
    ) -> None:
        """Validate, apply and adopt one persisted stage artifact.

        The entry point for :mod:`repro.core.persistence`: the archived
        arrays go through the same apply-time validation as a live fit,
        then get seeded into the memory cache (and store, when present)
        under ``fingerprint`` so a subsequent
        :meth:`~repro.core.vesta.VestaSelector.refit` reuses them.  A
        stage restored without a fingerprint (an archive that predates
        stage fingerprints, or factors derived on load) is applied but
        not adopted: nothing vouches that its content matches the live
        configuration's address.
        """
        try:
            self._apply(name, arrays)
        except KeyError as exc:
            raise ValidationError(
                f"stage {name!r} artifact is missing array {exc}"
            ) from exc
        if name not in CACHED_STAGES or fingerprint is None:
            return
        self._memory[name] = (fingerprint, dict(arrays))
        if self.store is not None:
            self.store.put(
                fingerprint,
                name,
                dict(arrays),
                meta=self._artifact_meta(name, self.sel.campaign.config_fingerprint()),
            )

    def run(self) -> dict[str, StageResult]:
        """Execute the stage graph, reusing unchanged artifacts.

        Returns per-stage :class:`StageResult`\\ s (also kept on
        :attr:`last_run`).
        """
        fps = self.fingerprints()
        campaign_fp = self.sel.campaign.config_fingerprint()
        report: dict[str, StageResult] = {}
        for name in STAGES:
            # Uncached stages may carry no fingerprint (promotions is
            # only stamped when the selector holds promoted sources).
            fp = fps.get(name, "")
            action: str | None = None
            if name in CACHED_STAGES:
                held = self._memory.get(name)
                if held is not None and held[0] == fp:
                    self._apply(name, held[1])
                    action = "memory"
                if action is None and self.store is not None:
                    artifact = self.store.get(fp)
                    if artifact is not None:
                        try:
                            self._apply(name, artifact.arrays)
                        except (ValidationError, KeyError):
                            # Corrupt or inconsistent artifact: treat as
                            # a miss and recompute rather than fail.
                            action = None
                        else:
                            self._memory[name] = (fp, artifact.arrays)
                            action = "store"
                if action is None:
                    arrays = self._compute(name)
                    self._apply(name, arrays)
                    self._memory[name] = (fp, arrays)
                    if self.store is not None:
                        self.store.put(
                            fp, name, arrays,
                            meta=self._artifact_meta(name, campaign_fp),
                        )
                    action = "computed"
            else:
                self._apply(name, {})
                action = "computed"
            report[name] = StageResult(name=name, fingerprint=fp, action=action)
        self.last_run = report
        return report
