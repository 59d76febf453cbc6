"""Persistence of fitted Vesta knowledge.

The offline phase is the expensive part of the paper's pipeline (weeks of
EC2 time); a production deployment fits once and serves online selections
from the stored knowledge.  This module saves/loads everything
:meth:`~repro.core.vesta.VestaSelector.fit` produces:

- the performance matrix P, correlation signatures, kept features and
  importance index;
- the label-space configuration, U and V matrices, near-best scores;
- the K-Means centroids and VM cluster assignments;
- the selector's hyperparameters, source workload names and VM names.

Format: a single ``.npz`` archive (NumPy arrays + a JSON metadata blob),
no pickling — loadable across Python versions and safe to share.

Version 2 archives mirror the staged pipeline of
:mod:`repro.core.pipeline`: arrays are namespaced per stage
(``"affinity_v.V"``) and the metadata records each stage's
content fingerprint at save time.  Loading routes every stage through
the pipeline's own apply-time validation and *adopts* the artifacts
under their archived fingerprints, so a
:meth:`~repro.core.vesta.VestaSelector.refit` right after a load reuses
the archived stages instead of re-running the profiling campaign.
Version 3 additionally records the provider catalog (name + content
fingerprint); versions 1 and 2 load as the implicit ``ec2`` catalog.
Version 4 adds the knowledge lifecycle: promoted sources are stamped
into the metadata (name + lineage — the knowledge fingerprint each was
served under) with their label/perf rows archived under a
``promotions.*`` namespace, while the stage arrays keep the unaugmented
campaign-derived matrices; loading re-splices the promotions through
the pipeline's own ``promotions`` stage.  Archives without promotions
are byte-compatible with version 3 readers' expectations (same arrays,
same stage fingerprints).  Version 1 archives (flat array names,
pre-pipeline) remain loadable.

The knowledge itself is one ``(meta, arrays)`` pair
(:func:`knowledge_state`): the archive stores it, an in-memory clone
copies it and the serving tier sends it through a pool worker's pipe.
Every restore of it — an ``.npz`` archive, a clone or a worker replica —
takes one path (:func:`restore_knowledge`): :func:`_upgrade` validates
the metadata and brings older layouts to the current one, then each
stage is restored through
:meth:`~repro.core.pipeline.KnowledgePipeline.restore`.
Loading re-binds the stored workload/VM names against the current
catalogs and rebuilds the knowledge graph and predictor through the
pipeline's ``knowledge`` stage; a mismatch (e.g.
a VM type missing from the catalog) fails loudly rather than silently
degrading.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.cloud.catalog import DEFAULT_CATALOG, get_catalog
from repro.cloud.faults import FaultPlan
from repro.core.artifacts import ArtifactStore, content_fingerprint
from repro.core.pipeline import CACHED_STAGES, STAGES, PromotedSource
from repro.core.vesta import VestaSelector
from repro.errors import ValidationError
from repro.telemetry.campaign import ProfileCache
from repro.workloads.catalog import get_workload

__all__ = [
    "save_selector",
    "load_selector",
    "clone_knowledge",
    "knowledge_state",
    "restore_knowledge",
    "archive_knowledge_fingerprint",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 4

#: Archived hyperparameters and the JSON type each must carry.
_HYPERPARAMS: dict[str, type] = {
    "k": int,
    "lam": float,
    "latent_dim": int,
    "keep_mass": float,
    "probes": int,
    "correlation_probe_count": int,
    "top_m": int,
    "temperature": float,
    "match_threshold": float,
    "affinity_weight": float,
    "seed": int,
    "label_width": float,
    "label_softness": int,
    "cmf_mode": str,
}

#: Version 1's flat array names, grouped under the stage that owns each.
_V1_STAGE_ARRAYS = {
    "perf_matrix": ("perf",),
    "corr_signatures": ("correlations",),
    "feature_selection": ("kept_features", "feature_importance"),
    "labels_u": ("U",),
    "affinity_v": ("near_best", "V", "kmeans_centers", "vm_clusters"),
}


def _stage_arrays(selector: VestaSelector) -> dict[str, dict[str, np.ndarray]]:
    """The fitted selector's state, bundled per pipeline stage.

    A promoted selector's ``perf``/``U`` are the augmented matrices; the
    archive stores the unaugmented campaign-derived stage arrays (their
    stage fingerprints describe exactly those) and re-splices the
    promotions through the pipeline's ``promotions`` stage on load.
    """
    promoted = bool(getattr(selector, "promotions", ()))
    perf = selector.base_perf if promoted else selector.perf
    U = selector.base_U if promoted else selector.U
    return {
        "perf_matrix": {"perf": perf},
        "corr_signatures": {"correlations": selector.correlations},
        "feature_selection": {
            "kept_features": np.asarray(selector.kept_features, dtype=np.int64),
            "feature_importance": selector.feature_importance,
        },
        "labels_u": {"U": U},
        "affinity_v": {
            "near_best": selector.near_best,
            "V": selector.V,
            "kmeans_centers": selector.kmeans.centers_,
            "vm_clusters": np.asarray(selector.vm_clusters, dtype=np.int64),
        },
        "source_factors": {
            "A": selector.source_factors.A,
            "B": selector.source_factors.B,
            "L": selector.source_factors.L,
            "converged": np.asarray([selector.source_factors.converged]),
        },
    }


def knowledge_state(
    selector: VestaSelector,
) -> tuple[dict, dict[str, np.ndarray]]:
    """A fitted selector's knowledge as ``(meta, arrays)``.

    ``meta`` is the JSON metadata blob and ``arrays`` the stage arrays
    under ``"stage.array"`` names — exactly what an archive stores.  The
    pair pickles, so the serving tier sends it through a pool worker's
    pipe; :func:`restore_knowledge` rebuilds a selector from it.

    Raises
    ------
    ValidationError
        If the selector has not been fitted.
    """
    if not getattr(selector, "_fitted", False):
        raise ValidationError("cannot save an unfitted VestaSelector")
    meta = {
        "format_version": FORMAT_VERSION,
        "hyperparams": {name: getattr(selector, name) for name in _HYPERPARAMS},
        "repetitions": selector.campaign.repetitions,
        "sources": [w.name for w in selector.sources],
        "vms": [vm.name for vm in selector.vms],
        "label_features": list(selector.label_space.feature_names),
        "stage_fingerprints": selector.pipeline.fingerprints(),
        "catalog": selector.catalog.name,
        "catalog_fingerprint": selector.catalog.fingerprint(),
    }
    arrays = {
        f"{stage}.{name}": array
        for stage, bundle in _stage_arrays(selector).items()
        for name, array in bundle.items()
    }
    promotions = tuple(getattr(selector, "promotions", ()))
    if promotions:
        # Knowledge lineage: each promoted source remembers the knowledge
        # fingerprint it was served under, so grown knowledge stays
        # auditable back to the generation that produced it.
        meta["promotions"] = [
            {"name": p.name, "lineage": p.lineage} for p in promotions
        ]
        arrays["promotions.labels"] = np.vstack([p.label_row for p in promotions])
        arrays["promotions.perf"] = np.vstack([p.perf_row for p in promotions])
    return meta, arrays


def save_selector(selector: VestaSelector, path: str | Path) -> Path:
    """Serialize a fitted selector's knowledge to ``path`` (.npz).

    Raises
    ------
    ValidationError
        If the selector has not been fitted.
    """
    path = Path(path)
    meta, arrays = knowledge_state(selector)
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays,
    )
    # np.savez appends .npz when missing; normalise the returned path.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def archive_knowledge_fingerprint(path: str | Path) -> str | None:
    """Knowledge fingerprint of a saved archive, without restoring it.

    Reads only the archive's JSON metadata and computes the same digest
    :meth:`VestaSelector.knowledge_fingerprint` reports for the restored
    selector — the serving registry peeks at this to skip a hot-reload
    whose archive holds the knowledge version already being served.
    Returns ``None`` for archives that predate stage fingerprints
    (version 1); those need a full load to compare.

    Raises
    ------
    ValidationError
        When the archive is unreadable or its metadata malformed.
    """
    try:
        with np.load(Path(path)) as data:
            meta = json.loads(bytes(data["meta"]).decode())
    except (OSError, ValueError, KeyError) as exc:
        raise ValidationError(f"cannot read archive {path}: {exc}") from exc
    meta, _ = _upgrade(meta, {})
    fingerprints = meta.get("stage_fingerprints")
    if not fingerprints:
        return None
    cmf_mode = meta["hyperparams"].get("cmf_mode", "full")
    return content_fingerprint(stages=fingerprints, cmf_mode=cmf_mode)[:16]


def _is(value, kind: type) -> bool:
    """JSON type check: a bool is no number, an int passes as a float."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float) if kind is float else kind
    )


def _upgrade(
    meta, arrays: dict[str, np.ndarray]
) -> tuple[dict, dict[str, np.ndarray]]:
    """Validate archive metadata and bring it to the current layout.

    The one version check (1..:data:`FORMAT_VERSION`).  A version-1
    archive's flat arrays are renamed to ``stage.array`` and its
    top-level ``label_width``/``label_softness`` move into
    ``hyperparams``; it records no stage fingerprints, so its stages are
    applied but not adopted.  Later versions only gained metadata whose
    absence the restore already tolerates.

    Raises
    ------
    ValidationError
        On an unsupported version or malformed metadata.
    """
    if not isinstance(meta, dict):
        raise ValidationError(
            f"archive metadata must be a JSON object, not {type(meta).__name__}"
        )
    version = meta.get("format_version")
    if not _is(version, int) or not 1 <= version <= FORMAT_VERSION:
        raise ValidationError(
            f"unsupported archive version {version!r}; "
            f"this build reads versions 1..{FORMAT_VERSION}"
        )
    hp = meta.get("hyperparams")
    if not isinstance(hp, dict):
        raise ValidationError("archive metadata has no 'hyperparams' object")
    if version == 1:
        labels = {n: meta[n] for n in ("label_width", "label_softness") if n in meta}
        hp = {**hp, **labels}
        meta = {**meta, "hyperparams": hp}
        arrays = {
            f"{stage}.{name}": arrays[name]
            for stage, names in _V1_STAGE_ARRAYS.items()
            for name in names
            if name in arrays
        }
    for name, kind in _HYPERPARAMS.items():
        if name in hp and not _is(hp[name], kind):
            raise ValidationError(
                f"archive hyperparameter {name}={hp[name]!r} is not "
                f"{kind.__name__}"
            )
    if not _is(meta.get("repetitions"), int):
        raise ValidationError("archive metadata has no integer 'repetitions'")
    if not isinstance(meta.get("stage_fingerprints", {}), dict):
        raise ValidationError("archive 'stage_fingerprints' must be a JSON object")
    promotions = meta.get("promotions") or []
    if not isinstance(promotions, list) or not all(
        isinstance(p, dict) and isinstance(p.get("name"), str) for p in promotions
    ):
        raise ValidationError("archive 'promotions' must be a list of named objects")
    return meta, arrays


def load_selector(
    path: str | Path,
    *,
    cache: ProfileCache | str | None = None,
    faults: FaultPlan | None = None,
    store: ArtifactStore | str | None = None,
) -> VestaSelector:
    """Rebuild a fitted :class:`VestaSelector` from an ``.npz`` archive
    written by :func:`save_selector`.

    ``cache``, ``faults`` and ``store`` configure the rebuilt selector's
    profiling campaign and artifact store (the knowledge itself is
    restored from the archive): a production deployment loads the fitted
    knowledge once and serves online sessions under its own
    cache/fault-plan settings.  Stages archived with a fingerprint are
    adopted into the selector's pipeline (and ``store``, when given), so
    a subsequent :meth:`~repro.core.vesta.VestaSelector.refit` reuses
    them.

    Raises
    ------
    ValidationError
        On an unreadable archive, format-version mismatch, malformed
        metadata, or when a stored workload/VM name is absent from the
        current catalogs.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            arrays = {key: data[key] for key in data.files if key != "meta"}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"cannot read archive {path}: {exc}") from exc
    return restore_knowledge(meta, arrays, cache=cache, faults=faults, store=store)


def restore_knowledge(
    meta,
    arrays: dict[str, np.ndarray],
    *,
    cache: ProfileCache | str | None = None,
    faults: FaultPlan | None = None,
    store: ArtifactStore | str | None = None,
) -> VestaSelector:
    """Rebuild a fitted selector from a :func:`knowledge_state` pair.

    The tail of every load path: upgrade the metadata, rebind names,
    restore stages.  ``cache``, ``faults`` and ``store`` are as for
    :func:`load_selector`.
    """
    meta, arrays = _upgrade(meta, arrays)
    # Versions 1 and 2 predate the catalog dimension: they were always
    # fitted against the EC2 Table-4 catalog, so they load as implicit
    # ``ec2``.  Version 3 records the catalog explicitly and refuses a
    # load when the registered catalog's content has drifted from what
    # the archive was fitted on.
    catalog_name = meta.get("catalog", DEFAULT_CATALOG)
    try:
        catalog = get_catalog(catalog_name)
    except Exception as exc:
        raise ValidationError(
            f"archive references unknown catalog {catalog_name!r}: {exc}"
        ) from exc
    recorded_fp = meta.get("catalog_fingerprint")
    if recorded_fp is not None and recorded_fp != catalog.fingerprint():
        raise ValidationError(
            f"archive was fitted on catalog {catalog_name!r} with fingerprint "
            f"{recorded_fp}, but the registered catalog now fingerprints "
            f"{catalog.fingerprint()}"
        )
    try:
        sources = tuple(get_workload(name) for name in meta["sources"])
        vms = tuple(catalog.get(name) for name in meta["vms"])
    except Exception as exc:
        raise ValidationError(f"archive references unknown catalog entries: {exc}") from exc

    hp = meta["hyperparams"]
    selector = VestaSelector(
        vms=vms,
        sources=sources,
        repetitions=meta["repetitions"],
        cache=cache,
        faults=faults,
        store=store,
        catalog=catalog,
        # Tolerant of archives written before a hyperparameter existed
        # (e.g. pre-serving v2 archives have no cmf_mode): constructor
        # defaults cover the gap.
        **{name: hp[name] for name in _HYPERPARAMS if name in hp},
    )

    # Reconstruct the promotion list before the stage loop runs: the
    # pipeline's ``promotions`` stage re-splices these rows into U and P
    # during the restore, exactly as a live promote() would.
    promo_meta = meta.get("promotions") or []
    if promo_meta:
        try:
            labels = np.asarray(arrays["promotions.labels"], dtype=float)
            perf = np.asarray(arrays["promotions.perf"], dtype=float)
        except KeyError as exc:
            raise ValidationError(
                f"archive stamps promotions but is missing array {exc}"
            ) from exc
        if (
            labels.ndim != 2
            or perf.ndim != 2
            or labels.shape[0] != len(promo_meta)
            or perf.shape[0] != len(promo_meta)
        ):
            raise ValidationError(
                f"promotion arrays labels{labels.shape} perf{perf.shape} "
                f"inconsistent with {len(promo_meta)} stamped promotions"
            )
        selector.promotions = tuple(
            PromotedSource(
                name=entry["name"],
                label_row=labels[i],
                perf_row=perf[i],
                lineage=entry.get("lineage", ""),
            )
            for i, entry in enumerate(promo_meta)
        )

    # Route every stage through the pipeline's apply-time validation,
    # adopting it under its archived fingerprint when one was recorded.
    pipeline = selector.pipeline
    fingerprints = meta.get("stage_fingerprints", {})
    for stage in STAGES:
        fingerprint = fingerprints.get(stage)
        bundle = {}
        if stage in CACHED_STAGES:
            prefix = stage + "."
            bundle = {
                name[len(prefix):]: array
                for name, array in arrays.items()
                if name.startswith(prefix)
            }
            if not bundle and stage == "source_factors":
                # Archives from before the offline/online CMF split (all
                # of version 1, early version 2) derive the factors from
                # the restored U/V; not adopted, so a store never files
                # derived content under an archived address.
                bundle, fingerprint = pipeline._compute_source_factors(), None
            elif not bundle:
                raise ValidationError(f"archive has no arrays for stage {stage!r}")
        pipeline.restore(stage, bundle, fingerprint=fingerprint)
    selector._fitted = True
    return selector


def clone_knowledge(
    selector: VestaSelector,
    *,
    cache: ProfileCache | str | None = None,
    faults: FaultPlan | None = None,
    store: ArtifactStore | str | None = None,
) -> VestaSelector:
    """Rebuild an independent fitted selector from a live one, in memory.

    The archive round-trip (:func:`save_selector` → :func:`load_selector`)
    without touching disk: the clone shares no mutable state with the
    original, so a background promoter can grow and refit the clone while
    the original keeps serving — ``deepcopy`` of a live served selector
    would race with its online sessions.  Stage fingerprints (and thus the
    knowledge fingerprint) match the original's exactly.
    """
    meta, arrays = knowledge_state(selector)
    return restore_knowledge(
        json.loads(json.dumps(meta)),
        {name: np.array(array, copy=True) for name, array in arrays.items()},
        cache=cache,
        faults=faults,
        store=store,
    )
