"""Runtime prediction from label-space similarity + probe fingerprinting.

Once CMF has completed the target's workload-label row (Algorithm 1 line
12), Vesta turns knowledge into per-VM runtime predictions.  We implement
the natural reading of "reuse data from X": the completed row identifies
the most similar source workloads in label space; their offline
performance profiles (runtime on every VM type) provide the *shape* of the
target's VM response, and the target's few probe observations provide the
*scale*:

    T̂(t) = Σ_i w_i · α_i · P[i, t]

where ``w_i`` are the top-m cosine similarities between the completed row
and source rows, ``P`` is the offline performance matrix, and each
``α_i = median_p(obs(p) / P[i, p])`` calibrates source *i* to the target's
observed runtimes on the probe VMs.  Probe VMs themselves predict as their
observed values.

This is the combination of knowledge reuse and probe anchoring that lets
Vesta predict a 100-VM response surface from 4 runs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["SimilarityPredictor"]

#: Calibration-slope clip range: slopes outside this are probe-noise
#: artefacts, not real framework response differences.
_SLOPE_RANGE = (0.25, 4.0)


def _affine_log_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares fit ``y ≈ a + b·x`` with the slope clipped sanely.

    Degenerate inputs (fewer than 2 distinct x) fall back to the pure
    scale calibration ``b = 1``.  Needs at least one point.
    """
    (a,), (b,) = _affine_log_fits(x[None, :], y)
    return float(a), float(b)


def _affine_log_fits(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_affine_log_fit` of ``y`` against each row of ``x``.

    ``x`` is ``(fits, points)``; returns the intercepts and slopes.  Each
    row's fit is bit-identical to the 1-D one, ``b = xc @ (y - y.mean())
    / (xc @ xc)`` with ``xc = x - x.mean()``: a row's mean reduces the
    contiguous row as the 1-D mean does, and both contractions are 1-D
    dots of contiguous rows.
    """
    x = np.ascontiguousarray(x)
    x_mean = x.mean(axis=1)
    y_mean = y.mean()
    yc = y - y_mean
    centered = x - x_mean[:, None]
    spread = (x.max(axis=1) - x.min(axis=1)).tolist()
    lo, hi = _SLOPE_RANGE
    slopes = []
    for xc, ptp in zip(centered, spread):
        if ptp < 1e-9:
            slopes.append(1.0)
        else:
            b = float(xc @ yc) / float(xc @ xc)
            slopes.append(min(max(b, lo), hi))
    b = np.array(slopes)
    return y_mean - b * x_mean, b


class SimilarityPredictor:
    """Predict a target's per-VM runtimes from source profiles.

    Parameters
    ----------
    perf_matrix:
        ``(sources, vms)`` offline P90 runtimes of the source workloads.
    source_rows:
        ``(sources, labels)`` source workload-label matrix U.
    top_m:
        Number of nearest source workloads blended.
    temperature:
        Softmax temperature over similarities (smaller = peakier).
    """

    def __init__(
        self,
        perf_matrix: np.ndarray,
        source_rows: np.ndarray,
        *,
        top_m: int = 4,
        temperature: float = 0.1,
    ) -> None:
        perf_matrix = np.asarray(perf_matrix, dtype=float)
        source_rows = np.asarray(source_rows, dtype=float)
        if perf_matrix.ndim != 2 or source_rows.ndim != 2:
            raise ValidationError("perf_matrix and source_rows must be 2-D")
        if perf_matrix.shape[0] != source_rows.shape[0]:
            raise ValidationError(
                f"source count mismatch: perf {perf_matrix.shape[0]} vs "
                f"rows {source_rows.shape[0]}"
            )
        if perf_matrix.shape[0] == 0:
            raise ValidationError("need at least one source workload")
        if (perf_matrix <= 0).any():
            raise ValidationError("perf_matrix runtimes must be positive")
        if top_m < 1 or temperature <= 0:
            raise ValidationError("top_m must be >= 1 and temperature > 0")
        self.perf = perf_matrix
        self.rows = source_rows
        self.top_m = min(top_m, perf_matrix.shape[0])
        self.temperature = temperature
        self._log_perf = np.log(perf_matrix)
        norms = np.linalg.norm(source_rows, axis=1)
        self._row_norms = np.where(norms > 0, norms, 1.0)

    def similarities(self, target_row: np.ndarray) -> np.ndarray:
        """Cosine similarity of ``target_row`` to every source row."""
        target_row = np.asarray(target_row, dtype=float)
        if target_row.shape != (self.rows.shape[1],):
            raise ValidationError(
                f"target row must have {self.rows.shape[1]} labels, "
                f"got {target_row.shape}"
            )
        tnorm = float(np.linalg.norm(target_row))
        if tnorm == 0:
            return np.zeros(self.rows.shape[0])
        return self.rows @ target_row / (self._row_norms * tnorm)

    def _weights(self, sims: np.ndarray) -> np.ndarray:
        """Softmax weights over the top-m most similar sources."""
        order = np.argsort(sims)[::-1][: self.top_m]
        w = np.zeros_like(sims)
        top = sims[order]
        z = np.exp((top - top.max()) / self.temperature)
        w[order] = z / z.sum()
        return w

    def predict(
        self,
        target_row: np.ndarray,
        probe_vm_idx: np.ndarray,
        probe_runtimes: np.ndarray,
        *,
        affinity: np.ndarray | None = None,
        affinity_tau: float = 0.3,
        affinity_weight: float = 0.5,
    ) -> np.ndarray:
        """Predicted runtime on every VM (probe entries = observed values).

        Two knowledge paths are blended in log space:

        - **profile transfer**: similarity-weighted source response
          profiles, scale-calibrated by the probe observations;
        - **affinity transfer** (when ``affinity`` is given): the two-hop
          workload → label → VM walk of the bipartite graph.  The label-VM
          matrix stores K-Means-smoothed *near-best* scores, which are
          ``exp(-slowdown / τ)`` aggregates — so an affinity converts back
          into an implied slowdown ``-τ·ln(affinity / max affinity)`` and,
          probe-calibrated, into a runtime.  This path carries the
          cross-framework knowledge: it is scale-free and category-level,
          which is exactly why it survives the engine change when raw
          profiles do not (Section 3.2).

        Parameters
        ----------
        target_row:
            Completed workload-label row of the target.
        probe_vm_idx:
            Column indices (into the VM axis of ``perf_matrix``) of the
            sandbox + probe VMs that were actually run.
        probe_runtimes:
            Observed runtimes on those VMs, same order.
        affinity:
            Per-VM affinity ``V @ target_row`` (optional).
        affinity_tau:
            The near-best temperature used when V was built.
        affinity_weight:
            Log-space blend weight of the affinity path, in [0, 1].
        """
        probe_vm_idx = np.asarray(probe_vm_idx, dtype=int)
        probe_runtimes = np.asarray(probe_runtimes, dtype=float)
        if probe_vm_idx.ndim != 1 or probe_vm_idx.shape != probe_runtimes.shape:
            raise ValidationError("probe indices/runtimes must be matching 1-D arrays")
        if probe_vm_idx.size == 0:
            raise ValidationError("need at least one probe observation")
        if (probe_runtimes <= 0).any():
            raise ValidationError("probe runtimes must be positive")
        if not 0.0 <= affinity_weight <= 1.0:
            raise ValidationError("affinity_weight must be in [0, 1]")

        sims = self.similarities(target_row)
        weights = self._weights(sims)
        active = np.nonzero(weights)[0]

        # Per-source affine calibration in log space: fit
        #   log T*(p) ≈ a_i + b_i · log P[i, p]
        # on the probe observations.  The slope b_i absorbs the response
        # *amplification* between frameworks (e.g. Spark's VM-size scaling
        # is much steeper than Hadoop's split-bound scaling) — a plain
        # multiplicative scale cannot, and systematically over-predicts
        # the large end of the catalog when transferring Hadoop profiles
        # to Spark.
        log_obs = np.log(probe_runtimes)
        log_perf = self._log_perf[active]
        a, b = _affine_log_fits(log_perf[:, probe_vm_idx], log_obs)
        terms = weights[active, None] * (a[:, None] + b[:, None] * log_perf)
        # Summed one source at a time, in source order: the bits depend
        # on the order of the additions.
        log_pred = np.zeros(self.perf.shape[1])
        for term in terms:
            log_pred += term
        pred = np.exp(log_pred)

        if affinity is not None and affinity_weight > 0:
            affinity = np.asarray(affinity, dtype=float)
            if affinity.shape != (self.perf.shape[1],):
                raise ValidationError(
                    f"affinity must have {self.perf.shape[1]} entries, "
                    f"got {affinity.shape}"
                )
            peak = float(affinity.max())
            if peak > 0:
                norm = np.clip(affinity / peak, 1e-6, 1.0)
                slowdown = -affinity_tau * np.log(norm)  # implied (T/T_best - 1)
                # Same affine log-fit against the probes for the affinity
                # path's implied response curve.
                x = np.log1p(slowdown)
                a_f, b_f = _affine_log_fit(x[probe_vm_idx], log_obs)
                aff_pred = np.exp(a_f + b_f * x)
                pred = np.exp(
                    (1.0 - affinity_weight) * np.log(np.maximum(pred, 1e-9))
                    + affinity_weight * np.log(np.maximum(aff_pred, 1e-9))
                )

        # Trust the actual observations where we have them.
        pred = pred.copy()
        pred[probe_vm_idx] = probe_runtimes
        return pred
