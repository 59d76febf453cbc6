"""Label universe: (correlation feature, 0.05-interval) pairs.

Labels are the middle layer of the paper's bipartite graph.  A label is a
*(feature, interval)* pair; a workload "conforms to" the label whose
interval its correlation value falls into (Equation 3).

Beyond the paper's binary membership we also expose a **soft** membership
(triangular kernel over interval distance).  Correlation values estimated
from a handful of probe runs are noisy; hard 0/1 edges make the
factorization brittle at interval boundaries, while the soft edges decay
smoothly and keep the CMF gradients informative.  Binary membership
(`hard=True`) reproduces Equation 3 exactly.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.intervals import INTERVAL_WIDTH, interval_of, num_intervals
from repro.errors import ValidationError

__all__ = ["LabelSpace"]


class LabelSpace:
    """Fixed label universe over a set of retained correlation features.

    Parameters
    ----------
    feature_names:
        Names of the retained correlation features (after PCA filtering),
        in order; their index defines the label id blocks.
    width:
        Interval width (0.05 in the paper).
    softness:
        Half-width (in intervals) of the triangular soft-membership
        kernel.  0 → hard binary labels.
    """

    def __init__(
        self,
        feature_names: tuple[str, ...],
        *,
        width: float = INTERVAL_WIDTH,
        softness: int = 2,
    ) -> None:
        if not feature_names:
            raise ValidationError("need at least one feature")
        if softness < 0:
            raise ValidationError("softness must be >= 0")
        self.feature_names = tuple(feature_names)
        self.width = width
        self.softness = softness
        self.intervals = num_intervals(width)
        self._kernels: dict[int, list[tuple[int, np.ndarray]]] = {}

    def _kernel(self, radius: int) -> list[tuple[int, np.ndarray]]:
        """Per center interval: the first interval its kernel covers and
        the L1-normalized triangular weights.  Built once per radius."""
        kernel = self._kernels.get(radius)
        if kernel is None:
            kernel = []
            for center in range(self.intervals):
                lo = max(0, center - radius)
                hi = min(self.intervals - 1, center + radius)
                idx = np.arange(lo, hi + 1)
                weights = 1.0 - np.abs(idx - center) / (radius + 1.0)
                weights /= weights.sum()
                kernel.append((lo, weights))
            self._kernels[radius] = kernel
        return kernel

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_labels(self) -> int:
        """Size of the label universe: features × intervals."""
        return self.n_features * self.intervals

    def label_id(self, feature: int, interval: int) -> int:
        """Flat label id of (feature, interval)."""
        if not 0 <= feature < self.n_features:
            raise ValidationError(f"feature index out of range: {feature}")
        if not 0 <= interval < self.intervals:
            raise ValidationError(f"interval index out of range: {interval}")
        return feature * self.intervals + interval

    def label_name(self, label_id: int) -> str:
        """Human-readable name, e.g. ``"cpu-to-memory[0.10,0.15)"``."""
        if not 0 <= label_id < self.n_labels:
            raise ValidationError(f"label id out of range: {label_id}")
        feature, interval = divmod(label_id, self.intervals)
        lo = -1.0 + interval * self.width
        return f"{self.feature_names[feature]}[{lo:+.2f},{min(lo + self.width, 1.0):+.2f})"

    # -- memberships -----------------------------------------------------------

    def membership(self, vector: np.ndarray, *, hard: bool = False) -> np.ndarray:
        """Workload-label membership row for one correlation vector.

        Soft mode spreads a triangular kernel over ``±softness`` intervals
        around the measured one; hard mode is Equation 3's indicator.
        The row is L1-normalized per feature block so every workload
        carries unit mass per feature.
        """
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.n_features,):
            raise ValidationError(
                f"expected vector of {self.n_features} features, got {vector.shape}"
            )
        row = np.zeros(self.n_labels)
        kernel = self._kernel(0 if hard else self.softness)
        for f, value in enumerate(vector.tolist()):
            lo, weights = kernel[interval_of(value, self.width)]
            start = f * self.intervals + lo
            row[start : start + weights.size] = weights
        return row

    def membership_matrix(
        self, vectors: np.ndarray, *, hard: bool = False
    ) -> np.ndarray:
        """Stack :meth:`membership` rows for ``(workloads, features)`` input."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2:
            raise ValidationError(f"vectors must be 2-D, got {vectors.shape}")
        return np.vstack([self.membership(v, hard=hard) for v in vectors])

    def feature_block(self, feature: int) -> slice:
        """Column slice of ``feature``'s labels in membership matrices."""
        if not 0 <= feature < self.n_features:
            raise ValidationError(f"feature index out of range: {feature}")
        start = feature * self.intervals
        return slice(start, start + self.intervals)
