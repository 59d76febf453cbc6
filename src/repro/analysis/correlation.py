"""Correlation similarities — the paper's Table 1 features.

After each profiled run the paper computes Pearson correlations between
pairs of low-level metric streams (e.g. a 0.85 CPU-to-memory correlation)
and uses ten named pairs as the *high-level similarity* features that
transfer across frameworks.

Each Table-1 correlation is defined here as a pair of *derived series*
built from the 20-metric telemetry array (e.g. "CPU" is user+system busy,
"disk" is read+write traffic).  :func:`correlation_vector` maps a run's
``(samples, 20)`` series to the 10-dimensional correlation feature vector
in [-1, 1].
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import Final

import numpy as np

from repro.errors import ValidationError
from repro.telemetry.metrics import METRIC_INDEX, NUM_METRICS

__all__ = [
    "CORRELATION_NAMES",
    "NUM_CORRELATIONS",
    "pearson",
    "correlation_matrix",
    "correlation_vector",
    "aggregate_correlation_vectors",
]


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two 1-D series, 0.0 for degenerate inputs.

    A constant series has undefined correlation; returning 0 ("no
    relationship") keeps downstream feature vectors total and bounded,
    matching how the paper's normalized values behave.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError(f"series shapes differ: {x.shape} vs {y.shape}")
    if x.size < 2:
        return 0.0
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.sqrt((xc @ xc) * (yc @ yc)))
    if denom <= 1e-12:
        return 0.0
    return float(np.clip((xc @ yc) / denom, -1.0, 1.0))


def correlation_matrix(series: np.ndarray) -> np.ndarray:
    """Full 20×20 Pearson matrix of a telemetry array (degenerate cols → 0)."""
    series = _check_series(series)
    t, m = series.shape
    centered = series - series.mean(axis=0, keepdims=True)
    norms = np.sqrt((centered**2).sum(axis=0))
    safe = np.where(norms > 1e-12, norms, 1.0)
    unit = centered / safe
    corr = unit.T @ unit
    degenerate = norms <= 1e-12
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    np.fill_diagonal(corr, np.where(degenerate, 0.0, 1.0))
    return np.clip(corr, -1.0, 1.0)


# Derived series used by the Table-1 pairs: each is the sum of these
# metric columns.  Byte-rate metrics are summed raw; Pearson is
# scale-invariant so mixed units are harmless.
_DERIVED_METRICS: Final[dict[str, tuple[str, ...]]] = {
    "cpu": ("cpu_user", "cpu_system"),
    "memory": ("mem_used",),
    "disk": ("disk_read", "disk_write"),
    "network": ("net_send", "net_recv"),
    "buffer": ("mem_buffer",),
    "cache": ("mem_cache",),
    "iteration": ("data_per_iteration",),
    "parallelism": ("tasks_compute", "tasks_communication", "tasks_synchronization"),
    "data": ("data_per_cycle",),
    "computation": ("tasks_compute",),
    "cycle": ("cpu_user", "cpu_system"),
    "synchronization": ("tasks_synchronization",),
}


def _derived(cols: list[int]) -> Callable[[np.ndarray], np.ndarray]:
    return lambda series: series[:, cols].sum(axis=1)


#: The definitional derived series, one function per name.
_DERIVED: Final[dict[str, Callable[[np.ndarray], np.ndarray]]] = {
    name: _derived([METRIC_INDEX[m] for m in metrics])
    for name, metrics in _DERIVED_METRICS.items()
}

#: The ten Table-1 correlation similarities, in table order.  The first
#: five are resource correlations, the last five execution correlations.
CORRELATION_NAMES: Final[tuple[str, ...]] = (
    "cpu-to-memory",
    "memory-to-disk",
    "disk-to-network",
    "buffer-to-cache",
    "cpu-to-network",
    "iteration-to-parallelism",
    "data-to-computation",
    "data-to-cycle",
    "disk-to-synchronization",
    "network-to-synchronization",
)

NUM_CORRELATIONS: Final[int] = len(CORRELATION_NAMES)


def _split_pair(name: str) -> tuple[str, str]:
    left, _, right = name.partition("-to-")
    return left, right


def _series_plan() -> tuple[list[tuple[int, list[int]]], list[tuple[int, int]]]:
    """The distinct derived series of the ten pairs, and each pair's rows.

    ``cpu`` and ``cycle`` are one series.  The series are ordered by how
    many columns they sum, so :func:`correlation_vector` builds all
    series of one column count with one reshaped sum.  Returns those
    groups as ``(column count, their columns, flattened)`` and each pair
    as two row indices into the series.
    """
    member_cols = [
        tuple(METRIC_INDEX[m] for m in _DERIVED_METRICS[member])
        for name in CORRELATION_NAMES
        for member in _split_pair(name)
    ]
    series = sorted(dict.fromkeys(member_cols), key=len)
    row = {cols: i for i, cols in enumerate(series)}
    groups = [
        (count, [c for cols in series if len(cols) == count for c in cols])
        for count in sorted({len(cols) for cols in series})
    ]
    rows = [row[cols] for cols in member_cols]
    return groups, list(zip(rows[::2], rows[1::2]))


_GROUPS, _PAIRS = _series_plan()


def _check_series(series: np.ndarray) -> np.ndarray:
    series = np.asarray(series, dtype=float)
    if series.ndim != 2 or series.shape[1] != NUM_METRICS:
        raise ValidationError(
            f"telemetry must be (samples, {NUM_METRICS}), got {series.shape}"
        )
    return series


def correlation_vector(series: np.ndarray) -> np.ndarray:
    """Map one run's telemetry to the 10 Table-1 correlation values.

    Returns a vector aligned with :data:`CORRELATION_NAMES`, each entry in
    [-1, 1] (0 for degenerate series).
    """
    series = _check_series(series)
    samples = series.shape[0]
    if samples < 2:
        return np.zeros(NUM_CORRELATIONS)
    # Each distinct derived series is built once, as a row of one matrix.
    # Results stay bit-identical with the pairwise :func:`pearson`
    # definition because every step repeats its arithmetic: a row sums its
    # columns left to right as ``series[:, cols].sum(axis=1)`` does, a
    # row's mean reduces the contiguous row as a 1-D mean does, and every
    # dot product is a 1-D dot of contiguous rows.
    derived = np.concatenate(
        [
            series[:, cols].reshape(samples, -1, count).sum(axis=2).T
            for count, cols in _GROUPS
        ]
    )
    centered = derived - derived.mean(axis=1, keepdims=True)
    sumsq = [float(row @ row) for row in centered]
    out = []
    for left, right in _PAIRS:
        denom = math.sqrt(sumsq[left] * sumsq[right])
        if denom <= 1e-12:
            out.append(0.0)
        else:
            r = float(centered[left] @ centered[right]) / denom
            out.append(min(max(r, -1.0), 1.0))
    return np.array(out)


def aggregate_correlation_vectors(vectors: np.ndarray) -> np.ndarray:
    """Aggregate per-run correlation vectors into one workload signature.

    The paper records correlation values per run and treats the workload's
    characteristic correlations as knowledge; we use the elementwise
    median, which is robust to the occasional straggler-distorted run.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != NUM_CORRELATIONS:
        raise ValidationError(
            f"expected (runs, {NUM_CORRELATIONS}) vectors, got {vectors.shape}"
        )
    if vectors.shape[0] == 0:
        raise ValidationError("need at least one correlation vector")
    return np.median(vectors, axis=0)
