"""The 20 low-level metrics the Data Collector records (Section 3.1).

The paper enumerates resource metrics (CPU system/user/idle; RAM, buffer,
cache usage; disk read/write; network send/receive/drop) and execution
metrics (task counts in computation/communication/synchronization steps;
ratios of data size to cycles, iterations, and parallelism) and says the
total is 20.  The explicit list covers 17, so we complete the set with the
three standard companions any ``sar``-style collector reports alongside
them — ``cpu_wait`` (iowait), ``mem_swap`` (spill pressure) and
``disk_util`` — and document the choice here.

Every metric is a per-sample scalar; a run's telemetry is a
``(samples, 20)`` array with columns in :data:`METRIC_NAMES` order.

This module also hosts :class:`CampaignCounters`, the progress/hit-rate
telemetry the profiling campaign engine reports — counters live here so
any layer can consume them without importing the engine itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final

__all__ = [
    "RESOURCE_METRICS",
    "EXECUTION_METRICS",
    "METRIC_NAMES",
    "METRIC_INDEX",
    "NUM_METRICS",
    "CampaignCounters",
    "metric_column",
]

#: Resource metrics: utilization fractions in [0, 1] except the byte rates
#: (``disk_read``, ``disk_write``, ``net_send``, ``net_recv``, in MB/s per
#: node) — Pearson correlation is scale-invariant so mixed units are fine.
RESOURCE_METRICS: Final[tuple[str, ...]] = (
    "cpu_user",
    "cpu_system",
    "cpu_idle",
    "cpu_wait",
    "mem_used",
    "mem_buffer",
    "mem_cache",
    "mem_swap",
    "disk_read",
    "disk_write",
    "disk_util",
    "net_send",
    "net_recv",
    "net_drop",
)

#: Execution metrics: active task counts per step kind, and the
#: data-to-{cycles, iterations, parallelism} ratios of Section 3.1.
EXECUTION_METRICS: Final[tuple[str, ...]] = (
    "tasks_compute",
    "tasks_communication",
    "tasks_synchronization",
    "data_per_cycle",
    "data_per_iteration",
    "data_per_parallelism",
)

METRIC_NAMES: Final[tuple[str, ...]] = RESOURCE_METRICS + EXECUTION_METRICS

#: Column index of each metric in a telemetry array.
METRIC_INDEX: Final[dict[str, int]] = {name: i for i, name in enumerate(METRIC_NAMES)}

NUM_METRICS: Final[int] = len(METRIC_NAMES)
assert NUM_METRICS == 20, "the paper collects exactly 20 low-level metrics"


@dataclass
class CampaignCounters:
    """Progress and cache-effectiveness counters of a profiling campaign.

    Attributes
    ----------
    scheduled:
        (workload, VM) pair-tasks requested so far.
    computed:
        Tasks actually simulated (memo misses that ran).
    cache_hits, cache_misses:
        Outcomes of the campaign's in-process memo lookups.
    elapsed_s:
        Wall-clock seconds spent inside campaign calls.
    retries:
        Run attempts lost to injected transient failures and re-tried.
    permanent_failures:
        Runs whose whole retry budget was exhausted (surfaced to callers
        as :class:`~repro.errors.ProbeFailedError`).
    stragglers:
        Runs whose runtime was inflated by an injected straggler.
    dropped_samples:
        Telemetry rows lost to injected sample drops.
    """

    scheduled: int = 0
    computed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_s: float = 0.0
    retries: int = 0
    permanent_failures: int = 0
    stragglers: int = 0
    dropped_samples: int = 0

    @property
    def completed(self) -> int:
        """Tasks resolved so far (served from cache or computed)."""
        return self.cache_hits + self.computed

    @property
    def progress(self) -> float:
        """Fraction of scheduled tasks resolved (1.0 when idle)."""
        return self.completed / self.scheduled if self.scheduled else 1.0

    @property
    def hit_rate(self) -> float:
        """Cache hit fraction over all lookups (0.0 before any lookup)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def fault_count(self) -> int:
        """Total injected-fault observations across all kinds."""
        return (
            self.retries
            + self.permanent_failures
            + self.stragglers
            + self.dropped_samples
        )

    def record_fault(self, kind: str, detail: float = 0.0) -> None:
        """Fold one fault event (by its ``kind``) into the counters."""
        if kind == "transient":
            self.retries += 1
        elif kind == "permanent":
            self.permanent_failures += 1
        elif kind == "straggle":
            self.stragglers += 1
        elif kind == "drop":
            self.dropped_samples += int(detail)

    def reset(self) -> None:
        self.scheduled = self.computed = 0
        self.cache_hits = self.cache_misses = 0
        self.elapsed_s = 0.0
        self.retries = self.permanent_failures = 0
        self.stragglers = self.dropped_samples = 0

    def summary(self) -> str:
        """One-line human-readable report."""
        line = (
            f"{self.completed}/{self.scheduled} profiles "
            f"({self.cache_hits} cached, {self.computed} computed, "
            f"hit rate {self.hit_rate:.0%}) in {self.elapsed_s:.2f}s"
        )
        if self.fault_count:
            line += (
                f"; faults: {self.retries} retried, "
                f"{self.permanent_failures} failed, "
                f"{self.stragglers} straggled, "
                f"{self.dropped_samples} samples dropped"
            )
        return line


def metric_column(name: str) -> int:
    """Column index for ``name``; raises ``KeyError`` with a helpful message."""
    try:
        return METRIC_INDEX[name]
    except KeyError:
        raise KeyError(f"unknown metric {name!r}; known: {METRIC_NAMES}") from None
