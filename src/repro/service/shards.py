"""Sharded serving: hash-routed fleet of micro-batch scheduler shards.

One :class:`~repro.service.scheduler.MicroBatchScheduler` saturates at
one worker's wave rate; the :class:`ShardRouter` multiplies that by
running K schedulers side by side and routing every request by
*workload identity* — ``crc32(workload_name) % K`` (a stable hash;
Python's ``hash()`` is per-process randomized).  Identity routing is
what keeps the sharded tier bit-identical to sequential serving for
free: a given workload always lands on the same shard, so its memoized
profiling/session state stays shard-local and warm, and no two shards
ever race on the same workload's campaign memo.  Each shard batches
exactly like a lone scheduler: whatever queued on it while its previous
wave ran is its next wave, and a repeat request under an unchanged
knowledge fingerprint is answered from that shard's memo cache.

Shards do not share a live selector — :class:`VestaSelector` online
sessions mutate per-selector state, and K scheduler threads under one
interpreter lock would not compute in parallel anyway.  Instead every
shard ships its waves to its own worker *process*
(:class:`~repro.service.backend.ProcessPoolBackend`), which serves from
its own replica of the base registry's knowledge, sent through the
worker's pipe: K shards, K worker processes, no files.

Hot-reload flows through fingerprints: each wave snapshots the base
handle and ships its fingerprint with the wave, together with the
knowledge itself whenever the worker does not hold that fingerprint,
and the worker restores the new replica before serving — so no
response ever mixes knowledge versions, exactly the single-scheduler
contract.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable
from concurrent.futures import Future

from repro.errors import ValidationError
from repro.service.backend import ProcessPoolBackend
from repro.service.registry import SelectorRegistry
from repro.service.scheduler import MicroBatchScheduler, SelectResponse
from repro.telemetry.latency import DurationSummary
from repro.workloads.catalog import get_workload
from repro.workloads.spec import WorkloadSpec

__all__ = ["ShardRouter", "shard_for"]


def shard_for(workload_name: str, shards: int) -> int:
    """Stable shard index for a workload name (crc32, not ``hash()``)."""
    return zlib.crc32(workload_name.encode()) % shards


class ShardRouter:
    """Route selection requests across K scheduler shards.

    Exposes the scheduler's surface (``submit``/``select``/
    ``select_all``/``stats``/``close``), so the HTTP frontend drives a
    router exactly like a single scheduler.  ``queue_limit`` and
    ``max_batch`` are per shard.  Each shard owns one
    :class:`~repro.service.backend.ProcessPoolBackend`, so a router
    starts K ``spawn`` worker processes.

    Parameters
    ----------
    registry:
        The base registry; reloads through it propagate to every shard.
    shards:
        Number of scheduler shards (>= 1).
    rec_cache_size:
        Per-shard recommendation memo-cache bound (see
        :class:`MicroBatchScheduler`); identity routing keeps each
        workload's entries on its own shard, so the caches never
        duplicate entries across the fleet.
    """

    def __init__(
        self,
        registry: SelectorRegistry,
        selector: str = "default",
        *,
        shards: int = 2,
        max_batch: int = 16,
        queue_limit: int = 128,
        rec_cache_size: int = 512,
    ) -> None:
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        self.registry = registry
        self.selector_name = selector
        self._shards = [
            MicroBatchScheduler(
                registry,
                selector,
                max_batch=max_batch,
                queue_limit=queue_limit,
                backend=ProcessPoolBackend(),
                shard=index,
                rec_cache_size=rec_cache_size,
            )
            for index in range(shards)
        ]

    # -- lifecycle -----------------------------------------------------------

    def close(self, timeout_s: float = 10.0) -> None:
        """Close every shard and its backend."""
        for shard in self._shards:
            shard.close(timeout_s=timeout_s)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- submission -----------------------------------------------------------

    @property
    def shards(self) -> tuple[MicroBatchScheduler, ...]:
        return tuple(self._shards)

    def shard_for(self, workload_name: str) -> int:
        return shard_for(workload_name, len(self._shards))

    def submit(
        self,
        workload: WorkloadSpec | str,
        objective: str = "time",
        *,
        timeout_s: float | None = None,
    ) -> Future:
        """Route one request to its workload's shard; see
        :meth:`MicroBatchScheduler.submit`."""
        spec = get_workload(workload) if isinstance(workload, str) else workload
        shard = self._shards[self.shard_for(spec.name)]
        return shard.submit(spec, objective, timeout_s=timeout_s)

    def select(
        self,
        workload: WorkloadSpec | str,
        objective: str = "time",
        *,
        timeout_s: float | None = None,
    ) -> SelectResponse:
        """Blocking submit: wait for (and return) the response."""
        return self.submit(workload, objective, timeout_s=timeout_s).result()

    def select_all(
        self, workloads: Iterable[WorkloadSpec | str], objective: str = "time"
    ) -> tuple[SelectResponse, ...]:
        """Submit many requests at once and wait for all responses."""
        futures = [self.submit(w, objective) for w in workloads]
        return tuple(f.result() for f in futures)

    # -- introspection -----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return sum(shard.queue_depth for shard in self._shards)

    def stats(self) -> dict:
        """Fleet statistics: scheduler-shaped totals plus per-shard rows.

        The top level keeps every single-scheduler key (counter totals,
        merged histogram, latency aggregated over the shard windows) so
        ``/statsz`` consumers see one shape regardless of sharding.
        """
        per_shard = [shard.stats() for shard in self._shards]
        histogram: dict[str, int] = {}
        for row in per_shard:
            for size, count in row["batch_size_histogram"].items():
                histogram[size] = histogram.get(size, 0) + count
        totals = {
            key: sum(row[key] for row in per_shard)
            for key in (
                "queue_depth",
                "submitted",
                "completed",
                "rejected",
                "expired",
                "shed",
                "failed",
                "batches",
            )
        }
        first = per_shard[0]
        rec_rows = [row["rec_cache"] for row in per_shard if row["rec_cache"]]
        return {
            "selector": self.selector_name,
            "shards": len(self._shards),
            "queue_limit": first["queue_limit"],
            "max_batch": first["max_batch"],
            **totals,
            "batch_size_histogram": dict(sorted(histogram.items())),
            "latency": DurationSummary.aggregate(
                [shard.latency for shard in self._shards]
            ),
            # Fleet-wide memo-cache counters (summed over shards; the
            # per-shard rows keep the per-cache view).
            "rec_cache": (
                {
                    key: sum(row[key] for row in rec_rows)
                    for key in ("size", "maxsize", "hits", "misses", "evictions")
                }
                if rec_rows
                else None
            ),
            "per_shard": per_shard,
        }
