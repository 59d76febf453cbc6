"""Micro-batching request scheduler with admission control.

Concurrent ``select`` requests enqueue into a bounded buffer; a single
worker thread drains it, taking the first queued request plus whatever
else is queued (up to ``max_batch``) as **one** batched online wave,
served at once by a pluggable backend
(:mod:`repro.service.backend`): inline on the worker thread for a
standalone scheduler, or, for each shard of a
:class:`~repro.service.shards.ShardRouter`, shipped to a dedicated
worker process serving from a knowledge replica sent through its pipe.
Either way the wave is :meth:`VestaSelector.online_many`, whose results
are proven bit-identical to opening the sessions one at a time.  Because
one worker alone drives the selector, any client concurrency collapses
to a deterministic serial order of batches, and every response is
exactly what a sequential ``repro select`` would have produced for the
same request.

The worker never holds a batch open for co-travellers: under load, the
requests that queue while one wave runs already form the next batch,
so a waiting window would only delay a request that arrived alone.

Backpressure degrades in stages instead of blanket-rejecting at a fixed
depth.  When the queue is full, the scheduler first *sheds* queued
requests that cannot meet their deadline anyway — already lapsed, or
provably unreachable given the measured batch service time — completing
them with :class:`~repro.errors.DeadlineExceededError` to make room for
requests that still can.  Only when every queued request is still
servable does admission reject with
:class:`~repro.errors.ServiceOverloadedError`, which then carries the
queue depth and a retry hint derived from the observed service time.

Deadlines are enforced at *both* ends of a wave: a request whose
deadline lapsed while queued is completed with
:class:`DeadlineExceededError` at dequeue time rather than consuming
batch capacity, and a request whose deadline lapses *during* batch
execution has its stale result discarded and the same error returned —
a slot already burned, but never an answer delivered after the caller
stopped waiting.

Every batch snapshots one :class:`~repro.service.registry.SelectorHandle`
from the registry before serving, so a hot-reload never mixes knowledge
versions within a batch — each response carries the fingerprint and
generation that produced it.

Steady-state traffic repeats a small set of requests, and selection is
deterministic per knowledge version, so the scheduler keeps a bounded
recommendation memo cache keyed by ``(knowledge fingerprint, workload,
objective)``.  The knowledge fingerprint already identifies the catalog:
the VM tuple's content is in every pipeline stage, and a non-default
catalog's name and content fingerprint (pricing rule included) are
stamped into the root stages.  A hit is answered at submit time — no
queueing, no wave — with the byte-identical recommendation the original
wave computed, stamped ``cached=True``.  Reload invalidation is by
construction (the fingerprint is in the key); ``rec_cache_size=0`` turns
the layer off entirely.

Fault tolerance reuses the online degradation machinery: selectors
running under a fault plan return ``degraded`` recommendations (lost
probes, widened thresholds) which flow through unchanged, and when a
batch-level wave fails permanently the backend falls back to serving
the batch's requests individually so one poisoned target fails alone
instead of failing its neighbours.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Iterable
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.core.caching import LRUCache
from repro.core.vesta import Recommendation
from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.service.backend import InlineBackend
from repro.service.registry import SelectorRegistry
from repro.telemetry.latency import DurationSummary
from repro.workloads.catalog import get_workload
from repro.workloads.spec import WorkloadSpec

__all__ = ["MicroBatchScheduler", "SelectResponse"]

_OBJECTIVES = ("time", "budget")

#: Smoothing for the batch-service-time estimate driving load-shedding
#: and retry hints.  Heavy enough to ride out one odd wave, light enough
#: to track a knowledge reload that changes the serving cost.
_EWMA_ALPHA = 0.2


@dataclass(frozen=True)
class SelectResponse:
    """One served selection: the recommendation plus serving provenance.

    ``fingerprint``/``generation`` identify the knowledge version that
    answered (constant within a batch); ``batch_id``/``batch_size``
    locate the coalesced wave; ``queued_ms``/``service_ms`` split the
    request's latency into waiting and serving time; ``shard`` is the
    scheduler shard that served it (0 for an unsharded scheduler).
    ``cached`` marks answers served from the recommendation memo cache —
    ``batch_id``/``batch_size`` then locate the wave that originally
    computed the recommendation.
    """

    recommendation: Recommendation = field(repr=False)
    selector: str
    fingerprint: str
    generation: int
    batch_id: int
    batch_size: int
    queued_ms: float
    service_ms: float
    shard: int = 0
    cached: bool = False


def _memo_key(handle, workload: str, objective: str) -> tuple:
    """Memo-cache key of one request under one knowledge handle.

    The knowledge fingerprint is in the key, so invalidation on
    hot-reload happens by construction: the reloaded handle never finds
    the old version's entries, and LRU ages them out.  No entry is ever
    deleted for correctness reasons.
    """
    return handle.fingerprint, workload, objective


@dataclass
class _Pending:
    """One admitted request waiting in the queue."""

    spec: WorkloadSpec
    objective: str
    future: Future
    enqueued: float
    deadline: float | None


class MicroBatchScheduler:
    """Coalesce concurrent selection requests into batched online waves.

    Parameters
    ----------
    registry:
        Source of :class:`SelectorHandle` snapshots.  Anything with a
        ``get(name)`` returning handles works; every shard of a router
        reads the same base registry.
    selector:
        Registry name served by this scheduler.
    max_batch:
        Largest coalesced wave (>= 1).  ``1`` degenerates to
        one-request-at-a-time serving — the determinism baseline.
    queue_limit:
        Admission bound.  A full queue first sheds queued requests whose
        deadlines are unmeetable, then rejects with
        :class:`ServiceOverloadedError`.
    backend:
        Execution backend for waves; defaults to a journal-free
        :class:`~repro.service.backend.InlineBackend`.  The scheduler
        owns it: :meth:`close` closes the backend too.
    shard:
        Shard index stamped on responses and stats (routers set this).
    rec_cache_size:
        Entries in the recommendation memo cache, keyed by
        ``(knowledge fingerprint, workload, objective)``.  A repeat
        request whose knowledge version is unchanged is answered at
        submit time without touching the worker, byte-identical to the
        wave that computed it (selection is deterministic per
        fingerprint).  ``0`` disables the cache.
    start:
        Start the worker thread immediately (tests pass ``False`` to
        exercise admission control with a stalled worker, or to queue a
        burst that the first wave then serves together).
    """

    def __init__(
        self,
        registry: SelectorRegistry,
        selector: str = "default",
        *,
        max_batch: int = 16,
        queue_limit: int = 128,
        backend=None,
        shard: int = 0,
        rec_cache_size: int = 512,
        start: bool = True,
    ) -> None:
        if max_batch < 1:
            raise ValidationError(f"max_batch must be >= 1, got {max_batch}")
        if queue_limit < 1:
            raise ValidationError(f"queue_limit must be >= 1, got {queue_limit}")
        if rec_cache_size < 0:
            raise ValidationError(
                f"rec_cache_size must be >= 0, got {rec_cache_size}"
            )
        self.registry = registry
        self.selector_name = selector
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.backend = backend if backend is not None else InlineBackend()
        self.shard = shard
        self._rec_cache = LRUCache(rec_cache_size) if rec_cache_size > 0 else None
        self._pending: deque[_Pending] = deque()
        self._cond = threading.Condition()
        self._stats_lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._rejected = 0
        self._expired = 0
        self._shed = 0
        self._failed = 0
        self._batches = 0
        self._batch_sizes: dict[int, int] = {}
        self._service_ewma_s: float | None = None
        self._latency = DurationSummary()
        self._closed = False
        self._worker: threading.Thread | None = None
        if start:
            self.start()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the worker thread (idempotent)."""
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._run,
                name=f"select-worker[{self.selector_name}:{self.shard}]",
                daemon=True,
            )
            self._worker.start()

    def close(self, timeout_s: float = 10.0) -> None:
        """Stop accepting requests, drain the worker, fail leftovers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        if self._worker is not None and self._worker.is_alive():
            self._worker.join(timeout=timeout_s)
        self._drain_failed()
        self.backend.close()

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _drain_failed(self) -> None:
        """Complete anything still queued after shutdown with an error."""
        with self._cond:
            leftovers = list(self._pending)
            self._pending.clear()
        for req in leftovers:
            req.future.set_exception(
                ServiceError("selection scheduler is shut down")
            )

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        workload: WorkloadSpec | str,
        objective: str = "time",
        *,
        timeout_s: float | None = None,
    ) -> Future:
        """Admit one selection request; returns a future of
        :class:`SelectResponse`.

        Validates the workload name and objective immediately (callers
        see :class:`~repro.errors.CatalogError` /
        :class:`ValidationError` at submit time, not from the future).
        A full queue triggers load-shedding before rejection: queued
        requests with unmeetable deadlines are completed with
        :class:`DeadlineExceededError` to free their slots; if none can
        be shed, the submit raises :class:`ServiceOverloadedError` —
        or :class:`DeadlineExceededError` when this request's own
        deadline is already unmeetable, so the caller knows a retry is
        pointless.
        """
        if objective not in _OBJECTIVES:
            raise ValidationError(
                f"objective must be one of {_OBJECTIVES}, got {objective!r}"
            )
        spec = get_workload(workload) if isinstance(workload, str) else workload
        if self._rec_cache is not None:
            hit = self._serve_from_cache(spec, objective)
            if hit is not None:
                return hit
        now = time.monotonic()
        pending = _Pending(
            spec=spec,
            objective=objective,
            future=Future(),
            enqueued=now,
            deadline=None if timeout_s is None else now + timeout_s,
        )
        shed: list[tuple[_Pending, float]] = []
        error: ReproError | None = None
        with self._cond:
            if self._closed:
                raise ServiceError("selection scheduler is shut down")
            ewma = self.service_time_ewma_s or 0.0
            if len(self._pending) >= self.queue_limit:
                shed = self._shed_doomed_locked(now, ewma)
            if len(self._pending) < self.queue_limit:
                self._pending.append(pending)
                self._cond.notify()
            else:
                depth = len(self._pending)
                est_wait = ewma * (depth // self.max_batch)
                if pending.deadline is not None and now + est_wait > pending.deadline:
                    error = DeadlineExceededError(
                        spec.name, waited_s=0.0, stage="shed"
                    )
                else:
                    error = ServiceOverloadedError(
                        self.queue_limit,
                        queue_depth=depth,
                        # 1 ms before the first wave has been timed.
                        retry_after_s=round(ewma, 3) or 0.001,
                    )
        for doomed, waited in shed:
            doomed.future.set_exception(
                DeadlineExceededError(
                    doomed.spec.name, waited_s=waited, stage="shed"
                )
            )
        with self._stats_lock:
            self._shed += len(shed)
            if error is None:
                self._submitted += 1
            elif isinstance(error, DeadlineExceededError):
                self._shed += 1
            else:
                self._rejected += 1
        if error is not None:
            raise error
        return pending.future

    def _serve_from_cache(self, spec: WorkloadSpec, objective: str) -> Future | None:
        """Complete a submit from the memo cache; ``None`` on a miss.

        The lookup resolves the registry's current handle, so a reload
        that already swapped it misses here even if the worker has not
        served the new version yet — the conservative direction.
        """
        started = time.monotonic()
        try:
            handle = self.registry.get(self.selector_name)
        except ReproError:
            # Unknown selector: the wave surfaces the error.
            return None
        entry = self._rec_cache.get(_memo_key(handle, spec.name, objective))
        if entry is None:
            return None
        with self._cond:
            if self._closed:
                raise ServiceError("selection scheduler is shut down")
        recommendation, batch_id, batch_size = entry
        done = time.monotonic()
        response = SelectResponse(
            recommendation=recommendation,
            selector=handle.name,
            fingerprint=handle.fingerprint,
            generation=handle.generation,
            batch_id=batch_id,
            batch_size=batch_size,
            queued_ms=0.0,
            service_ms=round((done - started) * 1e3, 3),
            shard=self.shard,
            cached=True,
        )
        with self._stats_lock:
            self._submitted += 1
            self._completed += 1
            self._latency.record(done - started)
        future: Future = Future()
        future.set_result(response)
        return future

    def _shed_doomed_locked(
        self, now: float, ewma: float
    ) -> list[tuple[_Pending, float]]:
        """Drop queued requests that cannot meet their deadline.

        A request is doomed when its deadline already lapsed, or when
        its estimated service start — queue position ahead of it divided
        into waves of ``max_batch``, each costing the measured batch
        service time — lands past the deadline.  The estimate is
        deliberately conservative (it ignores the wave in flight), so
        shedding never kills a request that plain waiting might save.
        """
        kept: deque[_Pending] = deque()
        shed: list[tuple[_Pending, float]] = []
        for req in self._pending:
            est_start = now + ewma * (len(kept) // self.max_batch)
            if req.deadline is not None and (
                now > req.deadline or est_start > req.deadline
            ):
                shed.append((req, now - req.enqueued))
            else:
                kept.append(req)
        if shed:
            self._pending = kept
        return shed

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

    # -- worker ----------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:
                    return  # closed and drained
                batch = [
                    self._pending.popleft()
                    for _ in range(min(self.max_batch, len(self._pending)))
                ]
            self._serve_batch(batch)

    def _serve_batch(self, batch: list[_Pending]) -> None:
        served_at = time.monotonic()
        live: list[_Pending] = []
        for req in batch:
            if req.deadline is not None and served_at > req.deadline:
                req.future.set_exception(
                    DeadlineExceededError(
                        req.spec.name, waited_s=served_at - req.enqueued
                    )
                )
                with self._stats_lock:
                    self._expired += 1
            else:
                live.append(req)
        if not live:
            return
        try:
            handle = self.registry.get(self.selector_name)
            outcomes = self.backend.run(
                handle, [(req.spec, req.objective) for req in live]
            )
        except ReproError as exc:
            for req in live:
                req.future.set_exception(exc)
            with self._stats_lock:
                self._failed += len(live)
            return
        done = time.monotonic()
        with self._stats_lock:
            self._batches += 1
            batch_id = self._batches
            self._batch_sizes[len(live)] = self._batch_sizes.get(len(live), 0) + 1
            service_s = done - served_at
            self._service_ewma_s = (
                service_s
                if self._service_ewma_s is None
                else _EWMA_ALPHA * service_s
                + (1.0 - _EWMA_ALPHA) * self._service_ewma_s
            )
        for req, outcome in zip(live, outcomes):
            if self._rec_cache is not None and isinstance(outcome, Recommendation):
                # Keyed by the handle that served the wave (not the one
                # current at submit time), so a reload landing mid-flight
                # never files a result under the wrong fingerprint; and
                # inserted even when this request's own deadline lapsed
                # below: the computation is valid knowledge either way.
                self._rec_cache.put(
                    _memo_key(handle, req.spec.name, req.objective),
                    (outcome, batch_id, len(live)),
                )
            if req.deadline is not None and done > req.deadline:
                # The deadline lapsed *during* the wave: the slot is
                # burned either way, but a stale answer must not be
                # delivered as if it were in time.
                req.future.set_exception(
                    DeadlineExceededError(
                        req.spec.name,
                        waited_s=done - req.enqueued,
                        stage="served",
                    )
                )
                with self._stats_lock:
                    self._expired += 1
                continue
            if isinstance(outcome, ReproError):
                req.future.set_exception(outcome)
                with self._stats_lock:
                    self._failed += 1
                continue
            response = SelectResponse(
                recommendation=outcome,
                selector=handle.name,
                fingerprint=handle.fingerprint,
                generation=handle.generation,
                batch_id=batch_id,
                batch_size=len(live),
                queued_ms=round((served_at - req.enqueued) * 1e3, 3),
                service_ms=round((done - served_at) * 1e3, 3),
                shard=self.shard,
            )
            req.future.set_result(response)
            with self._stats_lock:
                self._completed += 1
                self._latency.record(done - req.enqueued)

    # -- introspection -----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._pending)

    @property
    def service_time_ewma_s(self) -> float | None:
        """Smoothed batch service time (s); ``None`` before the first wave."""
        with self._stats_lock:
            return self._service_ewma_s

    @property
    def latency(self) -> DurationSummary:
        """Per-request end-to-end latency summary (routers aggregate these)."""
        return self._latency

    def stats(self) -> dict:
        """JSON-able serving statistics for ``/statsz``."""
        depth = self.queue_depth
        with self._stats_lock:
            ewma = self._service_ewma_s or 0.0
            return {
                "selector": self.selector_name,
                "shard": self.shard,
                "backend": self.backend.describe(),
                "queue_depth": depth,
                "queue_limit": self.queue_limit,
                "max_batch": self.max_batch,
                "submitted": self._submitted,
                "completed": self._completed,
                "rejected": self._rejected,
                "expired": self._expired,
                "shed": self._shed,
                "failed": self._failed,
                "batches": self._batches,
                "service_ewma_ms": round(ewma * 1e3, 3),
                "batch_size_histogram": {
                    str(size): count
                    for size, count in sorted(self._batch_sizes.items())
                },
                "latency": self._latency.snapshot(),
                "rec_cache": (
                    None if self._rec_cache is None else self._rec_cache.stats()
                ),
            }
