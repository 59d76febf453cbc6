"""Parallel profiling campaign engine with a content-addressed cache.

The paper's offline phase profiles every source workload on every VM type
with 10 repetitions each (Section 4.1) — the dominant wall-clock cost of
the whole reproduction, re-run serially by every consumer of the
performance matrix.  :class:`ProfilingCampaign` makes that sweep

- **parallel**: a wave of missed (workload × VM type) cells large enough
  to repay process start-up fans out over a
  :class:`concurrent.futures.ProcessPoolExecutor`; smaller waves run
  inline.  Because every (workload, VM, seed) triple derives its own
  noise stream (:func:`repro.telemetry.collector._stream_seed`), results
  are bit-identical to the serial path regardless of worker count or
  completion order — workers return ``(index, result)`` and the grid is
  reassembled by index;
- **memoized**: every read — a single cell, a grid, or a serving wave's
  heterogeneous cells — goes through one wave: look each cell up in the
  in-process memo, then in a content-addressed :class:`ProfileCache`
  layered on :class:`~repro.telemetry.store.MetricsStore` (sqlite, WAL
  mode when file-backed), and run the misses through one batch.  The
  memo holds each cell's *outcome* — its value, or the
  :class:`~repro.errors.ProbeFailedError` /
  :class:`~repro.errors.OutOfMemoryError` its run ended in — with the
  fault events of that run, so a reader sees the same outcome and events
  however often and in whichever wave it asks.  Cache keys are digests
  over (workload spec, VM, nodes, seed, repetitions, sample period,
  noise-model fingerprint); a hit skips simulation entirely.  Entries
  carry their fingerprint, so a changed noise model invalidates the
  previous generation (pruned at open).

Campaign progress and hit-rate counters are surfaced through
:class:`repro.telemetry.metrics.CampaignCounters`.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sqlite3
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from repro.cloud.catalog import (
    PricingModel,
    ProviderCatalog,
    pricing_override,
    resolve_catalog,
)
from repro.cloud.faults import FaultEvent, FaultPlan
from repro.cloud.noise import CloudNoiseModel
from repro.cloud.vmtypes import VMType, get_vm_type
from repro.errors import ReproError, ValidationError
from repro.telemetry.collector import (
    DEFAULT_REPETITIONS,
    DataCollector,
    WorkloadProfile,
    _stream_seed,
)
from repro.telemetry.metrics import CampaignCounters
from repro.telemetry.store import MetricsStore
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "ProfilingCampaign",
    "ProfileCache",
    "noise_fingerprint",
    "outcome_value",
    "profile_cache_key",
]

#: One read cell: its outcome — the value, or the error its run ended
#: in — and the fault events of that run.
Outcome = tuple[WorkloadProfile | float | ReproError, tuple[FaultEvent, ...]]

#: Bump to invalidate every existing cache when the simulator's observable
#: behaviour changes in ways the fingerprint inputs don't capture.
CACHE_VERSION = 1

#: Missed cells each pool worker must have before a wave fans out.  On a
#: 2-vCPU Xeon (the 13 training workloads x n VM types, fresh campaign,
#: 10 repetitions, medians of alternating runs) a 2-worker pool lost to
#: inline at 65 cells (60 vs 22 ms) and 130 (58 vs 31 ms), broke even
#: between 195 and 325 cells depending on the run, and won at 520 (94 vs
#: 131 ms) and at the fit's 1300-cell runtime matrix (206 vs 317 ms); 96
#: starts two workers from 192 cells, the low end of that band.
_CELLS_PER_WORKER = 96


def noise_fingerprint(model: CloudNoiseModel | None = None) -> str:
    """Digest of the noise-model configuration a profile was computed under.

    Covers the log-normal sigma, straggler probability/scale and the cache
    format version; profiles cached under a different fingerprint are
    stale and must be recomputed.
    """
    m = model if model is not None else CloudNoiseModel()
    payload = (
        f"v{CACHE_VERSION}|sigma={m.sigma!r}|straggler_prob={m.straggler_prob!r}"
        f"|straggler_scale={m.straggler_scale!r}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@lru_cache(maxsize=4096)
def _spec_token(spec: WorkloadSpec) -> str:
    """Canonical serialization of a workload spec (content, not identity).

    Specs are frozen (hashable by content), so memoizing is safe and
    keeps key derivation off the batched campaign's critical path.
    """
    desc = asdict(spec)
    desc["use_case"] = spec.use_case.value
    desc["suite"] = spec.suite.value
    return json.dumps(desc, sort_keys=True, default=str)


@lru_cache(maxsize=1024)
def _vm_token(vm: VMType) -> str:
    """Canonical serialization of a VM type — two catalogs reusing a name
    (e.g. a multi-cloud extension) must not collide in the cache."""
    desc = asdict(vm)
    desc["category"] = vm.category.value
    return json.dumps(desc, sort_keys=True, default=str)


def profile_cache_key(
    spec: WorkloadSpec,
    vm: VMType | str,
    nodes: int,
    seed: int,
    repetitions: int,
    sample_period_s: float,
    fingerprint: str,
    kind: str = "profile",
    catalog: ProviderCatalog | None = None,
) -> str:
    """Content address of one profiling result.

    ``kind`` separates full profiles (``"profile"``) from runtime-only P90
    scalars (``"p90"``), which carry different payloads.  A VM given by
    name resolves through ``catalog`` (default: the Table-4 catalog), so
    string and :class:`VMType` spellings of the same VM share one
    address.  The key hashes the VM's full content, so same-named types
    from different catalogs never collide.
    """
    if isinstance(vm, str):
        vm = catalog.get(vm) if catalog is not None else get_vm_type(vm)
    payload = "|".join(
        (
            kind,
            fingerprint,
            _spec_token(spec),
            _vm_token(vm),
            str(int(nodes)),
            str(int(seed)),
            str(int(repetitions)),
            repr(float(sample_period_s)),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def outcome_value(outcome: WorkloadProfile | float | ReproError) -> WorkloadProfile | float:
    """The value a cell's outcome holds; raises the error it holds instead.

    The memo keeps one error instance per failed cell, so it is raised
    without the traceback of an earlier read, which would otherwise grow
    with every re-raise.
    """
    if isinstance(outcome, ReproError):
        raise outcome.with_traceback(None)
    return outcome


def _stream_seed_batch(triples: list[tuple[str, str, int]]) -> list[int]:
    """Worker helper: stream seeds for a batch of (workload, vm, seed).

    Module-level so it pickles across process boundaries; the property
    suite uses it to assert :func:`_stream_seed` stability in spawned
    interpreters.
    """
    return [_stream_seed(w, v, s) for (w, v, s) in triples]


class ProfileCache:
    """Content-addressed, persistent profile cache with corruption fallback.

    Parameters
    ----------
    path:
        sqlite path (``":memory:"`` for a process-local cache).  A
        corrupted file is moved aside to ``<path>.corrupt`` and recreated;
        an unopenable path degrades to an in-memory store — either way the
        campaign falls back to recomputation rather than failing.
    fingerprint:
        Noise-model fingerprint of the current generation (default: the
        fingerprint of the default :class:`CloudNoiseModel`).  Entries
        from other generations are pruned at open and never returned.
    """

    def __init__(self, path: str = ":memory:", *, fingerprint: str | None = None) -> None:
        self.path = path
        self.fingerprint = fingerprint if fingerprint is not None else noise_fingerprint()
        self.hits = 0
        self.misses = 0
        self.recovered = False
        self._store = self._open()
        self.pruned = self._safe_prune()

    # -- lifecycle -----------------------------------------------------------

    def _open(self) -> MetricsStore:
        try:
            return MetricsStore(self.path, wal=self.path != ":memory:")
        except sqlite3.DatabaseError:
            self.recovered = True
            if os.path.isfile(self.path):
                try:
                    os.replace(self.path, self.path + ".corrupt")
                    return MetricsStore(self.path, wal=True)
                except (OSError, sqlite3.Error):
                    pass
            return MetricsStore(":memory:")

    def _safe_prune(self) -> int:
        try:
            return self._store.prune_cache(self.fingerprint)
        except sqlite3.Error:
            return 0

    def close(self) -> None:
        self._store.close()

    def __enter__(self) -> "ProfileCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        try:
            return sum(self._store.cache_counts())
        except sqlite3.Error:
            return 0

    # -- lookups ----------------------------------------------------------------
    #
    # Every read failure is a miss and every write failure is silent: a
    # broken cache must never break the campaign, only slow it down.

    def get_profile(self, key: str) -> WorkloadProfile | None:
        try:
            hit = self._store.get_cached(key)
        except (sqlite3.Error, ValueError):
            hit = None
        self._count(hit is not None)
        return hit

    def put_profile(self, key: str, profile: WorkloadProfile) -> None:
        try:
            self._store.put_cached(key, self.fingerprint, profile)
        except sqlite3.Error:
            pass

    def get_runtime(self, key: str) -> float | None:
        try:
            hit = self._store.get_cached_scalar(key)
        except sqlite3.Error:
            hit = None
        self._count(hit is not None)
        return hit

    def put_runtime(self, key: str, value: float) -> None:
        try:
            self._store.put_cached_scalar(key, self.fingerprint, value)
        except sqlite3.Error:
            pass

    def prune(self) -> int:
        """Drop entries from other fingerprint generations; returns count."""
        return self._safe_prune()

    def _count(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1


@dataclass(frozen=True)
class _Task:
    """One (workload, VM) cell of the campaign grid, picklable for workers."""

    index: int
    spec: WorkloadSpec
    vm: VMType
    nodes: int | None
    seed: int
    repetitions: int
    sample_period_s: float
    runtime_only: bool
    faults: FaultPlan | None = None
    #: Billing rule for budgets; ``None`` is the historical EC2 rule.
    #: Strings were resolved in the parent, so workers never ship a
    #: whole catalog — just the (small, frozen) pricing model.
    pricing: PricingModel | None = None


def _run_batch(tasks: list[_Task]) -> list[tuple[int, Outcome]]:
    """Profile a chunk of grid cells, inline or as a pool worker's unit.

    Cells sharing a collector configuration are evaluated through one
    vectorized :meth:`DataCollector.profile_many` pass — one simulator
    batch for the whole chunk instead of ``repetitions`` scalar runs per
    cell — which is where the campaign's ≥10x cold-cache speedup lives.
    Each chunk builds its own collectors; the per-triple stream seeds
    make the result identical to the scalar path whichever process runs
    it.  Each cell comes back as ``(index, (outcome, fault_events))``:
    a failed cell's outcome is its error, and the events of every run
    ride back so the parent campaign's log stays exact.
    """
    groups: dict[tuple, list[_Task]] = {}
    for t in tasks:
        key = (
            t.repetitions,
            t.seed,
            t.sample_period_s,
            id(t.faults),
            id(t.pricing),
        )
        groups.setdefault(key, []).append(t)
    out: list[tuple[int, Outcome]] = []
    for group in groups.values():
        head = group[0]
        collector = DataCollector(
            repetitions=head.repetitions,
            seed=head.seed,
            sample_period_s=head.sample_period_s,
            faults=head.faults,
            pricing=head.pricing,
        )
        results = collector.profile_many(
            [(t.spec, t.vm, t.nodes, t.runtime_only) for t in group]
        )
        out.extend((t.index, result) for t, result in zip(group, results))
    return out


class ProfilingCampaign:
    """Fan the offline profiling sweep over a process pool, memoized.

    Drop-in faster equivalent of looping
    :meth:`DataCollector.collect`/:meth:`DataCollector.runtime_only` over
    a (workload × VM type) grid: results are bit-identical to the serial
    path for any grid iteration order.  Every read goes through one wave
    (:meth:`_wave`), and each wave of missed cells sizes its own worker
    count (see :meth:`_execute`), so there is nothing to tune.

    Parameters
    ----------
    repetitions, seed, sample_period_s:
        Forwarded to the underlying :class:`DataCollector` protocol.
    cache:
        ``None`` (no persistence), a sqlite path, or a ready
        :class:`ProfileCache`.  Independent of the persistent layer, the
        campaign memoizes each cell's outcome in-process, with the fault
        events of its run, so repeated reads within one run never
        recompute.
    faults:
        Optional :class:`~repro.cloud.faults.FaultPlan`.  The default
        (``None`` / a disabled plan) leaves every result — and every
        cache key — bit-identical to a fault-free build.  An enabled plan
        folds its fingerprint into the cache address (fault-injected
        results never collide with clean ones), its transient failures
        are retried inside the collectors, and every observed fault is
        merged into :attr:`counters` and :attr:`fault_log` once, when its
        run is memoized, regardless of which worker process saw it.  A
        run that exhausts the retry budget ends in
        :class:`~repro.errors.ProbeFailedError`: the value readers raise
        it, :meth:`prefetch` returns it.
    catalog:
        Optional :class:`~repro.cloud.catalog.ProviderCatalog` (or
        registry name).  Resolves string VM names, supplies the billing
        rule for budgets, and — for spot-style pricing with nonzero
        interruption risk — derives a deterministic interruption
        :class:`FaultPlan` when no explicit ``faults`` plan is given.
        ``None`` (and the default ``ec2`` catalog's pricing) leaves all
        results and cache addresses bit-identical to the pre-catalog
        code.
    """

    def __init__(
        self,
        repetitions: int = DEFAULT_REPETITIONS,
        seed: int = 0,
        *,
        cache: ProfileCache | str | None = None,
        sample_period_s: float = 5.0,
        faults: FaultPlan | None = None,
        catalog: ProviderCatalog | str | None = None,
    ) -> None:
        if repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        self.repetitions = repetitions
        self.seed = seed
        self.sample_period_s = sample_period_s
        if cache is None or isinstance(cache, ProfileCache):
            self.cache = cache
        else:
            self.cache = ProfileCache(str(cache))
        self.catalog = None if catalog is None else resolve_catalog(catalog)
        self.pricing = pricing_override(self.catalog)
        if faults is None and self.catalog is not None:
            faults = self.catalog.pricing.interruption_plan(seed)
        self.faults = faults if faults is not None and faults.enabled else None
        self.counters = CampaignCounters()
        self.fault_log: list[FaultEvent] = []
        self._memo: dict[str, Outcome] = {}

    # -- single-pair API ---------------------------------------------------------

    def collect(
        self, spec: WorkloadSpec, vm: VMType | str, *, nodes: int | None = None
    ) -> WorkloadProfile:
        """Cached equivalent of :meth:`DataCollector.collect`."""
        return self._values([(spec, vm, False)], nodes)[0]

    def runtime_only(
        self, spec: WorkloadSpec, vm: VMType | str, *, nodes: int | None = None
    ) -> float:
        """Cached equivalent of :meth:`DataCollector.runtime_only`."""
        return self._values([(spec, vm, True)], nodes)[0]

    # -- grid API ---------------------------------------------------------------------

    def runtime_matrix(
        self,
        specs: tuple[WorkloadSpec, ...],
        vms: tuple[VMType | str, ...],
        *,
        nodes: int | None = None,
    ) -> np.ndarray:
        """``(len(specs), len(vms))`` P90 runtimes, computed in parallel."""
        specs, vms = tuple(specs), [self._resolve_vm(vm) for vm in vms]
        values = self._values([(s, vm, True) for s in specs for vm in vms], nodes)
        return np.asarray(values, dtype=float).reshape(len(specs), len(vms))

    def collect_grid(
        self,
        specs: tuple[WorkloadSpec, ...],
        vms: tuple[VMType | str, ...],
        *,
        nodes: int | None = None,
    ) -> dict[tuple[str, str], WorkloadProfile]:
        """Full profiles for every grid cell, keyed ``(workload, vm_name)``."""
        vms = [self._resolve_vm(vm) for vm in vms]
        cells = [(s, vm, False) for s in specs for vm in vms]
        values = self._values(cells, nodes)
        return {(s.name, vm.name): v for (s, vm, _), v in zip(cells, values)}

    def prefetch(self, cells, *, nodes: int | None = None) -> list[Outcome]:
        """Read a heterogeneous batch of cells in one wave; never raises
        for a failed run.

        ``cells`` is an iterable of ``(spec, vm, runtime_only)`` — unlike
        the rectangular grid API, each cell chooses its own kind, which is
        exactly the shape of a batched online wave (one full sandbox
        profile plus ``probes`` runtime-only cells per target).  Returns
        each cell's ``(outcome, fault_events)``: the outcome is the value,
        or the :class:`~repro.errors.ProbeFailedError` /
        :class:`~repro.errors.OutOfMemoryError` its run ended in, and the
        events are those of that run, whichever wave ran it.  A cell
        served from the persistent :class:`ProfileCache` carries no
        events: the cache stores values only.
        """
        return self._wave(cells, nodes)

    # -- internals ---------------------------------------------------------------------

    def _resolve_vm(self, vm: VMType | str) -> VMType:
        if isinstance(vm, str):
            return self.catalog.get(vm) if self.catalog is not None else get_vm_type(vm)
        return vm

    def _absorb_events(self, events) -> None:
        """Merge fault events (from any collector/worker) into the telemetry."""
        for event in events:
            self.counters.record_fault(event.kind, event.detail)
        self.fault_log.extend(events)

    def _generation_fingerprint(self) -> str:
        # Constant per campaign instance (cache, faults and the default
        # noise model never change after __init__), so compute it once —
        # key derivation sits on the batched sweep's critical path.
        cached = getattr(self, "_generation_fp", None)
        if cached is not None:
            return cached
        fingerprint = self.cache.fingerprint if self.cache else noise_fingerprint()
        if self.faults is not None:
            # Fault-injected results are a different generation: address
            # them apart so a clean cache never serves faulted values.
            fingerprint = f"{fingerprint}+faults:{self.faults.fingerprint()}"
        if self.pricing is not None:
            # Non-default billing changes budgets: a separate generation,
            # while the default EC2 rule contributes nothing (pre-catalog
            # cache entries stay addressable).
            fingerprint = f"{fingerprint}+pricing:{self.pricing.fingerprint()}"
        self._generation_fp = fingerprint
        return fingerprint

    def config_fingerprint(self) -> str:
        """Digest of everything that determines this campaign's outputs.

        Two campaigns with equal config fingerprints produce bit-identical
        results for the same (workload, VM) grid, whatever their wave sizes
        or cache settings; the knowledge pipeline folds this into every
        stage artifact address.
        """
        return (
            f"{self._generation_fingerprint()}|seed={int(self.seed)}"
            f"|reps={int(self.repetitions)}|period={float(self.sample_period_s)!r}"
        )

    def _key(self, spec: WorkloadSpec, vm: VMType, nodes: int | None, kind: str) -> str:
        fingerprint = self._generation_fingerprint()
        return profile_cache_key(
            spec,
            vm,
            nodes if nodes is not None else spec.nodes,
            self.seed,
            self.repetitions,
            self.sample_period_s,
            fingerprint,
            kind=kind,
        )

    def _lookup(self, key: str, runtime_only: bool) -> Outcome | None:
        hit = self._memo.get(key)
        if hit is not None or self.cache is None:
            return hit
        value = self.cache.get_runtime(key) if runtime_only else self.cache.get_profile(key)
        if value is None:
            return None
        hit = self._memo[key] = (value, ())
        return hit

    def _values(self, cells, nodes: int | None) -> list:
        """Read cells like a serial loop: values, or the first failure raised."""
        return [outcome_value(value) for value, _ in self._wave(cells, nodes, serial=True)]

    def _wave(self, cells, nodes: int | None, *, serial: bool = False) -> list[Outcome]:
        """The one read path: ``(outcome, fault_events)`` per cell.

        Each distinct cell is looked up in the memo, then the persistent
        cache; the misses run through one :meth:`_execute`, and each of
        their outcomes is memoized with its run's fault events, which
        reach :attr:`fault_log` and :attr:`counters` in cell order.

        ``serial`` keeps a serial loop's books for a reader that raises
        the first failure in cell order: planning stops at a memoized
        failure, so no later miss runs (the list then ends there), and of
        the misses that ran only those up to the first failure are
        memoized and logged.
        """
        start = time.perf_counter()
        keys: list[str] = []
        outcomes: dict[str, Outcome | None] = {}
        pending: list[tuple[_Task, str]] = []
        for spec, vm, runtime_only in cells:
            vm = self._resolve_vm(vm)
            key = self._key(spec, vm, nodes, "p90" if runtime_only else "profile")
            keys.append(key)
            if key in outcomes:
                continue
            self.counters.scheduled += 1
            hit = outcomes[key] = self._lookup(key, runtime_only)
            if hit is None:
                self.counters.cache_misses += 1
                task = _Task(
                    index=len(pending),
                    spec=spec,
                    vm=vm,
                    nodes=nodes,
                    seed=self.seed,
                    repetitions=self.repetitions,
                    sample_period_s=self.sample_period_s,
                    runtime_only=runtime_only,
                    faults=self.faults,
                    pricing=self.pricing,
                )
                pending.append((task, key))
                continue
            self.counters.cache_hits += 1
            if serial and isinstance(hit[0], ReproError):
                break
        # Sorted by task index, which is cell order, so the fault log
        # reads in cell order whatever the workers' completion order.
        ran = sorted(self._execute([task for task, _ in pending]), key=lambda r: r[0])
        keep = True
        for (task, key), (_, outcome) in zip(pending, ran):
            outcomes[key] = outcome
            if not keep:
                continue
            self._memo[key] = outcome
            value, events = outcome
            failed = isinstance(value, ReproError)
            if self.cache is not None and not failed:
                if task.runtime_only:
                    self.cache.put_runtime(key, value)
                else:
                    self.cache.put_profile(key, value)
            self._absorb_events(events)
            self.counters.computed += 1
            keep = not (serial and failed)
        self.counters.elapsed_s += time.perf_counter() - start
        return [outcomes[key] for key in keys]

    def _execute(
        self, tasks: list[_Task]
    ) -> list[tuple[int, WorkloadProfile | float | None, tuple[FaultEvent, ...]]]:
        """Run one wave inline or on a pool sized from the wave.

        The pool gets one worker per :data:`_CELLS_PER_WORKER` cells,
        capped at the CPU count; fewer than two workers, or a daemonic
        process (which may not start children), runs the wave inline.
        Tasks ship in chunks (≈4 per worker) so per-submission IPC cost
        is amortised over many cheap simulations.  Order of returns is
        arbitrary.  A wave with no misses returns at once, without asking
        the OS for its CPU count.
        """
        if not tasks:
            return []
        workers = min(os.cpu_count() or 1, len(tasks) // _CELLS_PER_WORKER)
        if workers < 2 or multiprocessing.current_process().daemon:
            return _run_batch(tasks)
        chunk = -(-len(tasks) // (workers * 4))
        batches = [tasks[i : i + chunk] for i in range(0, len(tasks), chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_batch, b) for b in batches]
            return [pair for f in as_completed(futures) for pair in f.result()]
