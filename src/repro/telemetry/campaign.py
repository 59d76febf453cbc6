"""Parallel profiling campaign engine with an in-process cell memo.

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
  in-process memo and run the misses through one batch.  The memo is
  keyed by the cell itself, ``(runtime_only, spec, vm, nodes)``, and
  holds each cell's *outcome* — its value, or the
  :class:`~repro.errors.ProbeFailedError` /
  :class:`~repro.errors.OutOfMemoryError` its run ended in — with the
  fault events of that run, so a reader sees the same outcome and events
  however often and in whichever wave it asks.

Campaign output persists one level up: the knowledge pipeline files
whole stages in a :class:`~repro.core.artifacts.ArtifactStore` under
addresses that fold in :meth:`ProfilingCampaign.config_fingerprint`, so
a warm fit runs no campaign cell at all.

Campaign progress and hit-rate counters are surfaced through
:class:`repro.telemetry.metrics.CampaignCounters`.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
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
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "ProfilingCampaign",
    "noise_fingerprint",
    "outcome_value",
]

#: One read cell: its outcome — the value, or the error its run ended
#: in — and the fault events of that run.
Outcome = tuple[WorkloadProfile | float | ReproError, tuple[FaultEvent, ...]]

#: One memo key: ``(runtime_only, spec, vm, nodes)`` with ``nodes``
#: resolved, so ``nodes=None`` and ``nodes=spec.nodes`` are one cell.
#: The frozen spec and VM compare by content: a VM read by name and as a
#: :class:`VMType` share a cell, a same-named VM of other content does not.
Cell = tuple[bool, WorkloadSpec, VMType, int]

#: Bump to invalidate every stored stage artifact when the simulator's
#: observable behaviour changes in ways the fingerprint inputs don't
#: capture.
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

    Covers the log-normal sigma, straggler probability/scale and
    :data:`CACHE_VERSION`; it heads every
    :meth:`ProfilingCampaign.config_fingerprint`, so stage artifacts
    computed under another noise model are never served.
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

    Specs are frozen (hashable by content), so memoizing is safe; the
    knowledge pipeline digests these into its source-set token.
    """
    desc = asdict(spec)
    desc["use_case"] = spec.use_case.value
    desc["suite"] = spec.suite.value
    return json.dumps(desc, sort_keys=True, default=str)


@lru_cache(maxsize=1024)
def _vm_token(vm: VMType) -> str:
    """Canonical serialization of a VM type — two catalogs reusing a name
    (e.g. a multi-cloud extension) must not collide in a stage address."""
    desc = asdict(vm)
    desc["category"] = vm.category.value
    return json.dumps(desc, sort_keys=True, default=str)


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
    count (see :meth:`_execute`), so there is nothing to tune.  Each
    cell's outcome is memoized in-process with the fault events of its
    run (see :data:`Cell`), so repeated reads never recompute.

    Parameters
    ----------
    repetitions, seed, sample_period_s:
        Forwarded to the underlying :class:`DataCollector` protocol.
    faults:
        Optional :class:`~repro.cloud.faults.FaultPlan`.  The default
        (``None`` / a disabled plan) leaves every result — and the
        :meth:`config_fingerprint` — bit-identical to a fault-free build.
        An enabled plan folds its fingerprint into the config fingerprint
        (stage artifacts fitted under faults never collide with clean
        ones), its transient failures
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
        results and the config fingerprint bit-identical to the
        pre-catalog code.
    """

    def __init__(
        self,
        repetitions: int = DEFAULT_REPETITIONS,
        seed: int = 0,
        *,
        sample_period_s: float = 5.0,
        faults: FaultPlan | None = None,
        catalog: ProviderCatalog | str | None = None,
    ) -> None:
        if repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        self.repetitions = repetitions
        self.seed = seed
        self.sample_period_s = sample_period_s
        self.catalog = None if catalog is None else resolve_catalog(catalog)
        self.pricing = pricing_override(self.catalog)
        if faults is None and self.catalog is not None:
            faults = self.catalog.pricing.interruption_plan(seed)
        self.faults = faults if faults is not None and faults.enabled else None
        self.counters = CampaignCounters()
        self.fault_log: list[FaultEvent] = []
        self._memo: dict[Cell, Outcome] = {}

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
        events are those of that run, whichever wave ran it.
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

    def config_fingerprint(self) -> str:
        """Digest of everything that determines this campaign's outputs.

        Two campaigns with equal config fingerprints produce bit-identical
        results for the same (workload, VM) grid, whatever their wave
        sizes; the knowledge pipeline folds this into every stage
        artifact address.
        """
        fingerprint = noise_fingerprint()
        if self.faults is not None:
            # Fault-injected results are a different generation: address
            # them apart so a clean store never serves faulted stages.
            fingerprint = f"{fingerprint}+faults:{self.faults.fingerprint()}"
        if self.pricing is not None:
            # Non-default billing changes budgets: a separate generation,
            # while the default EC2 rule contributes nothing (pre-catalog
            # stage addresses stay valid).
            fingerprint = f"{fingerprint}+pricing:{self.pricing.fingerprint()}"
        return (
            f"{fingerprint}|seed={int(self.seed)}"
            f"|reps={int(self.repetitions)}|period={float(self.sample_period_s)!r}"
        )

    def _values(self, cells, nodes: int | None) -> list:
        """Read cells like a serial loop: values, or the first failure raised."""
        return [outcome_value(value) for value, _ in self._wave(cells, nodes, serial=True)]

    def _wave(self, cells, nodes: int | None, *, serial: bool = False) -> list[Outcome]:
        """The one read path: ``(outcome, fault_events)`` per cell.

        Each distinct cell is looked up in the memo; the misses run
        through one :meth:`_execute`, and each of their outcomes is
        memoized with its run's fault events, which reach
        :attr:`fault_log` and :attr:`counters` in cell order.

        ``serial`` keeps a serial loop's books for a reader that raises
        the first failure in cell order: planning stops at a memoized
        failure, so no later miss runs (the list then ends there), and of
        the misses that ran only those up to the first failure are
        memoized and logged.
        """
        start = time.perf_counter()
        keys: list[Cell] = []
        outcomes: dict[Cell, Outcome | None] = {}
        pending: list[tuple[_Task, Cell]] = []
        for spec, vm, runtime_only in cells:
            vm = self._resolve_vm(vm)
            key = (runtime_only, spec, vm, spec.nodes if nodes is None else nodes)
            keys.append(key)
            if key in outcomes:
                continue
            self.counters.scheduled += 1
            hit = outcomes[key] = self._memo.get(key)
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
        for (_, key), (_, outcome) in zip(pending, ran):
            outcomes[key] = outcome
            if not keep:
                continue
            self._memo[key] = outcome
            value, events = outcome
            self._absorb_events(events)
            self.counters.computed += 1
            keep = not (serial and isinstance(value, ReproError))
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
