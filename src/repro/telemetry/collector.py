"""The Data Collector: repeated-run profiling with P90 aggregation.

Section 4.1: *"Considering the performance variability in cloud
environments, we run each workload 10 times to take a conservative
estimate of P90 values.  The Data Collector collects low-level metrics in
every 5 seconds using average resource utilizations."*

:class:`DataCollector` reproduces that protocol against the simulated
cloud: per (workload, VM type) it draws independent noise multipliers,
executes the configured repetitions, and aggregates into a
:class:`WorkloadProfile` holding the conservative P90 runtime/budget and
one run's full 20-metric time series (for correlation analysis — the
paper records correlation values per run).

Seeding: every (workload, VM, seed) triple derives a stable stream seed,
so profiles are reproducible independently of collection order.

Fault injection: an optional :class:`~repro.cloud.faults.FaultPlan` makes
individual run attempts fail transiently (retried with backoff under
per-triple derived retry seeds), straggle (heavy-tailed runtime
inflation) or lose telemetry samples.  With the default fault-free plan
the collector's outputs are bit-identical to a build without the fault
layer: fault decisions never consume the profiling noise streams.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.faults import FaultDecision, FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cloud.catalog import PricingModel, ProviderCatalog
from repro.cloud.noise import CloudNoiseModel
from repro.cloud.vmtypes import VMType, get_vm_type
from repro.errors import (
    OutOfMemoryError,
    ProbeFailedError,
    ReproError,
    TransientRunError,
    ValidationError,
)
from repro.frameworks.registry import simulate_run
from repro.workloads.spec import WorkloadSpec

__all__ = ["DataCollector", "WorkloadProfile", "DEFAULT_REPETITIONS"]

#: The paper's repetition count per (workload, VM type).
DEFAULT_REPETITIONS = 10

#: The paper's conservative percentile.
P90 = 90.0


def _stream_seed(workload: str, vm_name: str, seed: int) -> int:
    """Stable 32-bit seed for one (workload, VM) profiling stream."""
    return zlib.crc32(f"{workload}|{vm_name}|{seed}".encode())


@dataclass(frozen=True)
class WorkloadProfile:
    """Aggregated profile of one workload on one VM type.

    Attributes
    ----------
    runtimes, budgets:
        Per-repetition observations (noise included).
    runtime_p90, budget_p90:
        The paper's conservative estimates.
    timeseries:
        ``(samples, 20)`` metric series of the first repetition (the run
        whose correlation values the analysis layer consumes).
    spilled:
        Whether the run had to spill task state to disk.
    """

    workload: str
    framework: str
    vm_name: str
    nodes: int
    runtimes: np.ndarray
    budgets: np.ndarray
    timeseries: np.ndarray
    spilled: bool

    # Computed on first read and kept: a memoized profile is read by
    # every session that runs its cell.
    @cached_property
    def runtime_p90(self) -> float:
        return float(np.percentile(self.runtimes, P90))

    @cached_property
    def budget_p90(self) -> float:
        return float(np.percentile(self.budgets, P90))

    @property
    def runtime_mean(self) -> float:
        return float(np.mean(self.runtimes))

    @property
    def runtime_cv(self) -> float:
        """Coefficient of variation — the paper reports ~40 % for svd++."""
        mean = self.runtime_mean
        return float(np.std(self.runtimes) / mean) if mean > 0 else 0.0


class DataCollector:
    """Runs the paper's offline profiling protocol on the simulated cloud.

    Parameters
    ----------
    repetitions:
        Runs per (workload, VM type); the paper uses 10.
    seed:
        Master seed; all per-pair noise streams derive from it.
    sample_period_s:
        Collector cadence (5 s in the paper).
    faults:
        Optional :class:`~repro.cloud.faults.FaultPlan`.  A disabled plan
        (or ``None``) leaves every output bit-identical to the fault-free
        path; an enabled plan injects transient failures (retried up to
        the plan's attempt budget, then raised as
        :class:`~repro.errors.ProbeFailedError`), straggler inflation and
        telemetry sample drops.  Observed faults accumulate in
        :attr:`fault_events` until drained.
    pricing:
        Billing rule for run budgets; ``None`` keeps the historical EC2
        on-demand arithmetic (bit-identical to the pre-catalog paths).
    catalog:
        Catalog used to resolve string VM names; ``None`` resolves
        against the Table-4 EC2 catalog as before.
    """

    def __init__(
        self,
        repetitions: int = DEFAULT_REPETITIONS,
        seed: int = 0,
        sample_period_s: float = 5.0,
        faults: FaultPlan | None = None,
        pricing: "PricingModel | None" = None,
        catalog: "ProviderCatalog | None" = None,
    ) -> None:
        if repetitions < 1:
            raise ValidationError("repetitions must be >= 1")
        self.repetitions = repetitions
        self.seed = seed
        self.sample_period_s = sample_period_s
        self.faults = faults if faults is not None and faults.enabled else None
        self.pricing = pricing
        self.catalog = catalog
        self.fault_events: list[FaultEvent] = []

    def _resolve_vm(self, vm: VMType | str) -> VMType:
        if isinstance(vm, str):
            return self.catalog.get(vm) if self.catalog is not None else get_vm_type(vm)
        return vm

    def drain_fault_events(self) -> list[FaultEvent]:
        """Return and clear the fault events observed since the last drain."""
        events, self.fault_events = self.fault_events, []
        return events

    # -- fault handling ----------------------------------------------------------

    def _survive_attempts(
        self, workload: str, vm_name: str, rep: int
    ) -> tuple[FaultDecision, int]:
        """Retry one repetition until an attempt survives its fault draw.

        Returns ``(decision, attempt)`` of the surviving attempt; raises
        :class:`ProbeFailedError` when the plan's budget is exhausted.
        Backoff is recorded per retry and only actually slept when the
        plan configures a nonzero base (simulations keep it at 0).
        """
        plan = self.faults
        if plan is None:
            raise ValidationError("fault handling invoked without a fault plan")
        first_event = len(self.fault_events)
        for attempt in range(plan.max_attempts):
            try:
                return plan.check(workload, vm_name, rep, attempt), attempt
            except TransientRunError:
                backoff = plan.backoff_s(attempt)
                self.fault_events.append(
                    FaultEvent(
                        kind="transient",
                        workload=workload,
                        vm_name=vm_name,
                        repetition=rep,
                        attempt=attempt,
                        backoff_s=backoff,
                    )
                )
                if backoff > 0:
                    time.sleep(backoff)
        self.fault_events.append(
            FaultEvent(
                kind="permanent",
                workload=workload,
                vm_name=vm_name,
                repetition=rep,
                attempt=plan.max_attempts,
            )
        )
        raise ProbeFailedError(
            workload,
            vm_name,
            plan.max_attempts,
            events=tuple(self.fault_events[first_event:]),
        )

    def _faulted_multiplier(
        self, spec: WorkloadSpec, vm_name: str, rep: int, mult: float
    ) -> tuple[float, FaultDecision]:
        """Apply the fault plan to one repetition's noise multiplier."""
        plan = self.faults
        if plan is None:
            raise ValidationError("fault handling invoked without a fault plan")
        decision, attempt = self._survive_attempts(spec.name, vm_name, rep)
        if attempt > 0:
            # A retry lands on a fresh placement: redraw the multiplier
            # from a seed derived from the full (triple, attempt)
            # coordinate, leaving the primary noise stream untouched.
            retry_noise = CloudNoiseModel(
                seed=plan.retry_seed(spec.name, vm_name, rep, attempt)
            )
            mult = retry_noise.sample(spec.demand.variance_boost).multiplier
        if decision.straggle_factor > 1.0:
            mult *= decision.straggle_factor
            self.fault_events.append(
                FaultEvent(
                    kind="straggle",
                    workload=spec.name,
                    vm_name=vm_name,
                    repetition=rep,
                    attempt=attempt,
                    detail=decision.straggle_factor,
                )
            )
        return mult, decision

    def _drop_samples(
        self, series: np.ndarray, workload: str, vm_name: str, rep: int
    ) -> np.ndarray:
        plan = self.faults
        if plan is None:
            raise ValidationError("fault handling invoked without a fault plan")
        keep = plan.drop_mask(series.shape[0], workload, vm_name, rep)
        dropped = int(series.shape[0] - keep.sum())
        if dropped:
            self.fault_events.append(
                FaultEvent(
                    kind="drop",
                    workload=workload,
                    vm_name=vm_name,
                    repetition=rep,
                    attempt=0,
                    detail=float(dropped),
                )
            )
            series = series[keep]
        return series

    # -- profiling ---------------------------------------------------------------

    def collect(
        self,
        spec: WorkloadSpec,
        vm: VMType | str,
        *,
        nodes: int | None = None,
    ) -> WorkloadProfile:
        """Profile ``spec`` on ``vm``: repeated runs, P90, one time series."""
        vm = self._resolve_vm(vm)
        stream = _stream_seed(spec.name, vm.name, self.seed)
        noise = CloudNoiseModel(seed=stream)
        rng = np.random.default_rng(stream + 1)

        runtimes = np.empty(self.repetitions)
        budgets = np.empty(self.repetitions)
        series = None
        spilled = False
        for rep in range(self.repetitions):
            mult = noise.sample(spec.demand.variance_boost).multiplier
            decision = None
            if self.faults is not None:
                mult, decision = self._faulted_multiplier(spec, vm.name, rep, mult)
            result = simulate_run(
                spec,
                vm,
                nodes=nodes,
                noise_multiplier=mult,
                with_timeseries=rep == 0,
                sample_period_s=self.sample_period_s,
                rng=rng,
                pricing=self.pricing,
            )
            runtimes[rep] = result.runtime_s
            budgets[rep] = result.budget_usd
            if rep == 0:
                series = result.timeseries
                spilled = result.spilled
                if decision is not None and decision.drop:
                    series = self._drop_samples(series, spec.name, vm.name, rep)

        if series is None:
            raise ValidationError("no repetition produced a telemetry series")
        return WorkloadProfile(
            workload=spec.name,
            framework=spec.framework,
            vm_name=vm.name,
            nodes=nodes if nodes is not None else spec.nodes,
            runtimes=runtimes,
            budgets=budgets,
            timeseries=series,
            spilled=spilled,
        )

    def runtime_only(
        self,
        spec: WorkloadSpec,
        vm: VMType | str,
        *,
        nodes: int | None = None,
    ) -> float:
        """Fast path: P90 runtime without materialising any time series.

        Used by the ground-truth exhaustive sweeps where only runtimes
        matter (30 workloads × 100 VM types × 10 reps).
        """
        vm = self._resolve_vm(vm)
        stream = _stream_seed(spec.name, vm.name, self.seed)
        noise = CloudNoiseModel(seed=stream)
        base = simulate_run(
            spec, vm, nodes=nodes, noise_multiplier=1.0, with_timeseries=False
        ).runtime_s
        mults = noise.sample_multipliers(self.repetitions, spec.demand.variance_boost)
        if self.faults is not None:
            for rep in range(self.repetitions):
                mults[rep], _ = self._faulted_multiplier(
                    spec, vm.name, rep, float(mults[rep])
                )
        return float(np.percentile(base * mults, P90))

    # -- batched profiling -------------------------------------------------------

    def profile_many(
        self, requests
    ) -> list[tuple[WorkloadProfile | float | ReproError, tuple[FaultEvent, ...]]]:
        """Run the profiling protocol for many cells in one vectorized pass.

        ``requests`` is a sequence of ``(spec, vm, nodes, runtime_only)``
        cells; ``vm`` may be a name, ``nodes=None`` defaults to the spec's.
        The heavy part — planning, phase pricing and the telemetry render —
        happens once for the whole batch through
        :func:`repro.frameworks.batch.simulate_cells`; the per-repetition
        noise draws and fault checks stay scalar per cell, in the scalar
        protocol's exact order, so every cell's profile / P90 is bitwise
        equal to :meth:`collect` / :meth:`runtime_only` on that cell.

        Returns one ``(outcome, fault_events)`` pair per cell.  The outcome
        is the cell's value, or the error its run ended in — an
        :class:`OutOfMemoryError` for an infeasible placement, a
        :class:`ProbeFailedError` for an exhausted fault budget — with the
        message and events :meth:`collect` / :meth:`runtime_only` raise
        and log for that cell.  A failed cell never stops the batch.
        """
        from repro.frameworks.batch import simulate_cells
        from repro.frameworks.registry import resolve_cells
        from repro.frameworks.resources import build_timeseries_batch

        reqs = [
            (spec, self._resolve_vm(vm), nodes, bool(fast))
            for spec, vm, nodes, fast in requests
        ]
        specs, clusters = resolve_cells(
            [(s, v, n) for s, v, n, _ in reqs], pricing=self.pricing
        )
        sim = simulate_cells(specs, clusters)

        profile_idx = [
            i
            for i, (_, _, _, fast) in enumerate(reqs)
            if not fast and not sim.oom_cells[i]
        ]
        series_by_cell: dict[int, np.ndarray] = {}
        if profile_idx:
            series_by_cell = build_timeseries_batch(
                sim,
                specs,
                clusters,
                cells=profile_idx,
                rngs=[
                    np.random.default_rng(
                        _stream_seed(specs[i].name, clusters[i].vm.name, self.seed) + 1
                    )
                    for i in profile_idx
                ],
                sample_period_s=self.sample_period_s,
            )

        out: list[tuple[WorkloadProfile | float | ReproError, tuple[FaultEvent, ...]]] = []
        for i, (spec, _, _, runtime_only) in enumerate(reqs):
            vm_name = clusters[i].vm.name
            stream = _stream_seed(spec.name, vm_name, self.seed)
            noise = CloudNoiseModel(seed=stream)
            first_event = len(self.fault_events)
            try:
                if runtime_only:
                    # Scalar runtime_only simulates before drawing noise, so
                    # an infeasible placement raises ahead of fault checks.
                    if sim.oom_cells[i]:
                        raise OutOfMemoryError(sim.oom_messages[i])
                    base = float(sim.base_runtime_s[i])
                    mults = noise.sample_multipliers(
                        self.repetitions, spec.demand.variance_boost
                    )
                    if self.faults is not None:
                        for rep in range(self.repetitions):
                            mults[rep], _ = self._faulted_multiplier(
                                spec, vm_name, rep, float(mults[rep])
                            )
                    value: WorkloadProfile | float | ReproError = float(
                        np.percentile(base * mults, P90)
                    )
                else:
                    value = self._profile_from_batch(
                        spec, clusters[i], sim, i, noise, series_by_cell.get(i)
                    )
            except (ProbeFailedError, OutOfMemoryError) as exc:
                # Held without its traceback, whose frames pin this batch.
                value = exc.with_traceback(None)
            out.append((value, tuple(self.fault_events[first_event:])))
        return out

    def _profile_from_batch(
        self, spec, cluster, sim, i, noise, series
    ) -> WorkloadProfile:
        """One cell's :meth:`collect` protocol over precomputed batch results.

        Mirrors the scalar repetition loop exactly — noise draw, fault
        check, then the simulation outcome (so rep-0 fault events precede
        an OOM raise, as with the scalar ``simulate_run`` call) — but the
        simulation itself is a lookup: the noise multiplier is a pure
        scalar factor on the cell's deterministic base runtime.
        """
        from repro.cloud.pricing import MIN_BILLED_SECONDS, hourly_price

        base = float(sim.base_runtime_s[i]) if not sim.oom_cells[i] else 0.0
        runtimes = np.empty(self.repetitions)
        spilled = False
        for rep in range(self.repetitions):
            mult = noise.sample(spec.demand.variance_boost).multiplier
            decision = None
            if self.faults is not None:
                mult, decision = self._faulted_multiplier(
                    spec, cluster.vm.name, rep, mult
                )
            if sim.oom_cells[i]:
                raise OutOfMemoryError(sim.oom_messages[i])
            runtimes[rep] = base * mult
            if rep == 0:
                spilled = bool(sim.cell_spilled[i])
                if decision is not None and decision.drop:
                    series = self._drop_samples(series, spec.name, cluster.vm.name, rep)
        # Vectorized Cluster.budget: same operand order as the scalar
        # ``hourly_price * max(runtime, floor) / 3600`` per repetition.
        # The billing floor comes from the pricing model when one is
        # threaded (e.g. Azure's 0 s, the merged catalog's per-provider
        # increments); ``None`` keeps the historical EC2 constant.
        if self.pricing is None:
            floor = MIN_BILLED_SECONDS
        else:
            floor = self.pricing.increment_for(cluster.vm.name)
        budgets = (
            hourly_price(cluster.vm, cluster.nodes, model=self.pricing)
            * np.maximum(runtimes, floor)
            / 3600.0
        )
        if series is None:
            raise ValidationError("no repetition produced a telemetry series")
        return WorkloadProfile(
            workload=spec.name,
            framework=spec.framework,
            vm_name=cluster.vm.name,
            nodes=cluster.nodes,
            runtimes=runtimes,
            budgets=budgets,
            timeseries=series,
            spilled=spilled,
        )
