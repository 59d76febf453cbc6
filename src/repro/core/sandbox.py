"""Sandbox and probe VM selection for online initialization.

Algorithm 1 line 2 runs the target workload once on a *sandbox* VM type —
"it satisfies the resource requirements of the target workload" — to
measure its correlation vector.  Section 4.2 then runs the workload on
**3 randomly picked VM types** to initialise the CMF model.

The sandbox choice is deterministic: the cheapest catalog VM whose nodes
hold the workload's per-task working set without spilling (spilled runs
would distort the measured correlations).  The probes are drawn from a
seeded RNG, excluding the sandbox.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.cluster import usable_mem_per_node_gb
from repro.cloud.vmtypes import VMType, catalog
from repro.errors import ValidationError
from repro.frameworks.base import HDFS_SPLIT_GB, TASK_MEMORY_FLOOR_GB
from repro.workloads.spec import WorkloadSpec

__all__ = ["choose_sandbox_vm", "choose_probe_vms"]


#: Minimum sustained per-core speed for a sandbox (rules out burstable
#: types whose throttling would distort the measured correlations).
_SANDBOX_MIN_SPEED = 0.6

#: Minimum node memory multiple of the task heap floor: the sandbox must
#: run several concurrent tasks without spilling, or the memory-related
#: correlation metrics degenerate.
_SANDBOX_MIN_MEM_FLOORS = 4.0


def choose_sandbox_vm(
    spec: WorkloadSpec, vms: tuple[VMType, ...] | None = None
) -> VMType:
    """Cheapest VM type that profiles ``spec`` faithfully.

    "Satisfies the resource requirements" concretely means: not throttled
    (non-burstable sustained CPU), enough node memory to run a few tasks
    above the framework heap floor, and no spilling for the workload's
    per-task working set — a spilled or throttled sandbox run would
    distort the correlation signature the online phase is built on.
    Falls back to the largest-memory VM if nothing qualifies.
    """
    vms = catalog() if vms is None else vms
    if not vms:
        raise ValidationError("empty VM candidate set")
    task_mem = max(HDFS_SPLIT_GB * spec.demand.mem_blowup, TASK_MEMORY_FLOOR_GB)
    min_usable = _SANDBOX_MIN_MEM_FLOORS * TASK_MEMORY_FLOOR_GB
    feasible = []
    for vm in vms:
        if vm.cpu_speed < _SANDBOX_MIN_SPEED:
            continue
        # Per-node tests, so no Cluster is built: ``usable // task_mem >= 1``
        # is ``Cluster.concurrent_tasks_per_node(task_mem) >= 1`` (every VM
        # has a vCPU).
        usable = usable_mem_per_node_gb(vm)
        if usable >= min_usable and usable // task_mem >= 1:
            feasible.append(vm)
    if not feasible:
        return max(vms, key=lambda vm: vm.mem_gb)
    return min(feasible, key=lambda vm: (vm.price_per_hour, vm.name))


#: Size strata for probe selection, by the catalog's size mnemonics.
_SIZE_STRATA: tuple[tuple[str, ...], ...] = (
    ("small", "medium", "large"),
    ("xlarge", "2xlarge"),
    ("4xlarge", "8xlarge", "16xlarge"),
)


def choose_probe_vms(
    spec: WorkloadSpec,
    *,
    count: int = 3,
    seed: int = 0,
    vms: tuple[VMType, ...] | None = None,
    exclude: tuple[str, ...] = (),
) -> tuple[VMType, ...]:
    """``count`` random probe VM types (Section 4.2), excluding ``exclude``.

    Sampling is random (seeded) but **stratified across the size ladder**:
    the first probes are drawn one per size stratum (small / mid / large
    shapes), additional ones uniformly from distinct families.  Probe
    observations anchor the online calibration of the whole VM-response
    curve, so they must span the range being extrapolated — three random
    small shapes would leave the fast end of the catalog unconstrained.
    """
    if count < 0:
        raise ValidationError("count must be >= 0")
    vms = catalog() if vms is None else vms
    excluded = set(exclude)
    pool = [vm for vm in vms if vm.name not in excluded]
    if count > len(pool):
        raise ValidationError(
            f"cannot pick {count} probes from {len(pool)} candidates"
        )
    rng = np.random.default_rng(seed)
    # Catalog VM names are unique, so a name set tracks the picks.
    chosen: list[VMType] = []
    chosen_names: set[str] = set()
    families_used: set[str] = set()

    def take(vm: VMType) -> None:
        chosen.append(vm)
        chosen_names.add(vm.name)
        families_used.add(vm.family)

    for stratum in _SIZE_STRATA:
        if len(chosen) == count:
            break
        candidates = [
            vm
            for vm in pool
            if vm.size in stratum
            and vm.name not in chosen_names
            and vm.family not in families_used
        ]
        if candidates:
            take(candidates[int(rng.integers(len(candidates)))])

    # Extra probes (count > strata) or sparse pools: fill from distinct
    # families first, then uniformly.
    order = rng.permutation(len(pool))
    for idx in order:
        if len(chosen) == count:
            break
        vm = pool[idx]
        if vm.name not in chosen_names and vm.family not in families_used:
            take(vm)
    for idx in order:
        if len(chosen) == count:
            break
        vm = pool[idx]
        if vm.name not in chosen_names:
            take(vm)
    return tuple(chosen)
