"""Homogeneous clusters of a single VM type.

The paper selects one VM *type*; the framework engines then run the job on
a small cluster of instances of that type (big-data jobs are distributed by
nature — HiBench/BigDataBench default deployments use a handful of worker
nodes).  :class:`Cluster` is the resource container the engines schedule
tasks onto: it exposes aggregate compute slots, memory, disk and network
bandwidth, and the per-node figures needed for memory-pressure modeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cloud.pricing import budget_for_runtime, hourly_price
from repro.cloud.vmtypes import VMType
from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.cloud.catalog import PricingModel

__all__ = [
    "Cluster",
    "DEFAULT_NODES",
    "OS_MEMORY_RESERVE_GB",
    "usable_mem_per_node_gb",
]

#: Default worker count when a workload spec does not pin one.
DEFAULT_NODES = 4

#: Memory reserved per node for the OS + daemons (NodeManager, DataNode...).
OS_MEMORY_RESERVE_GB = 1.0


def usable_mem_per_node_gb(vm: VMType) -> float:
    """Memory per node of ``vm`` after the OS reserve.

    The reserve is capped at a quarter of node memory so that the
    catalog's smallest shapes (sub-GB ``c4n.small``) remain usable —
    they are merely slow, not impossible, which matches how the paper's
    exhaustive ground-truth sweep treats every Table-4 type.
    """
    reserve = min(OS_MEMORY_RESERVE_GB, 0.25 * vm.mem_gb)
    return vm.mem_gb - reserve


@dataclass(frozen=True)
class Cluster:
    """``nodes`` identical instances of ``vm``.

    The engines treat the cluster as the unit of scheduling: compute slots
    are vCPUs, memory pressure is evaluated per node, and shuffle traffic
    crosses the network between nodes.
    """

    vm: VMType
    nodes: int = DEFAULT_NODES
    #: Billing rule; ``None`` keeps the historical EC2 on-demand arithmetic.
    pricing: "PricingModel | None" = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValidationError(f"cluster needs >= 1 node, got {self.nodes}")

    # -- aggregate resources -------------------------------------------------

    @property
    def total_vcpus(self) -> int:
        return self.vm.vcpus * self.nodes

    @property
    def total_mem_gb(self) -> float:
        return self.vm.mem_gb * self.nodes

    @property
    def usable_mem_per_node_gb(self) -> float:
        """Memory per node after the OS reserve (see :func:`usable_mem_per_node_gb`)."""
        return usable_mem_per_node_gb(self.vm)

    @property
    def usable_mem_gb(self) -> float:
        return self.usable_mem_per_node_gb * self.nodes

    @property
    def total_disk_mbps(self) -> float:
        return self.vm.disk_mbps * self.nodes

    @property
    def total_net_gbps(self) -> float:
        return self.vm.net_gbps * self.nodes

    @property
    def net_mbps_per_node(self) -> float:
        """Network bandwidth per node in MB/s (Gbit/s → MB/s)."""
        return self.vm.net_gbps * 1000.0 / 8.0

    @property
    def compute_rate(self) -> float:
        """Aggregate normalized compute throughput (vCPUs × per-core speed)."""
        return self.total_vcpus * self.vm.cpu_speed

    # -- cost ------------------------------------------------------------------

    def hourly_price(self) -> float:
        """USD/hour for the whole cluster."""
        return hourly_price(self.vm, self.nodes, model=self.pricing)

    def budget(self, runtime_s: float) -> float:
        """USD cost of holding the cluster for ``runtime_s`` seconds."""
        return budget_for_runtime(
            self.vm, runtime_s, self.nodes, model=self.pricing
        )

    # -- placement helpers -----------------------------------------------------

    def concurrent_tasks_per_node(self, task_mem_gb: float) -> int:
        """How many tasks of ``task_mem_gb`` fit concurrently on one node.

        Bounded by vCPUs (one task per core) and by usable node memory.
        Returns 0 when a single task does not fit even alone — the engines
        then fall back to spilling or raise
        :class:`repro.errors.OutOfMemoryError`.
        """
        if task_mem_gb < 0:
            raise ValidationError(f"task_mem_gb must be >= 0, got {task_mem_gb}")
        # Sub-epsilon (incl. denormal) demands are "free": avoid the float
        # division blowing past int range.
        if task_mem_gb < 1e-9:
            return self.vm.vcpus
        by_mem = int(self.usable_mem_per_node_gb // task_mem_gb)
        return min(self.vm.vcpus, by_mem)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.nodes}x{self.vm.name}"
