"""Vesta reproduction: best VM selection across big-data frameworks.

Reproduces Wu et al., *Best VM Selection for Big Data Applications across
Multiple Frameworks by Transfer Learning* (ICPP '21) — the Vesta system —
together with the substrates its evaluation needs (an EC2-like VM catalog,
Hadoop/Hive/Spark BSP simulators, the HiBench/BigDataBench workload suite)
and the baselines it compares against (PARIS, Ernest, plus a
CherryPick-style Bayesian optimizer).

Quickstart::

    from repro import VestaSelector, get_workload
    vesta = VestaSelector(seed=7)
    vesta.fit()                                 # offline: profile source workloads
    rec = vesta.select(get_workload("spark-lr"))
    print(rec.vm_name, rec.predicted_runtime_s)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

from repro.cloud import Cluster, VMType, catalog, get_vm_type
from repro.frameworks import simulate_run
from repro.telemetry import DataCollector, MetricsStore, ProfilingCampaign
from repro.workloads import WorkloadSpec, all_workloads, get_workload

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "DataCollector",
    "MetricsStore",
    "ProfilingCampaign",
    "VMType",
    "WorkloadSpec",
    "all_workloads",
    "catalog",
    "get_vm_type",
    "get_workload",
    "simulate_run",
    "__version__",
]
