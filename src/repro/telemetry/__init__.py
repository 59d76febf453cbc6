"""Metric collection: the paper's Data Collector and its storage.

- :mod:`repro.telemetry.metrics` — the 20 low-level metric definitions;
- :mod:`repro.telemetry.collector` — repeated-run profiling with 5-second
  sampling and conservative P90 aggregation (Section 4.1);
- :mod:`repro.telemetry.store` — a sqlite-backed run archive standing in
  for the paper's MySQL database, plus the serving tier's session journal;
- :mod:`repro.telemetry.campaign` — the parallel profiling campaign
  engine and its in-process cell memo;
- :mod:`repro.telemetry.latency` — latency/throughput metrics for
  latency-sensitive workloads (the Section 7 extension).
"""

from repro.telemetry.campaign import ProfilingCampaign, noise_fingerprint
from repro.telemetry.collector import DataCollector, WorkloadProfile
from repro.telemetry.latency import DurationSummary, LatencyReport, latency_report
from repro.telemetry.metrics import (
    EXECUTION_METRICS,
    METRIC_INDEX,
    METRIC_NAMES,
    NUM_METRICS,
    RESOURCE_METRICS,
    CampaignCounters,
)
from repro.telemetry.store import MetricsStore

__all__ = [
    "CampaignCounters",
    "DataCollector",
    "DurationSummary",
    "EXECUTION_METRICS",
    "LatencyReport",
    "latency_report",
    "METRIC_INDEX",
    "METRIC_NAMES",
    "MetricsStore",
    "NUM_METRICS",
    "ProfilingCampaign",
    "RESOURCE_METRICS",
    "WorkloadProfile",
    "noise_fingerprint",
]
