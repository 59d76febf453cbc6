"""Shared fixtures.

Expensive end-to-end objects (fitted selectors, ground truth) are
session-scoped: the offline profiling campaign runs once per pytest
session.  Unit tests that only need a cluster or a workload use the cheap
function-scoped fixtures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.cluster import Cluster
from repro.cloud.vmtypes import catalog, get_vm_type
from repro.workloads.catalog import get_workload

SEED = 7


@pytest.fixture(scope="session")
def vms():
    return catalog()


@pytest.fixture()
def m5_xlarge():
    return get_vm_type("m5.xlarge")


@pytest.fixture()
def small_cluster(m5_xlarge):
    return Cluster(vm=m5_xlarge, nodes=4)


@pytest.fixture()
def spark_lr():
    return get_workload("spark-lr")


@pytest.fixture()
def hadoop_terasort():
    return get_workload("hadoop-terasort")


@pytest.fixture()
def hive_join():
    return get_workload("hive-join")


@pytest.fixture()
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture()
def force_pool(monkeypatch):
    """Route every campaign wave of 2+ missed cells by a chosen CPU count.

    ``force_pool(workers)`` patches the inputs of the campaign's private
    size rule — one cell per worker and ``workers`` CPUs — so a small
    test grid fans out over ``workers`` processes whatever the runner's
    CPU count (``workers=1`` keeps every wave inline).  It returns the
    worker counts of the pools actually started, so an identity test can
    assert the pool ran instead of passing by running inline twice.
    """
    from concurrent.futures import ProcessPoolExecutor

    import repro.telemetry.campaign as campaign

    started: list[int] = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    def force(workers: int) -> list[int]:
        monkeypatch.setattr(campaign, "_CELLS_PER_WORKER", 1)
        monkeypatch.setattr(campaign.os, "cpu_count", lambda: workers)
        monkeypatch.setattr(campaign, "ProcessPoolExecutor", RecordingPool)
        return started

    return force


@pytest.fixture(scope="session")
def fitted_vesta():
    """Offline-fitted Vesta on the full training set (shared)."""
    from repro.core.vesta import VestaSelector

    return VestaSelector(seed=SEED).fit()


@pytest.fixture(scope="session")
def ground_truth():
    from repro.baselines.ground_truth import GroundTruth

    return GroundTruth(seed=SEED)


@pytest.fixture(scope="session")
def fitted_paris():
    """PARIS trained on the Hadoop+Hive training set (shared)."""
    from repro.baselines.paris import Paris
    from repro.workloads.catalog import training_set

    return Paris(seed=SEED).fit(training_set())


@pytest.fixture(scope="session")
def shared_ernest():
    from repro.baselines.ernest import Ernest

    return Ernest(seed=SEED)
