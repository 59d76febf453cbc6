"""Tests for the knowledge graph, sandbox/probe choice, and the predictor."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.graph import _EDGE_EPS, KnowledgeGraph
from repro.core.labels import LabelSpace
from repro.core.predictor import SimilarityPredictor, _affine_log_fit
from repro.core.sandbox import choose_probe_vms, choose_sandbox_vm
from repro.core.vesta import VestaSelector
from repro.cloud.vmtypes import catalog, get_vm_type
from repro.errors import ValidationError
from repro.workloads.catalog import all_workloads, get_workload


@pytest.fixture()
def space():
    return LabelSpace(("a", "b"), softness=1)


@pytest.fixture()
def graph(space):
    g = KnowledgeGraph(space, ("vm1", "vm2", "vm3"))
    g.add_source_workload("w1", space.membership(np.array([0.1, 0.2])))
    g.add_source_workload("w2", space.membership(np.array([0.12, 0.2])))
    g.add_source_workload("w3", space.membership(np.array([-0.8, -0.9])))
    V = np.zeros((3, space.n_labels))
    V[0, space.feature_block(0)] = 0.5
    V[1, space.feature_block(1)] = 0.7
    g.set_label_vm_matrix(V)
    return g


class TestKnowledgeGraph:
    def test_two_layer_structure(self, graph):
        counts = graph.edge_counts()
        assert counts["workload-label(source)"] > 0
        assert counts["label-vm"] > 0
        assert counts["workload-label(target)"] == 0

    def test_target_edges_coloured(self, graph, space):
        graph.add_target_workload("t1", space.membership(np.array([0.1, 0.25])))
        assert graph.edge_counts()["workload-label(target)"] > 0
        assert graph.workload_names(target=True) == ("t1",)

    def test_matrix_views_shapes(self, graph, space):
        assert graph.workload_label_matrix().shape == (3, space.n_labels)
        assert graph.label_vm_matrix().shape == (3, space.n_labels)

    def test_shared_labels_reflect_similarity(self, graph):
        assert graph.shared_labels("w1", "w2")
        assert not graph.shared_labels("w1", "w3")

    def test_similar_source_workloads_ranked(self, graph, space):
        query = space.membership(np.array([0.11, 0.21]))
        ranked = graph.similar_source_workloads(query, top=3)
        assert ranked[0][0] in ("w1", "w2")
        assert ranked[-1][0] == "w3"

    def test_vm_affinity_two_hop(self, graph):
        aff = graph.vm_affinity("w1")
        assert aff.shape == (3,)
        assert aff[0] > 0 and aff[1] > 0
        assert aff[2] == 0  # vm3 has no label edges

    def test_unknown_workload_rejected(self, graph):
        with pytest.raises(ValidationError):
            graph.labels_of("nope")

    def test_bad_matrix_shape_rejected(self, graph):
        with pytest.raises(ValidationError):
            graph.set_label_vm_matrix(np.zeros((2, 2)))


def _label_ids(edges: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(edges).tolist())


class TestGraphIsAViewOverUV:
    """The fitted graph answers from U and V alone, and serving never
    writes to it."""

    def test_queries_equal_u_and_v(self, fitted_vesta):
        graph = fitted_vesta.graph
        U, V = fitted_vesta.U, fitted_vesta.V
        names = graph.workload_names()
        assert len(names) == U.shape[0]
        edges = U > _EDGE_EPS
        for i, a in enumerate(names):
            assert graph.labels_of(a) == _label_ids(edges[i])
            for j, b in enumerate(names):
                assert graph.shared_labels(a, b) == _label_ids(edges[i] & edges[j])
        assert graph.edge_counts() == {
            "workload-label(source)": int(np.count_nonzero(edges)),
            "workload-label(target)": 0,
            "label-vm": int(np.count_nonzero(V > _EDGE_EPS)),
        }

    def test_serving_leaves_the_graph_untouched(self):
        selector = VestaSelector(seed=7, cmf_mode="foldin").fit()
        graph = selector.graph
        counts = graph.edge_counts()
        specs = all_workloads()
        assert len(specs) == 30
        for spec in specs:
            selector.online(spec)
            selector.select(spec, "budget")
        selector.online_many(specs)
        selector.select_many(specs)
        assert selector.graph is graph
        assert graph.workload_names(target=True) == ()
        assert graph.edge_counts() == counts

    def test_serving_imports_do_not_load_networkx(self):
        code = (
            "import sys, repro.cli, repro.core, repro.core.persistence, repro.service; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.strip() == "[]"


class TestSandbox:
    def test_sandbox_not_burstable(self):
        for name in ("spark-lr", "hadoop-terasort", "spark-pca"):
            vm = choose_sandbox_vm(get_workload(name))
            assert vm.cpu_speed >= 0.6, vm.name

    def test_sandbox_has_headroom(self, spark_lr):
        vm = choose_sandbox_vm(spark_lr)
        assert vm.mem_gb >= 4.0

    def test_sandbox_is_cheapest_feasible(self, spark_lr):
        vm = choose_sandbox_vm(spark_lr)
        # Every cheaper VM must be infeasible by the sandbox rules.
        cheaper = [v for v in catalog() if v.price_per_hour < vm.price_per_hour]
        assert all(
            v.cpu_speed < 0.6 or v.mem_gb < 4.0 or v.name != vm.name for v in cheaper
        )

    def test_probe_count_and_exclusion(self, spark_lr):
        probes = choose_probe_vms(spark_lr, count=3, seed=1, exclude=("m5.large",))
        assert len(probes) == 3
        assert "m5.large" not in {p.name for p in probes}

    def test_probes_span_size_strata(self, spark_lr):
        probes = choose_probe_vms(spark_lr, count=3, seed=1)
        scales = {p.size for p in probes}
        small = scales & {"small", "medium", "large"}
        mid = scales & {"xlarge", "2xlarge"}
        big = scales & {"4xlarge", "8xlarge", "16xlarge"}
        assert small and mid and big

    def test_probes_distinct_families(self, spark_lr):
        probes = choose_probe_vms(spark_lr, count=3, seed=2)
        assert len({p.family for p in probes}) == 3

    def test_probes_seeded(self, spark_lr):
        a = choose_probe_vms(spark_lr, count=3, seed=5)
        b = choose_probe_vms(spark_lr, count=3, seed=5)
        assert [p.name for p in a] == [p.name for p in b]

    def test_probe_overflow_rejected(self, spark_lr):
        with pytest.raises(ValidationError):
            choose_probe_vms(spark_lr, count=200)

    def test_zero_probes_allowed(self, spark_lr):
        assert choose_probe_vms(spark_lr, count=0) == ()


class TestAffineLogFit:
    def test_recovers_exact_affine(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        a, b = _affine_log_fit(x, 2.0 * x + 1.0)
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(2.0)

    def test_degenerate_x_falls_back_to_unit_slope(self):
        a, b = _affine_log_fit(np.array([1.0, 1.0]), np.array([3.0, 5.0]))
        assert b == 1.0
        assert a == pytest.approx(3.0)

    def test_slope_clipped(self):
        x = np.array([0.0, 1e-3])
        y = np.array([0.0, 100.0])
        _a, b = _affine_log_fit(x, y)
        assert b <= 4.0


class TestSimilarityPredictor:
    @pytest.fixture()
    def setup(self):
        # Three sources with distinct VM-response profiles over 5 VMs.
        perf = np.array(
            [
                [100.0, 50.0, 25.0, 12.5, 6.25],  # scales with "size"
                [100.0, 90.0, 80.0, 70.0, 60.0],  # flat
                [10.0, 20.0, 40.0, 80.0, 160.0],  # inverted
            ]
        )
        rows = np.eye(3)
        return SimilarityPredictor(perf, rows, top_m=1, temperature=0.05)

    def test_similarities_identity(self, setup):
        sims = setup.similarities(np.array([1.0, 0.0, 0.0]))
        assert np.argmax(sims) == 0

    def test_prediction_follows_similar_source_shape(self, setup):
        pred = setup.predict(
            np.array([1.0, 0.0, 0.0]),
            probe_vm_idx=np.array([0, 4]),
            probe_runtimes=np.array([200.0, 12.5]),
        )
        # Source 0 halves per step; probes set scale 2x -> midpoint ~50.
        assert pred[2] == pytest.approx(50.0, rel=0.3)

    def test_probe_entries_exact(self, setup):
        pred = setup.predict(
            np.array([0.0, 1.0, 0.0]),
            probe_vm_idx=np.array([1, 3]),
            probe_runtimes=np.array([45.0, 35.0]),
        )
        assert pred[1] == 45.0
        assert pred[3] == 35.0

    def test_affinity_path_changes_ranking(self, setup):
        row = np.array([0.0, 1.0, 0.0])
        probes = (np.array([0, 4]), np.array([100.0, 60.0]))
        flat = setup.predict(row, *probes)
        affinity = np.array([0.1, 0.1, 0.1, 0.1, 5.0])  # VM 4 favoured
        blended = setup.predict(row, *probes, affinity=affinity, affinity_weight=1.0)
        assert np.argmin(blended) == 4
        assert not np.array_equal(flat, blended)

    def test_zero_target_row_gives_zero_similarity(self, setup):
        sims = setup.similarities(np.zeros(3))
        assert np.all(sims == 0)

    def test_validation(self, setup):
        with pytest.raises(ValidationError):
            setup.predict(np.zeros(3), np.array([]), np.array([]))
        with pytest.raises(ValidationError):
            setup.predict(np.zeros(3), np.array([0]), np.array([-5.0]))
        with pytest.raises(ValidationError):
            SimilarityPredictor(np.array([[1.0]]), np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            SimilarityPredictor(np.array([[0.0]]), np.zeros((1, 3)))
