"""Final coverage batch: CLI error paths, graph views, selector edges."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.graph import KnowledgeGraph
from repro.core.labels import LabelSpace
from repro.errors import ValidationError
from repro.workloads.catalog import get_workload


class TestCliParsing:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["deploy"])

    def test_unknown_experiment_id_exits(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_parser_has_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("catalog", "workloads", "simulate", "select",
                    "experiment", "latency"):
            assert cmd in text

    def test_simulate_unknown_workload_exits_one(self, capsys):
        # Library errors no longer escape main(): they exit 1 with a
        # one-line message (see TestCliErrorHandling in test_extensions).
        assert main(["simulate", "storm-wordcount", "m5.xlarge"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "storm-wordcount" in err


class TestGraphExport:
    def test_matrix_view_is_consistent(self):
        space = LabelSpace(("a",), softness=0)
        g = KnowledgeGraph(space, ("vm1",))
        g.add_source_workload("w", space.membership(np.array([0.5]), hard=True))
        # One node per workload row, label column and VM row of the view.
        n_workloads, n_labels = g.workload_label_matrix().shape
        n_vms, v_labels = g.label_vm_matrix().shape
        assert n_workloads == len(g.workload_names()) == 1
        assert n_labels == v_labels == space.n_labels
        assert n_vms == len(g.vm_names) == 1
        assert len(g.labels_of("w")) == 1

    def test_empty_source_matrix_shape(self):
        space = LabelSpace(("a",))
        g = KnowledgeGraph(space, ("vm1",))
        assert g.workload_label_matrix().shape == (0, space.n_labels)
        assert g.similar_source_workloads(np.zeros(space.n_labels)) == []


class TestSelectorEdges:
    def test_online_before_fit_rejected(self, spark_lr):
        from repro.core.vesta import VestaSelector

        with pytest.raises(ValidationError):
            VestaSelector().online(spark_lr)

    def test_vm_index_unknown_rejected(self, fitted_vesta):
        with pytest.raises(ValidationError):
            fitted_vesta.vm_index("quantum.4xlarge")

    def test_recommendation_predictions_complete(self, fitted_vesta):
        rec = fitted_vesta.select(get_workload("spark-count"))
        assert len(rec.predictions) == len(fitted_vesta.vms)
        assert all(v > 0 for v in rec.predictions.values())

    def test_corr_probe_vms_spread(self, fitted_vesta):
        probes = fitted_vesta._corr_probe_vms()
        assert len(probes) == fitted_vesta.correlation_probe_count
        assert len({vm.family for vm in probes}) == len(probes)


class TestBaselineObjectiveConsistency:
    def test_paris_and_ernest_budget_never_pricier_rate(
        self, fitted_paris, shared_ernest, spark_lr
    ):
        from repro.cloud.vmtypes import get_vm_type

        for system in (fitted_paris, shared_ernest):
            t = get_vm_type(system.select(spark_lr, "time"))
            b = get_vm_type(system.select(spark_lr, "budget"))
            assert b.price_per_hour <= t.price_per_hour

    def test_ernest_invalid_objective(self, shared_ernest, spark_lr):
        with pytest.raises(ValidationError):
            shared_ernest.select(spark_lr, "carbon")

    def test_paris_invalid_objective(self, fitted_paris, spark_lr):
        with pytest.raises(ValidationError):
            fitted_paris.select(spark_lr, "carbon")
