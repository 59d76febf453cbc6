"""Continual knowledge updating: naive growth and the gated lifecycle.

Both policies of ``repro experiment ext_lifecycle`` grow a selector's
knowledge only through :meth:`VestaSelector.promote`: naive growth
(``absorb_naive``, the paper's Section 4.2 sketch) promotes whatever
passes the structural pre-gate, while ``core/lifecycle.py``'s
measured-transferability gate turns the documented knowledge-pollution
caveat into an enforced invariant.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.lifecycle import (
    KnowledgeLifecycle,
    TransferGate,
    record_from_session,
)
from repro.core.persistence import clone_knowledge
from repro.core.vesta import VestaSelector
from repro.errors import ValidationError
from repro.experiments.common import mape_vs_best, selection_regret
from repro.experiments.ext_lifecycle import absorb_naive
from repro.workloads.catalog import get_workload, target_set


@pytest.fixture(scope="module")
def target_records(fitted_vesta):
    """Journalled sessions for every Table-3 target on frozen knowledge."""
    records = []
    for spec in target_set():
        session = fitted_vesta.online(spec)
        session.recommend("time")
        records.append(
            record_from_session(
                session, "time", fingerprint=fitted_vesta.knowledge_fingerprint()
            )
        )
    return tuple(records)


@pytest.fixture(scope="module")
def grown(fitted_vesta, target_records):
    """One gated promotion cycle over the full target journal."""
    selector = clone_knowledge(fitted_vesta)
    report = KnowledgeLifecycle(selector, min_observations=3).advance(
        target_records
    )
    return selector, report


def _record(selector, name):
    """Serve ``name`` on ``selector`` and journal the session."""
    return record_from_session(
        selector.online(get_workload(name)),
        fingerprint=selector.knowledge_fingerprint(),
    )


class TestContinual:
    """Naive growth: every pre-gated session goes through ``promote``."""

    def test_requires_fitted_selector(self, target_records):
        with pytest.raises(ValidationError):
            VestaSelector().promote([])
        with pytest.raises(ValidationError):
            absorb_naive(VestaSelector(), target_records[0])

    def test_absorb_grows_knowledge(self, fitted_vesta):
        selector = clone_knowledge(fitted_vesta)
        before = selector.U.shape[0]
        assert absorb_naive(selector, _record(selector, "spark-lr"))
        assert selector.knowledge_names[-1] == "spark-lr"
        assert [p.name for p in selector.promotions] == ["spark-lr"]
        # Every knowledge array grows together; the sources do not.
        for rows in (
            selector.U.shape[0],
            selector.perf.shape[0],
            selector.source_factors.A.shape[0],
            len(selector.knowledge_names),
        ):
            assert rows == before + 1
        assert selector.sources == fitted_vesta.sources
        assert "spark-lr" in selector.graph.workload_names(target=False)
        assert selector.knowledge_fingerprint() != (
            fitted_vesta.knowledge_fingerprint()
        )

    def test_absorb_is_idempotent_per_workload(self, fitted_vesta):
        selector = clone_knowledge(fitted_vesta)
        assert absorb_naive(selector, _record(selector, "spark-grep"))
        again = _record(selector, "spark-grep")
        assert TransferGate(selector).pre_gate(again) == "duplicate"
        fingerprint = selector.knowledge_fingerprint()
        assert not absorb_naive(selector, again)
        assert selector.knowledge_fingerprint() == fingerprint

    def test_source_workloads_not_reabsorbed(self, fitted_vesta):
        selector = clone_knowledge(fitted_vesta)
        record = _record(selector, "hadoop-terasort")
        assert TransferGate(selector).pre_gate(record) == "duplicate"
        assert not absorb_naive(selector, record)
        assert selector.promotions == ()

    def test_under_observed_session_rejected(self, fitted_vesta):
        record = _record(fitted_vesta, "spark-count")
        assert len(record.vm_names) == 4
        gate = TransferGate(fitted_vesta, min_observations=10)
        assert gate.pre_gate(record) == "under-observed"
        assert TransferGate(fitted_vesta).pre_gate(record) is None

    def test_selection_still_works_after_absorption(self, fitted_vesta):
        selector = clone_knowledge(fitted_vesta)
        assert absorb_naive(selector, _record(selector, "spark-lr"))
        rec = selector.select(get_workload("spark-kmeans"))
        assert rec.predicted_runtime_s > 0
        # Grown knowledge stays a pipeline state: a plain refit profiles
        # nothing and keeps the promotion.
        computed = selector.campaign.counters.computed
        fingerprint = selector.knowledge_fingerprint()
        selector.refit()
        assert selector.campaign.counters.computed == computed
        assert selector.knowledge_fingerprint() == fingerprint
        assert selector.U.shape[0] == len(fitted_vesta.sources) + 1


class TestSessionRecords:
    def test_record_freezes_session(self, fitted_vesta, target_records):
        record = target_records[0]
        assert record.workload == target_set()[0].name
        assert record.objective == "time"
        assert record.fingerprint == fitted_vesta.knowledge_fingerprint()
        assert record.converged
        assert len(record.vm_names) == record.observed.size
        assert (record.observed > 0).all()
        assert record.completed_row.shape == (fitted_vesta.U.shape[1],)
        assert record.predicted.shape == (len(fitted_vesta.vms),)

    def test_observed_entries_match_session(self, fitted_vesta):
        session = fitted_vesta.online(get_workload("spark-grep"))
        record = record_from_session(session)
        for name, runtime in session.observations.items():
            assert record.observed[record.vm_names.index(name)] == runtime


class TestTransferGate:
    def test_requires_fitted_selector(self):
        with pytest.raises(ValidationError):
            TransferGate(VestaSelector())

    def test_invalid_floors_rejected(self, fitted_vesta):
        with pytest.raises(ValidationError):
            TransferGate(fitted_vesta, min_observations=1)
        with pytest.raises(ValidationError):
            TransferGate(fitted_vesta, min_holdouts=0)

    def test_structural_pre_gates(self, fitted_vesta, target_records):
        gate = TransferGate(fitted_vesta, min_observations=3)
        record, *peers = target_records
        peers = tuple(peers)
        cases = {
            "non-convergent": replace(record, converged=False),
            "degraded": replace(record, degraded=True),
            "under-observed": replace(
                record,
                vm_names=record.vm_names[:2],
                observed=record.observed[:2],
            ),
            "duplicate": replace(record, workload="hadoop-terasort"),
            "shape-mismatch": replace(
                record, completed_row=record.completed_row[:-1]
            ),
        }
        for reason, bad in cases.items():
            score = gate.score(bad, peers)
            assert not score.accepted
            assert score.reason == reason

    def test_no_holdouts_defers_instead_of_rejecting(
        self, fitted_vesta, target_records
    ):
        gate = TransferGate(fitted_vesta, min_observations=3)
        score = gate.score(target_records[0], ())
        assert not score.accepted
        assert score.deferred
        assert score.reason == "insufficient-holdouts"

    def test_same_workload_peers_are_not_holdouts(
        self, fitted_vesta, target_records
    ):
        gate = TransferGate(fitted_vesta, min_observations=3)
        record = target_records[0]
        score = gate.score(record, (record, record))
        assert score.deferred

    def test_accept_iff_measured_improvement(self, fitted_vesta, target_records):
        gate = TransferGate(fitted_vesta, min_observations=3)
        record, *peers = target_records
        score = gate.score(record, tuple(peers))
        assert score.holdouts == len(peers)
        assert np.isfinite(score.baseline_error)
        assert np.isfinite(score.candidate_error)
        assert score.accepted == (score.candidate_error <= score.baseline_error)
        assert score.reason in ("accepted", "negative-transfer")
        assert score.accepted == (score.diff >= 0)


class TestKnowledgeLifecycle:
    """The pinned knowledge-pollution regression: on the same journal,
    naive growth promotes every structurally plausible session; the gate
    promotes only measured non-negative transfer, and the grown knowledge
    never regresses the frozen baseline on subsequent serves of the
    target suite."""

    def test_gate_rejects_polluters_naive_absorption_admits(
        self, fitted_vesta, target_records, grown
    ):
        naive = clone_knowledge(fitted_vesta)
        admitted = [
            record.workload
            for record in target_records
            if absorb_naive(naive, record)
        ]
        assert [p.name for p in naive.promotions] == admitted
        _, report = grown
        # Same sessions, same evidence: naive takes everything...
        assert len(admitted) == len(target_set())
        # ...the gate measures, promotes a strict subset, rejects the rest.
        assert report.promoted
        assert set(report.promoted) < set(admitted)
        assert report.gated_out > 0
        assert report.gated_out + len(report.promoted) + report.deferred == (
            report.candidates
        )

    def test_negative_transfer_candidate_never_promoted(self, grown):
        _, report = grown
        rejected = {
            s.workload for s in report.scores if s.reason == "negative-transfer"
        }
        assert rejected
        assert not rejected & set(report.promoted)
        for score in report.scores:
            if score.reason == "negative-transfer":
                assert score.candidate_error > score.baseline_error

    def test_later_target_regret_no_worse_than_frozen(self, fitted_vesta, grown):
        selector, report = grown
        assert report.promoted  # the comparison must be non-vacuous

        def mean_metrics(sel):
            mapes, regrets = [], []
            for spec in target_set():
                session = sel.online(spec)
                rec = session.recommend("time")
                mapes.append(mape_vs_best(spec, session.predict_runtimes()))
                regrets.append(selection_regret(spec, rec.vm_name))
            return float(np.mean(mapes)), float(np.mean(regrets))

        frozen_mape, frozen_regret = mean_metrics(fitted_vesta)
        grown_mape, grown_regret = mean_metrics(selector)
        assert grown_regret <= frozen_regret
        assert grown_mape <= frozen_mape + 1e-9

    def test_promotions_carry_lineage_and_fingerprint(
        self, fitted_vesta, grown
    ):
        selector, report = grown
        assert selector.knowledge_fingerprint() != (
            fitted_vesta.knowledge_fingerprint()
        )
        assert selector.U.shape[0] == (
            fitted_vesta.U.shape[0] + len(report.promoted)
        )
        for promo in selector.promotions:
            assert promo.name in report.promoted
            assert promo.lineage == fitted_vesta.knowledge_fingerprint()
        assert tuple(selector.knowledge_names[-len(report.promoted):]) == (
            report.promoted
        )

    def test_latest_record_per_workload_wins(self, fitted_vesta, target_records):
        first = target_records[0]
        stale = replace(first, observed=first.observed * 2.0)
        lifecycle = KnowledgeLifecycle(
            clone_knowledge(fitted_vesta), min_observations=3
        )
        report = lifecycle.advance([stale, first])
        assert report.candidates == 1

    def test_max_promotions_caps_growth(self, fitted_vesta, target_records):
        selector = clone_knowledge(fitted_vesta)
        report = KnowledgeLifecycle(
            selector, min_observations=3, max_promotions=0
        ).advance(target_records)
        assert report.promoted == ()
        assert selector.knowledge_fingerprint() == (
            fitted_vesta.knowledge_fingerprint()
        )
