"""Tests for the serve→learn loop (``service/learning.py``).

Pins the lifecycle's serving contract: with learning off the service is
byte-identical to the learning-free build (no journal hook, no promotion
fingerprints); learning requires a single scheduler; with learning on,
served sessions are journalled, the background promoter grows knowledge
only through the measured-transfer gate, and a promotion hot-reloads
every shard without ever mixing knowledge fingerprints within a
response.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cloud.vmtypes import catalog
from repro.core.persistence import clone_knowledge
from repro.core.pipeline import PromotedSource
from repro.core.vesta import VestaSelector
from repro.errors import ValidationError
from repro.service import SelectionService, SelectorRegistry
from repro.service.learning import (
    DEFAULT_JOURNAL_LIMIT,
    LearningLoop,
    SessionJournal,
)
from repro.telemetry.store import MetricsStore
from repro.workloads.catalog import get_workload, target_set, training_set

SEED = 7
VMS = catalog()[:10]
SOURCES = training_set()[:5]
TARGETS = tuple(w.name for w in target_set()[:6])


def _fresh_selector(**kwargs) -> VestaSelector:
    return VestaSelector(vms=VMS, sources=SOURCES, seed=SEED, **kwargs).fit()


@pytest.fixture(scope="module")
def selector():
    return _fresh_selector()


@pytest.fixture(scope="module")
def reference():
    """Sequential ground truth from a twin selector (the PR 9 path)."""
    ref = _fresh_selector()
    return {name: ref.select(get_workload(name)) for name in TARGETS}


def _registry(selector) -> SelectorRegistry:
    reg = SelectorRegistry()
    reg.register("default", selector)
    return reg


def _assert_identical(payload_rec, expected) -> None:
    assert payload_rec.vm_name == expected.vm_name
    assert payload_rec.predicted_runtime_s == expected.predicted_runtime_s
    assert payload_rec.predicted_budget_usd == expected.predicted_budget_usd
    assert payload_rec.predictions == expected.predictions


class TestLearningOffByteIdentity:
    def test_default_service_carries_no_learning_path(self, selector, reference):
        with SelectionService(_registry(selector)) as service:
            assert service._journal is None
            assert service._learning is None
            assert service.stats()["learning"] == {"enabled": False}
            for name in TARGETS:
                _assert_identical(
                    service.select(name).recommendation, reference[name]
                )

    def test_learn_flag_off_is_byte_identical(self, selector, reference):
        with SelectionService(_registry(selector), learn=False) as service:
            assert not service.learn
            assert service._journal is None
            assert service.stats()["learning"] == {"enabled": False}
            for name in TARGETS:
                _assert_identical(
                    service.select(name).recommendation, reference[name]
                )

    def test_no_promotion_fingerprint_without_promotions(self, selector):
        # The gated fingerprint key only exists once something promoted:
        # learning-off pipelines hash exactly the PR 9 stage set.
        assert "promotions" not in selector.pipeline.fingerprints()

    def test_learn_requires_inline_serving(self, selector):
        with pytest.raises(ValidationError):
            SelectionService(_registry(selector), learn=True, shards=2)


class TestSessionJournal:
    def test_served_sessions_land_in_store(self, selector):
        with MetricsStore(":memory:") as store, SelectionService(
            _registry(selector), learn=True, learn_store=store,
            learn_interval_s=3600.0,
        ) as service:
            for name in TARGETS:
                assert service.select(name).recommendation.vm_name
            stats = service.stats()["learning"]
            assert stats["enabled"] is True
            assert stats["journal"]["journaled"] == len(TARGETS)
            assert stats["journal"]["dropped"] == 0
            assert store.session_count() == len(TARGETS)
            fingerprint = selector.knowledge_fingerprint()
            for record in store.sessions():
                assert record.workload in TARGETS
                assert record.fingerprint == fingerprint
                assert (record.observed > 0).all()

    def test_journal_failure_never_fails_the_response(self, selector):
        class BrokenStore:
            def log_session(self, record, *, limit=None):
                raise RuntimeError("disk full")

            def session_count(self):
                return 0

            def close(self):
                pass

        journal = SessionJournal(BrokenStore())
        with SelectionService(
            _registry(selector), learn=True, learn_store=journal.store,
            learn_interval_s=3600.0,
        ) as service:
            response = service.select(TARGETS[0])
            assert response.recommendation.vm_name
            assert service.stats()["learning"]["journal"]["dropped"] == 1

    def test_retention_limit_bounds_the_journal(self, selector):
        registry = _registry(selector)
        with SelectionService(
            registry, learn=True, learn_interval_s=3600.0
        ) as service:
            stats = service.stats()["learning"]["journal"]
            assert stats["retention_limit"] == DEFAULT_JOURNAL_LIMIT
        handle = registry.get("default")
        with MetricsStore(":memory:") as store:
            journal = SessionJournal(store, limit=3)
            for name in TARGETS:
                session = selector.online(get_workload(name))
                session.recommend("time")
                journal(handle, session, "time")
            assert store.session_count() == 3
            kept = [r.workload for r in store.sessions()]
            assert kept == list(TARGETS[-3:])  # oldest evicted first


class TestLearningLoop:
    def test_promote_once_grows_and_hot_reloads(self, fitted_vesta):
        """End to end on the full-catalog fixture (the gate needs real
        spark targets to measure a positive transfer)."""
        registry = SelectorRegistry()
        registry.register("default", clone_knowledge(fitted_vesta))
        before = registry.get("default")
        with MetricsStore(":memory:") as store:
            journal = SessionJournal(store)
            for spec in target_set():
                session = fitted_vesta.online(spec)
                session.recommend("time")
                journal(before, session, "time")
            loop = LearningLoop(registry, journal, start=False)
            report = loop.promote_once()
            assert report is not None and report.promoted
            after = registry.get("default")
            assert after.generation == before.generation + 1
            assert after.fingerprint != before.fingerprint
            assert after.selector.knowledge_fingerprint() == after.fingerprint
            # Promotion lineage points at the knowledge that served it.
            for promo in after.selector.promotions:
                assert promo.lineage == before.fingerprint
            stats = loop.stats()
            assert stats["promoted"] == len(report.promoted)
            assert stats["reload_generations"] == 1
            assert stats["candidates_seen"] == report.candidates
            assert stats["gated_out"] == report.gated_out
            # The served selector object was never mutated in place.
            assert before.selector.knowledge_fingerprint() == before.fingerprint

    def test_promote_once_skips_when_journal_is_quiet(self, fitted_vesta):
        registry = SelectorRegistry()
        registry.register("default", clone_knowledge(fitted_vesta))
        handle = registry.get("default")
        with MetricsStore(":memory:") as store:
            journal = SessionJournal(store)
            loop = LearningLoop(registry, journal, start=False)
            assert loop.promote_once() is None  # empty journal
            session = fitted_vesta.online(target_set()[0])
            journal(handle, session, "time")
            loop.promote_once()
            # No new sessions since: the cycle is skipped entirely.
            assert loop.promote_once() is None
            assert registry.get("default").generation == handle.generation

    def test_background_thread_runs_cycles(self, selector):
        registry = _registry(selector)
        handle = registry.get("default")
        with MetricsStore(":memory:") as store:
            journal = SessionJournal(store)
            session = selector.online(get_workload(TARGETS[0]))
            journal(handle, session, "time")
            with LearningLoop(
                registry, journal, interval_s=0.05, start=True
            ) as loop:
                deadline = time.monotonic() + 10.0
                while loop.stats()["cycles"] == 0:
                    assert time.monotonic() < deadline, "no learn cycle ran"
                    time.sleep(0.01)
            assert loop.stats()["errors"] == 0


class TestHotReloadNeverMixesFingerprints:
    def test_promotion_reload_is_atomic_across_shards(self, selector):
        """The promoter's swap (``registry.register``) must propagate to
        every shard's worker replica, and each response must be served
        wholly by one knowledge version — exactly what its fingerprint
        claims."""
        promoted = clone_knowledge(selector)
        promoted.promote(
            [
                PromotedSource(
                    name="synthetic-target",
                    label_row=promoted.U.mean(axis=0),
                    perf_row=np.full(len(VMS), promoted.perf.mean()),
                    lineage=selector.knowledge_fingerprint(),
                )
            ]
        )
        # Sequential references for both knowledge versions.
        ref_old = {n: selector.select(get_workload(n)) for n in TARGETS}
        twin = clone_knowledge(promoted)
        ref_new = {n: twin.select(get_workload(n)) for n in TARGETS}
        fp_old = selector.knowledge_fingerprint()
        fp_new = promoted.knowledge_fingerprint()
        assert fp_old != fp_new

        registry = _registry(selector)
        with SelectionService(
            registry, shards=2, rec_cache_size=0
        ) as service:
            for name in TARGETS:
                response = service.select(name)
                assert response.fingerprint == fp_old
            # The promoter's atomic swap, mid-serving.
            registry.register("default", promoted)
            responses = [service.select(name) for name in TARGETS]
            assert {r.shard for r in responses} == {0, 1}
            for name, response in zip(TARGETS, responses):
                # Every response is served wholly by the new version...
                assert response.fingerprint == fp_new
                # ...and answers exactly what that version answers.
                _assert_identical(response.recommendation, ref_new[name])
                assert response.recommendation.predictions != (
                    ref_old[name].predictions
                ) or ref_old[name].predictions == ref_new[name].predictions
