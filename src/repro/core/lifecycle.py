"""Knowledge lifecycle: served targets become sources, gated by measurement.

The paper's Section 4.2 sketches "continually updat[ing] the model in
the matrix space" with every onboarded target.  Naive growth — promote
every session that passes :meth:`TransferGate.pre_gate` — can pollute
the knowledge: model-filled response rows carry their own prediction
error, and later same-framework targets match them strongly
(``repro experiment ext_lifecycle`` records the naive policy next to
frozen and gated knowledge).

This module is the production answer: grow the knowledge only when the
growth is **measured to help**.  Completed online sessions are journalled
by the serving tier as :class:`~repro.telemetry.store.SessionRecord`
rows; the :class:`TransferGate` scores each well-observed candidate by
held-out improvement — leave-one-out over the candidate's and its peer
sessions' *actual measured runtimes* — against the no-transfer baseline
(the current knowledge without the candidate), and keeps a candidate only
when the measured transfer is non-negative.  This is the source-selection
rule of "Transferable Knowledge for Low-cost Decision Making in Cloud
Environments" and of cogspaces' ``StudySelector``: rank candidate sources
by ``score - baseline_score`` and drop negative transfer.

Naive and gated growth alike reach the knowledge only through the
pipeline's ``promotions`` stage (:meth:`VestaSelector.promote`):
everything campaign-derived is a cache hit, only affinity → factors →
knowledge recompute, so a promotion costs zero extra campaign cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import (
    NEAR_BEST_TAU,
    PromotedSource,
    cluster_affinity,
    near_best_scores,
)
from repro.core.predictor import SimilarityPredictor
from repro.core.vesta import OnlineSession, VestaSelector
from repro.errors import ValidationError
from repro.telemetry.store import SessionRecord

__all__ = [
    "KnowledgeLifecycle",
    "LifecycleReport",
    "TransferGate",
    "TransferScore",
    "promoted_source",
    "record_from_session",
]

#: Fewest distinct observed VMs before a session may be a candidate:
#: below this the anchored response row is mostly model fill.
MIN_OBSERVATIONS = 3

#: Fewest peer sessions needed to measure a candidate's transfer; with
#: fewer the decision is deferred, never guessed.
MIN_HOLDOUTS = 1


def record_from_session(
    session: OnlineSession, objective: str = "time", fingerprint: str = ""
) -> SessionRecord:
    """Freeze one finished online session into a journallable record.

    ``fingerprint`` is the knowledge fingerprint the session was served
    under — the promotion lineage stamped into grown archives.
    """
    vm_names = tuple(session.observations)
    return SessionRecord(
        workload=session.spec.name,
        objective=objective,
        fingerprint=fingerprint,
        converged=session.converged,
        degraded=session.degraded,
        knowledge_match=getattr(session, "knowledge_match", 0.0),
        vm_names=vm_names,
        observed=np.fromiter(
            session.observations.values(), dtype=float, count=len(vm_names)
        ),
        completed_row=np.asarray(session.completed_row, dtype=float),
        predicted=np.asarray(session.predict_runtimes(), dtype=float),
    )


def promoted_source(record: SessionRecord) -> PromotedSource:
    """The knowledge row a promotion of ``record`` splices into U and P."""
    return PromotedSource(
        name=record.workload,
        label_row=record.completed_row,
        perf_row=record.predicted,
        lineage=record.fingerprint,
    )


@dataclass(frozen=True)
class TransferScore:
    """Measured transferability verdict for one candidate session.

    ``diff = baseline_error - candidate_error``: positive means adding
    the candidate's knowledge row *reduced* held-out prediction error.
    The gate accepts iff ``diff >= 0`` (the cogspaces rule).  ``deferred``
    marks candidates that could not be measured yet (too few peer
    sessions) — they stay in the journal rather than being rejected.
    """

    workload: str
    accepted: bool
    reason: str
    baseline_error: float = float("nan")
    candidate_error: float = float("nan")
    holdouts: int = 0
    deferred: bool = False

    @property
    def diff(self) -> float:
        return self.baseline_error - self.candidate_error


class TransferGate:
    """Measured-transferability gate over a frozen knowledge snapshot.

    Parameters
    ----------
    selector:
        A fitted selector holding the *current* knowledge (possibly
        already grown by earlier promotions).  The gate never mutates it.
    min_observations / min_holdouts:
        Pre-gate floors; see module constants.
    """

    def __init__(
        self,
        selector: VestaSelector,
        *,
        min_observations: int = MIN_OBSERVATIONS,
        min_holdouts: int = MIN_HOLDOUTS,
    ) -> None:
        if not getattr(selector, "_fitted", False):
            raise ValidationError("TransferGate needs a fitted selector")
        if min_observations < 2:
            raise ValidationError("min_observations must be >= 2 (leave-one-out)")
        if min_holdouts < 1:
            raise ValidationError("min_holdouts must be >= 1")
        self.sel = selector
        self.min_observations = min_observations
        self.min_holdouts = min_holdouts

    # -- knowledge construction -------------------------------------------------

    def _knowledge(
        self, extra: tuple[SessionRecord, ...]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(U, P, V) of the current knowledge plus ``extra`` candidate rows.

        V is built by the pipeline's own near-best/affinity code, smoothed
        over the selector's *current* VM clusters.  A promotion differs in
        one step: it re-fits K-Means on the grown near-best scores, so
        when a candidate moves VMs between clusters the gate scores a V
        the promotion does not produce (on the ``ext_lifecycle`` stream,
        spark-svd++'s promotion re-clusters and V moves by up to 0.25).
        """
        sel = self.sel
        U, perf = sel.U, sel.perf
        if extra:
            U = np.vstack([U] + [r.completed_row for r in extra])
            perf = np.vstack([perf] + [r.predicted for r in extra])
        return U, perf, cluster_affinity(near_best_scores(perf), U, sel.vm_clusters)

    def _holdout_errors(
        self,
        U: np.ndarray,
        perf: np.ndarray,
        V: np.ndarray,
        holdouts: tuple[SessionRecord, ...],
    ) -> list[float]:
        """Leave-one-out relative errors of ``holdouts`` under (U, P, V).

        For each holdout session and each of its observed VMs: hide that
        measurement, anchor the prediction on the remaining observations,
        and score the prediction against the hidden *measured* runtime.
        The measured values are ground truth the knowledge never saw as
        anchors, which is what makes the score an honest transfer signal
        (observed entries of the predictor output are otherwise exact).
        """
        sel = self.sel
        predictor = SimilarityPredictor(
            perf, U, top_m=sel.top_m, temperature=sel.temperature
        )
        errors: list[float] = []
        for record in holdouts:
            idx = np.asarray([sel._vm_index[n] for n in record.vm_names], dtype=int)
            affinity = V @ record.completed_row
            for j in range(idx.size):
                keep = np.arange(idx.size) != j
                pred = predictor.predict(
                    record.completed_row,
                    idx[keep],
                    record.observed[keep],
                    affinity=affinity,
                    affinity_tau=NEAR_BEST_TAU,
                    affinity_weight=sel.affinity_weight,
                )
                truth = float(record.observed[j])
                errors.append(abs(float(pred[idx[j]]) - truth) / truth)
        return errors

    # -- scoring ---------------------------------------------------------------

    def pre_gate(self, record: SessionRecord) -> str | None:
        """Cheap structural rejection reason, or ``None`` when ``record``
        may be measured (or, under naive growth, promoted outright)."""
        sel = self.sel
        if not record.converged:
            return "non-convergent"
        if record.degraded:
            return "degraded"
        if len(record.vm_names) < self.min_observations:
            return "under-observed"
        known = set(getattr(sel, "knowledge_names", ())) or {
            w.name for w in sel.sources
        }
        known |= {p.name for p in getattr(sel, "promotions", ())}
        if record.workload in known:
            return "duplicate"
        if record.completed_row.shape != (sel.U.shape[1],):
            return "shape-mismatch"
        if record.predicted.shape != (len(sel.vms),):
            return "shape-mismatch"
        if not all(n in sel._vm_index for n in record.vm_names):
            return "shape-mismatch"
        if (record.observed <= 0).any() or not np.isfinite(record.predicted).all() or (
            record.predicted <= 0
        ).any():
            return "shape-mismatch"
        return None

    def _usable_holdout(self, record: SessionRecord) -> bool:
        sel = self.sel
        return (
            record.converged
            and len(record.vm_names) >= 2
            and record.completed_row.shape == (sel.U.shape[1],)
            and all(n in sel._vm_index for n in record.vm_names)
            and (record.observed > 0).all()
        )

    def score(
        self, record: SessionRecord, peers: tuple[SessionRecord, ...]
    ) -> TransferScore:
        """Measure ``record``'s transferability against ``peers``.

        ``peers`` are the other journalled sessions; those usable as
        holdouts (converged, at least two measured VMs) supply the
        held-out measured runtimes both knowledge variants must predict.
        """
        reason = self.pre_gate(record)
        if reason is not None:
            return TransferScore(workload=record.workload, accepted=False, reason=reason)
        holdouts = tuple(
            p
            for p in peers
            if p.workload != record.workload and self._usable_holdout(p)
        )
        if len(holdouts) < self.min_holdouts:
            return TransferScore(
                workload=record.workload,
                accepted=False,
                reason="insufficient-holdouts",
                deferred=True,
            )
        baseline = self._holdout_errors(*self._knowledge(()), holdouts)
        candidate = self._holdout_errors(*self._knowledge((record,)), holdouts)
        baseline_error = float(np.mean(baseline))
        candidate_error = float(np.mean(candidate))
        accepted = candidate_error <= baseline_error
        return TransferScore(
            workload=record.workload,
            accepted=accepted,
            reason="accepted" if accepted else "negative-transfer",
            baseline_error=baseline_error,
            candidate_error=candidate_error,
            holdouts=len(holdouts),
        )


@dataclass(frozen=True)
class LifecycleReport:
    """Outcome of one :meth:`KnowledgeLifecycle.advance` cycle."""

    candidates: int
    promoted: tuple[str, ...]
    scores: tuple[TransferScore, ...]

    @property
    def gated_out(self) -> int:
        return sum(
            1 for s in self.scores if not s.accepted and not s.deferred
        )

    @property
    def deferred(self) -> int:
        return sum(1 for s in self.scores if s.deferred)


class KnowledgeLifecycle:
    """Promote measured-transferable journal sessions into knowledge.

    Greedy forward selection over the journal: score every candidate
    against the current knowledge, promote the accepted candidate with
    the largest measured improvement, then re-score the remainder
    against the *grown* knowledge (one promotion can make another
    redundant — or newly helpful).  Mutates ``selector`` only through
    :meth:`VestaSelector.promote`, so every growth step is a full
    pipeline refit with a fresh knowledge fingerprint.
    """

    def __init__(
        self,
        selector: VestaSelector,
        *,
        min_observations: int = MIN_OBSERVATIONS,
        min_holdouts: int = MIN_HOLDOUTS,
        max_promotions: int | None = None,
    ) -> None:
        self.sel = selector
        self.min_observations = min_observations
        self.min_holdouts = min_holdouts
        self.max_promotions = max_promotions

    def advance(self, records) -> LifecycleReport:
        """Run one promotion cycle over journalled ``records``."""
        records = tuple(records)
        # Latest record per workload wins: a workload served repeatedly
        # is one candidate, measured from its freshest session.
        latest: dict[str, SessionRecord] = {}
        for record in records:
            latest[record.workload] = record
        remaining = list(latest.values())
        scores: list[TransferScore] = []
        promoted: list[str] = []
        while remaining:
            if self.max_promotions is not None and len(promoted) >= self.max_promotions:
                break
            gate = TransferGate(
                self.sel,
                min_observations=self.min_observations,
                min_holdouts=self.min_holdouts,
            )
            round_scores = [
                gate.score(r, tuple(x for x in records if x is not r))
                for r in remaining
            ]
            accepted = [
                (s, r)
                for s, r in zip(round_scores, remaining)
                if s.accepted
            ]
            if not accepted:
                scores.extend(round_scores)
                break
            best_score, best_record = max(accepted, key=lambda sr: sr[0].diff)
            self.sel.promote([promoted_source(best_record)])
            promoted.append(best_record.workload)
            scores.append(best_score)
            remaining = [r for r in remaining if r is not best_record]
        return LifecycleReport(
            candidates=len(latest),
            promoted=tuple(promoted),
            scores=tuple(scores),
        )
