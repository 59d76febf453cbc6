"""Extension: gated knowledge growth vs frozen and naive absorption.

The paper freezes its source knowledge after the offline phase and
sketches continual updating (Section 4.2) as future work.  This
experiment runs that sketch (naive growth) next to the production
answer — the measured-transferability lifecycle of
:mod:`repro.core.lifecycle` — through a serve-stream protocol and
reports the knowledge-growth progression.

Protocol
--------
1. Serve a production-shaped request stream: every Table-3 target
   workload arrives twice, a cold onboarding round followed by a repeat
   round (selection traffic re-asks the same workloads — that repeat
   half is exactly what a grown knowledge base is for).
2. Three policies over the same stream:

   - **frozen** — the paper's setup: knowledge never grows;
   - **naive** — every session is journalled and promoted whenever
     :meth:`~repro.core.lifecycle.TransferGate.pre_gate` passes it
     (converged, not degraded, enough observations, not yet known);
     the gated policy without the measurement (:func:`absorb_naive`);
   - **gated** — every session is journalled as a
     :class:`~repro.telemetry.store.SessionRecord` and a
     :class:`~repro.core.lifecycle.KnowledgeLifecycle` cycle runs after
     each serve, promoting only candidates whose held-out measured
     transfer is non-negative.

3. Record each serve's prediction MAPE (Equation 7) and selection
   regret.  The gate's contract is that grown knowledge never regresses
   the stream: gated mean regret must not exceed frozen mean regret
   (pinned by ``benchmarks/bench_ext_lifecycle.py``), while naive
   absorption carries no such guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lifecycle import (
    KnowledgeLifecycle,
    TransferGate,
    promoted_source,
    record_from_session,
)
from repro.core.persistence import clone_knowledge
from repro.core.vesta import VestaSelector
from repro.experiments.common import (
    DEFAULT_SEED,
    fitted_vesta,
    mape_vs_best,
    selection_regret,
)
from repro.telemetry.store import SessionRecord
from repro.workloads.catalog import target_set

__all__ = [
    "PolicyProgression",
    "LifecycleResult",
    "absorb_naive",
    "run",
    "format_table",
]

#: Times each target appears in the served stream (cold + repeats).
STREAM_ROUNDS = 2


@dataclass(frozen=True)
class PolicyProgression:
    """One policy's trace over the served stream (round-major order)."""

    policy: str
    mapes: tuple[float, ...]
    regrets: tuple[float, ...]
    admitted: tuple[str, ...]
    knowledge_rows: int
    fingerprint: str

    @property
    def mean_mape(self) -> float:
        return float(np.mean(self.mapes))

    @property
    def mean_regret(self) -> float:
        return float(np.mean(self.regrets))

    def round_mapes(self, targets: int, round_index: int) -> tuple[float, ...]:
        start = round_index * targets
        return self.mapes[start : start + targets]


@dataclass(frozen=True)
class LifecycleResult:
    targets: tuple[str, ...]
    rounds: int
    frozen: PolicyProgression
    naive: PolicyProgression
    gated: PolicyProgression
    gate_rejected: tuple[str, ...]
    gate_deferred: tuple[str, ...]


def _fresh_clone(seed: int):
    """Private mutable copy of the shared fitted fixture (policies grow it).

    The clone runs the fixture's own fault plan.
    """
    return clone_knowledge(fitted_vesta(seed))


def absorb_naive(selector: VestaSelector, record: SessionRecord) -> bool:
    """Naive growth: promote ``record`` unless the structural pre-gate
    rejects it.  Returns whether it was promoted."""
    if TransferGate(selector, min_observations=3).pre_gate(record) is not None:
        return False
    selector.promote([promoted_source(record)])
    return True


def _serve(selector, spec, seed: int) -> tuple[float, float, object]:
    session = selector.online(spec)
    rec = session.recommend("time")
    mape = mape_vs_best(spec, session.predict_runtimes(), seed=seed)
    regret = selection_regret(spec, rec.vm_name, seed=seed)
    return mape, regret, session


def run(seed: int = DEFAULT_SEED) -> LifecycleResult:
    targets = target_set()
    names = tuple(spec.name for spec in targets)
    stream = tuple(targets) * STREAM_ROUNDS

    # frozen: the shared fixture is never mutated, so use it directly.
    frozen_sel = fitted_vesta(seed)
    frozen_rows = [_serve(frozen_sel, spec, seed)[:2] for spec in stream]
    frozen = PolicyProgression(
        policy="frozen",
        mapes=tuple(r[0] for r in frozen_rows),
        regrets=tuple(r[1] for r in frozen_rows),
        admitted=(),
        knowledge_rows=frozen_sel.U.shape[0],
        fingerprint=frozen_sel.knowledge_fingerprint(),
    )

    # naive: promote every session the structural pre-gate passes.
    naive_sel = _fresh_clone(seed)
    naive_rows = []
    for spec in stream:
        mape, regret, session = _serve(naive_sel, spec, seed)
        naive_rows.append((mape, regret))
        absorb_naive(
            naive_sel,
            record_from_session(
                session, "time", fingerprint=naive_sel.knowledge_fingerprint()
            ),
        )
    naive = PolicyProgression(
        policy="naive",
        mapes=tuple(r[0] for r in naive_rows),
        regrets=tuple(r[1] for r in naive_rows),
        admitted=tuple(p.name for p in naive_sel.promotions),
        knowledge_rows=naive_sel.U.shape[0],
        fingerprint=naive_sel.knowledge_fingerprint(),
    )

    # gated: journal each session, promote only measured transfer.
    gated_sel = _fresh_clone(seed)
    lifecycle = KnowledgeLifecycle(gated_sel, min_observations=3)
    journal: list = []
    gated_rows = []
    rejected: dict[str, None] = {}
    deferred: dict[str, None] = {}
    for spec in stream:
        mape, regret, session = _serve(gated_sel, spec, seed)
        gated_rows.append((mape, regret))
        journal.append(
            record_from_session(
                session, "time", fingerprint=gated_sel.knowledge_fingerprint()
            )
        )
        report = lifecycle.advance(journal)
        for score in report.scores:
            if score.deferred:
                deferred[score.workload] = None
            elif not score.accepted:
                rejected[score.workload] = None
    promoted = tuple(p.name for p in gated_sel.promotions)
    gated = PolicyProgression(
        policy="gated",
        mapes=tuple(r[0] for r in gated_rows),
        regrets=tuple(r[1] for r in gated_rows),
        admitted=promoted,
        knowledge_rows=gated_sel.U.shape[0],
        fingerprint=gated_sel.knowledge_fingerprint(),
    )
    return LifecycleResult(
        targets=names,
        rounds=STREAM_ROUNDS,
        frozen=frozen,
        naive=naive,
        gated=gated,
        gate_rejected=tuple(w for w in rejected if w not in promoted),
        gate_deferred=tuple(
            w for w in deferred if w not in promoted and w not in rejected
        ),
    )


def format_table(result: LifecycleResult) -> str:
    rows = (result.frozen, result.naive, result.gated)
    n = len(result.targets)
    lines = [
        "-- extension: knowledge-growth progression "
        f"(MAPE % per serve, {result.rounds}-round stream) --"
    ]
    for rnd in range(result.rounds):
        label = "cold" if rnd == 0 else f"repeat {rnd}"
        lines.append(f"[round {rnd + 1}: {label}]")
        lines.append(f"{'workload':18s} {'frozen':>8s} {'naive':>8s} {'gated':>8s}")
        for i, name in enumerate(result.targets):
            cells = "".join(
                f"{row.round_mapes(n, rnd)[i]:>8.1f}" for row in rows
            )
            lines.append(f"{name:18s} {cells}")
    lines.append(
        f"{'MEAN MAPE':18s} "
        + "".join(f"{row.mean_mape:>8.1f}" for row in rows)
    )
    lines.append(
        f"{'MEAN REGRET':18s} "
        + "".join(f"{row.mean_regret:>8.1f}" for row in rows)
    )
    lines.append("")
    for row in rows:
        admitted = ", ".join(row.admitted) or "(none)"
        lines.append(
            f"{row.policy:8s} knowledge rows {row.knowledge_rows:>3d} "
            f"(fingerprint {row.fingerprint})  admitted: {admitted}"
        )
    lines.append(
        f"gate rejected (negative transfer): "
        f"{', '.join(result.gate_rejected) or '(none)'}"
    )
    if result.gate_deferred:
        lines.append(f"gate deferred: {', '.join(result.gate_deferred)}")
    lines.append(
        "The gate admits only measured non-negative transfer, so gated "
        "growth never regresses the served stream (mean regret <= frozen); "
        "naive absorption carries no such guarantee."
    )
    return "\n".join(lines)
