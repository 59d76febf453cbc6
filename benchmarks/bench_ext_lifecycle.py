"""Extension bench: the gated knowledge lifecycle vs frozen knowledge.

Pins the lifecycle's contract on the serve-stream progression
(:mod:`repro.experiments.ext_lifecycle`): promoted knowledge must yield
non-increasing mean selection regret versus the frozen baseline, and the
gate must actually reject negative-transfer candidates rather than
absorbing everything.  The naive row (Section 4.2's continual updating:
every pre-gated session promoted) records the knowledge-pollution
caveat: it is not catastrophic, and it carries no guarantee.

Numbers land in ``BENCH_lifecycle.json`` at the repo root (same
trajectory convention as ``BENCH_serve.json``) so future PRs can compare.
"""

from trajectory import ROOT, record

from repro.experiments import ext_lifecycle

RESULTS_PATH = ROOT / "BENCH_lifecycle.json"


def test_ext_lifecycle(once):
    result = once(ext_lifecycle.run)
    print()
    print(ext_lifecycle.format_table(result))

    frozen, naive, gated = result.frozen, result.naive, result.gated
    record(
        RESULTS_PATH,
        lifecycle_targets=len(result.targets),
        lifecycle_rounds=result.rounds,
        lifecycle_frozen_mean_mape=round(frozen.mean_mape, 2),
        lifecycle_naive_mean_mape=round(naive.mean_mape, 2),
        lifecycle_gated_mean_mape=round(gated.mean_mape, 2),
        lifecycle_frozen_mean_regret=round(frozen.mean_regret, 2),
        lifecycle_naive_mean_regret=round(naive.mean_regret, 2),
        lifecycle_gated_mean_regret=round(gated.mean_regret, 2),
        lifecycle_naive_admitted=list(naive.admitted),
        lifecycle_promoted=list(gated.admitted),
        lifecycle_gate_rejected=len(result.gate_rejected),
    )

    # The lifecycle's contract: grown knowledge never regresses the
    # served stream relative to the frozen baseline.
    assert gated.mean_regret <= frozen.mean_regret
    assert gated.mean_mape <= frozen.mean_mape
    # The gate must be doing real work: candidates rejected for measured
    # negative transfer, none of them promoted.
    assert result.gate_rejected
    assert not set(result.gate_rejected) & set(gated.admitted)
    # Promotions carry lineage through a changed knowledge fingerprint.
    assert gated.admitted
    assert gated.fingerprint != frozen.fingerprint
    assert gated.knowledge_rows == frozen.knowledge_rows + len(gated.admitted)
    # Naive growth goes through the same promotion path: not catastrophic
    # (MAPE within 3x frozen), but not a measured win either.
    assert naive.mean_mape < 3 * frozen.mean_mape
    assert naive.knowledge_rows == frozen.knowledge_rows + len(naive.admitted)
