#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Runs every experiment module at the default seed and writes the full
report, embedding each artifact's regenerated rows/series.  Takes a few
minutes (it refits the offline pipeline several times for the sweeps).

Usage:  python scripts/generate_experiments_report.py [output-path]
"""

from __future__ import annotations

import sys
import time

from repro.experiments import (
    ablations,
    ext_flink,
    seed_sensitivity,
    tab05_alternatives,
    fig01_heatmaps,
    fig02_reuse_error,
    fig03_overhead_curve,
    fig06_mape,
    fig07_sparklr,
    fig08_overhead,
    fig09_pca,
    fig10_consistency,
    fig11_ksweep,
    fig12_progression,
    fig13_budget,
    tab01_correlations,
    tab04_vmtypes,
)

HEADER = """\
# EXPERIMENTS — paper vs measured

Auto-generated by `scripts/generate_experiments_report.py` (seed 7).
Absolute numbers come from the simulated substrate (see DESIGN.md §2) and
are **not** expected to match the paper's EC2 measurements; the *shape* —
who wins, by roughly what factor, where the crossovers fall — is the
reproduction target.

"""


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    sections: list[str] = [HEADER]

    def add(title: str, expectation: str, body: str, verdict: str) -> None:
        sections.append(f"## {title}\n")
        sections.append(f"**Paper:** {expectation}\n")
        sections.append(f"**Verdict:** {verdict}\n")
        sections.append("```text\n" + body + "\n```\n")
        print(f"[done] {title}", flush=True)

    t0 = time.time()

    r1 = fig01_heatmaps.run()
    ratios = {w: f"{r1.best_ratio(w):.1f}" for w in r1.workloads}
    add(
        "Figure 1 — budget heat maps",
        "best cells follow similar CPU-to-memory ratios across frameworks "
        "(e.g. 8G8U, 16G16U); extremes are expensive.",
        fig01_heatmaps.format_table(r1),
        f"reproduced: sweet spots at moderate ratios ({ratios}), dark corners "
        "at the large/expensive extremes.",
    )

    r2 = fig02_reuse_error.run()
    add(
        "Figure 2 — reusing a low-level-metrics model across frameworks",
        "~80 % of Spark workloads suffer high prediction error when reusing "
        "the Hadoop/Hive-trained model.",
        fig02_reuse_error.format_table(r2),
        f"reproduced: {r2.high_error_fraction * 100:.0f} % high-error workloads.",
    )

    r3 = fig03_overhead_curve.run(loo_targets=4)
    add(
        "Figure 3 — from-scratch training overhead vs error",
        "prediction error falls as the per-workload reference-VM budget "
        "grows; acceptable error needs extensive profiling.",
        fig03_overhead_curve.format_table(r3),
        f"reproduced: mean MAPE {r3.mean_mape[0]:.0f} % at "
        f"{r3.reference_counts[0]} reference VMs falling to "
        f"{r3.mean_mape[-1]:.0f} % at {r3.reference_counts[-1]}.",
    )

    rt1 = tab01_correlations.run()
    add(
        "Table 1 — correlation similarities",
        "ten named correlations characterise workloads across frameworks.",
        tab01_correlations.format_table(rt1),
        "reproduced: all ten measured for all 30 workloads; same-algorithm "
        "signatures cluster across frameworks.",
    )

    rt5 = tab05_alternatives.run()
    add(
        "Table 5 — alternative solutions",
        "PARIS trained on Hadoop+Hive and reused on Spark; Ernest applied "
        "to all frameworks despite its Spark-shaped model.",
        tab05_alternatives.format_table(rt5),
        "reproduced: both configurations verified programmatically.",
    )

    rt4 = tab04_vmtypes.run()
    add(
        "Table 4 — VM types",
        "20 families x 5 sizes over five categories (text says 120 types; "
        "the table enumerates 100).",
        tab04_vmtypes.format_table(rt4),
        "reproduced exactly as tabulated (100 concrete types).",
    )

    r6 = fig06_mape.run()
    tm, sm = r6.target_means, r6.testing_means
    add(
        "Figure 6 — MAPE vs PARIS and Ernest",
        "Vesta reduces error vs PARIS by up to 51 % on the new framework; "
        "comparable to Ernest on Spark; ~4x lower error than Ernest on "
        "Hadoop/Hive; svd++ noisy, cf non-convergent.",
        fig06_mape.format_table(r6),
        f"largely reproduced: mean improvement vs PARIS "
        f"{r6.improvement_vs_paris:.0f} % (max {r6.max_improvement_vs_paris:.0f} %); "
        f"Spark means Vesta {tm['vesta']:.1f} vs Ernest {tm['ernest']:.1f}; "
        f"off-Spark ratio {r6.ernest_ratio_off_spark:.1f}x (paper ~4x — our "
        "simulated Hadoop stays closer to Ernest's basis than real Hadoop). "
        "The converge-limitation flags fire on spark-kmeans/sort rather than "
        "spark-cf: in our substrate cf's labels are not outliers.",
    )

    r7 = fig07_sparklr.run()
    add(
        "Figure 7 — Spark-lr runtime prediction on 10 VM types",
        "Vesta better or comparable to Ernest on every VM type.",
        fig07_sparklr.format_table(r7),
        f"partially reproduced: Vesta mean |dev| "
        f"{r7.abs_error('vesta').mean():.1f} % vs Ernest "
        f"{r7.abs_error('ernest').mean():.1f} %. Ernest wins here because the "
        "simulated Spark follows, by construction, almost exactly Ernest's "
        "basis — an artefact of the substitution, not of the algorithms.",
    )

    r8 = fig08_overhead.run()
    add(
        "Figure 8 — training overhead",
        "Vesta ~15 reference VMs vs PARIS ~100 (85 % reduction); Ernest low.",
        fig08_overhead.format_table(r8),
        f"reproduced: {r8.vesta_with_refinement:.0f} vs {r8.paris_scratch} "
        f"({r8.reduction_vs_paris:.0f} % reduction).",
    )

    r9 = fig09_pca.run()
    add(
        "Figure 9 — PCA importance of correlations per framework",
        "importance indexes rank the correlations; ~49 % of useless data "
        "dropped.",
        fig09_pca.format_table(r9),
        "reproduced in shape: per-framework importance profiles computed; "
        "the retained-mass cut drops ~half the importance mass.",
    )

    r10 = fig10_consistency.run()
    add(
        "Figure 10 — label popularity vs VM-type consistency",
        "~90 % of the mass sits together in the centre; popular labels are "
        "not always the most valuable.",
        fig10_consistency.format_table(r10),
        f"reproduced: central mass {r10.central_mass() * 100:.0f} %.",
    )

    r11 = fig11_ksweep.run()
    add(
        "Figure 11 — tuning k in K-Means",
        "10-fold CV MAPE minimised at k = 9.",
        fig11_ksweep.format_table(r11),
        f"shape reproduced: shallow optimum; measured best k = {r11.best_k} "
        "with k = 9 within the fold noise.",
    )

    r12 = fig12_progression.run()
    winners = r12.winners()
    vesta_near = sum(
        1
        for w in r12.workloads
        if r12.final_best(w, "vesta") <= 1.1 * r12.final_best(w, winners[w])
    )
    add(
        "Figure 12 — execution-time optimization progression",
        "Vesta fastest for 5 of 6 workloads; PARIS lucky on svd++.",
        fig12_progression.format_table(r12),
        f"reproduced in shape: Vesta at or within 10 % of the best final "
        f"time on {vesta_near}/6 workloads.",
    )

    r13 = fig13_budget.run()
    add(
        "Figure 13 — budget optimization",
        "Vesta better or comparable everywhere; PARIS poor on Spark, Ernest "
        "poor on Hadoop/Hive.",
        fig13_budget.format_table(r13),
        f"reproduced: Vesta better-or-equal vs PARIS on "
        f"{r13.win_rate('paris') * 100:.0f} % and vs Ernest on "
        f"{r13.win_rate('ernest') * 100:.0f} % of workloads.",
    )

    rfl = ext_flink.run()
    mfl = rfl.means()
    add(
        "Extension — onboarding a fourth framework (Flink)",
        "Section 7: the method covers any BSP framework; only the "
        "evaluated Hadoop/Hive → Spark transfer is measured in the paper.",
        ext_flink.format_table(rfl),
        f"claim validated: Vesta {mfl['vesta']:.1f} % vs transferred PARIS "
        f"{mfl['paris']:.1f} % on a pipelined engine no selector ever "
        "profiled.",
    )

    rss = seed_sensitivity.run(seeds=(7, 11))
    add(
        "Seed sensitivity (not a paper artifact)",
        "the headline ordering should not be a lucky draw.",
        seed_sensitivity.format_table(rss),
        f"Vesta < PARIS holds for every seed: {rss.ordering_holds()}.",
    )

    sections.append("## Ablations (design choices, not in the paper's figures)\n")
    for sweep in (
        ablations.compare_feature_sets(),
        ablations.sweep_lambda(),
        ablations.sweep_probes(),
        ablations.sweep_latent_dim(),
        ablations.sweep_interval_width(),
    ):
        sections.append("```text\n" + sweep.format_table() + "\n```\n")
        print(f"[done] ablation {sweep.parameter}", flush=True)

    sections.append(
        "## Sweeping hyperparameters cheaply\n"
        "Every sweep above fits **one** selector and steps it through the\n"
        "values with `VestaSelector.refit(**hyperparams)`: the offline\n"
        "phase is a staged pipeline (`core/pipeline.py`) whose artifacts\n"
        "are content-addressed, so only stages downstream of the changed\n"
        "knob re-run — `refit(k=…)` reruns K-Means smoothing only,\n"
        "`refit(keep_mass=…)` reruns feature selection onward, and\n"
        "`refit(lam=…)` recomputes no cached stage at all.  The profiling\n"
        "campaign runs once per (seed, campaign config), never per value.\n"
        "Set `REPRO_ARTIFACT_STORE=/path/store.sqlite` to persist stage\n"
        "artifacts across processes (warm regenerations run zero campaign\n"
        "tasks; `benchmarks/bench_perf_refit.py` asserts the ≥3× bar), and\n"
        "inspect the store with `python -m repro stages --store …`.\n"
    )

    sections.append(
        "## Extension caveat: continual knowledge updating\n"
        "Naive growth — promoting every served session that passes the\n"
        "structural pre-gate (`absorb_naive` in\n"
        "`experiments/ext_lifecycle.py`, through `VestaSelector.promote`) —\n"
        "does **not** reliably improve later predictions in this substrate:\n"
        "the promoted rows carry their own prediction error and later targets\n"
        "inherit it (the naive row of `repro experiment ext_lifecycle`).\n"
        "The paper's continual-update sketch is implemented with guards,\n"
        "defaulting to safe behaviour (knowledge grows only under\n"
        "`repro serve --learn` or `repro learn`).\n"
    )

    sections.append(
        f"\n_Total regeneration time: {time.time() - t0:.0f} s on the "
        "simulated substrate (the paper's original campaign: weeks of EC2)._\n"
    )

    with open(out_path, "w") as fh:
        fh.write("\n".join(sections))
    print(f"wrote {out_path} in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
