"""Extension: cross-cloud transfer of EC2-learned knowledge.

The paper learns and evaluates on one provider (EC2, Table 4).  This
experiment asks what survives a *catalog* change: the workload-correlation
signatures Vesta learns are properties of the workloads (which resource
demands co-vary), not of any provider's instance menu, so they should
transfer to a different catalog the way they transfer to a different
framework.

Protocol
--------
1. Fit a donor selector on the EC2 catalog (the paper's setup).
2. For each target catalog (``azure``, ``multi``), build a selector on the
   target and adopt the donor's correlation signatures via the pipeline's
   artifact-restore path — the correlation grid is *not* re-profiled on
   the new provider; the performance matrix and everything downstream are.
3. Score Vesta's picks against the target catalog's exhaustive ground
   truth, next to CherryPick, Arrow, Ernest, and PARIS run natively on the
   target (each with its search/probe budget noted).
4. Spot variant: the same transfer onto ``ec2-spot``, whose pricing model
   derives a deterministic interruption plan through the fault layer —
   budget-objective picks are compared with the on-demand donor's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.arrow import Arrow
from repro.baselines.cherrypick import CherryPick
from repro.baselines.ernest import Ernest
from repro.baselines.ground_truth import GroundTruth
from repro.baselines.paris import Paris
from repro.core.vesta import VestaSelector
from repro.experiments.common import DEFAULT_SEED, campaign_options, shared_store
from repro.workloads.catalog import get_workload, training_set

__all__ = [
    "CatalogTransferRow",
    "SpotBudgetRow",
    "CrossCloudResult",
    "run",
    "format_table",
]

#: Spark targets onboarded on each foreign catalog.
TARGETS: tuple[str, ...] = ("spark-lr", "spark-kmeans", "spark-sort", "spark-page-rank")

#: Foreign catalogs the EC2 donor transfers onto.
TARGET_CATALOGS: tuple[str, ...] = ("azure", "multi")

#: Search-evaluation budget granted to the BO baselines.
SEARCH_BUDGET = 12


@dataclass(frozen=True)
class CatalogTransferRow:
    """One system's selection regret (%) per target workload on one catalog."""

    system: str
    catalog: str
    regrets: tuple[float, ...]
    probes: int

    @property
    def mean_regret(self) -> float:
        return float(np.mean(self.regrets))


@dataclass(frozen=True)
class SpotBudgetRow:
    """Budget-objective pick on ``ec2-spot`` vs the on-demand donor."""

    workload: str
    ondemand_vm: str
    ondemand_budget_usd: float
    spot_vm: str
    spot_budget_usd: float
    fault_events: int

    @property
    def savings_pct(self) -> float:
        return (1.0 - self.spot_budget_usd / self.ondemand_budget_usd) * 100.0


@dataclass(frozen=True)
class CrossCloudResult:
    targets: tuple[str, ...]
    rows: tuple[CatalogTransferRow, ...]
    spot: tuple[SpotBudgetRow, ...]
    donor_fingerprint: str
    catalog_fingerprints: dict


def _transferred_vesta(donor: VestaSelector, catalog: str, seed: int) -> VestaSelector:
    """Target-catalog selector adopting the donor's correlation signatures."""
    v = VestaSelector(seed=seed, catalog=catalog, **campaign_options())
    # Adopted under the target's own address, so fit() reuses the
    # donor's signatures instead of profiling the correlation grid.
    v.pipeline.restore(
        "corr_signatures",
        {"correlations": donor.correlations},
        fingerprint=v.pipeline.fingerprints()["corr_signatures"],
    )
    return v.fit()


def run(seed: int = DEFAULT_SEED) -> CrossCloudResult:
    opts = campaign_options()
    donor = VestaSelector(
        seed=seed, catalog="ec2", store=shared_store(), **opts
    ).fit()
    specs = tuple(get_workload(name) for name in TARGETS)

    rows: list[CatalogTransferRow] = []
    fingerprints: dict = {"ec2": donor.catalog.fingerprint()}
    for cat_name in TARGET_CATALOGS:
        gt = GroundTruth(seed=seed, catalog=cat_name, **opts)
        fingerprints[cat_name] = gt.catalog.fingerprint()

        vesta = _transferred_vesta(donor, cat_name, seed)
        recs = tuple(vesta.select(spec) for spec in specs)
        vesta_regret = tuple(
            gt.selection_error(spec, rec.vm_name) * 100.0
            for spec, rec in zip(specs, recs)
        )
        rows.append(
            CatalogTransferRow(
                "vesta-transfer",
                cat_name,
                vesta_regret,
                max(rec.reference_vm_count for rec in recs),
            )
        )

        cherry = tuple(
            _search_regret(
                CherryPick(
                    vms=gt.vms,
                    max_iters=SEARCH_BUDGET,
                    ei_threshold=0.0,
                    seed=seed,
                    catalog=cat_name,
                ),
                gt,
                spec,
            )
            for spec in specs
        )
        rows.append(CatalogTransferRow("cherrypick", cat_name, cherry, SEARCH_BUDGET))

        arrow_regret = tuple(
            _arrow_regret(gt, spec, cat_name, seed) for spec in specs
        )
        rows.append(CatalogTransferRow("arrow", cat_name, arrow_regret, SEARCH_BUDGET))

        ernest = Ernest(seed=seed, catalog=cat_name)
        ernest_regret = tuple(
            gt.selection_error(spec, ernest.select(spec)) * 100.0 for spec in specs
        )
        rows.append(
            CatalogTransferRow(
                "ernest", cat_name, ernest_regret, ernest.reference_vm_count
            )
        )

        paris = Paris(seed=seed, catalog=cat_name, cache=opts["cache"]).fit(
            training_set()
        )
        paris_regret = tuple(
            gt.selection_error(spec, paris.select(spec)) * 100.0 for spec in specs
        )
        rows.append(
            CatalogTransferRow(
                "paris", cat_name, paris_regret, paris.reference_vm_count
            )
        )

    spot_rows = _spot_variant(donor, specs, seed)
    fingerprints["ec2-spot"] = _transfer_catalog_fingerprint("ec2-spot")
    return CrossCloudResult(
        targets=TARGETS,
        rows=tuple(rows),
        spot=spot_rows,
        donor_fingerprint=donor.knowledge_fingerprint(),
        catalog_fingerprints=fingerprints,
    )


def _search_regret(searcher: CherryPick, gt: GroundTruth, spec) -> float:
    trace = searcher.optimize(lambda vm: gt.value_of(spec, vm.name))
    return gt.selection_error(spec, searcher.best_vm(trace)) * 100.0


def _arrow_regret(gt: GroundTruth, spec, cat_name: str, seed: int) -> float:
    arrow = Arrow(
        vms=gt.vms,
        max_iters=SEARCH_BUDGET,
        ei_threshold=0.0,
        seed=seed,
        catalog=cat_name,
    )
    trace = arrow.optimize_workload(spec)
    return gt.selection_error(spec, arrow.best_vm(trace)) * 100.0


def _transfer_catalog_fingerprint(name: str) -> str:
    from repro.cloud.catalog import get_catalog

    return get_catalog(name).fingerprint()


def _spot_variant(
    donor: VestaSelector, specs, seed: int
) -> tuple[SpotBudgetRow, ...]:
    """Budget-objective picks on the spot catalog, faults and all.

    The spot catalog's pricing model derives a deterministic interruption
    plan (transient reclaims retried on fresh placements), so the fault
    events counted here are reproducible for a given seed.
    """
    spot = _transferred_vesta(donor, "ec2-spot", seed)
    out = []
    for spec in specs:
        base = donor.select(spec, objective="budget")
        rec = spot.select(spec, objective="budget")
        out.append(
            SpotBudgetRow(
                workload=spec.name,
                ondemand_vm=base.vm_name,
                ondemand_budget_usd=base.predicted_budget_usd,
                spot_vm=rec.vm_name,
                spot_budget_usd=rec.predicted_budget_usd,
                fault_events=len(rec.fault_events),
            )
        )
    return tuple(out)


def format_table(result: CrossCloudResult) -> str:
    lines = ["-- extension: EC2-learned knowledge selecting across catalogs --"]
    lines.append(
        f"donor knowledge {result.donor_fingerprint} "
        f"(ec2 {result.catalog_fingerprints['ec2']})"
    )
    header = f"{'system':16s} {'catalog':8s} " + "".join(
        f"{name:>16s}" for name in result.targets
    ) + f"{'mean':>8s} {'probes':>7s}"
    lines.append(header)
    for row in result.rows:
        cells = "".join(f"{r:>16.1f}" for r in row.regrets)
        lines.append(
            f"{row.system:16s} {row.catalog:8s} {cells}"
            f"{row.mean_regret:>8.1f} {row.probes:>7d}"
        )
    lines.append("")
    lines.append("-- spot pricing (budget objective, deterministic interruptions) --")
    lines.append(
        f"{'workload':16s} {'on-demand':>24s} {'spot':>24s} "
        f"{'savings %':>10s} {'faults':>7s}"
    )
    for s in result.spot:
        lines.append(
            f"{s.workload:16s} "
            f"{s.ondemand_vm + ' $' + format(s.ondemand_budget_usd, '.4f'):>24s} "
            f"{s.spot_vm + ' $' + format(s.spot_budget_usd, '.4f'):>24s} "
            f"{s.savings_pct:>10.1f} {s.fault_events:>7d}"
        )
    lines.append(
        "Correlation signatures learned on EC2 transfer to foreign catalogs "
        "without re-profiling the correlation grid."
    )
    return "\n".join(lines)
