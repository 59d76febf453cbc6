"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``catalog``       list the Table-4 VM types (optionally one family)
``workloads``     list the Table-3 workload suite and its splits
``simulate``      run one workload on one VM type and print the profile
``profile``       run the offline profiling campaign (parallel + memoized)
``select``        fit Vesta and recommend a VM type for a workload
``experiment``    regenerate one paper artifact (``fig06``, ``tab01``, ...)
``latency``       batch-latency/throughput report for a workload on VM types
``stages``        inspect or invalidate stage artifacts in an artifact store
``serve``         run the concurrent selection service (HTTP frontend)
``learn``         run gated knowledge promotion over a journalled session log

The CLI is a thin shell over the library — every command maps to public
API calls documented in the README.  Library errors (bad names, invalid
values, failed probes) exit nonzero with a one-line message on stderr
instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

__all__ = ["main", "build_parser"]

#: Experiment ids accepted by ``experiment`` → module name.
EXPERIMENT_IDS = {
    "fig01": "fig01_heatmaps",
    "fig02": "fig02_reuse_error",
    "fig03": "fig03_overhead_curve",
    "fig06": "fig06_mape",
    "fig07": "fig07_sparklr",
    "fig08": "fig08_overhead",
    "fig09": "fig09_pca",
    "fig10": "fig10_consistency",
    "fig11": "fig11_ksweep",
    "fig12": "fig12_progression",
    "fig13": "fig13_budget",
    "tab01": "tab01_correlations",
    "tab04": "tab04_vmtypes",
    "ext_crosscloud": "ext_crosscloud",
    "ext_lifecycle": "ext_lifecycle",
}


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vesta reproduction: VM-type selection across big-data frameworks",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser(
        "catalog", help="list VM types of a provider catalog"
    )
    p_cat.add_argument("--family", help="restrict to one family (e.g. M5)")
    p_cat.add_argument(
        "--catalog", default=None, metavar="NAME",
        help="provider catalog (default: REPRO_CATALOG environment, "
             "else the EC2 Table-4 catalog)",
    )
    p_cat.add_argument(
        "--list", action="store_true", dest="list_catalogs",
        help="list the registered provider catalogs instead of VM types",
    )
    p_cat.add_argument(
        "--json", action="store_true",
        help="emit JSON (catalog identity + VM types, or the registry list)",
    )

    sub.add_parser("workloads", help="list the Table-3 workload suite")

    p_sim = sub.add_parser("simulate", help="profile one workload on one VM type")
    p_sim.add_argument("workload", help="Table-3 name, e.g. spark-lr")
    p_sim.add_argument("vm", help="VM type name, e.g. m5.xlarge")
    p_sim.add_argument("--nodes", type=int, default=None, help="cluster size")
    p_sim.add_argument("--reps", type=int, default=10, help="repetitions (P90)")
    p_sim.add_argument("--seed", type=int, default=0)

    p_prof = sub.add_parser(
        "profile", help="run the offline profiling campaign (parallel + memoized)"
    )
    p_prof.add_argument(
        "--workloads", nargs="*", metavar="NAME",
        help="workload names (default: the full source suite)",
    )
    p_prof.add_argument(
        "--vms", nargs="*", metavar="VM",
        help="VM type names (default: the full Table-4 catalog)",
    )
    p_prof.add_argument("--reps", type=int, default=10, help="repetitions (P90)")
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument(
        "--full", action="store_true",
        help="collect full 20-metric profiles (default: P90 runtimes only)",
    )
    p_prof.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection plan, e.g. 'transient=0.2,straggle=0.1,seed=3' "
             "(default: REPRO_FAULT_* environment, else none)",
    )
    p_prof.add_argument(
        "--catalog", default=None, metavar="NAME",
        help="provider catalog (default: REPRO_CATALOG environment, else ec2)",
    )

    p_sel = sub.add_parser("select", help="recommend a VM type with Vesta")
    p_sel.add_argument(
        "workload", nargs="+",
        help="Table-3 name(s), e.g. spark-lr (several require --many)",
    )
    p_sel.add_argument(
        "--objective", choices=("time", "budget"), default="time"
    )
    p_sel.add_argument(
        "--many", action="store_true",
        help="batch mode: profile all workloads in one campaign wave and "
             "solve their completions together (select_many)",
    )
    p_sel.add_argument(
        "--cmf-mode", choices=("full", "foldin"), default=None,
        help="online completion: 'full' re-runs the joint factorization per "
             "target, 'foldin' reuses precomputed source factors (low "
             "latency); default: 'full', or the archive's own mode",
    )
    p_sel.add_argument("--seed", type=int, default=7)
    p_sel.add_argument(
        "--top", type=int, default=5, help="also show the top-N predictions"
    )
    p_sel.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection plan, e.g. 'transient=0.2,straggle=0.1,seed=3' "
             "(default: REPRO_FAULT_* environment, else none)",
    )
    p_sel.add_argument(
        "--store", default=None,
        help="stage-artifact store sqlite path: pipeline stages unchanged "
             "since the last fit against this store are reused (default: none)",
    )
    p_sel.add_argument(
        "--archive", default=None, metavar="PATH",
        help="load fitted knowledge from a persistence archive (.npz) "
             "instead of fitting; fit options are ignored",
    )
    p_sel.add_argument(
        "--json", action="store_true",
        help="print the recommendation(s) as JSON (the service wire format)",
    )
    p_sel.add_argument(
        "--catalog", default=None, metavar="NAME",
        help="provider catalog for a fresh fit (default: REPRO_CATALOG "
             "environment, else ec2); archives carry their own catalog",
    )

    p_exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    p_exp.add_argument("id", choices=sorted(EXPERIMENT_IDS), help="artifact id")
    p_exp.add_argument(
        "--store", default=None,
        help="stage-artifact store sqlite path shared by the experiment "
             "fixtures (default: REPRO_ARTIFACT_STORE environment, else "
             "one in-memory store per process)",
    )
    p_exp.add_argument(
        "--catalog", default=None, metavar="NAME",
        help="provider catalog for catalog-sensitive experiments, exported "
             "as REPRO_CATALOG for the experiment process (default: unset)",
    )

    p_stage = sub.add_parser(
        "stages", help="inspect or invalidate stage artifacts in a store"
    )
    p_stage.add_argument("--store", required=True, help="artifact store sqlite path")
    p_stage.add_argument(
        "--invalidate", nargs="?", const="all", default=None, metavar="STAGE",
        help="delete stored artifacts: a stage name (e.g. affinity_v) "
             "or, with no value, every stage",
    )

    p_lat = sub.add_parser(
        "latency", help="batch-latency/throughput report (Section 7 extension)"
    )
    p_lat.add_argument("workload", help="Table-3 name, e.g. hadoop-twitter")
    p_lat.add_argument("vms", nargs="+", help="VM type names to compare")

    p_srv = sub.add_parser(
        "serve", help="run the concurrent selection service (HTTP frontend)"
    )
    p_srv.add_argument(
        "--archive", default=None, metavar="PATH",
        help="serve fitted knowledge from a persistence archive (.npz); "
             "default: fit a fresh selector at startup",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument(
        "--port", type=int, default=8349,
        help="listen port (0 picks an ephemeral port; default: 8349)",
    )
    p_srv.add_argument(
        "--max-batch", type=int, default=16,
        help="largest coalesced request batch: each wave serves whatever "
             "queued while the previous one ran, up to this many "
             "(default: 16)",
    )
    p_srv.add_argument(
        "--queue-limit", type=int, default=128,
        help="admission queue bound per shard; beyond it deadline-doomed "
             "requests are shed, then requests are rejected with HTTP 429 "
             "(default: 128)",
    )
    p_srv.add_argument(
        "--shards", type=int, default=1,
        help="scheduler shards; K > 1 runs K worker processes, requests "
             "route by workload identity and each worker serves its own "
             "knowledge replica, sent through its pipe (default: 1)",
    )
    p_srv.add_argument(
        "--rec-cache", type=int, default=512, metavar="N",
        help="recommendation memo-cache entries per scheduler shard, keyed "
             "by (knowledge fingerprint, workload, objective); 0 disables "
             "(default: 512)",
    )
    p_srv.add_argument(
        "--cmf-mode", choices=("full", "foldin"), default=None,
        help="override the served completion mode (foldin = low latency); "
             "default: the archive's / selector's own mode",
    )
    p_srv.add_argument("--seed", type=int, default=7, help="fresh-fit seed")
    p_srv.add_argument(
        "--store", default=None,
        help="stage-artifact store sqlite path (default: none)",
    )
    p_srv.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    p_srv.add_argument(
        "--catalog", default=None, metavar="NAME",
        help="provider catalog for a fresh fit (default: REPRO_CATALOG "
             "environment, else ec2); archives carry their own catalog",
    )
    p_srv.add_argument(
        "--learn", action="store_true",
        help="journal served sessions and promote measured-transfer "
             "candidates into the served knowledge in the background "
             "(requires --shards 1)",
    )
    p_srv.add_argument(
        "--learn-store", default=None, metavar="PATH",
        help="session-log sqlite path for --learn (default: in-memory; "
             "a file path makes the journal survive restarts)",
    )
    p_srv.add_argument(
        "--learn-interval", type=float, default=5.0, metavar="S",
        help="seconds between background promotion cycles (default: 5)",
    )

    p_learn = sub.add_parser(
        "learn",
        help="run gated knowledge promotion over a journalled session log",
    )
    p_learn.add_argument(
        "sessions", metavar="SESSION_DB",
        help="MetricsStore sqlite path holding the journalled session log "
             "(e.g. the --learn-store of a serve run)",
    )
    p_learn.add_argument(
        "--archive", default=None, metavar="PATH",
        help="load fitted knowledge from a persistence archive (.npz) "
             "instead of fitting fresh",
    )
    p_learn.add_argument(
        "--out", default=None, metavar="PATH",
        help="save the grown knowledge to a persistence archive (.npz)",
    )
    p_learn.add_argument(
        "--min-observations", type=int, default=3,
        help="observed VMs a session needs to be a promotion candidate "
             "(default: 3)",
    )
    p_learn.add_argument(
        "--min-holdouts", type=int, default=1,
        help="distinct holdout sessions needed to score a candidate "
             "(default: 1)",
    )
    p_learn.add_argument(
        "--max-promotions", type=int, default=None, metavar="N",
        help="stop after N promotions (default: promote until the gate "
             "rejects everything)",
    )
    p_learn.add_argument(
        "--cmf-mode", choices=("full", "foldin"), default=None,
        help="completion mode for a fresh fit or archive override",
    )
    p_learn.add_argument("--seed", type=int, default=7, help="fresh-fit seed")
    p_learn.add_argument(
        "--store", default=None,
        help="stage-artifact store sqlite path (default: none)",
    )
    p_learn.add_argument(
        "--catalog", default=None, metavar="NAME",
        help="provider catalog for a fresh fit (default: REPRO_CATALOG "
             "environment, else ec2); archives carry their own catalog",
    )
    return parser


def _cmd_catalog(args: argparse.Namespace) -> int:
    import json

    from repro.cloud.catalog import catalog_names, get_catalog

    if args.list_catalogs:
        payload = [get_catalog(name).describe() for name in catalog_names()]
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"{'catalog':12s} {'VMs':>5s} {'pricing':16s} {'fingerprint':16s}")
        for info in payload:
            print(f"{info['name']:12s} {info['vm_count']:>5d} "
                  f"{info['pricing']['name']:16s} {info['fingerprint']:16s}")
        return 0

    cat = get_catalog(args.catalog)
    vms = cat.vms
    if args.family:
        vms = tuple(vm for vm in vms if vm.family.lower() == args.family.lower())
        if not vms:
            print(f"unknown family {args.family!r}", file=sys.stderr)
            return 2
    if args.json:
        payload = {
            "catalog": cat.name,
            "catalog_fingerprint": cat.fingerprint(),
            "pricing": cat.pricing.describe(),
            "vms": [
                {
                    "name": vm.name,
                    "vcpus": vm.vcpus,
                    "mem_gb": vm.mem_gb,
                    "disk_mbps": vm.disk_mbps,
                    "net_gbps": vm.net_gbps,
                    "price_per_hour": vm.price_per_hour,
                }
                for vm in vms
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"catalog: {cat.name} (fingerprint {cat.fingerprint()}, "
          f"pricing {cat.pricing.name})")
    print(f"{'name':16s} {'vCPU':>5s} {'mem GB':>8s} {'disk MB/s':>10s} "
          f"{'net Gb/s':>9s} {'$/h':>8s}")
    for vm in vms:
        print(f"{vm.name:16s} {vm.vcpus:>5d} {vm.mem_gb:>8.1f} "
              f"{vm.disk_mbps:>10.0f} {vm.net_gbps:>9.2f} {vm.price_per_hour:>8.4f}")
    print(f"{len(vms)} VM types")
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    from repro.workloads.catalog import target_set, testing_set, training_set

    for title, specs in (
        ("source / training", training_set()),
        ("source / testing", testing_set()),
        ("target (new framework)", target_set()),
    ):
        print(f"-- {title} --")
        for w in specs:
            print(f"   {w.name:20s} {w.framework:7s} {w.use_case.value:20s} "
                  f"{w.input_gb:6.1f} GB x{w.nodes}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.telemetry.collector import DataCollector
    from repro.workloads.catalog import get_workload

    spec = get_workload(args.workload)
    collector = DataCollector(repetitions=args.reps, seed=args.seed)
    profile = collector.collect(spec, args.vm, nodes=args.nodes)
    print(f"{spec.name} on {args.reps} x {profile.vm_name} (nodes={profile.nodes})")
    print(f"   runtime P90: {profile.runtime_p90:10.1f} s   "
          f"mean: {profile.runtime_mean:.1f} s   CV: {profile.runtime_cv:.3f}")
    print(f"   budget  P90: {profile.budget_p90:10.4f} $")
    print(f"   telemetry:   {profile.timeseries.shape[0]} samples x 20 metrics"
          f"   spilled: {profile.spilled}")
    return 0


def _fault_plan(args: argparse.Namespace):
    """Resolve the fault plan: ``--faults`` spec, else ``REPRO_FAULT_*`` envs."""
    from repro.cloud.faults import FaultPlan

    if getattr(args, "faults", None):
        return FaultPlan.from_spec(args.faults)
    return FaultPlan.from_env()


def _cmd_profile(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.cloud.catalog import get_catalog
    from repro.telemetry.campaign import ProfilingCampaign
    from repro.workloads.catalog import get_workload, source_set

    cat = get_catalog(args.catalog)
    specs = (
        tuple(get_workload(n) for n in args.workloads)
        if args.workloads
        else source_set()
    )
    vms = tuple(cat.get(n) for n in args.vms) if args.vms else cat.vms
    faults = _fault_plan(args)
    campaign = ProfilingCampaign(
        repetitions=args.reps, seed=args.seed, faults=faults, catalog=cat
    )
    print(
        f"campaign: {len(specs)} workloads x {len(vms)} VM types "
        f"(catalog: {cat.name}"
        f"{', faults on' if campaign.faults is not None else ''})"
    )
    if args.full:
        grid = campaign.collect_grid(specs, vms)
        matrix = np.array(
            [[grid[(s.name, vm.name)].runtime_p90 for vm in vms] for s in specs]
        )
    else:
        matrix = campaign.runtime_matrix(specs, vms)
    print(f"{'workload':20s} {'best VM':16s} {'P90 s':>10s} {'worst/best':>11s}")
    for spec, row in zip(specs, matrix):
        best = int(np.argmin(row))
        print(
            f"{spec.name:20s} {vms[best].name:16s} {row[best]:>10.1f} "
            f"{row.max() / row[best]:>11.2f}"
        )
    print(campaign.counters.summary())
    return 0


def _build_selector(args: argparse.Namespace, *, announce: bool = True):
    """Fitted selector for ``select``/``serve``: archive load or fresh fit."""
    from repro.core.persistence import load_selector
    from repro.core.vesta import VestaSelector

    if getattr(args, "archive", None):
        vesta = load_selector(
            args.archive, faults=_fault_plan(args), store=args.store
        )
        if args.cmf_mode is not None and args.cmf_mode != vesta.cmf_mode:
            vesta.refit(cmf_mode=args.cmf_mode)
        if announce:
            print(f"loaded fitted knowledge from {args.archive} "
                  f"(cmf_mode={vesta.cmf_mode})")
        return vesta
    if announce:
        print("fitting offline knowledge (source workloads x full catalog)...")
    return VestaSelector(
        seed=args.seed, faults=_fault_plan(args), store=args.store,
        cmf_mode=args.cmf_mode or "full",
        catalog=getattr(args, "catalog", None),
    ).fit()


def _cmd_select(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.service.wire import recommendation_to_dict
    from repro.workloads.catalog import get_workload

    specs = [get_workload(name) for name in args.workload]
    if len(specs) > 1 and not args.many:
        print(
            f"{len(specs)} workloads given; pass --many for batch selection",
            file=sys.stderr,
        )
        return 2
    vesta = _build_selector(args, announce=not args.json)
    if args.store and not args.json:
        reused = [
            name for name, r in vesta.stage_report.items() if r.action != "computed"
        ]
        print(f"   stages reused from store: {', '.join(reused) or '(none)'}")

    if args.many:
        recs = vesta.select_many(specs, objective=args.objective)
        if args.json:
            print(json.dumps(
                [recommendation_to_dict(r) for r in recs], indent=2
            ))
            return 0
        print(
            f"\nbatch selection ({args.objective}, cmf_mode={vesta.cmf_mode}):"
        )
        print(f"{'workload':20s} {'VM type':16s} {'runtime s':>10s} "
              f"{'budget $':>9s} {'flags':8s}")
        for spec, rec in zip(specs, recs):
            flags = "degraded" if rec.degraded else ""
            print(f"{spec.name:20s} {rec.vm_name:16s} "
                  f"{rec.predicted_runtime_s:>10.1f} "
                  f"{rec.predicted_budget_usd:>9.4f} {flags:8s}")
        return 0

    spec = specs[0]
    session = vesta.online(spec)
    rec = session.recommend(args.objective)
    if args.json:
        print(json.dumps(recommendation_to_dict(rec), indent=2))
        return 0
    print(f"\nrecommended VM type for {spec.name} ({args.objective}): {rec.vm_name}")
    print(f"   predicted runtime: {rec.predicted_runtime_s:.1f} s")
    print(f"   predicted budget:  ${rec.predicted_budget_usd:.4f}")
    print(f"   reference VMs:     {rec.reference_vm_count} "
          f"(sandbox {session.sandbox_vm.name} + probes)")
    print(f"   converged:         {rec.converged}")
    if rec.degraded:
        print(f"   DEGRADED: lost probes {', '.join(rec.failed_probes) or '(none)'}; "
              f"{len(rec.fault_events)} fault events "
              f"(match threshold widened to "
              f"{session.effective_match_threshold:.3f})")
    scores = (
        session.predict_runtimes()
        if args.objective == "time"
        else session.predict_budgets()
    )
    order = np.argsort(scores)[: args.top]
    print(f"\ntop {args.top} predictions:")
    for i in order:
        unit = "s" if args.objective == "time" else "$"
        print(f"   {vesta.vms[i].name:16s} {scores[i]:10.3f} {unit}")
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from repro.frameworks.registry import simulate_run
    from repro.telemetry.latency import latency_report
    from repro.workloads.catalog import get_workload

    spec = get_workload(args.workload)
    print(f"{'VM type':16s} {'batches':>8s} {'mean lat s':>11s} {'P99 lat s':>10s} "
          f"{'GB/s':>8s}")
    for vm_name in args.vms:
        report = latency_report(simulate_run(spec, vm_name))
        print(f"{report.vm_name:16s} {report.batches:>8d} "
              f"{report.mean_latency_s:>11.2f} {report.p99_latency_s:>10.2f} "
              f"{report.throughput_gb_s:>8.3f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib
    import os

    if args.store:
        # The experiment fixtures key on the resolved environment, so
        # this takes effect even if fixtures were already built.
        os.environ["REPRO_ARTIFACT_STORE"] = args.store
    if args.catalog:
        os.environ["REPRO_CATALOG"] = args.catalog
    module = importlib.import_module(
        f"repro.experiments.{EXPERIMENT_IDS[args.id]}"
    )
    result = module.run()
    print(module.format_table(result))
    return 0


def _cmd_stages(args: argparse.Namespace) -> int:
    from repro.core.artifacts import ArtifactStore
    from repro.core.pipeline import STAGES

    if args.invalidate is not None and args.invalidate not in ("all", *STAGES):
        print(
            f"unknown stage {args.invalidate!r}; "
            f"expected one of: {', '.join(STAGES)}",
            file=sys.stderr,
        )
        return 2
    with ArtifactStore(args.store) as store:
        if store.recovered:
            print(f"note: store at {args.store} was corrupt and has been reset")
        if args.invalidate is not None:
            stage = None if args.invalidate == "all" else args.invalidate
            removed = store.invalidate(stage)
            print(f"invalidated {removed} artifact(s)"
                  f"{'' if stage is None else f' of stage {stage}'}")
            return 0
        entries = store.entries()
        print(f"store: {args.store} ({len(entries)} artifact(s))")
        print(f"{'stage':18s} {'artifacts':>9s} {'bytes':>10s}")
        by_stage = {name: [] for name in STAGES}
        for entry in entries:
            by_stage.setdefault(entry.stage, []).append(entry)
        for stage, rows in by_stage.items():
            if not rows:
                continue
            print(f"{stage:18s} {len(rows):>9d} {sum(r.nbytes for r in rows):>10d}")
            for row in rows:
                print(f"   {row.key[:16]}...  {row.nbytes:>8d} B")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import SelectionService, SelectorRegistry
    from repro.service.server import serve

    vesta = _build_selector(args)
    registry = SelectorRegistry()
    handle = registry.register("default", vesta)
    service = SelectionService(
        registry,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        shards=args.shards,
        rec_cache_size=args.rec_cache,
        learn=args.learn,
        learn_store=args.learn_store,
        learn_interval_s=args.learn_interval,
    )
    server = serve(service, args.host, args.port, verbose=args.verbose)
    host, port = server.address
    tier = f"{args.shards} shard{'s' if args.shards != 1 else ''}"
    print(f"serving selector 'default' (fingerprint {handle.fingerprint}, "
          f"catalog={vesta.catalog.name}, cmf_mode={vesta.cmf_mode}, {tier}) "
          f"on http://{host}:{port}")
    learning = service.stats()["learning"]
    if learning["enabled"]:
        print(f"   learning on: journal -> gate -> promote every "
              f"{learning['interval_s']:g} s "
              f"(store: {args.learn_store or 'in-memory'})")
    print('   POST /select   {"workload": "spark-lr"}')
    print("   GET  /healthz  GET /statsz        (Ctrl-C to stop)")
    import signal
    import time

    # SIGTERM takes Ctrl-C's path, so a terminated server still closes
    # its service and tells its shard workers to stop.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down...")
    finally:
        if learning["enabled"]:
            final = service.stats()["learning"]
            print(f"   lifecycle: {final['candidates_seen']} candidates seen, "
                  f"{final['gated_out']} gated out, "
                  f"{final['promoted']} promoted, "
                  f"{final['reload_generations']} reload generations")
        server.close()
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    import os

    from repro.core.lifecycle import KnowledgeLifecycle
    from repro.core.persistence import save_selector
    from repro.telemetry.store import MetricsStore

    if not os.path.exists(args.sessions):
        print(f"no session log at {args.sessions}", file=sys.stderr)
        return 2
    with MetricsStore(args.sessions) as store:
        records = store.sessions()
    if not records:
        print(f"session log {args.sessions} holds no sessions", file=sys.stderr)
        return 2
    print(f"{len(records)} journalled session(s) from {args.sessions}")
    vesta = _build_selector(args)
    before = vesta.knowledge_fingerprint()
    lifecycle = KnowledgeLifecycle(
        vesta,
        min_observations=args.min_observations,
        min_holdouts=args.min_holdouts,
        max_promotions=args.max_promotions,
    )
    report = lifecycle.advance(records)
    print(f"\npromotion cycle: {report.candidates} candidate(s), "
          f"{len(report.promoted)} promoted, {report.gated_out} gated out, "
          f"{report.deferred} deferred")
    print(f"{'workload':20s} {'verdict':10s} {'baseline':>9s} {'candidate':>10s} "
          f"{'reason'}")
    for score in report.scores:
        verdict = "promoted" if score.accepted else (
            "deferred" if score.deferred else "gated"
        )
        base = f"{score.baseline_error:.4f}" if score.holdouts else "-"
        cand = f"{score.candidate_error:.4f}" if score.holdouts else "-"
        print(f"{score.workload:20s} {verdict:10s} {base:>9s} {cand:>10s} "
              f"{score.reason}")
    if report.promoted:
        print(f"\nknowledge fingerprint: {before} -> "
              f"{vesta.knowledge_fingerprint()} "
              f"({vesta.U.shape[0]} source rows)")
    else:
        print(f"\nknowledge unchanged (fingerprint {before})")
    if args.out:
        path = save_selector(vesta, args.out)
        print(f"saved grown knowledge to {path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library failures — unknown names (:class:`CatalogError`), invalid
    values (:class:`ValidationError`), permanently failed probe runs
    (:class:`ProbeFailedError`) and the rest of the :class:`ReproError`
    hierarchy — exit with code 1 and a one-line message on stderr;
    argparse keeps its conventional exit code 2 for bad arguments.
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    handler = {
        "catalog": _cmd_catalog,
        "workloads": _cmd_workloads,
        "simulate": _cmd_simulate,
        "profile": _cmd_profile,
        "select": _cmd_select,
        "experiment": _cmd_experiment,
        "latency": _cmd_latency,
        "stages": _cmd_stages,
        "serve": _cmd_serve,
        "learn": _cmd_learn,
    }[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        # KeyError subclasses (CatalogError) repr their message; unwrap.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"repro: error: {message}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
