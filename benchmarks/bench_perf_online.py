"""Performance benches: the low-latency online serving path.

Before the offline/online CMF split, every online session re-ran the
full collective factorization (SGD over U, V and the target row) just to
complete one sparse row, and serving a batch of targets meant one such
session after another.  With ``cmf_mode="foldin"`` the offline
``source_factors`` stage is solved once at fit() time and each target
row is an exact closed-form ridge fold-in; :meth:`select_many` serves a
whole batch with one profiling wave and one batched solve.

These benches measure both claims against the same fitted knowledge —
fold-in session latency vs the full-CMF session (≥ 3×) and
``select_many`` batch throughput vs sequential ``select`` serving
(≥ 2× on 8 targets) — plus the fold-in session on the full 100-VM
catalog, and append the numbers to ``BENCH_online.json`` at the repo
root so future PRs can compare.
"""

import numpy as np
import pytest
from trajectory import ROOT, record, timed

from repro.cloud.vmtypes import catalog
from repro.core.caching import LRUCache
from repro.core.persistence import load_selector, save_selector
from repro.core.vesta import VestaSelector
from repro.workloads.catalog import all_workloads, target_set, training_set

SOURCES = training_set()[:6]
VMS = catalog()[:14]
SEED = 7
TARGETS = target_set()[:8]
RESULTS_PATH = ROOT / "BENCH_online.json"


@pytest.fixture(scope="module")
def serving(tmp_path_factory):
    """One fitted knowledge base, served in both modes.

    The fold-in selector shares the full selector's fitted stages via a
    save/load round-trip (cmf_mode is in no stage fingerprint, so the
    mode switch recomputes nothing).  Both campaigns' profiling memos are
    warmed first: the benches measure serving compute, not the simulator.
    """
    full = VestaSelector(vms=VMS, sources=SOURCES, seed=SEED).fit()
    path = tmp_path_factory.mktemp("bench-online") / "knowledge.npz"
    save_selector(full, path)
    foldin = load_selector(path).refit(cmf_mode="foldin")
    for spec in TARGETS:
        full.online(spec)
        foldin.online(spec)
    return full, foldin


def test_foldin_session_at_least_3x_faster(serving):
    """Per-session serving latency: closed-form fold-in vs full CMF."""
    full, foldin = serving
    full_s = timed(lambda: [full.online(s).recommend("time") for s in TARGETS])
    foldin_s = timed(lambda: [foldin.online(s).recommend("time") for s in TARGETS])
    speedup = full_s / foldin_s
    record(
        RESULTS_PATH,
        targets=len(TARGETS),
        session_full_ms=round(full_s / len(TARGETS) * 1e3, 3),
        session_foldin_ms=round(foldin_s / len(TARGETS) * 1e3, 3),
        session_speedup=round(speedup, 2),
    )
    print(
        f"\nsession latency: full {full_s / len(TARGETS) * 1e3:.1f} ms   "
        f"fold-in {foldin_s / len(TARGETS) * 1e3:.2f} ms   "
        f"speedup: {speedup:.1f}x"
    )
    assert speedup >= 3.0


@pytest.fixture(scope="module")
def catalog_foldin():
    """The fold-in selector on the full Table-4 catalog, cells warmed."""
    selector = VestaSelector(seed=SEED, cmf_mode="foldin").fit()
    for spec in all_workloads():
        selector.online(spec)
    return selector


def test_catalog_foldin_session(catalog_foldin):
    """One uncached online session per Table-3 workload on 100 VMs.

    Every profiling cell is memoized, so the row times what a memo-miss
    ``/select`` computes: probe plan, signature, label row, fold-in,
    prediction and the recommendation.
    """
    selector = catalog_foldin
    workloads = all_workloads()
    picks = [selector.online(spec).recommend().vm_name for spec in workloads]
    assert picks == [rec.vm_name for rec in selector.select_many(workloads)]
    seconds = timed(lambda: [selector.online(s).recommend() for s in workloads])
    record(
        RESULTS_PATH,
        catalog_workloads=len(workloads),
        session_foldin_catalog_ms=round(seconds / len(workloads) * 1e3, 3),
    )
    print(
        f"\nfold-in session on {len(selector.vms)} VMs: "
        f"{seconds / len(workloads) * 1e3:.2f} ms"
    )


def test_select_many_at_least_2x_sequential(serving):
    """Batch throughput: one select_many wave vs sequential serving."""
    full, foldin = serving
    # Correctness guard before the clocks: the batch must pick the same
    # VMs as one-at-a-time fold-in sessions.
    batch_recs = foldin.select_many(TARGETS)
    assert [r.vm_name for r in batch_recs] == [
        foldin.select(s).vm_name for s in TARGETS
    ]

    sequential_s = timed(lambda: [full.select(s) for s in TARGETS])
    batch_s = timed(lambda: foldin.select_many(TARGETS))
    foldin_sequential_s = timed(lambda: [foldin.select(s) for s in TARGETS])
    speedup = sequential_s / batch_s
    record(
        RESULTS_PATH,
        batch_sequential_ms=round(sequential_s * 1e3, 3),
        batch_select_many_ms=round(batch_s * 1e3, 3),
        batch_foldin_sequential_ms=round(foldin_sequential_s * 1e3, 3),
        batch_speedup=round(speedup, 2),
    )
    print(
        f"\nbatch of {len(TARGETS)}: sequential {sequential_s * 1e3:.1f} ms   "
        f"select_many {batch_s * 1e3:.2f} ms   speedup: {speedup:.1f}x"
    )
    assert speedup >= 2.0


def test_grouped_foldin_at_least_1_5x_row_loop(serving):
    """Mask-grouped fold-in vs the per-row solve loop, byte-identical.

    Serving batches repeat mask patterns heavily (every request probed
    on the same planned VM subset shares one bit-pattern), so the
    grouped path solves one stacked system per distinct mask and reuses
    the gram operator from the mask-keyed cache.  A batch of 64 rows
    over ≤ 4 distinct masks — the repeat-heavy shape — must be at least
    1.5x faster than the row loop while producing the same bytes.
    """
    _, foldin = serving
    cmf = foldin._cmf()
    L = foldin.source_factors.L
    sessions = [foldin.online(spec) for spec in TARGETS[:4]]
    rows = np.vstack([s._sparse_row for s in sessions] * 16)
    masks = np.vstack([s._mask for s in sessions] * 16)
    assert rows.shape[0] == 64
    assert len({m.tobytes() for m in masks}) <= 4

    loop_result = cmf._fold_in_row_loop(L, rows, masks)
    cache = LRUCache(maxsize=16)
    grouped_result = cmf.fold_in(L, rows, masks, operator_cache=cache)
    assert grouped_result.tobytes() == loop_result.tobytes()

    loop_s = timed(lambda: cmf._fold_in_row_loop(L, rows, masks))
    grouped_s = timed(lambda: cmf.fold_in(L, rows, masks, operator_cache=cache))
    speedup = loop_s / grouped_s
    record(
        RESULTS_PATH,
        foldin_grouped_rows=rows.shape[0],
        foldin_grouped_distinct_masks=len({m.tobytes() for m in masks}),
        foldin_rowloop_ms=round(loop_s * 1e3, 3),
        foldin_grouped_ms=round(grouped_s * 1e3, 3),
        foldin_grouped_speedup=round(speedup, 2),
    )
    print(
        f"\ngrouped fold-in, 64 rows / {len({m.tobytes() for m in masks})} "
        f"masks: row loop {loop_s * 1e3:.2f} ms   grouped "
        f"{grouped_s * 1e3:.2f} ms   speedup: {speedup:.1f}x"
    )
    assert speedup >= 1.5


@pytest.fixture(scope="module")
def merged_serving():
    """EC2-only and merged-catalog fold-in selectors over matched sizes.

    The merged selector draws the same number of candidate VMs from the
    ``multi`` catalog (EC2 head + Azure tail) so the comparison measures
    the catalog dimension's overhead — pricing model indirection and
    per-VM billing-increment lookups — not a larger candidate space.
    """
    from repro.cloud.catalog import get_catalog

    multi = get_catalog("multi")
    # Same candidate count as VMS: half EC2 head, half Azure tail.
    half = len(VMS) // 2
    merged_vms = multi.vms[:half] + multi.vms[-(len(VMS) - half):]
    ec2 = VestaSelector(
        vms=VMS, sources=SOURCES, seed=SEED, cmf_mode="foldin"
    ).fit()
    merged = VestaSelector(
        vms=merged_vms, sources=SOURCES, seed=SEED, cmf_mode="foldin",
        catalog=multi,
    ).fit()
    for spec in TARGETS:
        ec2.online(spec)
        merged.online(spec)
    return ec2, merged


def test_merged_catalog_batch_within_2_5x_of_ec2(merged_serving):
    """Batched selection over the merged catalog vs EC2-only.

    The non-default catalog path resolves budgets through the pricing
    model (per-VM billing increments for the ``az-`` prefix) instead of
    the baked-in EC2 constant; that indirection must stay cheap — no more
    than 2.5x the EC2-only per-session latency on the same batch size.
    """
    ec2, merged = merged_serving
    ec2_s = timed(lambda: merged_batch(ec2))
    merged_s = timed(lambda: merged_batch(merged))
    ratio = merged_s / ec2_s
    record(
        RESULTS_PATH,
        merged_batch_ec2_ms=round(ec2_s * 1e3, 3),
        merged_batch_multi_ms=round(merged_s * 1e3, 3),
        merged_batch_ratio=round(ratio, 2),
    )
    print(
        f"\nmerged catalog batch: ec2 {ec2_s * 1e3:.1f} ms   "
        f"multi {merged_s * 1e3:.1f} ms   ratio: {ratio:.2f}x"
    )
    assert ratio <= 2.5


def merged_batch(selector):
    return selector.select_many(TARGETS, objective="budget")
