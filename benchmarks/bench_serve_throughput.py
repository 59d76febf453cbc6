"""Performance bench: concurrent-client throughput of the selection service.

The micro-batching scheduler exists to turn client concurrency into
batched online waves: N clients hammering the service should coalesce
into ``select_many`` solves instead of N one-at-a-time sessions.  This
bench drives the scheduler with a pool of concurrent clients and
compares sustained throughput against the one-request-at-a-time
baseline (sequential ``select`` calls — exactly what looping
``repro select`` does), asserting the micro-batched service is at least
2× faster.  It also exercises admission control: a burst larger than
the queue bound must yield explicit rejections, not latency collapse.
Its HTTP row times back-to-back memo-hit ``/select`` round trips on one
keep-alive connection, the path where a reply split across two writes
waits out the client's delayed ACK.

Numbers land in ``BENCH_serve.json`` at the repo root (same trajectory
convention as ``BENCH_online.json``) so future PRs can compare.
"""

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from trajectory import ROOT, record, timed

from repro.cloud.vmtypes import catalog
from repro.core.persistence import load_selector, save_selector
from repro.core.vesta import VestaSelector
from repro.errors import ServiceOverloadedError
from repro.service import (
    MicroBatchScheduler,
    SelectionService,
    SelectorRegistry,
    ServiceClient,
    ShardRouter,
)
from repro.service.server import serve
from repro.workloads.catalog import target_set, training_set

SOURCES = training_set()[:6]
VMS = catalog()[:14]
SEED = 7
TARGETS = target_set()[:8]
CLIENTS = 8
REQUESTS = 64  # per measured round
HTTP_REQUESTS = 200  # back-to-back round trips on one connection
RESULTS_PATH = ROOT / "BENCH_serve.json"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Baseline selector + a registry serving its fold-in twin.

    The baseline is the fitted full-CMF selector that one-at-a-time
    ``repro select`` serves from; the service serves the same knowledge
    through the fold-in archive twin (the deployment configuration).
    Profiling memos are warmed for both so the clocks measure serving
    compute, not the simulator.
    """
    baseline = VestaSelector(vms=VMS, sources=SOURCES, seed=SEED).fit()
    path = tmp_path_factory.mktemp("bench-serve") / "knowledge.npz"
    save_selector(baseline, path)
    foldin = load_selector(path).refit(cmf_mode="foldin")
    for spec in TARGETS:
        baseline.online(spec)
        foldin.online(spec)
    registry = SelectorRegistry()
    registry.register("default", foldin)
    return baseline, registry


def _drive_mix(scheduler, names: list[str]) -> None:
    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        for response in pool.map(scheduler.select, names):
            assert response.recommendation.vm_name


def _drive(scheduler: MicroBatchScheduler, requests: int) -> None:
    _drive_mix(
        scheduler, [TARGETS[i % len(TARGETS)].name for i in range(requests)]
    )


def test_service_throughput_at_least_2x_sequential(served):
    """Concurrent micro-batched serving vs one-request-at-a-time."""
    baseline, registry = served

    # Correctness guard before the clocks: the service must answer
    # exactly what sequential serving answers.
    with MicroBatchScheduler(registry, max_batch=16) as sched:
        for spec in TARGETS:
            assert sched.select(spec.name).recommendation.vm_name == (
                baseline.select(spec).vm_name
            )

    sequential_s = timed(
        lambda: [
            baseline.select(TARGETS[i % len(TARGETS)]) for i in range(REQUESTS)
        ]
    )

    # The memo cache is off throughout this test: it measures wave
    # coalescing on computed requests (the repeat-mix bench below owns
    # the cached numbers).
    with MicroBatchScheduler(
        registry, max_batch=16, queue_limit=256, rec_cache_size=0
    ) as sched:
        batched_s = timed(lambda: _drive(sched, REQUESTS))
        stats = sched.stats()

    # The same concurrency with coalescing disabled (max_batch=1): what
    # the threading frontend would do without the scheduler.
    with MicroBatchScheduler(
        registry, max_batch=1, queue_limit=256, rec_cache_size=0
    ) as unbatched:
        unbatched_s = timed(lambda: _drive(unbatched, REQUESTS))

    speedup = sequential_s / batched_s
    mean_batch = stats["completed"] / max(stats["batches"], 1)
    record(
        RESULTS_PATH,
        serve_requests=REQUESTS,
        serve_clients=CLIENTS,
        serve_sequential_rps=round(REQUESTS / sequential_s, 1),
        serve_batched_rps=round(REQUESTS / batched_s, 1),
        serve_unbatched_rps=round(REQUESTS / unbatched_s, 1),
        serve_speedup=round(speedup, 2),
        serve_mean_batch=round(mean_batch, 2),
        serve_p99_ms=stats["latency"]["p99_ms"],
    )
    print(
        f"\n{REQUESTS} requests, {CLIENTS} clients: "
        f"sequential {REQUESTS / sequential_s:.0f} rps   "
        f"service {REQUESTS / batched_s:.0f} rps "
        f"(mean batch {mean_batch:.1f})   speedup: {speedup:.1f}x"
    )
    assert speedup >= 2.0


def test_sharded_throughput_not_slower_than_single_shard(served):
    """The multi-shard row: 2 identity-routed shards vs one scheduler.

    Self-contained (measures its own single-shard run) so the gate
    holds regardless of test ordering.  Each shard ships its waves to
    its own worker process, so on a multi-core box the two waves run in
    parallel, outside the router's interpreter lock; on one core the
    workers share it and pay the pipe and pickling on top — so the gate
    is "not slower" with a small tolerance for scheduling noise, while
    the ≥3x criterion is against the one-request-at-a-time single
    worker, which sharding must beat by far even on one core.
    """
    baseline, registry = served

    # Correctness guard before the clocks: K shards must answer exactly
    # what sequential serving answers (it also loads each worker's
    # replica and warms its profiling memo).
    # Memo cache off on both sides: with it on, every repeat is a cache
    # hit and the clocks compare per-hit routing overhead, not serving.
    with ShardRouter(
        registry, shards=2, max_batch=16, queue_limit=256, rec_cache_size=0
    ) as router:
        for spec in TARGETS:
            assert router.select(spec.name).recommendation.vm_name == (
                baseline.select(spec).vm_name
            )
        sharded_s = timed(lambda: _drive(router, REQUESTS))
        stats = router.stats()

    with MicroBatchScheduler(
        registry, max_batch=16, queue_limit=256, rec_cache_size=0
    ) as sched:
        single_s = timed(lambda: _drive(sched, REQUESTS))

    # Short single-worker (one-at-a-time) run for the ≥3x criterion.
    sequential_n = max(REQUESTS // 4, 1)
    sequential_s = timed(
        lambda: [
            baseline.select(TARGETS[i % len(TARGETS)])
            for i in range(sequential_n)
        ],
        rounds=1,
    )
    sequential_rps = sequential_n / sequential_s
    sequential_latency_ms = sequential_s / sequential_n * 1e3

    sharded_rps = REQUESTS / sharded_s
    single_rps = REQUESTS / single_s
    vs_single = sharded_rps / single_rps
    vs_sequential = sharded_rps / sequential_rps
    record(
        RESULTS_PATH,
        serve_shards=2,
        serve_sharded_rps=round(sharded_rps, 1),
        serve_sharded_p99_ms=stats["latency"]["p99_ms"],
        serve_sharded_vs_single_shard=round(vs_single, 2),
        serve_sharded_vs_sequential=round(vs_sequential, 2),
    )
    print(
        f"\n{REQUESTS} requests, {CLIENTS} clients, 2 shards: "
        f"{sharded_rps:.0f} rps vs single-shard {single_rps:.0f} rps "
        f"(x{vs_single:.2f})   vs sequential {sequential_rps:.0f} rps "
        f"(x{vs_sequential:.1f})"
    )
    # Sharding must not cost throughput (0.9: single-core timing noise)…
    assert vs_single >= 0.9
    # …and must beat the single one-at-a-time worker by ≥3x at a p99 no
    # worse than its per-request latency.
    assert vs_sequential >= 3.0
    assert stats["latency"]["p99_ms"] <= sequential_latency_ms


def test_repeat_heavy_mix_served_from_memo_cache(served):
    """80%-repeat traffic: the recommendation memo cache vs no cache.

    Production selection traffic is repeat-heavy — the same few
    workloads get re-asked between knowledge reloads.  This bench drives
    a mix where 80% of requests hit two hot workloads and 20% round-
    robin the long tail, comparing a memo-cached scheduler against the
    identical scheduler with the cache disabled (``rec_cache_size=0``,
    today's path).  The cached run must be at least 2x faster; latency
    percentiles are measured over a clean round (summary reset after
    the timed rounds) so p50 reflects the steady hot-path mix.
    """
    baseline, registry = served
    names = [
        TARGETS[i % len(TARGETS)].name if i % 5 == 4 else TARGETS[i % 2].name
        for i in range(REQUESTS)
    ]

    with MicroBatchScheduler(
        registry, max_batch=16, queue_limit=256, rec_cache_size=0
    ) as uncached:
        uncached_s = timed(lambda: _drive_mix(uncached, names))

    with MicroBatchScheduler(registry, max_batch=16, queue_limit=256) as cached:
        # Correctness guard before the clocks: cache hits must answer
        # exactly what sequential serving answers.
        for spec in TARGETS:
            expected = baseline.select(spec).vm_name
            assert cached.select(spec.name).recommendation.vm_name == expected
            assert cached.select(spec.name).recommendation.vm_name == expected
        cached_s = timed(lambda: _drive_mix(cached, names))
        cached.latency.reset()
        _drive_mix(cached, names)  # clean percentile round, fully warm
        stats = cached.stats()

    cache = stats["rec_cache"]
    hit_rate = cache["hits"] / max(cache["hits"] + cache["misses"], 1)
    speedup = uncached_s / cached_s
    record(
        RESULTS_PATH,
        repeat_mix_requests=REQUESTS,
        repeat_mix_p50_ms=stats["latency"]["p50_ms"],
        repeat_mix_p99_ms=stats["latency"]["p99_ms"],
        repeat_mix_cached_rps=round(REQUESTS / cached_s, 1),
        repeat_mix_uncached_rps=round(REQUESTS / uncached_s, 1),
        repeat_mix_speedup=round(speedup, 2),
        cache_hit_rate=round(hit_rate, 3),
    )
    print(
        f"\n{REQUESTS} repeat-heavy requests: uncached "
        f"{REQUESTS / uncached_s:.0f} rps   cached "
        f"{REQUESTS / cached_s:.0f} rps   speedup: {speedup:.1f}x   "
        f"hit rate {hit_rate:.0%}"
    )
    assert speedup >= 2.0
    assert hit_rate >= 0.5


def test_overload_burst_rejects_instead_of_collapsing(served):
    """A burst beyond the admission bound yields explicit rejections."""
    _, registry = served
    limit = 8
    sched = MicroBatchScheduler(
        registry, max_batch=4, queue_limit=limit, start=False
    )
    admitted, rejected = [], 0
    for i in range(limit * 3):
        try:
            admitted.append(sched.submit(TARGETS[i % len(TARGETS)].name))
        except ServiceOverloadedError:
            rejected += 1
    assert len(admitted) == limit and rejected == limit * 2
    sched.start()
    for future in admitted:
        assert future.result(timeout=60).recommendation.vm_name
    sched.close()
    record(
        RESULTS_PATH,
        serve_burst=limit * 3,
        serve_queue_limit=limit,
        serve_burst_rejected=rejected,
    )


def test_http_keepalive_round_trip(served):
    """Back-to-back memo-hit ``/select`` round trips on one connection.

    The answer is a memo hit, so the clock measures the HTTP frontend,
    the wire format and the client.  A reply written as headers then
    body leaves the body waiting for the client's delayed ACK, about
    40 ms per request; one write with Nagle off takes well under 1 ms.
    """
    _, registry = served
    server = serve(SelectionService(registry), port=0)
    client = ServiceClient(*server.address)
    try:
        name = TARGETS[0].name
        expected = client.select(name)["recommendation"]  # fills the memo
        round_trips = []
        start = time.perf_counter()
        for _ in range(HTTP_REQUESTS):
            sent = time.perf_counter()
            payload = client.select(name)
            round_trips.append(time.perf_counter() - sent)
            assert payload["batch"]["cached"]
            assert payload["recommendation"] == expected
        elapsed = time.perf_counter() - start
    finally:
        client.close()
        server.close()
    p50_ms = statistics.median(round_trips) * 1e3
    record(
        RESULTS_PATH,
        http_keepalive_requests=HTTP_REQUESTS,
        http_keepalive_p50_ms=round(p50_ms, 3),
        http_keepalive_rps=round(HTTP_REQUESTS / elapsed, 1),
    )
    print(
        f"\n{HTTP_REQUESTS} keep-alive /select round trips: "
        f"p50 {p50_ms:.2f} ms   {HTTP_REQUESTS / elapsed:.0f} rps"
    )
    assert p50_ms < 10.0
