"""Self-tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from loadgen import (  # noqa: E402
    PhaseResult,
    Sample,
    drive_async,
    drive_blocking,
    due_offsets,
    max_rps,
    percentile,
    request_keys,
    tail,
    tail_quantile,
    windowed_tail,
)
from tracing import Tracer  # noqa: E402


# -- the percentile rule --------------------------------------------------------


def test_p99_used_when_ten_samples_lie_beyond_it():
    values = list(range(1, 2001))  # 1..2000
    value, q = tail(values)
    assert q == 0.99
    assert value == 1980
    assert sum(v > value for v in values) == 20


def test_highest_percentile_with_ten_samples_beyond_when_p99_lacks_them():
    values = list(range(1, 201))  # 1..200: only 2 samples beyond p99
    value, q = tail(values)
    assert q == 1 - 10 / 200
    assert sum(v > value for v in values) == 10
    assert value == 190


def test_tail_never_drops_below_the_median():
    assert tail_quantile(12) == 0.5
    assert tail_quantile(0) == 0.5
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


# -- open-loop accounting -------------------------------------------------------


def test_blocking_stall_inflates_later_requests_timed_from_due():
    stall_s = 0.3

    def call(key):
        if key == 3:
            time.sleep(stall_s)
        return key

    result = drive_blocking(call, list(range(10)), 100.0, workers=1, grace_s=2.0)
    lat = {s.key: s.latency for s in result.samples}
    # Requests 4.. were due 10 ms apart while the only connection was stuck:
    # each waited for the stall, so its latency counts the wait.
    assert lat[3] >= stall_s
    assert lat[4] >= stall_s - 0.01 - 0.005
    assert lat[6] >= stall_s - 0.03 - 0.005
    assert lat[2] < 0.1
    # The generator itself was never late: lag excludes waiting for a worker.
    assert max(s.lag for s in result.samples) < 0.05
    assert result.failed == 0 and result.unfinished == 0


def test_async_stall_inflates_later_requests_timed_from_due():
    stall_s = 0.3
    queue: list = []
    cond = threading.Condition()

    def server():
        served = 0
        while served < 10:
            with cond:
                while not queue:
                    cond.wait()
                key, future = queue.pop(0)
            if key == 3:
                time.sleep(stall_s)
            future.set_result(key)
            served += 1

    thread = threading.Thread(target=server, daemon=True)
    thread.start()

    def submit(key):
        future = Future()
        with cond:
            queue.append((key, future))
            cond.notify()
        return future

    result = drive_async(submit, list(range(10)), 100.0, grace_s=2.0)
    thread.join(timeout=5)
    assert not thread.is_alive()
    lat = {s.key: s.latency for s in result.samples}
    assert lat[3] >= stall_s
    assert lat[5] >= stall_s - 0.02 - 0.005
    assert lat[1] < 0.1
    assert result.unfinished == 0


def test_unfinished_requests_count_as_backlog():
    result = drive_async(lambda key: Future(), [1, 2, 3], 1000.0, grace_s=0.05)
    assert result.unfinished == 3
    assert not result.passes(limit_ms=1e9)


def test_rejected_submit_is_a_failure():
    def submit(key):
        raise RuntimeError("queue full")

    result = drive_async(submit, [1, 2], 1000.0, grace_s=0.05)
    assert result.failed == 2
    assert not result.passes(limit_ms=1e9)


def _phase_with_latencies(latencies_ms):
    samples = [Sample(i, i, 0.0, 0.0, ms / 1e3) for i, ms in enumerate(latencies_ms)]
    return PhaseResult(100.0, samples)


def test_a_slow_spell_in_one_window_passes_a_rising_queue_does_not():
    spell = [5.0] * 600
    spell[250:330] = [500.0] * 80  # all inside the middle third
    assert _phase_with_latencies(spell).passes(limit_ms=100.0)
    rising = [i * 0.5 for i in range(600)]  # the queue grows all phase long
    assert not _phase_with_latencies(rising).passes(limit_ms=100.0)


# -- request sequences ----------------------------------------------------------


def test_same_seed_same_zipf_sequence():
    keys = [f"k{i}" for i in range(60)]
    assert request_keys(7, 500, keys) == request_keys(7, 500, keys)


def test_different_seed_different_zipf_sequence():
    keys = [f"k{i}" for i in range(60)]
    assert request_keys(7, 500, keys) != request_keys(8, 500, keys)


def test_poisson_arrivals_follow_the_seed_and_the_rate():
    due = due_offsets(4000, 200.0, poisson_seed=5)
    assert due == due_offsets(4000, 200.0, poisson_seed=5)
    assert due != due_offsets(4000, 200.0, poisson_seed=6)
    assert due[0] == 0.0 and all(a <= b for a, b in zip(due, due[1:]))
    assert 0.9 * 4000 / 200 < due[-1] < 1.1 * 4000 / 200
    # Arrivals bunch: 1 - exp(-200 * 0.002) = 33 % of gaps are under 2 ms.
    assert 0.3 < (np.diff(due) < 0.002).mean() < 0.36
    assert due_offsets(3, 100.0) == [0.0, 0.01, 0.02]


def test_zipf_is_skewed_and_uniform_is_not():
    keys = list(range(60))
    zipf = request_keys(3, 6000, keys)
    uniform = request_keys(3, 6000, keys, popularity="uniform")
    assert max(zipf.count(k) for k in keys) > 5 * 6000 / 60
    assert max(uniform.count(k) for k in keys) < 2 * 6000 / 60


# -- max_rps --------------------------------------------------------------------


def test_max_rps_is_the_highest_rung_below_the_first_failure():
    ladder = [(40.0, False), (10.0, True), (80.0, True), (20.0, True)]
    assert max_rps(ladder) == 20.0


def test_max_rps_edges():
    assert max_rps([(10.0, False), (20.0, True)]) == 0.0
    assert max_rps([(10.0, True), (20.0, True)]) == 20.0


# -- tracing --------------------------------------------------------------------


class _Layer:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.03)


def test_self_time_subtracts_child_spans_and_wrappers_restore():
    original = _Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner")
    assert _Layer().outer() == "done"
    tracer.close()
    assert _Layer.__dict__["outer"] is original
    (outer,) = tracer.named("outer")
    assert [s.parent for s in tracer.named("inner")] == [outer, outer]
    children = tracer.children()
    assert 55 <= tracer.covered_ms(outer, {"inner"}, children) < outer.ms
    assert tracer.covered_ms(outer, {"absent"}, children) == 0.0
    self_ms = tracer.self_ms()
    assert 15 <= self_ms["outer"][0] < 50
    assert outer.ms >= 80


def test_windowed_tail_ignores_a_burst_confined_to_one_window():
    values = [1.0] * 300
    values[10:25] = [50.0] * 15  # a burst in the first window only
    value, q = windowed_tail(values)
    assert q == 0.9
    assert value == 1.0
    assert tail(values)[0] == 50.0
