"""Open-loop load generation, the percentile rule and rate-ladder selection.

Everything here is independent of the program under test: a target is
either a ``submit(key) -> Future`` callable (in-process, one generator
thread) or a blocking ``call(key) -> value`` callable (HTTP, one
connection per worker thread).  Requests are due on a fixed schedule,
evenly spaced at ``rate`` or drawn from a seeded Poisson process of that
rate, whatever the target does, and every latency is timed from the
request's *due* time, so a stall in the target inflates the latency of
every request that had to wait behind it.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field

import numpy as np

#: The requested tail percentile.
TAIL_Q = 0.99
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
#: :func:`windowed_tail` cuts a phase into this many slices.
TAIL_WINDOWS = 3
#: Zipf exponent of the ``"zipf"`` popularity.
ZIPF_S = 1.1
#: :func:`drive_blocking` spins (rather than sleeps) this close to a due time.
SPIN_S = 0.0003

clock = time.perf_counter


# -- statistics -----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail_quantile(n: int) -> float:
    """The quantile actually reported for the p99 of ``n`` samples.

    0.99 itself while at least ``MIN_BEYOND`` samples lie beyond it;
    otherwise the highest quantile that still has them, never below the
    median.
    """
    if n <= 0:
        return 0.5
    return max(0.5, min(TAIL_Q, 1.0 - MIN_BEYOND / n))


def tail(values) -> tuple[float, float]:
    """``(value, quantile_used)`` of the tail percentile rule."""
    used = tail_quantile(len(values))
    return percentile(values, used), used


def median(values) -> float:
    return percentile(values, 0.5)


def windowed_tail(values) -> tuple[float, float]:
    """Median over ``TAIL_WINDOWS`` consecutive slices of each slice's :func:`tail`.

    ``values`` in arrival order.  A lone burst of slow requests moves one
    slice's tail, not the median of them.  Returns ``(value, quantile
    used per slice)``.
    """
    values = list(values)
    size = len(values) // TAIL_WINDOWS
    if size == 0:
        return tail(values)
    tails = [tail(values[i * size:(i + 1) * size]) for i in range(TAIL_WINDOWS)]
    return median([t[0] for t in tails]), tails[0][1]


# -- request sequences ----------------------------------------------------------


def request_keys(seed: int, n: int, keys, *, popularity: str = "zipf") -> list:
    """``n`` request keys drawn from ``keys``; the same seed, the same list.

    ``"zipf"`` ranks the keys by a seeded permutation and draws rank
    ``r`` with weight ``r ** -ZIPF_S``; ``"uniform"`` draws every key
    equally.
    """
    keys = list(keys)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(keys))
    if popularity == "zipf":
        weights = 1.0 / np.arange(1, len(keys) + 1) ** ZIPF_S
        weights /= weights.sum()
    elif popularity == "uniform":
        weights = np.full(len(keys), 1.0 / len(keys))
    else:
        raise ValueError(f"unknown popularity {popularity!r}")
    draws = rng.choice(len(keys), size=n, p=weights)
    return [keys[order[d]] for d in draws]


def due_offsets(n: int, rate: float, poisson_seed: int | None = None) -> list[float]:
    """Due times (s after the phase starts) of ``n`` requests at ``rate``.

    Evenly spaced ``i / rate`` by default; with ``poisson_seed``, the
    arrivals of a Poisson process of that rate (exponential gaps drawn
    from the seed), the first one due at once.
    """
    if poisson_seed is None:
        return [i / rate for i in range(n)]
    gaps = np.random.default_rng(poisson_seed).exponential(1.0 / rate, n)
    gaps[0] = 0.0
    return np.cumsum(gaps).tolist()


# -- open loops -----------------------------------------------------------------


@dataclass
class Sample:
    """One scheduled request (times in ``perf_counter`` seconds)."""

    index: int
    key: object
    due: float
    sent: float | None = None
    done: float | None = None
    lag: float = 0.0
    value: object = None
    error: str | None = None

    @property
    def latency(self) -> float | None:
        """Completion time minus due time (``None`` if never completed)."""
        return None if self.done is None else self.done - self.due


@dataclass
class PhaseResult:
    """Outcome of one open-loop phase at one nominal rate."""

    rate: float
    samples: list[Sample] = field(default_factory=list)
    #: Full garbage collections that ran during the phase (ms each).
    gc_pauses_ms: list[float] = field(default_factory=list)

    @property
    def ok(self) -> list[Sample]:
        return [s for s in self.samples if s.done is not None and s.error is None]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.error is not None)

    @property
    def unfinished(self) -> int:
        """Requests due in the phase that never completed (backlog)."""
        return sum(1 for s in self.samples if s.done is None and s.error is None)

    def latencies_ms(self) -> list[float]:
        return [s.latency * 1e3 for s in self.ok]

    def p50_ms(self) -> float:
        return median(self.latencies_ms())

    def lag_p99_ms(self) -> float:
        return tail([s.lag * 1e3 for s in self.samples if s.sent is not None])[0]

    def passes(self, limit_ms: float) -> bool:
        """No failures, no backlog, and the windowed tail within ``limit_ms``.

        A backlog that grows through the phase fails every window; a
        passing slow spell of the host fails at most one.
        """
        lat = self.latencies_ms()
        return (
            bool(lat)
            and self.failed == 0
            and self.unfinished == 0
            and windowed_tail(lat)[0] <= limit_ms
        )


def _schedule(keys, rate: float, poisson_seed: int | None) -> list[Sample]:
    keys = list(keys)
    start = clock() + 0.002
    offsets = due_offsets(len(keys), rate, poisson_seed)
    return [Sample(i, key, start + off) for i, (key, off) in enumerate(zip(keys, offsets))]


def drive_async(
    submit, keys, rate: float, *, grace_s: float, poisson_seed: int | None = None
) -> PhaseResult:
    """Open loop from the calling thread: ``submit(key)`` returns a Future.

    The completion time is taken in the future's done-callback.  A
    ``submit`` that raises is a failed request; futures still pending
    ``grace_s`` after the last due time count as backlog.
    """
    samples = _schedule(keys, rate, poisson_seed)
    result = PhaseResult(rate, samples)
    futures: list[Future] = []

    def completed(sample: Sample, future: Future) -> None:
        sample.done = clock()
        exc = future.exception()
        if exc is not None:
            sample.error = type(exc).__name__
        else:
            sample.value = future.result()

    for sample in samples:
        now = clock()
        if sample.due > now:
            time.sleep(sample.due - now)
            now = clock()
        sample.sent = now
        sample.lag = now - sample.due
        try:
            future = submit(sample.key)
        except Exception as exc:  # a rejected request is a measured failure
            sample.done = clock()
            sample.error = type(exc).__name__
            continue
        future.add_done_callback(lambda f, s=sample: completed(s, f))
        futures.append(future)
    end = samples[-1].due + grace_s if samples else clock()
    wait(futures, timeout=max(0.0, end - clock()))
    return result


def drive_blocking(
    call, keys, rate: float, *, workers: int, grace_s: float, on_exit=None
) -> PhaseResult:
    """Open loop over ``workers`` threads, each issuing blocking ``call(key)``.

    Requests are evenly spaced.  Workers take them in schedule order; a
    request whose due time has passed is sent as soon as a worker is
    free, and its latency still counts from its due time.  ``lag`` is the
    generator's own lateness: send time minus the later of the due time
    and the moment the worker became free.  Requests not sent by
    ``grace_s`` after the last due time count as backlog.  ``on_exit``
    runs on each worker thread as it ends.
    """
    samples = _schedule(keys, rate, None)
    result = PhaseResult(rate, samples)
    stop_at = (samples[-1].due if samples else clock()) + grace_s
    lock = threading.Lock()
    cursor = iter(samples)

    def worker() -> None:
        try:
            while True:
                free = clock()
                with lock:
                    sample = next(cursor, None)
                if sample is None or free > stop_at:
                    return
                now = clock()
                if sample.due > now + SPIN_S:
                    time.sleep(sample.due - now - SPIN_S)
                while sample.due > now:
                    # Spin out the last SPIN_S so the send is on time; this
                    # worker is the only one holding the interpreter lock
                    # here, since the others are sleeping or blocked in I/O.
                    now = clock()
                sample.sent = now
                sample.lag = now - max(sample.due, free)
                try:
                    sample.value = call(sample.key)
                except Exception as exc:  # typed service errors are failures
                    sample.error = type(exc).__name__
                sample.done = clock()
        finally:
            if on_exit is not None:
                on_exit()

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
        for i in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(1.0, stop_at - clock() + 60.0))
    return result


# -- the rate ladder ------------------------------------------------------------


def max_rps(outcomes) -> float:
    """Highest rate below which every rung (itself included) passed.

    ``outcomes`` is an iterable of ``(rate, passed)`` pairs; ``0.0`` when
    the lowest rung already failed.
    """
    best = 0.0
    for rate, passed in sorted(outcomes):
        if not passed:
            break
        best = rate
    return best
