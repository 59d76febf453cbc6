"""The benchmark's workloads: set-up, traffic, output oracle and metrics.

Every workload first measures the offline and one-shot users (cold and
warm ``VestaSelector(seed=7).fit()``, fresh-process ``repro select``),
then brings its service up ``setup_reps`` times (``setup_s``), then
drives it open-loop at a nominal rate and up a rate ladder.  Every
served answer is compared with sequential ``VestaSelector.select`` under
the knowledge version the response names.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPResponse
from pathlib import Path

import numpy as np

from loadgen import (
    TAIL_WINDOWS,
    PhaseResult,
    drive_async,
    drive_blocking,
    max_rps,
    median,
    request_keys,
    tail,
    windowed_tail,
)
from tracing import Tracer

import repro.core.pipeline as pipeline_module
import repro.core.vesta as vesta_module
from repro.analysis.kmeans import KMeans
from repro.core.artifacts import ArtifactStore
from repro.core.cmf import CMF
from repro.core.graph import KnowledgeGraph
from repro.core.labels import LabelSpace
from repro.core.persistence import (
    archive_knowledge_fingerprint,
    load_selector,
    save_selector,
)
from repro.core.predictor import SimilarityPredictor
from repro.core.vesta import OnlineSession, VestaSelector
from repro.experiments.common import selection_regret
from repro.service import SelectionService, SelectorRegistry, ServiceClient
from repro.service.backend import InlineBackend
from repro.service.wire import recommendation_to_dict
from repro.telemetry.campaign import ProfilingCampaign
from repro.workloads.catalog import all_workloads, get_workload, target_set

clock = time.perf_counter

FIT_SEED = 7
OBJECTIVES = ("time", "budget")
#: Every servable request: the 30 Table-3 workloads x 2 objectives.
KEYS = [(w.name, o) for w in all_workloads() for o in OBJECTIVES]
#: The regret set: the 12 Spark targets x 2 objectives.
SPARK_KEYS = [(w.name, o) for w in target_set() for o in OBJECTIVES]
#: Cold fits (each followed by WARM_PER_COLD warm fits and one CLI select)
#: per round; a run makes one round before serving and one after.
COLD_REPS = 5
WARM_PER_COLD = 2
#: Share of ``--seconds`` spent at the nominal rate; the rest is budgeted for
#: two ladder rungs (a rung that passes is followed by the next one).
NOMINAL_SHARE = 0.75
#: A nominal phase whose generator ran later than a quarter of the latency
#: limit at p99 fell behind its schedule: it is discarded and re-run.
LAG_SHARE = 0.25
LAG_RETRIES = 2
#: Reconciliation tolerance: the median share of a request's latency that
#: the layer spans leave unexplained.
RECONCILE_TOLERANCE = 0.10


@dataclass(frozen=True)
class Traffic:
    """One workload's traffic, as recorded under ``workloads`` in ``baseline.json``.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name: str
    target: str
    http: bool
    #: ``"even"`` (evenly spaced) or ``"poisson"`` (seeded Poisson arrivals,
    #: in-process only: HTTP requests are always evenly spaced).
    arrival: str
    popularity: str
    nominal_rps: float
    rungs_rps: list
    latency_limit_ms: float
    setup_reps: int
    #: ``None`` keeps the shipped default; the HTTP server always does.
    rec_cache_size: int | None


#: Pipeline-stage entry points: (owner, attribute, metric stem).
_STAGE_CALLS = (
    (ProfilingCampaign, "runtime_matrix", "runtime_matrix"),
    (ProfilingCampaign, "collect_grid", "collect_grid"),
    (pipeline_module, "select_by_importance", "select_by_importance"),
    (LabelSpace, "membership_matrix", "membership_matrix"),
    (KMeans, "fit", "kmeans_fit"),
    (CMF, "factor_sources", "factor_sources"),
    (SimilarityPredictor, "__init__", "predictor"),
)

#: Layer entry points timed inside a wave: (owner, attribute, span name).
#: With ``queued_ms`` their spans should explain a request's latency.
_WAVE_CALLS = (
    (ProfilingCampaign, "prefetch", "campaign.prefetch"),
    (vesta_module, "choose_sandbox_vm", "vesta.probe_plan"),
    (vesta_module, "choose_probe_vms", "vesta.probe_plan"),
    (ProfilingCampaign, "collect", "campaign.collect"),
    (ProfilingCampaign, "runtime_only", "campaign.runtime_only"),
    (VestaSelector, "signature_from_profile", "vesta.signature"),
    (LabelSpace, "membership", "labels.membership"),
    (VestaSelector, "complete_rows", "cmf.complete_rows"),
    (SimilarityPredictor, "similarities", "predictor.similarities"),
    (KnowledgeGraph, "add_target_workload", "graph.add_target"),
    (OnlineSession, "recommend", "vesta.recommend"),
)
WAVE_LAYERS = frozenset(name for _, _, name in _WAVE_CALLS)

#: Client-side calls one ``/select`` makes: writing the request, waiting
#: for the status line and headers (the server's time lies inside this
#: wait), reading the body, decoding it.
HTTP_LAYERS = frozenset({"http.send", "http.wait", "http.body", "http.decode"})


class BenchError(Exception):
    """A run that cannot produce a valid result."""


# -- the run --------------------------------------------------------------------


class Run:
    """State and results of one benchmark invocation."""

    def __init__(self, root: Path, traffic: Traffic, seed: int, seconds: float, trace: bool):
        self.root = root
        self.traffic = traffic
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = root / ".perfbench"
        self.work = self.out / "work" / f"{traffic.name}-{seed}-{os.getpid()}"
        self.tmp = self.work / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = str(self.tmp)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONUNBUFFERED="1",
            TMPDIR=str(self.tmp),
        )
        self.metrics: dict[str, tuple[float, str, int, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.fingerprints: set[str] = set()
        self.lines: list[str] = []
        self.oracle = Oracle()
        self.tracer: Tracer | None = None
        self.gc = GcPauses()
        gc.callbacks.append(self.gc)

    def measured(self, phase, rate: float, keys, seed: int) -> PhaseResult:
        """Run one measured phase on a settled heap, noting full collections."""
        settle()
        mark = len(self.gc.pauses_ms)
        result = phase(rate, keys, seed)
        result.gc_pauses_ms = self.gc.pauses_ms[mark:]
        return result

    def metric(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, int(samples), note)

    def say(self, text: str) -> None:
        self.lines.append(text)

    def check(self, phase: PhaseResult, extract) -> int:
        """Compare every completed response with the oracle; returns mismatches."""
        bad = 0
        for sample in phase.samples:
            if sample.error is not None or sample.done is None:
                continue
            fingerprint, rec = extract(sample.value)
            self.fingerprints.add(fingerprint)
            if not self.oracle.matches(fingerprint, sample.key, rec):
                sample.error = "OracleMismatch"
                bad += 1
        self.mismatches += bad
        return bad

    def count(self, phase: PhaseResult) -> None:
        """Add a phase whose every request must succeed to attempted/failed."""
        self.attempted += len(phase.samples)
        self.failed += phase.failed + phase.unfinished

    def cleanup(self) -> None:
        if self.gc in gc.callbacks:
            gc.callbacks.remove(self.gc)
        shutil.rmtree(self.work, ignore_errors=True)


class Oracle:
    """Sequential ``VestaSelector.select`` answers, per knowledge version."""

    def __init__(self) -> None:
        self._archives: dict[str, Path] = {}
        self._selectors: dict[str, VestaSelector] = {}
        self._answers: dict[tuple[str, tuple], bytes] = {}

    def add_archive(self, path: Path) -> str:
        fingerprint = archive_knowledge_fingerprint(path)
        self._archives[fingerprint] = path
        return fingerprint

    def expected(self, fingerprint: str, key) -> bytes | None:
        entry = (fingerprint, tuple(key))
        if entry not in self._answers:
            path = self._archives.get(fingerprint)
            if path is None:
                return None
            sel = self._selectors.get(fingerprint)
            if sel is None:
                sel = self._selectors[fingerprint] = load_selector(path)
            rec = sel.select(get_workload(key[0]), key[1])
            self._answers[entry] = wire_bytes(recommendation_to_dict(rec))
        return self._answers[entry]

    def matches(self, fingerprint: str, key, rec: dict) -> bool:
        expected = self.expected(fingerprint, key)
        return expected is not None and wire_bytes(rec) == expected


def wire_bytes(rec: dict) -> bytes:
    """The recommendation subtree exactly as the server serializes it."""
    return json.dumps(rec).encode()


# -- provenance -----------------------------------------------------------------


def provenance(run: Run) -> dict:
    root = run.root
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == root:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    cpu = "unknown"
    try:
        match = re.search(r"model name\s*:\s*(.+)", Path("/proc/cpuinfo").read_text())
        cpu = match.group(1).strip() if match else cpu
    except OSError:
        pass
    traffic = run.traffic
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": traffic.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "fingerprints": sorted(run.fingerprints),
        "target": traffic.target,
        "arrival": traffic.arrival,
        "popularity": traffic.popularity,
        "ladder_rps": [traffic.nominal_rps, *traffic.rungs_rps],
        "latency_limit_ms": traffic.latency_limit_ms,
    }


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"VmHWM:\s*(\d+)", status).group(1)) / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current resident set."""
    Path("/proc/self/clear_refs").write_text("5")


# -- offline and one-shot users -------------------------------------------------


class ColdStart:
    """The offline and one-shot users, measured in rounds spread over a run.

    Each repetition is a cold ``VestaSelector(seed=7).fit()`` into an
    empty ``ArtifactStore``, ``WARM_PER_COLD`` warm fits against it, and
    one fresh-process ``repro select --archive K.npz <target> --json``.
    The first round also writes the served archive (the same knowledge,
    completing rows by fold-in).
    """

    def __init__(self, run: Run) -> None:
        self.run = run
        self.cold: list[float] = []
        self.warm: list[float] = []
        self.cli: list[float] = []
        self.hits: list[int] = []
        self.fits = []
        self.archive = run.work / "knowledge.npz"
        self.fingerprint: str | None = None
        self.target = target_set()[int(np.random.default_rng(run.seed).integers(12))].name

    def round(self, reps: int) -> None:
        run = self.run
        tracer = run.tracer
        if tracer is not None:
            for owner, attr, stem in _STAGE_CALLS:
                tracer.wrap(owner, attr, f"pipeline.{stem}")
            tracer.wrap(ArtifactStore, "get", "artifacts.get")
            tracer.wrap(ArtifactStore, "put", "artifacts.put")
        try:
            if self.fingerprint is None:
                # One unrecorded fit first: the process's first fit also pays
                # one-time start-up costs that later "cold" fits do not.
                VestaSelector(seed=FIT_SEED).fit()
            for _ in range(reps):
                path = str(run.work / f"store-{len(self.cold)}.sqlite")
                self.cold.append(self._fit(path, "cold"))
                for _ in range(WARM_PER_COLD):
                    self.warm.append(self._fit(path, "warm"))
                if self.fingerprint is None:
                    with ArtifactStore(path) as store:
                        save_selector(
                            VestaSelector(seed=FIT_SEED, store=store, cmf_mode="foldin").fit(),
                            self.archive,
                        )
                    self.fingerprint = run.oracle.add_archive(self.archive)
                self._cli_select()
        finally:
            if tracer is not None:
                tracer.close()

    def _fit(self, path: str, kind: str) -> float:
        """One timed fit against the store at ``path``; returns its seconds.

        The selector is dropped on return, so the next settle collects it.
        """
        tracer = self.run.tracer
        with ArtifactStore(path) as store:
            settle_heap()
            span = tracer.begin(f"fit.{kind}") if tracer else None
            start = clock()
            sel = VestaSelector(seed=FIT_SEED, store=store).fit()
            seconds = clock() - start
            if tracer:
                tracer.end(span)
                self.fits.append(span)
        if kind == "warm":
            self.hits.append(sum(r.action == "store" for r in sel.stage_report.values()))
        return seconds

    def _cli_select(self) -> None:
        run = self.run
        start = clock()
        out = subprocess.run(
            [sys.executable, "-m", "repro", "select", "--archive", str(self.archive),
             self.target, "--json"],
            capture_output=True, text=True, env=run.env, cwd=run.root, timeout=120,
        )
        self.cli.append(clock() - start)
        run.attempted += 1
        if out.returncode != 0:
            run.failed += 1
            run.say(f"cli select failed: {out.stderr.strip()[-200:]}")
        elif not run.oracle.matches(self.fingerprint, (self.target, "time"), json.loads(out.stdout)):
            run.failed += 1
            run.mismatches += 1

    def report(self) -> None:
        run = self.run
        for name, values, note in (
            ("fit_cold_s", self.cold, ""),
            ("fit_warm_s", self.warm, ""),
            ("cli_select_s", self.cli, f"target {self.target}, "),
        ):
            run.metric(name, median(values), "s", len(values),
                       f"{note}median of {' '.join(f'{v:.3f}' for v in values)}")
        if run.tracer is not None:
            self._layers()

    def _layers(self) -> None:
        run, tracer = self.run, self.run.tracer

        def within(fit, name):
            return sum(
                s.ms for s in tracer.named(name)
                if s.start >= fit.start and s.end <= fit.end and s.thread == fit.thread
            )

        cold = [f for f in self.fits if f.name == "fit.cold"]
        warm = [f for f in self.fits if f.name == "fit.warm"]
        for _, _, stem in _STAGE_CALLS:
            values = [within(f, f"pipeline.{stem}") for f in cold]
            run.metric(f"pipeline.{stem}_ms", median(values), "ms", len(values), "per cold fit")
        run.metric("pipeline.store_hits", median(self.hits), "count", len(self.hits),
                   "per warm fit")
        gets = [within(f, "artifacts.get") for f in warm]
        puts = [within(f, "artifacts.put") for f in cold]
        run.metric("artifacts.get_ms", median(gets), "ms", len(gets), "per warm fit")
        run.metric("artifacts.put_ms", median(puts), "ms", len(puts), "per cold fit")
        imports = []
        for _ in range(COLD_REPS):
            out = subprocess.run(
                [sys.executable, "-c",
                 "import time; t = time.perf_counter(); import repro.cli; "
                 "print(time.perf_counter() - t)"],
                capture_output=True, text=True, env=run.env, cwd=run.root, timeout=60,
            )
            imports.append(float(out.stdout.strip()))
        run.metric("cli.import_s", median(imports), "s", len(imports))
        run.metric("cli.select_s", median(self.cli), "s", len(self.cli), "fresh process")
        run.metric("pipeline.fit_cold_s", median(self.cold), "s", len(self.cold), "empty store")
        run.metric("pipeline.fit_warm_s", median(self.warm), "s", len(self.warm), "warm store")


# -- phases ---------------------------------------------------------------------


def ladder_phases(run: Run, phase, extract) -> list[PhaseResult]:
    """The nominal phase, then rungs upward until one fails."""
    traffic = run.traffic
    nominal_s = max(2.0, NOMINAL_SHARE * run.seconds)
    rung_s = max(1.5, (1.0 - NOMINAL_SHARE) * run.seconds / 2)
    results = [nominal_phase(run, phase, extract, nominal_s)]
    for i, rate in enumerate(traffic.rungs_rps):
        seed = run.seed * 1009 + i + 1
        keys = request_keys(seed, int(rate * rung_s), KEYS, popularity=traffic.popularity)
        rung = run.measured(phase, rate, keys, seed)
        run.failed += run.check(rung, extract)
        results.append(rung)
        run.say(_rung_line(rung, traffic.latency_limit_ms))
        if not rung.passes(traffic.latency_limit_ms):
            break
    return results


class GcPauses:
    """Full (generation 2) collections observed while phases run."""

    def __init__(self) -> None:
        self.pauses_ms: list[float] = []
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._start = clock()
        else:
            self.pauses_ms.append((clock() - self._start) * 1e3)


def settle_heap() -> None:
    """Collect earlier garbage and freeze survivors out of later collections.

    Without this a full collection over the benchmark's own heap (fits,
    oracle, earlier phases) lands inside a measured operation as a pause
    of up to ~150 ms that belongs to the benchmark, not to the program.
    Unfreezing first lets what an earlier call froze be collected once it
    is garbage (a selector is a reference cycle) instead of staying
    resident for the rest of the run.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def settle() -> None:
    """Let the previous phase's stragglers finish, then settle the heap."""
    time.sleep(0.1)
    settle_heap()


def nominal_phase(run: Run, phase, extract, seconds: float) -> PhaseResult:
    """One valid nominal-rate phase: re-run while the generator fell behind."""
    traffic = run.traffic
    for _ in range(1 + LAG_RETRIES):
        keys = request_keys(
            run.seed, int(traffic.nominal_rps * seconds), KEYS,
            popularity=traffic.popularity,
        )
        result = run.measured(phase, traffic.nominal_rps, keys, run.seed)
        run.check(result, extract)
        lag = result.lag_p99_ms()
        if lag <= LAG_SHARE * traffic.latency_limit_ms:
            run.count(result)
            run.say(_rung_line(result, traffic.latency_limit_ms) + " (nominal)")
            return result
        run.say(f"nominal phase discarded: generator lag p99 {lag:.1f} ms")
    raise BenchError(f"generator fell behind at the nominal rate (lag p99 {lag:.1f} ms)")


def _rung_line(result: PhaseResult, limit_ms: float) -> str:
    lat = result.latencies_ms()
    p99, q = tail(lat)
    windowed, wq = windowed_tail(lat)
    return (
        f"  rung {result.rate:g} rps: n={len(result.samples)} ok={len(lat)} "
        f"failed={result.failed} backlog={result.unfinished} "
        f"p50={median(lat):.3f} ms p{q * 100:.4g}={p99:.3f} ms "
        f"windowed p{wq * 100:.4g}={windowed:.3f} ms "
        f"{'pass' if result.passes(limit_ms) else 'FAIL'} (limit {limit_ms:g} ms) "
        f"full-gc={len(result.gc_pauses_ms)} ({sum(result.gc_pauses_ms):.1f} ms)"
    )


def report_serving(run: Run, results: list[PhaseResult]) -> None:
    limit = run.traffic.latency_limit_ms
    nominal = results[0]
    lat = nominal.latencies_ms()
    p99, q = windowed_tail(lat)
    run.metric("p50_ms", median(lat), "ms", len(lat), f"at {nominal.rate:g} rps")
    run.metric("p99_ms", p99, "ms", len(lat),
               f"median of {TAIL_WINDOWS} windows' p{q * 100:.4g} at {nominal.rate:g} rps")
    run.metric(
        "max_rps", max_rps((r.rate, r.passes(limit)) for r in results), "1/s", len(results),
        f"rungs run: {', '.join(f'{r.rate:g}' for r in results)}",
    )
    fail_frac = (nominal.failed + nominal.unfinished) / max(1, len(nominal.samples))
    run.say(f"fail_frac = {fail_frac:.6f} ({nominal.failed + nominal.unfinished}"
            f"/{len(nominal.samples)} at {nominal.rate:g} rps)")


def report_regret(run: Run, picks: dict) -> None:
    """Mean ground-truth regret of the served picks for the Spark targets."""
    values = [
        selection_regret(get_workload(w), picks[(w, o)], o) for w, o in SPARK_KEYS
    ]
    run.metric("regret_pct", float(np.mean(values)), "%", len(values))


def _reconcile(run: Run, residuals: list[float], consistent: bool, note: str) -> None:
    residual = median(residuals) if residuals else 1.0
    run.metric("reconcile.residual_frac", residual, "frac", len(residuals), note)
    run.metric("reconcile.pass", float(consistent and residual <= RECONCILE_TOLERANCE),
               "bool", len(residuals))


# -- http_repeat ----------------------------------------------------------------


class Server:
    """A ``repro serve --archive ... --port 0`` subprocess."""

    def __init__(self, run: Run, archive: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--archive", str(archive), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=run.env, cwd=run.root,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        deadline = clock() + 120.0
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - clock()))
            except queue.Empty:
                self.stop()
                raise BenchError("repro serve did not report its address") from None
            if line is None:
                self.stop()
                raise BenchError("repro serve exited before serving")
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self._reader.join(timeout=15)
        self.proc.stdout.close()


def fresh_select(server: Server, key) -> dict:
    """One ``/select`` on its own connection.

    Warm-up sends its requests back to back; on a reused connection each
    would wait out the client's delayed ACK (see the README), which is
    what the rate ladder measures, not set-up.
    """
    client = ServiceClient(server.host, server.port)
    try:
        return client.select(*key)
    finally:
        client.close()


def _http_extract(value: dict):
    return value["model"]["fingerprint"], value["recommendation"]


def http_repeat(run: Run, archive: Path) -> None:
    traffic = run.traffic
    setups = []
    server = None
    try:
        for _ in range(traffic.setup_reps):
            if server is not None:
                server.stop()
            start = clock()
            server = Server(run, archive)
            warm = drive_blocking(
                lambda key: fresh_select(server, key), KEYS, 1e6,
                workers=2, grace_s=120.0,
            )
            setups.append(clock() - start)
            run.check(warm, _http_extract)
            run.count(warm)
        run.metric("setup_s", median(setups), "s", len(setups), "serve start + memo warm-up")
        picks = {s.key: s.value["recommendation"]["vm_name"] for s in warm.ok}
        client = ServiceClient(server.host, server.port)

        def phase(rate, keys, _seed):
            return drive_blocking(
                lambda key: client.select(*key), keys, rate,
                workers=2, grace_s=traffic.latency_limit_ms / 1e3, on_exit=client.close,
            )

        if run.trace:
            http_layers(run, phase, client)
        else:
            results = ladder_phases(run, phase, _http_extract)
            run.metric("peak_rss_mb", peak_rss_mb(server.proc.pid), "MiB", 1, "server process")
            report_serving(run, results)
            report_regret(run, picks)
    finally:
        if server is not None:
            server.stop()


def _wrap_client(tracer: Tracer) -> None:
    tracer.wrap(
        ServiceClient, "select", "http.client",
        after=lambda span, result: setattr(span, "info", dict(result["latency"])),
    )
    tracer.wrap(HTTPConnection, "request", "http.send")
    tracer.wrap(HTTPConnection, "getresponse", "http.wait")
    tracer.wrap(HTTPResponse, "read", "http.body")
    tracer.wrap(json, "loads", "http.decode")


def http_layers(run: Run, phase, client: ServiceClient) -> None:
    """Traced http_repeat: each ``/select`` split at the client's socket calls.

    The server reports its own time (``queued_ms`` + ``service_ms``); the
    client's spans time the request write, the wait for the response
    head, the body read and the decode.  The server's time must fit in
    the wait, and the client's spans must cover the client's latency.
    """
    half = max(2.0, run.seconds / 2)
    plain = nominal_phase(run, phase, _http_extract, half)
    before = _sched_stats(client.statsz())
    tracer = run.tracer
    _wrap_client(tracer)
    try:
        traced = nominal_phase(run, phase, _http_extract, half)
    finally:
        tracer.close()
    after = _sched_stats(client.statsz())
    first_ns = int(traced.samples[0].due * 1e9)
    calls = [s for s in tracer.named("http.client") if s.start >= first_ns and s.info]
    children = tracer.children()
    overhead, frontend, body, queued, residuals = [], [], [], [], []
    outside = 0
    for call in calls:
        served = call.info["queued_ms"] + call.info["service_ms"]
        parts = dict.fromkeys(HTTP_LAYERS, 0.0)
        for child in children.get(id(call), ()):
            if child.name in parts:
                parts[child.name] += child.ms
        overhead.append(call.ms - served)
        frontend.append(parts["http.wait"] - served)
        body.append(parts["http.body"])
        queued.append(call.info["queued_ms"])
        residuals.append(abs(call.ms - tracer.covered_ms(call, HTTP_LAYERS, children)) / call.ms)
        outside += served > parts["http.wait"]
    n = len(calls)
    run.metric("http.overhead_ms.p50", median(overhead), "ms", n)
    run.metric("http.overhead_ms.p99", tail(overhead)[0], "ms", n)
    run.metric("http.overhead_share", median(overhead) / traced.p50_ms(), "frac", n, "of p50_ms")
    run.metric("http.frontend_ms.p50", median(frontend), "ms", n,
               "wait for the response head minus server time")
    run.metric("http.body_ms.p50", median(body), "ms", n, "body read after the head")
    run.metric("http.resp_bytes", median([len(json.dumps(s.value)) for s in traced.ok]), "B",
               len(traced.ok))
    run.metric("scheduler.queued_ms.p50", median(queued), "ms", n)
    run.metric("scheduler.queued_ms.p99", tail(queued)[0], "ms", n)
    _sched_layers(run, before, after)
    _reconcile(run, residuals, outside == 0,
               "|client - (send + wait + body + decode)| / client, median")
    run.say(f"reconcile: {outside}/{n} responses report more server time "
            "than the client waited for the response head")
    _trace_common(run, plain, traced)


# -- in-process workloads -------------------------------------------------------


def _inproc_extract(value):
    return value.fingerprint, recommendation_to_dict(value.recommendation)


def inprocess(run: Run, archive: Path) -> None:
    traffic = run.traffic
    setups = []
    service = None
    if run.tracer is not None:
        # The registry -> persistence layer is exercised by set-up: each
        # bring-up loads the archive through SelectorRegistry.reload.
        run.tracer.wrap(
            SelectorRegistry, "reload", "registry.reload",
            after=lambda span, result: setattr(span, "info", {"swapped": result[1]}),
        )
    try:
        # peak_rss_mb covers the service from here on, not the fits before.
        settle_heap()
        reset_peak_rss()
        for _ in range(traffic.setup_reps):
            if service is not None:
                service.close()
            start = clock()
            registry = SelectorRegistry()
            registry.reload("default", archive)
            service = SelectionService(registry, rec_cache_size=traffic.rec_cache_size)
            scheduler = service.scheduler()
            submit = lambda key: scheduler.submit(key[0], key[1])  # noqa: E731
            warm = drive_async(submit, KEYS, 1e6, grace_s=120.0)
            setups.append(clock() - start)
            run.check(warm, _inproc_extract)
            run.count(warm)
        if run.tracer is not None:
            run.tracer.close()
        run.metric("setup_s", median(setups), "s", len(setups), "load + service + warm-up")
        picks = {s.key: s.value.recommendation.vm_name for s in warm.ok}
        poisson = traffic.arrival == "poisson"

        def phase(rate, keys, seed):
            return drive_async(submit, keys, rate, grace_s=traffic.latency_limit_ms / 1e3,
                               poisson_seed=seed if poisson else None)

        if run.trace:
            inproc_layers(run, phase, scheduler)
        else:
            results = ladder_phases(run, phase, _inproc_extract)
            run.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1,
                       "benchmark process from set-up on")
            report_serving(run, results)
            report_regret(run, picks)
    finally:
        if run.tracer is not None:
            run.tracer.close()
        if service is not None:
            service.close()


def _sched_stats(stats: dict) -> dict:
    """The scheduler block of a SelectionService ``stats()``/``/statsz``."""
    if "schedulers" in stats:
        stats = stats["schedulers"]["default"]
    cache = stats.get("rec_cache") or {}
    return {
        "rejected": stats["rejected"],
        "shed": stats["shed"],
        "expired": stats["expired"],
        "failed": stats["failed"],
        "hist": {int(k): v for k, v in stats["batch_size_histogram"].items()},
        "hits": cache.get("hits", 0),
        "misses": cache.get("misses", 0),
    }


def _sched_layers(run: Run, before: dict, after: dict) -> None:
    for name in ("rejected", "shed", "expired", "failed"):
        run.metric(f"scheduler.{name}", after[name] - before[name], "count", 1)
    waves = {k: after["hist"].get(k, 0) - before["hist"].get(k, 0) for k in after["hist"]}
    total = sum(waves.values())
    mean = sum(k * v for k, v in waves.items()) / total if total else 0.0
    run.metric("scheduler.batch_mean", mean, "count", total, "requests per wave")
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    run.metric("scheduler.memo_hit_frac", hits / lookups if lookups else 0.0, "frac", lookups)


def _foldin_counts(selector) -> dict:
    stats = selector.foldin_cache_stats() or {}
    return {"hits": stats.get("hits", 0), "misses": stats.get("misses", 0)}


def _campaign_counts(campaign) -> dict:
    c = campaign.counters
    return {"scheduled": c.scheduled, "computed": c.computed, "hits": c.cache_hits}


def _wrap_serving(tracer: Tracer) -> None:
    tracer.wrap(InlineBackend, "run", "backend.run")
    tracer.wrap(
        VestaSelector, "online_many", "vesta.online_many",
        after=lambda span, result: setattr(span, "info", {"size": len(result)}),
    )
    probes = {"campaign.prefetch": _campaign_counts, "cmf.complete_rows": _foldin_counts}
    for owner, attr, name in _WAVE_CALLS:
        tracer.wrap(owner, attr, name, probe=probes.get(name))


def inproc_layers(run: Run, phase, scheduler) -> None:
    """Traced in-process run: spans around each layer's entry points."""
    half = max(2.0, run.seconds / 2)
    plain = nominal_phase(run, phase, _inproc_extract, half)
    tracer = run.tracer
    before = _sched_stats(scheduler.stats())
    _wrap_serving(tracer)
    try:
        traced = nominal_phase(run, phase, _inproc_extract, half)
    finally:
        tracer.close()
    after = _sched_stats(scheduler.stats())
    _sched_layers(run, before, after)

    def p50(name):
        spans = tracer.named(name)
        return median([s.ms for s in spans]) if spans else 0.0, len(spans)

    for metric, name in (
        ("vesta.wave_ms.p50", "vesta.online_many"),
        ("vesta.recommend_ms.p50", "vesta.recommend"),
        ("cmf.complete_rows_ms.p50", "cmf.complete_rows"),
        ("graph.add_target_ms.p50", "graph.add_target"),
        ("campaign.prefetch_ms.p50", "campaign.prefetch"),
        ("registry.reload_ms.p50", "registry.reload"),
    ):
        value, n = p50(name)
        run.metric(metric, value, "ms", n)
    self_ms = tracer.self_ms().get("vesta.online_many", [])
    run.metric("vesta.wave_self_ms.p50", median(self_ms) if self_ms else 0.0, "ms",
               len(self_ms), "online_many outside its layer spans: unattributed")
    waves = tracer.named("vesta.online_many")
    run.metric("vesta.wave_size", float(np.mean([s.info["size"] for s in waves])) if waves else 0.0,
               "count", len(waves))
    folds = [s.info for s in tracer.named("cmf.complete_rows")]
    hits = sum(f["hits"] for f in folds)
    lookups = hits + sum(f["misses"] for f in folds)
    run.metric("cmf.foldin_op_hit_frac", hits / lookups if lookups else 0.0, "frac", lookups)
    pre = [s.info for s in tracer.named("campaign.prefetch")]
    scheduled = sum(p["scheduled"] for p in pre)
    run.metric("campaign.cells_computed", sum(p["computed"] for p in pre), "count", len(pre))
    run.metric("campaign.hit_frac", sum(p["hits"] for p in pre) / scheduled if scheduled else 0.0,
               "frac", scheduled)
    reloads = tracer.named("registry.reload")
    run.metric("registry.swaps", sum(bool(s.info["swapped"]) for s in reloads), "count", len(reloads))

    queued = [s.value.queued_ms for s in traced.ok]
    run.metric("scheduler.queued_ms.p50", median(queued), "ms", len(queued))
    run.metric("scheduler.queued_ms.p99", tail(queued)[0], "ms", len(queued))
    _reconcile_waves(run, traced)
    _trace_common(run, plain, traced)


def _reconcile_waves(run: Run, traced: PhaseResult) -> None:
    """Request latency against ``queued_ms`` plus the layer spans of its wave.

    Waves run one at a time on the scheduler's worker thread and complete
    their futures right after they end, so the wave serving a request is
    the last ``backend.run`` span that ended before the request completed.
    A request is explained by its ``queued_ms`` and the time the wave's
    ``WAVE_LAYERS`` spans cover; the rest (``online_many``'s own code
    between those calls, the backend and scheduler around the wave, the
    future's completion) is the residual.
    """
    tracer = run.tracer
    waves = sorted(tracer.named("backend.run"), key=lambda s: s.end)
    ends = [s.end for s in waves]
    children = tracer.children()
    layers = {id(w): tracer.covered_ms(w, WAVE_LAYERS, children) for w in waves}
    residuals = []
    for s in traced.ok:
        done_ns = int(s.done * 1e9)
        wave = waves[bisect_right(ends, done_ns) - 1]
        explained = s.value.queued_ms + layers[id(wave)]
        request = tracer.add("request", int(s.sent * 1e9), done_ns, rid=s.index)
        request.info = {"queued_ms": s.value.queued_ms, "wave_ms": wave.ms,
                        "layers_ms": layers[id(wave)]}
        wave.info = wave.info or {"rids": []}
        wave.info["rids"].append(s.index)
        e2e = (s.done - s.sent) * 1e3
        residuals.append(abs(e2e - explained) / e2e)
    _reconcile(run, residuals, True, "|e2e - (queued_ms + wave layer spans)| / e2e, median")


def _trace_common(run: Run, plain: PhaseResult, traced: PhaseResult) -> None:
    run.metric("loadgen.lag_p99_ms", traced.lag_p99_ms(), "ms", len(traced.samples))
    run.metric("loadgen.sent", len(traced.samples), "count", 1)
    base = plain.p50_ms()
    run.metric("trace.overhead_frac", (traced.p50_ms() - base) / base, "frac",
               len(traced.samples), "traced vs untraced p50")
    clean = all(s.error is None for s in plain.samples + traced.samples)
    run.metric("trace.bytes_identical", float(clean), "bool",
               len(plain.samples) + len(traced.samples), "both phases equal the oracle")


# -- entry ----------------------------------------------------------------------


def execute(run: Run) -> dict:
    """Run the workload; returns the provenance record."""
    if run.trace:
        run.tracer = Tracer()
    cold = ColdStart(run)
    cold.round(COLD_REPS)
    if run.traffic.http:
        http_repeat(run, cold.archive)
    else:
        inprocess(run, cold.archive)
    cold.round(COLD_REPS)
    cold.report()
    prov = provenance(run)
    if run.trace:
        path = run.out / "traces" / f"{run.traffic.name}-seed{run.seed}.json"
        run.tracer.dump(path, prov)
        run.say(f"spans written to {path.relative_to(run.root)}")
    return prov
