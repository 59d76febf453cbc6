"""Deterministic fault injection for the simulated cloud.

The noise model (:mod:`repro.cloud.noise`) makes runtimes *vary*; real
clouds also make measurements *fail*: API errors and spot reclaims kill
runs outright, slow nodes stretch them by heavy-tailed factors, and
collection agents lose metric samples.  The paper's protocol (sandbox +
3 probes, P90-of-10) exists precisely because measurements are few and
unreliable, so a faithful reproduction must exercise that failure
surface.  :class:`FaultPlan` supplies it deterministically:

- **transient** — a (workload, VM, repetition) attempt fails with
  :class:`~repro.errors.TransientRunError`; the Data Collector retries
  with backoff until the plan's attempt budget is exhausted, at which
  point the run fails permanently with
  :class:`~repro.errors.ProbeFailedError`;
- **straggle** — the attempt survives but its runtime is inflated by a
  heavy-tailed (Pareto) factor, modeling slow-node placements beyond the
  noise model's mild straggler term;
- **drop** — metric samples vanish from the 5-second telemetry series,
  modeling lost collector datagrams.

**Determinism contract.**  Every decision derives from a CRC-32 hash of
``(workload, vm, repetition, attempt, plan seed)`` — never from shared
RNG state — so outcomes are independent of execution order, worker
count, and whether other cells faulted.  The same plan + seed reproduces
the same retries, straggle factors, and dropped samples for any
worker count.  ``FaultPlan.none()`` (the default everywhere) injects
nothing and leaves every profiling result bit-identical to a fault-free
build.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import TransientRunError, ValidationError

__all__ = ["FaultPlan", "FaultDecision", "FaultEvent", "FAULT_ENV_PREFIX"]

#: Environment-variable prefix for fault-plan configuration.
FAULT_ENV_PREFIX = "REPRO_FAULT_"

#: Telemetry series are never dropped below this many samples — the
#: correlation analysis needs a handful of points to stay defined.
MIN_KEPT_SAMPLES = 4


@dataclass(frozen=True)
class FaultEvent:
    """One observed fault, as recorded in a fault log.

    ``kind`` is one of ``"transient"`` (an attempt failed and was
    retried), ``"permanent"`` (the attempt budget ran out),
    ``"straggle"`` (runtime inflated; ``detail`` is the factor), or
    ``"drop"`` (samples lost; ``detail`` is the count).
    """

    kind: str
    workload: str
    vm_name: str
    repetition: int
    attempt: int
    detail: float = 0.0
    backoff_s: float = 0.0


@dataclass(frozen=True)
class FaultDecision:
    """Outcome of one fault draw for a (workload, VM, repetition, attempt)."""

    transient: bool = False
    straggle_factor: float = 1.0
    drop: bool = False


_CLEAN = FaultDecision()


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, order-independent fault schedule for the simulated cloud.

    Parameters
    ----------
    transient_prob:
        Per-attempt probability that a run fails transiently.
    straggle_prob:
        Per-run probability of a heavy-tailed runtime inflation.
    straggle_scale, straggle_alpha:
        The inflation factor is ``1 + scale * Pareto(alpha)``; alpha 1.5
        gives the heavy tail observed for cloud stragglers.
    drop_prob:
        Per-sample probability that a telemetry row is lost.
    max_attempts:
        Retry budget per (workload, VM, repetition); once exhausted the
        run fails permanently (:class:`~repro.errors.ProbeFailedError`).
    backoff_base_s:
        Real seconds slept before retry ``n`` is ``base * 2**n``; the
        default 0 records the schedule in the fault log without
        sleeping, keeping simulations fast.
    seed:
        Master seed of the plan; every decision hashes it with the
        triple so outcomes are reproducible and order-independent.
    workloads, vms:
        Optional name filters; when set, faults strike only matching
        (workload, VM) pairs.  ``None`` means "all".
    """

    transient_prob: float = 0.0
    straggle_prob: float = 0.0
    straggle_scale: float = 0.5
    straggle_alpha: float = 1.5
    drop_prob: float = 0.0
    max_attempts: int = 3
    backoff_base_s: float = 0.0
    seed: int = 0
    workloads: tuple[str, ...] | None = None
    vms: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("transient_prob", "straggle_prob", "drop_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {p}")
        if self.straggle_scale < 0 or self.straggle_alpha <= 0:
            raise ValidationError("straggle_scale must be >= 0 and straggle_alpha > 0")
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        if self.backoff_base_s < 0:
            raise ValidationError("backoff_base_s must be >= 0")

    # -- construction ------------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """The fault-free plan: injects nothing, everywhere."""
        return cls()

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact CLI spec, e.g. ``"transient=0.2,straggle=0.1,seed=3"``.

        Keys: ``transient``, ``straggle``, ``drop`` (probabilities),
        ``scale``, ``alpha``, ``attempts``, ``backoff``, ``seed``,
        ``workloads``/``vms`` (``;``-separated name lists).
        """
        keymap = {
            "transient": ("transient_prob", float),
            "straggle": ("straggle_prob", float),
            "drop": ("drop_prob", float),
            "scale": ("straggle_scale", float),
            "alpha": ("straggle_alpha", float),
            "attempts": ("max_attempts", int),
            "backoff": ("backoff_base_s", float),
            "seed": ("seed", int),
            "workloads": ("workloads", lambda s: tuple(filter(None, s.split(";")))),
            "vms": ("vms", lambda s: tuple(filter(None, s.split(";")))),
        }
        kwargs: dict = {}
        for item in filter(None, (part.strip() for part in spec.split(","))):
            key, sep, value = item.partition("=")
            if not sep or key.strip() not in keymap:
                raise ValidationError(
                    f"bad fault spec item {item!r}; expected key=value with key "
                    f"in {sorted(keymap)}"
                )
            field_name, conv = keymap[key.strip()]
            try:
                kwargs[field_name] = conv(value.strip())
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad fault spec value in {item!r}: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def from_env(cls, environ: dict[str, str] | None = None) -> "FaultPlan | None":
        """Build a plan from ``REPRO_FAULT_*`` variables; ``None`` if unset.

        Recognised: ``REPRO_FAULT_TRANSIENT``, ``REPRO_FAULT_STRAGGLE``,
        ``REPRO_FAULT_DROP``, ``REPRO_FAULT_SCALE``, ``REPRO_FAULT_ALPHA``,
        ``REPRO_FAULT_ATTEMPTS``, ``REPRO_FAULT_BACKOFF``,
        ``REPRO_FAULT_SEED``, ``REPRO_FAULT_WORKLOADS``, ``REPRO_FAULT_VMS``
        (the last two ``;``-separated) — mirroring :meth:`from_spec` keys.
        """
        environ = os.environ if environ is None else environ
        keys = {
            "TRANSIENT": "transient",
            "STRAGGLE": "straggle",
            "DROP": "drop",
            "SCALE": "scale",
            "ALPHA": "alpha",
            "ATTEMPTS": "attempts",
            "BACKOFF": "backoff",
            "SEED": "seed",
            "WORKLOADS": "workloads",
            "VMS": "vms",
        }
        items = [
            f"{spec_key}={environ[FAULT_ENV_PREFIX + env_key]}"
            for env_key, spec_key in keys.items()
            if environ.get(FAULT_ENV_PREFIX + env_key)
        ]
        if not items:
            return None
        return cls.from_spec(",".join(items))

    def restricted_to(
        self,
        workloads: tuple[str, ...] | None = None,
        vms: tuple[str, ...] | None = None,
    ) -> "FaultPlan":
        """Copy of this plan striking only the given workload/VM names."""
        return replace(self, workloads=workloads, vms=vms)

    # -- interrogation -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether this plan can inject anything at all."""
        return self.transient_prob > 0 or self.straggle_prob > 0 or self.drop_prob > 0

    def applies_to(self, workload: str, vm_name: str) -> bool:
        if self.workloads is not None and workload not in self.workloads:
            return False
        if self.vms is not None and vm_name not in self.vms:
            return False
        return True

    def fingerprint(self) -> str:
        """Digest of the plan for cache addressing (empty when disabled).

        A disabled plan fingerprints to ``""`` so fault-free campaigns
        share cache entries with builds that predate fault injection.
        """
        if not self.enabled:
            return ""
        payload = "|".join(
            (
                repr(self.transient_prob),
                repr(self.straggle_prob),
                repr(self.straggle_scale),
                repr(self.straggle_alpha),
                repr(self.drop_prob),
                str(self.max_attempts),
                str(self.seed),
                ";".join(self.workloads) if self.workloads is not None else "*",
                ";".join(self.vms) if self.vms is not None else "*",
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- decisions ---------------------------------------------------------------
    #
    # All randomness below hashes the full coordinate of the draw
    # (workload, vm, repetition, attempt, salt, plan seed) into a fresh
    # Generator.  zlib.crc32, not hash(): Python string hashing is
    # randomized per process and would break cross-process determinism.

    def _rng(
        self, workload: str, vm_name: str, repetition: int, attempt: int, salt: str
    ) -> np.random.Generator:
        token = f"{salt}|{workload}|{vm_name}|{repetition}|{attempt}"
        return np.random.default_rng((zlib.crc32(token.encode()), self.seed))

    def decide(
        self, workload: str, vm_name: str, repetition: int, attempt: int = 0
    ) -> FaultDecision:
        """The (deterministic) fate of one run attempt."""
        if not self.enabled or not self.applies_to(workload, vm_name):
            return _CLEAN
        rng = self._rng(workload, vm_name, repetition, attempt, "decide")
        if rng.random() < self.transient_prob:
            return FaultDecision(transient=True)
        factor = 1.0
        if rng.random() < self.straggle_prob:
            factor = 1.0 + self.straggle_scale * float(rng.pareto(self.straggle_alpha))
        drop = self.drop_prob > 0 and repetition == 0
        return FaultDecision(straggle_factor=factor, drop=drop)

    def check(
        self, workload: str, vm_name: str, repetition: int, attempt: int = 0
    ) -> FaultDecision:
        """:meth:`decide`, raising :class:`TransientRunError` on failure."""
        decision = self.decide(workload, vm_name, repetition, attempt)
        if decision.transient:
            raise TransientRunError(workload, vm_name, repetition, attempt)
        return decision

    def retry_seed(
        self, workload: str, vm_name: str, repetition: int, attempt: int
    ) -> int:
        """Noise-stream seed for a retried run.

        A retry lands on a fresh placement, so its runtime multiplier must
        not replay the failed attempt's draw; deriving the seed from the
        full coordinate keeps retries bit-reproducible for any worker count.
        """
        token = f"retry|{workload}|{vm_name}|{repetition}|{attempt}|{self.seed}"
        return zlib.crc32(token.encode())

    def backoff_s(self, attempt: int) -> float:
        """Exponential backoff before re-running attempt ``attempt + 1``."""
        return self.backoff_base_s * (2.0**attempt)

    def drop_mask(
        self, n_samples: int, workload: str, vm_name: str, repetition: int
    ) -> np.ndarray:
        """Boolean keep-mask over a telemetry series' rows.

        Each sample survives with probability ``1 - drop_prob``; at least
        :data:`MIN_KEPT_SAMPLES` rows (or all, for shorter series) are
        always kept so downstream correlations stay defined.
        """
        rng = self._rng(workload, vm_name, repetition, 0, "drop")
        keep = rng.random(n_samples) >= self.drop_prob
        floor = min(MIN_KEPT_SAMPLES, n_samples)
        if int(keep.sum()) < floor:
            for i in range(n_samples):
                if not keep[i]:
                    keep[i] = True
                if int(keep.sum()) >= floor:
                    break
        return keep
