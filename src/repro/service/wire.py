"""JSON wire format of the selection service.

One place defines how a :class:`~repro.core.vesta.Recommendation` and a
:class:`~repro.service.scheduler.SelectResponse` serialize, so the HTTP
server, the in-process client, the CLI's ``--json`` output and the CI
payload check all agree byte-for-byte on the fields.

Floats are emitted via :func:`repr`-exact JSON (Python's ``json`` module
round-trips IEEE doubles), so "payload matches ``repro select``" is a
bit-level statement, not an approximate one.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.core.vesta import Recommendation
from repro.errors import DeadlineExceededError, ServiceOverloadedError, ValidationError
from repro.service.scheduler import SelectResponse

__all__ = [
    "canonical_request",
    "recommendation_to_dict",
    "response_to_dict",
    "error_to_dict",
]


def canonical_request(body: dict) -> dict:
    """Canonical form of one ``/select`` request body.

    Two semantically identical requests — same workload, objective,
    selector, whatever the JSON key order or omitted defaults — map to
    the same dict: fields land in a fixed order, ``objective`` defaults
    to ``"time"``, absent optionals stay absent, ``timeout_s`` is
    normalized to a float, and unknown fields are dropped.  This is the
    prerequisite for stable memo-cache identities; the function is
    idempotent, so the server can canonicalize unconditionally.

    Raises :class:`~repro.errors.ValidationError` on a missing/non-string
    workload or a non-numeric timeout.
    """
    if not isinstance(body, dict):
        raise ValidationError("request body must be a JSON object")
    workload = body.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ValidationError('body must be JSON with a "workload" field')
    canonical: dict = {
        "workload": workload,
        "objective": body.get("objective", "time"),
    }
    selector = body.get("selector")
    if selector is not None:
        canonical["selector"] = selector
    timeout_s = body.get("timeout_s")
    if timeout_s is not None:
        try:
            canonical["timeout_s"] = float(timeout_s)
        except (TypeError, ValueError):
            raise ValidationError(
                f"timeout_s must be a number, got {timeout_s!r}"
            ) from None
    return canonical


def recommendation_to_dict(rec: Recommendation) -> dict:
    """JSON-able dict of one recommendation (the ``repro select`` payload)."""
    return {
        "workload": rec.workload,
        "objective": rec.objective,
        "vm_name": rec.vm_name,
        "predicted_runtime_s": rec.predicted_runtime_s,
        "predicted_budget_usd": rec.predicted_budget_usd,
        "reference_vm_count": rec.reference_vm_count,
        "converged": rec.converged,
        "degraded": rec.degraded,
        "failed_probes": list(rec.failed_probes),
        "fault_events": [asdict(e) for e in rec.fault_events],
        "predictions": dict(rec.predictions.items()),
    }


def response_to_dict(response: SelectResponse) -> dict:
    """JSON-able dict of one served selection (the ``/select`` payload).

    The recommendation rides under ``"recommendation"`` exactly as
    :func:`recommendation_to_dict` spells it; serving provenance (model
    version, batch, latency split) is kept apart so payload-equality
    checks against sequential ``repro select`` output compare the
    recommendation subtree only.
    """
    return {
        "recommendation": recommendation_to_dict(response.recommendation),
        "model": {
            "selector": response.selector,
            "fingerprint": response.fingerprint,
            "generation": response.generation,
        },
        "batch": {
            "id": response.batch_id,
            "size": response.batch_size,
            "shard": response.shard,
            "cached": response.cached,
        },
        "latency": {
            "queued_ms": response.queued_ms,
            "service_ms": response.service_ms,
        },
    }


def error_to_dict(exc: BaseException) -> dict:
    """JSON-able error body: typed, so clients can map back to errors.

    Backpressure errors carry their context — queue limit/depth and the
    retry hint for overload, the wait and enforcement stage for missed
    deadlines — so a client can back off intelligently instead of
    treating every rejection as an opaque failure.
    """
    # KeyError subclasses (CatalogError) repr their message; unwrap.
    message = (
        str(exc.args[0])
        if isinstance(exc, KeyError) and exc.args
        else str(exc)
    )
    payload = {"error": type(exc).__name__, "message": message}
    if isinstance(exc, ServiceOverloadedError):
        payload["queue_limit"] = exc.queue_limit
        payload["queue_depth"] = exc.queue_depth
        payload["retry_after_s"] = exc.retry_after_s
    elif isinstance(exc, DeadlineExceededError):
        payload["workload"] = exc.workload
        payload["waited_s"] = exc.waited_s
        payload["stage"] = exc.stage
    return payload
