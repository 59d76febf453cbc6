"""Online serving subsystem: registry, micro-batching scheduler, frontend.

Turns the fitted Vesta knowledge base into a long-lived, concurrently
queried service (the deployment mode Samreen et al. and DV-ARPA frame VM
selection in):

- :mod:`repro.service.registry` — thread-safe named selectors with
  fingerprint-gated atomic hot-reload;
- :mod:`repro.service.scheduler` — bounded admission queue + a single
  worker coalescing concurrent requests into batched online waves,
  bit-identical to sequential serving;
- :mod:`repro.service.shards` / :mod:`repro.service.backend` — the
  sharded tier: K schedulers routed by workload identity, each running
  its waves in its own worker process, which gets the knowledge through
  its pipe;
- :mod:`repro.service.server` / :mod:`repro.service.client` — stdlib
  JSON-over-HTTP frontend (``/select``, ``/healthz``, ``/statsz``) and
  its in-process client;
- :mod:`repro.service.wire` — the shared JSON wire format.

Run one with ``repro serve`` (see the README quickstart).
"""

from repro.service.backend import InlineBackend, ProcessPoolBackend
from repro.service.client import ServiceClient
from repro.service.registry import SelectorHandle, SelectorRegistry
from repro.service.scheduler import MicroBatchScheduler, SelectResponse
from repro.service.server import SelectionService, ServiceHTTPServer, serve
from repro.service.shards import ShardRouter
from repro.service.wire import (
    canonical_request,
    recommendation_to_dict,
    response_to_dict,
)

__all__ = [
    "canonical_request",
    "InlineBackend",
    "MicroBatchScheduler",
    "ProcessPoolBackend",
    "SelectResponse",
    "SelectionService",
    "SelectorHandle",
    "SelectorRegistry",
    "ServiceClient",
    "ServiceHTTPServer",
    "ShardRouter",
    "recommendation_to_dict",
    "response_to_dict",
    "serve",
]
