"""Backpressure-aware HTTP frontend for the selection service.

Stdlib only: a :class:`~http.server.ThreadingHTTPServer` whose handler
threads do no selection work themselves — they validate, enqueue into
the micro-batching scheduler, and block on the response future.  All
model compute happens on the scheduler's single worker thread, so
client concurrency at the HTTP layer translates into coalesced batches
(the requests that queue while one wave runs form the next), never into
concurrent selector access.

Endpoints
---------
``POST /select``
    Body ``{"workload": ..., "objective": "time"|"budget",``
    ``"selector": ..., "timeout_s": ...}`` (only ``workload``
    required).  200 with the :mod:`~repro.service.wire` response
    payload; 400 bad input, 404 unknown selector/workload, 413 body
    over :data:`MAX_BODY_BYTES`, 429
    overloaded (queue full after load-shedding — the response carries a
    ``Retry-After`` header and queue context in the body, derived from
    the scheduler's observed batch service time), 504 deadline
    exceeded.  A ``Content-Length`` that is not a decimal integer (400)
    or is over the limit (413) is answered without reading the body,
    and the connection is closed.
``GET /healthz``
    200 ``{"status": "ok", "selectors": {...}}`` once at least one
    selector is registered, 503 before.
``GET /statsz``
    Queue depth, batch-size histogram, p50/p99 service latency per
    scheduler (see :meth:`MicroBatchScheduler.stats`).
``HEAD``
    Answers any path as ``GET`` would, with the same status and
    ``Content-Length`` and no body (RFC 9110 §9.3.2), so a load
    balancer can probe ``/healthz`` cheaply.

Every error reply carries the typed JSON body of
:func:`~repro.service.wire.error_to_dict`, including the ones the stdlib
generates itself (501 for an unsupported method, 414 for an over-long
request line, 400 for a malformed one, 431 for bad headers); those close
the connection.

Write path
----------
Each reply leaves in one ``send``: the handler's ``wfile`` is buffered
(``wbufsize = -1``), ``_reply`` fills it with the status line, headers
and body, and ``handle_one_request`` flushes it once per request.  The
socket also runs with Nagle off (``TCP_NODELAY``), so a reply larger
than the 8 KiB buffer, which still leaves in two sends, has its second
one sent at once.  Both are needed on a keep-alive connection: with
Nagle on, a segment written while an earlier one is unacknowledged
waits for the client's delayed ACK, about 40 ms, so the headers-then-
body writes of an unbuffered handler capped one connection at about 23
requests per second however fast the answer was.  Buffering has one
trap: the interim ``100 Continue`` that answers ``Expect: 100-continue``
would sit in the buffer while the handler blocks reading a body the
client sends only after seeing it, so ``handle_expect_100`` flushes it.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (
    CatalogError,
    DeadlineExceededError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.service.backend import InlineBackend
from repro.service.learning import LearningLoop, SessionJournal
from repro.service.registry import SelectorRegistry
from repro.service.scheduler import MicroBatchScheduler, SelectResponse
from repro.service.shards import ShardRouter
from repro.service.wire import canonical_request, error_to_dict, response_to_dict
from repro.telemetry.store import MetricsStore

__all__ = ["SelectionService", "ServiceHTTPServer", "serve"]


class SelectionService:
    """Registry + one scheduler (or shard router) per served selector.

    The composition root of the serving subsystem: owns scheduler
    lifecycle (created lazily per registered name, torn down on
    :meth:`close`) and translates requests into scheduler submissions.
    A request that names no selector is served by ``"default"``, the
    name the learning loop grows.  With ``shards > 1`` each name is
    served by a :class:`~repro.service.shards.ShardRouter`, whose shards
    run their waves in ``spawn`` worker processes, instead of a single
    :class:`MicroBatchScheduler`; the two expose the same surface, so
    nothing downstream changes (``queue_limit`` etc. become per-shard).
    A script that builds one with ``shards > 1`` must guard its entry
    point with ``if __name__ == "__main__":``, since each spawned worker
    re-imports the script's main module.
    """

    def __init__(
        self,
        registry: SelectorRegistry,
        *,
        max_batch: int = 16,
        queue_limit: int = 128,
        shards: int = 1,
        rec_cache_size: int = 512,
        learn: bool = False,
        learn_store: MetricsStore | str | None = None,
        learn_interval_s: float = 5.0,
    ) -> None:
        if shards < 1:
            raise ValidationError(f"shards must be >= 1, got {shards}")
        if learn and shards > 1:
            # Shard sessions live (and die) in their worker processes;
            # nothing journallable ever crosses back, so learning over
            # shards would silently learn nothing.  Refuse loudly.
            raise ValidationError(
                "learning requires a single scheduler (shards=1): sharded "
                "sessions run in worker processes and cannot be journalled"
            )
        self.registry = registry
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.shards = shards
        self.rec_cache_size = rec_cache_size
        self._lock = threading.Lock()
        self._schedulers: dict[str, MicroBatchScheduler | ShardRouter] = {}
        self._closed = False
        # With learning off no journal hook exists and serving is
        # byte-identical to a learning-free build.
        self.learn = bool(learn)
        self._journal: SessionJournal | None = None
        self._learning: LearningLoop | None = None
        self._owned_store: MetricsStore | None = None
        if self.learn:
            if learn_store is None or isinstance(learn_store, str):
                store = MetricsStore(learn_store or ":memory:")
                self._owned_store = store
            else:
                store = learn_store
            self._journal = SessionJournal(store)
            self._learning = LearningLoop(
                registry, self._journal, interval_s=learn_interval_s
            )

    def _build(self, name: str) -> MicroBatchScheduler | ShardRouter:
        if self.shards == 1:
            return MicroBatchScheduler(
                self.registry,
                name,
                max_batch=self.max_batch,
                queue_limit=self.queue_limit,
                backend=InlineBackend(journal=self._journal),
                rec_cache_size=self.rec_cache_size,
            )
        return ShardRouter(
            self.registry,
            name,
            shards=self.shards,
            max_batch=self.max_batch,
            queue_limit=self.queue_limit,
            rec_cache_size=self.rec_cache_size,
        )

    def scheduler(self, name: str | None = None) -> MicroBatchScheduler | ShardRouter:
        """The scheduler serving ``name`` (created on first use)."""
        name = name or "default"
        self.registry.get(name)  # unknown selector fails before a scheduler exists
        with self._lock:
            if self._closed:
                raise ServiceError("selection service is shut down")
            sched = self._schedulers.get(name)
            if sched is None:
                sched = self._build(name)
                self._schedulers[name] = sched
            return sched

    def select(
        self,
        workload: str,
        objective: str = "time",
        *,
        selector: str | None = None,
        timeout_s: float | None = None,
    ) -> SelectResponse:
        """Serve one selection through the named scheduler (blocking)."""
        return self.scheduler(selector).select(
            workload, objective, timeout_s=timeout_s
        )

    def health(self) -> dict:
        selectors = self.registry.describe()
        return {
            "status": "ok" if selectors else "empty",
            "selectors": selectors,
        }

    def stats(self) -> dict:
        with self._lock:
            schedulers = dict(self._schedulers)
        described = self.registry.describe()
        return {
            "selectors": self.registry.names(),
            "catalogs": {
                name: {
                    "catalog": info["catalog"],
                    "catalog_fingerprint": info["catalog_fingerprint"],
                }
                for name, info in described.items()
            },
            "schedulers": {name: s.stats() for name, s in schedulers.items()},
            # Counters of the one journal and promoter: learning runs
            # only on an unsharded scheduler.
            "learning": (
                self._learning.stats()
                if self._learning is not None
                else {"enabled": False}
            ),
        }

    def close(self) -> None:
        with self._lock:
            self._closed = True
            schedulers = list(self._schedulers.values())
            self._schedulers.clear()
        for sched in schedulers:
            sched.close()
        if self._learning is not None:
            self._learning.close()
        if self._owned_store is not None:
            self._owned_store.close()

    def __enter__(self) -> "SelectionService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: Largest request body ``POST`` accepts, in bytes.  A ``/select`` body
#: is a few hundred bytes; anything larger is answered 413 unread.
MAX_BODY_BYTES = 64 * 1024

#: HTTP status per error type; anything else is a 500.
_STATUS = (
    (ServiceOverloadedError, 429),
    (DeadlineExceededError, 504),
    (CatalogError, 404),
    (ValidationError, 400),
    (ServiceError, 500),
    (ReproError, 500),
)


def _status_for(exc: BaseException) -> int:
    for etype, status in _STATUS:
        if isinstance(exc, etype):
            return status
    return 500


class _Handler(BaseHTTPRequestHandler):
    server: "ServiceHTTPServer"

    #: Pin the protocol so clients may reuse connections.
    protocol_version = "HTTP/1.1"
    #: Buffer ``wfile`` so a reply leaves in one send (module docstring).
    wbufsize = -1
    #: ``TCP_NODELAY``: a reply over the buffer is never held for an ACK.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    # -- plumbing ---------------------------------------------------------------

    def _reply(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        """Send one JSON reply; a ``HEAD`` request gets the head alone."""
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _fail(self, status: int, exc: BaseException) -> None:
        headers = None
        if isinstance(exc, ServiceOverloadedError) and exc.retry_after_s > 0:
            # Retry-After is delta-seconds (integer) per RFC 9110; the
            # JSON body carries the precise float for smarter clients.
            headers = {"Retry-After": str(max(1, math.ceil(exc.retry_after_s)))}
        self._reply(status, error_to_dict(exc), headers)

    def handle_expect_100(self) -> bool:
        # The stdlib writes the interim reply into the buffered wfile;
        # the client sends the body only once it has seen it.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Answer a request the stdlib rejects with a typed JSON error.

        Same status and ``Connection: close`` as the stdlib's HTML page,
        and the same body rule: none for ``HEAD``; an HTTP/0.9 request
        gets the body without a head (``send_response`` writes none).
        """
        if message is None:
            message = self.responses.get(code, ("???",))[0]
        self.log_error("code %d, message %s", code, message)
        self._reply(
            code, error_to_dict(ServiceError(message)), {"Connection": "close"}
        )

    # -- endpoints ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        service = self.server.service
        if self.path == "/healthz":
            health = service.health()
            self._reply(200 if health["status"] == "ok" else 503, health)
        elif self.path == "/statsz":
            self._reply(200, service.stats())
        else:
            self._fail(404, ServiceError(f"unknown path {self.path!r}"))

    def do_HEAD(self) -> None:  # noqa: N802 (http.server API)
        """``GET``'s reply without the body (``_reply`` leaves it out)."""
        self.do_GET()

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        declared = self.headers.get("Content-Length", "0").strip()
        # RFC 9110: 1*DIGIT.  int() alone would also take "-1" (a read
        # that blocks until the client hangs up), "+1" and "1_0".
        length = int(declared) if declared.isascii() and declared.isdigit() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request: close it after the reply.
            if length < 0:
                status, message = 400, f"invalid Content-Length {declared!r}"
            else:
                status, message = 413, (
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                )
            self._reply(
                status, error_to_dict(ValidationError(message)), {"Connection": "close"}
            )
            return
        # Always drain the body: replying without reading it desyncs the
        # keep-alive stream (the leftover bytes parse as the next request).
        raw = self.rfile.read(length) if length else b""
        if self.path != "/select":
            self._fail(404, ServiceError(f"unknown path {self.path!r}"))
            return
        try:
            request = json.loads(raw or b"{}")
            # Canonicalize before serving: key order, omitted defaults
            # and timeout spelling never produce distinct requests.
            request = canonical_request(request)
            response = self.server.service.select(
                request["workload"],
                request["objective"],
                selector=request.get("selector"),
                timeout_s=request.get("timeout_s"),
            )
        except json.JSONDecodeError as exc:
            self._fail(400, ValidationError(f"invalid JSON body: {exc}"))
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ReproError):
                self._fail(_status_for(exc), exc)
            else:
                self._fail(400, ValidationError(str(exc)))
        except ReproError as exc:
            self._fail(_status_for(exc), exc)
        else:
            self._reply(200, response_to_dict(response))


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`SelectionService`.

    ``daemon_threads`` keeps a hung client from blocking shutdown;
    handler threads only enqueue and wait, so the thread-per-connection
    model stays cheap.
    """

    daemon_threads = True

    def __init__(
        self,
        service: SelectionService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> tuple[str, int]:
        """Actual (host, port) — resolves port 0 to the bound ephemeral port."""
        return self.server_address[0], self.server_address[1]

    def close(self) -> None:
        """Stop serving and shut the service down."""
        self.shutdown()
        self.server_close()
        self.service.close()


def serve(
    service: SelectionService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
) -> ServiceHTTPServer:
    """Start an HTTP frontend for ``service`` on a daemon thread.

    Returns the bound server immediately; :meth:`ServiceHTTPServer.close`
    stops it.
    """
    server = ServiceHTTPServer(service, host, port, verbose=verbose)
    thread = threading.Thread(
        target=server.serve_forever, name="select-http", daemon=True
    )
    thread.start()
    return server
