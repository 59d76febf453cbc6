"""Minimal stdlib HTTP client for the selection service.

Used by the test suite, the throughput bench and scripts that talk to a
running ``repro serve`` instance.  Typed error bodies map back onto the
library's exception hierarchy, so calling through the client behaves
like calling the scheduler in-process: a full queue raises
:class:`~repro.errors.ServiceOverloadedError` on either side of the
socket.
"""

from __future__ import annotations

import json
import threading
from http.client import (
    BadStatusLine,
    CannotSendRequest,
    HTTPConnection,
    ResponseNotReady,
)

from repro.errors import (
    CatalogError,
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadedError,
    ValidationError,
)

__all__ = ["ServiceClient"]

#: Wire error name → local exception type raised by the client.
_ERRORS = {
    "ServiceOverloadedError": ServiceOverloadedError,
    "DeadlineExceededError": DeadlineExceededError,
    "ValidationError": ValidationError,
    "CatalogError": CatalogError,
}

#: Failures that mean "the pooled connection went stale" — the server
#: (or an intermediary) dropped it between requests, so reopening and
#: resending is the fix, not an error.  ``OSError`` covers broken pipes
#: and resets surfacing below http.client; timeouts are explicitly NOT
#: retried (see :meth:`ServiceClient._request`).
_STALE_CONNECTION = (OSError, BadStatusLine, CannotSendRequest, ResponseNotReady)


class ServiceClient:
    """One service endpoint; a pooled keep-alive connection per thread.

    The server speaks HTTP/1.1 keep-alive, so opening a fresh TCP
    connection per request is pure overhead.  Each thread owns one
    persistent :class:`~http.client.HTTPConnection` (``threading.local``
    — many bench threads can hammer one client instance without
    sharing sockets), and a request that fails because the pooled
    connection went stale is transparently retried once on a fresh
    connection.  The retry is safe: every endpoint is idempotent
    (selection is deterministic per knowledge fingerprint).
    """

    def __init__(self, host: str, port: int, *, timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._local = threading.local()

    # -- plumbing ---------------------------------------------------------------

    def _connection(self) -> HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = HTTPConnection(self.host, self.port, timeout=self.timeout_s)
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close the calling thread's pooled connection (if any).

        Other threads' connections close when their threads die (or via
        their own ``close`` calls); the client stays usable after —
        the next request opens a fresh connection.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            conn.close()

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        for attempt in (1, 2):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                retry_after = response.getheader("Retry-After")
                data = json.loads(response.read().decode() or "{}")
                break
            except _STALE_CONNECTION as exc:
                self.close()
                # A timeout is a server that has the request and is slow,
                # not a stale connection: resending could double-charge
                # the queue, so it propagates immediately.
                if isinstance(exc, TimeoutError) or attempt == 2:
                    raise
            except Exception:
                # Anything else (bad JSON, protocol violation): drop the
                # connection so the next call starts clean, then raise.
                self.close()
                raise
        if response.status >= 400:
            raise self._error(response.status, path, data, retry_after)
        return data

    @staticmethod
    def _error(
        status: int, path: str, data: dict, retry_after: str | None
    ) -> Exception:
        """Rebuild the server-side exception, context included.

        Overload errors recover the queue depth/limit and the retry hint
        (precise float from the body, ``Retry-After`` header as the
        fallback); deadline errors recover the wait and the enforcement
        stage — so backing off through the client works exactly like
        catching the scheduler's exception in-process.
        """
        error = _ERRORS.get(data.get("error", ""), ServiceError)
        message = data.get("message", f"HTTP {status} from {path}")
        if error is ServiceOverloadedError:
            hint = data.get("retry_after_s") or float(retry_after or 0.0)
            return ServiceOverloadedError(
                queue_limit=data.get("queue_limit", 0),
                queue_depth=data.get("queue_depth", 0),
                retry_after_s=hint,
            )
        if error is DeadlineExceededError:
            return DeadlineExceededError(
                workload=data.get("workload", ""),
                waited_s=data.get("waited_s", 0.0),
                stage=data.get("stage", "queued"),
            )
        return error(message)

    # -- API -------------------------------------------------------------------

    def select(
        self,
        workload: str,
        objective: str = "time",
        *,
        selector: str | None = None,
        timeout_s: float | None = None,
    ) -> dict:
        """POST ``/select``; returns the wire payload (see
        :func:`~repro.service.wire.response_to_dict`)."""
        body: dict = {"workload": workload, "objective": objective}
        if selector is not None:
            body["selector"] = selector
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._request("POST", "/select", body)

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def statsz(self) -> dict:
        return self._request("GET", "/statsz")
