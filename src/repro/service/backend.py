"""Execution backends for the micro-batch scheduler.

The scheduler owns admission, coalescing and deadlines; *how* a wave of
requests actually runs against a selector is an execution backend:

- :class:`InlineBackend` serves the wave on the scheduler's own worker
  thread against the live handle — the unsharded scheduler's backend,
  and the determinism baseline.
- :class:`ProcessPoolBackend` ships the wave to a dedicated worker
  process which serves it from a selector replica restored from a
  memmap bundle (:func:`~repro.core.persistence.load_selector`); each
  shard of a :class:`~repro.service.shards.ShardRouter` owns one.
  Replicas are cached per knowledge fingerprint, so a hot-reload swaps
  the worker's selector on the next wave, and the bundle's arrays are
  read-only memory maps — N workers share one page-cache copy of the
  frozen knowledge instead of each holding a private deserialized one.

Both backends return one outcome per request — a
:class:`~repro.core.vesta.Recommendation` or a
:class:`~repro.errors.ReproError` — so a poisoned request fails alone
instead of failing its batch neighbours.  Backends must be driven by a
single scheduler thread; they are not reentrant.

:class:`BundleCache` is the bridge between live handles and worker
processes: it exports each selector's knowledge as a memmap bundle at
most once per fingerprint under one root directory, which pool workers
then open read-only.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile
import threading
import traceback
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.artifacts import BUNDLE_META_FILE
from repro.core.persistence import export_memmap_bundle, load_selector
from repro.errors import FaultInjectionError, ReproError, ServiceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.registry import SelectorHandle
    from repro.workloads.spec import WorkloadSpec

__all__ = ["BundleCache", "InlineBackend", "ProcessPoolBackend"]


def _recommend_all(selector, requests, on_session=None) -> list:
    """Serve ``[(spec, objective), ...]``; one outcome per request.

    One batched online wave — :meth:`VestaSelector.online_many`, proven
    bit-identical to opening the sessions one at a time.  A permanently
    failed profiling run inside the wave poisons the whole wave, so on
    :class:`FaultInjectionError` the batch degrades to individual
    sessions — deterministic, because profiling is memoized per cell and
    sessions are independent — and only the requests whose own runs fail
    get the error.

    ``on_session(session, objective)`` is invoked for every session that
    produced a recommendation — the knowledge lifecycle's journal hook.
    It observes; it never alters outcomes (even its exceptions are the
    journal's problem, not the caller's response).
    """
    try:
        sessions = list(selector.online_many([spec for spec, _ in requests]))
    except FaultInjectionError:
        sessions = []
        for spec, _ in requests:
            try:
                sessions.append(selector.online(spec))
            except FaultInjectionError as exc:
                sessions.append(exc)
    outcomes: list = []
    for (_, objective), session in zip(requests, sessions):
        if isinstance(session, ReproError):
            outcomes.append(session)
        else:
            try:
                outcomes.append(session.recommend(objective))
            except ReproError as exc:
                outcomes.append(exc)
            else:
                if on_session is not None:
                    on_session(session, objective)
    return outcomes


class BundleCache:
    """Export-once-per-fingerprint memmap bundles under one root.

    The first request for a fingerprint exports the handle's knowledge
    (``<root>/<fingerprint>/``); later requests — from any backend
    sharing this cache — reuse the committed bundle.  Bundles are never
    deleted while the cache lives, so a worker may keep serving from a
    superseded version's maps until its next wave.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self._owned = root is None
        self._root = Path(
            tempfile.mkdtemp(prefix="repro-bundles-") if root is None else root
        )
        self._lock = threading.Lock()
        self._exported: set[str] = set()

    @property
    def root(self) -> Path:
        return self._root

    def path_for(self, handle: "SelectorHandle") -> Path:
        """Bundle directory for the handle's fingerprint; exports on miss."""
        path = self._root / handle.fingerprint
        with self._lock:
            if handle.fingerprint not in self._exported:
                if not (path / BUNDLE_META_FILE).is_file():
                    export_memmap_bundle(handle.selector, path)
                self._exported.add(handle.fingerprint)
        return path

    def close(self) -> None:
        """Delete the root if this cache created it (open maps survive)."""
        if self._owned:
            shutil.rmtree(self._root, ignore_errors=True)


class InlineBackend:
    """Serve waves on the calling thread against the live handle.

    ``journal`` (optional) is called as ``journal(handle, session,
    objective)`` for every served session — the knowledge lifecycle's
    entry point.  Only the inline backend can journal: pool-backend
    sessions live in the worker process and never cross back.
    """

    name = "inline"

    def __init__(self, journal=None) -> None:
        self._journal = journal

    def run(self, handle: "SelectorHandle", requests) -> list:
        on_session = None
        if self._journal is not None:
            journal = self._journal
            on_session = lambda session, objective: journal(  # noqa: E731
                handle, session, objective
            )
        return _recommend_all(handle.selector, requests, on_session)

    def close(self) -> None:  # noqa: D102 — nothing to release
        pass

    def describe(self) -> dict:
        return {"name": self.name}


def _pool_worker(conn) -> None:
    """Worker-process loop: load bundle replicas, serve waves.

    Replicas are cached by knowledge fingerprint (only the latest is
    kept — a reload should free the superseded version's session state).
    Any exception a wave raises becomes that wave's answer, so one bad
    wave never takes the worker down.
    """
    replicas: dict[str, object] = {}
    while True:
        message = conn.recv()
        if message is None:
            return
        bundle_dir, fingerprint, requests = message
        try:
            selector = replicas.get(fingerprint)
            if selector is None:
                replicas.clear()
                selector = load_selector(bundle_dir)
                replicas[fingerprint] = selector
            outcomes = _recommend_all(selector, requests)
        except ReproError as exc:
            outcomes = [exc] * len(requests)
        except Exception as exc:  # worker boundary: report, keep serving
            traceback.print_exc()
            error = ServiceError(
                f"pool worker failed the wave: {type(exc).__name__}: {exc}"
            )
            outcomes = [error] * len(requests)
        conn.send(outcomes)


class ProcessPoolBackend:
    """Serve waves in a dedicated worker process over memmap bundles.

    One worker per backend instance (each shard owns its backend, so a
    K-shard router runs K worker processes).  The worker is started
    with the ``spawn`` method — safe next to the scheduler's live
    threads — and loads selector replicas from the shared
    :class:`BundleCache`, so all workers map the same knowledge pages.

    A wave that finds a new fingerprint first exports the bundle (in the
    parent, once per fingerprint across all shards) and then reloads in
    the worker, which is exactly the hot-reload path: no wave ever mixes
    knowledge versions because the (bundle, fingerprint) pair is fixed
    before the wave ships.

    A worker that misses the wave deadline is terminated and replaced,
    so its late reply can never be read as a later wave's answers; a
    worker found dead is replaced before the next wave ships.
    :meth:`describe` counts the replacements as ``restarts``.
    """

    name = "pool"

    def __init__(
        self,
        bundles: BundleCache,
        *,
        request_timeout_s: float = 300.0,
        context: str = "spawn",
    ) -> None:
        self._bundles = bundles
        self._timeout_s = request_timeout_s
        self._ctx = multiprocessing.get_context(context)
        self._waves = 0
        self._restarts = 0
        self._start()

    def _start(self) -> None:
        self._conn, child = self._ctx.Pipe()
        self._proc = self._ctx.Process(
            target=_pool_worker, args=(child,), daemon=True
        )
        self._proc.start()
        child.close()

    def _restart(self) -> None:
        """Replace the worker; an unread reply dies with the old pipe."""
        self._proc.kill()
        self._proc.join()
        self._conn.close()
        self._restarts += 1
        self._start()

    def run(self, handle: "SelectorHandle", requests) -> list:
        bundle = self._bundles.path_for(handle)
        if not self._proc.is_alive():
            self._restart()
        try:
            self._conn.send((str(bundle), handle.fingerprint, list(requests)))
            if not self._conn.poll(self._timeout_s):
                self._restart()
                raise ServiceError(
                    f"pool worker timed out after {self._timeout_s:.0f}s "
                    f"and was restarted"
                )
            outcomes = self._conn.recv()
        except (OSError, EOFError) as exc:
            self._restart()
            raise ServiceError(f"pool worker died: {exc}") from exc
        self._waves += 1
        return outcomes

    def close(self, timeout_s: float = 5.0) -> None:
        try:
            self._conn.send(None)
        except (OSError, BrokenPipeError):
            pass
        self._proc.join(timeout=timeout_s)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=timeout_s)
        self._conn.close()

    def describe(self) -> dict:
        proc = self._proc
        return {
            "name": self.name,
            "pid": proc.pid,
            "alive": proc.is_alive(),
            "waves": self._waves,
            "restarts": self._restarts,
        }
