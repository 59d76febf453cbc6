"""Execution backends for the micro-batch scheduler.

The scheduler owns admission, coalescing and deadlines; *how* a wave of
requests actually runs against a selector is an execution backend:

- :class:`InlineBackend` serves the wave on the scheduler's own worker
  thread against the live handle — the unsharded scheduler's backend,
  and the determinism baseline.
- :class:`ProcessPoolBackend` ships the wave to a dedicated worker
  process which serves it from a selector replica; each shard of a
  :class:`~repro.service.shards.ShardRouter` owns one.  The knowledge
  reaches the worker through its pipe, as the ``(meta, arrays)`` pair
  of :func:`~repro.core.persistence.knowledge_state` plus the selector's
  fault plan, whenever the worker does not hold the wave's fingerprint;
  the worker rebuilds its replica with
  :func:`~repro.core.persistence.restore_knowledge`, the one restore
  path archives and clones take.  So a hot-reload swaps
  the worker's selector on the next wave, and no file is written.

Both backends return one outcome per request — a
:class:`~repro.core.vesta.Recommendation` or a
:class:`~repro.errors.ReproError` — so a poisoned request fails alone
instead of failing its batch neighbours.  Backends must be driven by a
single scheduler thread; they are not reentrant.
"""

from __future__ import annotations

import multiprocessing
import signal
import traceback
from multiprocessing import parent_process
from typing import TYPE_CHECKING

from repro.core.persistence import knowledge_state, replica_fault_plan, restore_knowledge
from repro.errors import FaultInjectionError, ReproError, ServiceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.registry import SelectorHandle
    from repro.workloads.spec import WorkloadSpec

__all__ = ["InlineBackend", "ProcessPoolBackend"]

#: Seconds a pool worker may take to answer a wave before it is replaced.
WAVE_TIMEOUT_S = 300.0


def _recommend_all(selector, requests, on_session=None) -> list:
    """Serve ``[(spec, objective), ...]``; one outcome per request.

    One batched online wave — :meth:`VestaSelector.online_many`, proven
    bit-identical to opening the sessions one at a time, fault events
    included: each session carries the events of its own runs.  Failed
    probes only degrade their session, but a permanently failed sandbox
    run raises out of the whole wave, so on :class:`FaultInjectionError`
    the batch degrades to individual sessions — waves of one whose cells
    are all memo hits, outcomes and events alike — and only the requests
    whose own sandbox failed get the error.

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
    """Worker-process loop: restore the replica it is sent, serve waves.

    Each message is ``(fingerprint, state, requests)``.  ``state`` is the
    knowledge's ``(meta, arrays)`` pair plus the fault plan the parent's
    selector runs, when the parent found this worker not holding
    ``fingerprint``, else ``None`` (serve from the held replica).  The
    worker keeps one replica — a reload frees the superseded version's
    session state — and replies ``(held, outcomes)`` with the fingerprint
    it now holds, ``None`` after a failed restore.  Any exception a wave
    raises becomes that wave's answer, so one bad wave never takes the
    worker down.  The loop ends on ``None``, or quietly when the pipe
    closes: the parent died without saying goodbye.  As a worker process
    it ignores SIGINT: a terminal Ctrl-C reaches the whole process group,
    and the parent stops its workers itself.  Driven in-process (the
    loop also runs on a thread) it leaves signal handling alone.
    """
    if parent_process() is not None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    held, selector = None, None
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        fingerprint, state, requests = message
        try:
            if state is not None:
                held = selector = None  # a failed restore holds nothing
                meta, arrays, faults = state
                selector = restore_knowledge(meta, arrays, faults=faults)
                held = fingerprint
            outcomes = _recommend_all(selector, requests)
        except ReproError as exc:
            outcomes = [exc] * len(requests)
        except Exception as exc:  # worker boundary: report, keep serving
            traceback.print_exc()
            error = ServiceError(
                f"pool worker failed the wave: {type(exc).__name__}: {exc}"
            )
            outcomes = [error] * len(requests)
        conn.send((held, outcomes))


class ProcessPoolBackend:
    """Serve waves in a dedicated worker process.

    One worker per backend instance (each shard owns its backend, so a
    K-shard router runs K worker processes).  The worker is started
    with the ``spawn`` method — safe next to the scheduler's live
    threads.  A wave carries the handle's fingerprint, plus the
    knowledge state whenever the worker does not hold that fingerprint:
    on the first wave, after a reload, after a restart and after a
    failed restore.  The state carries the selector's fault plan
    (:func:`~repro.core.persistence.replica_fault_plan`), so the replica
    answers as the parent's own sessions would.  The (fingerprint, state) pair is
    fixed before the wave ships, so no wave ever mixes knowledge
    versions.

    A worker that misses the wave deadline (:data:`WAVE_TIMEOUT_S`) is
    terminated and replaced, so its late reply can never be read as a
    later wave's answers; a worker found dead is replaced before the
    next wave ships.  :meth:`describe` counts the replacements as
    ``restarts``.
    """

    name = "pool"

    def __init__(self) -> None:
        self._ctx = multiprocessing.get_context("spawn")
        self._timeout_s = WAVE_TIMEOUT_S
        self._waves = 0
        self._restarts = 0
        self._start()

    def _start(self) -> None:
        self._held: str | None = None  # a fresh worker holds no replica
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
        if not self._proc.is_alive():
            self._restart()
        fingerprint = handle.fingerprint
        state = None
        if self._held != fingerprint:
            selector = handle.selector
            state = (*knowledge_state(selector), replica_fault_plan(selector))
        try:
            self._conn.send((fingerprint, state, list(requests)))
            if not self._conn.poll(self._timeout_s):
                self._restart()
                raise ServiceError(
                    f"pool worker timed out after {self._timeout_s:.0f}s "
                    f"and was restarted"
                )
            self._held, outcomes = self._conn.recv()
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
