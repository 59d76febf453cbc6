"""Serve→learn loop: journal served sessions, promote measured transfer.

The serving half of the knowledge lifecycle
(:mod:`repro.core.lifecycle`).  Two pieces:

- :class:`SessionJournal` — the scheduler-side observation hook.  Wired
  into the unsharded scheduler's inline backend as
  ``journal(handle, session, objective)``, it
  freezes every served session into a
  :class:`~repro.telemetry.store.SessionRecord` stamped with the
  knowledge fingerprint that served it, and appends it to the
  MetricsStore session log under a bounded retention limit.  Journal
  failures are counted and swallowed — learning must never fail a
  response.

- :class:`LearningLoop` — the background promoter.  Periodically clones
  the served knowledge (:func:`~repro.core.persistence.clone_knowledge`,
  race-free against live sessions), runs a
  :class:`~repro.core.lifecycle.KnowledgeLifecycle` cycle over the
  journal, and — only when something was actually promoted — registers
  the grown clone, which atomically bumps the registry generation.
  The scheduler serves the new handle from its next wave on, and both
  serving caches key on the knowledge fingerprint, so the reload lands
  without pausing serving and without ever mixing knowledge versions
  within a response.  Learning needs the sessions in this process, so
  it runs only on an unsharded scheduler.
"""

from __future__ import annotations

import threading

from repro.core.lifecycle import KnowledgeLifecycle, record_from_session
from repro.core.persistence import clone_knowledge
from repro.telemetry.store import MetricsStore

__all__ = ["LearningLoop", "SessionJournal"]

#: Default bound on journalled sessions (oldest evicted first).
DEFAULT_JOURNAL_LIMIT = 2048


class SessionJournal:
    """Append served sessions to the MetricsStore session log.

    Called from the scheduler's worker thread while ``/statsz`` reads
    :meth:`stats` from handler threads; the store serializes writes
    internally and this class guards its counters with a lock.
    """

    def __init__(
        self, store: MetricsStore, *, limit: int | None = DEFAULT_JOURNAL_LIMIT
    ) -> None:
        self.store = store
        self.limit = limit
        self._lock = threading.Lock()
        self._journaled = 0
        self._dropped = 0

    def __call__(self, handle, session, objective: str) -> None:
        try:
            record = record_from_session(
                session, objective, fingerprint=handle.fingerprint
            )
            self.store.log_session(record, limit=self.limit)
        except Exception:
            # A broken journal must never fail (or slow) a response.
            with self._lock:
                self._dropped += 1
            return
        with self._lock:
            self._journaled += 1

    def stats(self) -> dict:
        with self._lock:
            journaled, dropped = self._journaled, self._dropped
        return {
            "journaled": journaled,
            "dropped": dropped,
            "retention_limit": self.limit,
            "stored": self.store.session_count(),
        }


class LearningLoop:
    """Background promoter: journal → gate → promote → hot-reload.

    Parameters
    ----------
    registry:
        The serving registry; promotions re-register ``selector`` there.
    journal:
        The serving scheduler's :class:`SessionJournal`.
    selector:
        Registry name whose knowledge this loop grows.
    interval_s:
        Seconds between promotion cycles.
    min_observations / min_holdouts / max_promotions:
        Forwarded to :class:`~repro.core.lifecycle.KnowledgeLifecycle`.
    """

    def __init__(
        self,
        registry,
        journal: SessionJournal,
        *,
        selector: str = "default",
        interval_s: float = 5.0,
        min_observations: int = 3,
        min_holdouts: int = 1,
        max_promotions: int | None = None,
        start: bool = True,
    ) -> None:
        self.registry = registry
        self.journal = journal
        self.selector_name = selector
        self.interval_s = max(float(interval_s), 0.05)
        self.min_observations = min_observations
        self.min_holdouts = min_holdouts
        self.max_promotions = max_promotions
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._last_seq = 0
        self._cycles = 0
        self._errors = 0
        self._candidates = 0
        self._gated = 0
        self._promoted: list[str] = []
        self._reloads = 0
        if start:
            self.start()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the promoter thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run,
                name=f"learn-loop[{self.selector_name}]",
                daemon=True,
            )
            self._thread.start()

    def close(self, timeout_s: float = 10.0) -> None:
        """Stop the promoter and wait for the in-flight cycle."""
        self._stop.set()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=timeout_s)

    def __enter__(self) -> "LearningLoop":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.promote_once()
            except Exception:
                # The loop must outlive a bad cycle; the error counter
                # surfaces it in /statsz.
                with self._lock:
                    self._errors += 1

    # -- promotion ----------------------------------------------------------

    def promote_once(self):
        """Run one gated promotion cycle; returns the lifecycle report.

        Skips entirely (returns ``None``) when the journal holds nothing
        new since the last cycle — an idle service never burns refits.
        """
        records = self.journal.store.sessions()
        if not records:
            return None
        newest = max(r.seq or 0 for r in records)
        with self._lock:
            if newest <= self._last_seq:
                return None
            self._last_seq = newest
        handle = self.registry.get(self.selector_name)
        # Clone, never touch the served selector: its worker threads are
        # running online sessions against it right now.  The clone is
        # rebuilt from the stable post-fit stage arrays.
        clone = clone_knowledge(handle.selector)
        lifecycle = KnowledgeLifecycle(
            clone,
            min_observations=self.min_observations,
            min_holdouts=self.min_holdouts,
            max_promotions=self.max_promotions,
        )
        report = lifecycle.advance(records)
        if report.promoted:
            # Atomic swap: the registry bumps the generation, the next
            # wave serves the new handle, and both serving caches miss
            # by fingerprint construction.
            self.registry.register(self.selector_name, clone)
        with self._lock:
            self._cycles += 1
            self._candidates += report.candidates
            self._gated += report.gated_out
            self._promoted.extend(report.promoted)
            if report.promoted:
                self._reloads += 1
        return report

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """JSON-able lifecycle counters for ``/statsz`` and serve logs."""
        with self._lock:
            counters = {
                "cycles": self._cycles,
                "errors": self._errors,
                "candidates_seen": self._candidates,
                "gated_out": self._gated,
                "promoted": len(self._promoted),
                "promoted_workloads": list(self._promoted),
                "reload_generations": self._reloads,
            }
        return {
            "enabled": True,
            "selector": self.selector_name,
            "interval_s": self.interval_s,
            **counters,
            "journal": self.journal.stats(),
        }
