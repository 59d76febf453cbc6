"""Run archive: the paper's MySQL database, reproduced over sqlite3.

Section 4.1 stores all collected data in MySQL.  A reproduction needs the
same capability — persist profiles, query them back by workload/VM — but
not a server, so :class:`MetricsStore` wraps :mod:`sqlite3` (in-memory by
default, file-backed on request).  Time series are persisted as raw
``float64`` blobs with their shape, avoiding any serialization dependency.

Beside the ``profiles`` archive the store keeps the serving tier's
``session_log``, the journal the knowledge lifecycle replays.
File-backed stores open in WAL mode with a busy timeout, as
:class:`~repro.core.artifacts.ArtifactStore` does, so a journalling
server and a reader (``repro learn``) can share one file.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.telemetry.collector import WorkloadProfile
from repro.telemetry.metrics import NUM_METRICS

__all__ = ["MetricsStore", "SessionRecord"]


@dataclass(frozen=True)
class SessionRecord:
    """One completed online session, as journalled by the serving tier.

    Everything the knowledge lifecycle needs to re-evaluate the session
    offline: which workload was served under which knowledge
    ``fingerprint``, the VMs actually probed with their measured
    runtimes, the CMF-completed label row, and the full predicted
    response surface.  ``seq`` is assigned by the store on insert
    (monotone, so retention can evict oldest-first deterministically).
    """

    workload: str
    objective: str
    fingerprint: str
    converged: bool
    degraded: bool
    knowledge_match: float
    vm_names: tuple[str, ...]
    observed: np.ndarray
    completed_row: np.ndarray
    predicted: np.ndarray
    seq: int | None = field(default=None, compare=False)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS profiles (
    workload   TEXT NOT NULL,
    framework  TEXT NOT NULL,
    vm_name    TEXT NOT NULL,
    nodes      INTEGER NOT NULL,
    spilled    INTEGER NOT NULL,
    runtimes   BLOB NOT NULL,
    budgets    BLOB NOT NULL,
    samples    INTEGER NOT NULL,
    series     BLOB NOT NULL,
    PRIMARY KEY (workload, vm_name, nodes)
);
CREATE INDEX IF NOT EXISTS idx_profiles_workload ON profiles (workload);
CREATE INDEX IF NOT EXISTS idx_profiles_vm ON profiles (vm_name);
CREATE TABLE IF NOT EXISTS session_log (
    seq             INTEGER PRIMARY KEY AUTOINCREMENT,
    workload        TEXT NOT NULL,
    objective       TEXT NOT NULL,
    fingerprint     TEXT NOT NULL,
    converged       INTEGER NOT NULL,
    degraded        INTEGER NOT NULL,
    knowledge_match REAL NOT NULL,
    vm_names        TEXT NOT NULL,
    observed        BLOB NOT NULL,
    completed_row   BLOB NOT NULL,
    predicted       BLOB NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_session_log_workload ON session_log (workload);
"""


class MetricsStore:
    """Persistent archive of :class:`~repro.telemetry.collector.WorkloadProfile` rows.

    Usable as a context manager; ``close()`` is idempotent.

    Parameters
    ----------
    path:
        sqlite database path, ``":memory:"`` for an ephemeral store.  A
        file-backed store runs in write-ahead-log mode with a generous
        busy timeout, which keeps writers in other processes from
        failing on a locked file.

    A store instance is also safe to share across *threads* of one
    process: the serving tier's learning loop and ``/statsz`` read the
    session journal from server threads while the scheduler worker
    writes, so every statement runs under one reentrant lock on a
    connection opened with ``check_same_thread=False`` (sqlite
    serializes at the statement level; the lock serializes multi-step
    read-modify-write sequences such as :meth:`bulk`).
    """

    def __init__(self, path: str = ":memory:") -> None:
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        if path != ":memory:":
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "MetricsStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- writes ----------------------------------------------------------------

    def put(self, profile: WorkloadProfile) -> None:
        """Insert or replace the profile for its (workload, vm, nodes) key."""
        series = self._validated_series(profile)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO profiles VALUES (?,?,?,?,?,?,?,?,?)",
                self._profile_row(profile, series),
            )
            self._conn.commit()

    # -- reads -------------------------------------------------------------------

    def get(self, workload: str, vm_name: str, nodes: int) -> WorkloadProfile | None:
        """Fetch one profile, or ``None`` when absent.

        ``nodes`` is part of the primary key: the same workload profiled on
        a different cluster size is a different profile, so callers must
        thread the spec's actual node count through rather than rely on a
        default that can silently mismatch.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM profiles WHERE workload=? AND vm_name=? AND nodes=?",
                (workload, vm_name, nodes),
            ).fetchone()
        return self._row_to_profile(row) if row else None

    def profiles_for_workload(self, workload: str) -> list[WorkloadProfile]:
        """All stored profiles of ``workload``, ordered by VM name."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM profiles WHERE workload=? ORDER BY vm_name", (workload,)
            ).fetchall()
        return [self._row_to_profile(r) for r in rows]

    def workloads(self) -> list[str]:
        """Distinct workload names present in the store."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT workload FROM profiles ORDER BY workload"
            ).fetchall()
        return [r[0] for r in rows]

    def vm_names(self) -> list[str]:
        """Distinct VM type names present in the store."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT vm_name FROM profiles ORDER BY vm_name"
            ).fetchall()
        return [r[0] for r in rows]

    def __len__(self) -> int:
        with self._lock:
            return int(
                self._conn.execute("SELECT COUNT(*) FROM profiles").fetchone()[0]
            )

    @contextmanager
    def bulk(self) -> Iterator["MetricsStore"]:
        """Batch many :meth:`put` calls into one transaction.

        Holds the store lock for the whole context so another thread's
        writes cannot interleave into (or prematurely commit) the open
        transaction.
        """
        with self._lock:
            self._conn.execute("BEGIN")
            try:
                yield self
            finally:
                self._conn.commit()

    # -- session journal ----------------------------------------------------------
    #
    # The serving tier appends every completed online session here; the
    # knowledge lifecycle replays them offline as promotion candidates.
    # Retention is bounded: passing ``limit`` to log_session (or calling
    # prune_sessions) evicts the lowest ``seq`` rows first, so eviction
    # order is deterministic regardless of thread interleaving.

    def log_session(self, record: SessionRecord, *, limit: int | None = None) -> int:
        """Append one session; returns its assigned ``seq``.

        With ``limit`` set, the oldest rows beyond the newest ``limit``
        are evicted in the same transaction, keeping the table bounded
        for long-running ``repro serve --learn`` processes.
        """
        if limit is not None and limit < 1:
            raise ValidationError(f"session-log limit must be >= 1, got {limit}")
        observed = np.ascontiguousarray(record.observed, dtype=np.float64)
        completed = np.ascontiguousarray(record.completed_row, dtype=np.float64)
        predicted = np.ascontiguousarray(record.predicted, dtype=np.float64)
        if observed.ndim != 1 or observed.shape[0] != len(record.vm_names):
            raise ValidationError(
                f"observed runtimes must match vm_names: {observed.shape[0]} "
                f"vs {len(record.vm_names)}"
            )
        with self._lock:
            cur = self._conn.execute(
                "INSERT INTO session_log (workload, objective, fingerprint,"
                " converged, degraded, knowledge_match, vm_names, observed,"
                " completed_row, predicted) VALUES (?,?,?,?,?,?,?,?,?,?)",
                (
                    record.workload,
                    record.objective,
                    record.fingerprint,
                    int(record.converged),
                    int(record.degraded),
                    float(record.knowledge_match),
                    json.dumps(list(record.vm_names)),
                    observed.tobytes(),
                    completed.tobytes(),
                    predicted.tobytes(),
                ),
            )
            seq = int(cur.lastrowid)
            if limit is not None:
                self._conn.execute(
                    "DELETE FROM session_log WHERE seq NOT IN"
                    " (SELECT seq FROM session_log ORDER BY seq DESC LIMIT ?)",
                    (limit,),
                )
            self._conn.commit()
        return seq

    def sessions(self, workload: str | None = None) -> list[SessionRecord]:
        """Journalled sessions in insertion order, optionally one workload's."""
        query = "SELECT * FROM session_log"
        params: tuple = ()
        if workload is not None:
            query += " WHERE workload=?"
            params = (workload,)
        with self._lock:
            rows = self._conn.execute(query + " ORDER BY seq", params).fetchall()
        return [self._row_to_session(r) for r in rows]

    def session_count(self) -> int:
        with self._lock:
            return int(
                self._conn.execute("SELECT COUNT(*) FROM session_log").fetchone()[0]
            )

    def prune_sessions(self, keep: int) -> int:
        """Evict the oldest sessions beyond the newest ``keep``; returns removed."""
        if keep < 0:
            raise ValidationError(f"keep must be >= 0, got {keep}")
        with self._lock:
            cur = self._conn.execute(
                "DELETE FROM session_log WHERE seq NOT IN"
                " (SELECT seq FROM session_log ORDER BY seq DESC LIMIT ?)",
                (keep,),
            )
            self._conn.commit()
        return int(cur.rowcount)

    @staticmethod
    def _row_to_session(row: tuple) -> SessionRecord:
        (seq, workload, objective, fp, conv, degr, match, names, obs_b, row_b, pred_b) = row
        return SessionRecord(
            workload=workload,
            objective=objective,
            fingerprint=fp,
            converged=bool(conv),
            degraded=bool(degr),
            knowledge_match=float(match),
            vm_names=tuple(json.loads(names)),
            observed=np.frombuffer(obs_b, dtype=np.float64),
            completed_row=np.frombuffer(row_b, dtype=np.float64),
            predicted=np.frombuffer(pred_b, dtype=np.float64),
            seq=int(seq),
        )

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _validated_series(profile: WorkloadProfile) -> np.ndarray:
        series = np.ascontiguousarray(profile.timeseries, dtype=np.float64)
        if series.ndim != 2 or series.shape[1] != NUM_METRICS:
            raise ValidationError(
                f"profile series must be (samples, {NUM_METRICS}), got {series.shape}"
            )
        return series

    @staticmethod
    def _profile_row(profile: WorkloadProfile, series: np.ndarray) -> tuple:
        return (
            profile.workload,
            profile.framework,
            profile.vm_name,
            profile.nodes,
            int(profile.spilled),
            np.ascontiguousarray(profile.runtimes, dtype=np.float64).tobytes(),
            np.ascontiguousarray(profile.budgets, dtype=np.float64).tobytes(),
            series.shape[0],
            series.tobytes(),
        )

    @staticmethod
    def _row_to_profile(row: tuple) -> WorkloadProfile:
        (workload, framework, vm_name, nodes, spilled, rt_b, bud_b, samples, series_b) = row
        series = np.frombuffer(series_b, dtype=np.float64).reshape(samples, NUM_METRICS)
        return WorkloadProfile(
            workload=workload,
            framework=framework,
            vm_name=vm_name,
            nodes=nodes,
            runtimes=np.frombuffer(rt_b, dtype=np.float64),
            budgets=np.frombuffer(bud_b, dtype=np.float64),
            timeseries=series,
            spilled=bool(spilled),
        )
