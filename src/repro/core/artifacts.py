"""Content-addressed store for offline-pipeline stage artifacts.

The offline knowledge build (see :mod:`repro.core.pipeline`) is a chain
of pure stages — performance matrix, correlation signatures, feature
selection, label matrix U, affinity matrix V.  Each stage's output is a
small bundle of numpy arrays that is expensive to recompute (the first
two stages hide the whole profiling campaign) and cheap to store.
:class:`ArtifactStore` persists those bundles in sqlite, addressed by a
**fingerprint** of everything that could change the bytes: the stage's
hyperparameters, the campaign configuration (seed, repetitions, noise
and fault-plan fingerprints) and the fingerprints of the upstream
artifacts it was computed from.  Two processes with the same
configuration therefore share knowledge through a file instead of each
re-running the campaign: this store is the only on-disk cache of
campaign output, while :class:`~repro.telemetry.campaign.ProfilingCampaign`
memoizes (workload, VM) cells within one process.

Arrays are serialized as an ``.npz`` blob (no pickling), so stores are
safe to share across Python versions.  This store and ``.npz`` archives
are the only files knowledge is written to: a serving tier's worker
processes get theirs through their pipes
(:func:`~repro.core.persistence.knowledge_state`).

A broken store must never break a fit: a corrupted file is moved aside
and recreated, an unopenable path degrades to an in-memory store, and
every read failure is a miss.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Artifact",
    "ArtifactInfo",
    "ArtifactStore",
    "content_fingerprint",
]

#: Bump to invalidate every stored artifact when the serialized layout
#: changes in ways the fingerprint inputs don't capture.
STORE_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS stage_artifacts (
    key      TEXT PRIMARY KEY,
    stage    TEXT NOT NULL,
    meta     TEXT NOT NULL,
    payload  BLOB NOT NULL,
    created  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_stage_artifacts_stage ON stage_artifacts (stage);
"""


def _canonical(value):
    """JSON-stable spelling of a fingerprint input."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in sorted(value.items())}
    return value


def content_fingerprint(**fields) -> str:
    """Deterministic digest of a stage's fingerprint-relevant inputs.

    Floats are hashed via ``repr`` (round-trip exact), containers are
    canonicalized recursively, and dict ordering is irrelevant.  The
    store version is always folded in.
    """
    payload = json.dumps(
        {"store_version": STORE_VERSION, **_canonical(fields)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class Artifact:
    """One stored stage output: named arrays plus a JSON-able meta dict."""

    key: str
    stage: str
    meta: dict
    arrays: dict[str, np.ndarray] = field(repr=False)


@dataclass(frozen=True)
class ArtifactInfo:
    """Listing row for :meth:`ArtifactStore.entries` (no payload load)."""

    key: str
    stage: str
    created: float
    nbytes: int


class ArtifactStore:
    """Content-addressed persistent store of pipeline stage artifacts.

    Parameters
    ----------
    path:
        sqlite path (``":memory:"`` for a process-local store).  A
        corrupted file is moved aside to ``<path>.corrupt`` and
        recreated; an unopenable path degrades to an in-memory store —
        either way the pipeline falls back to recomputation rather than
        failing.

    A store instance may be shared across threads: the serving registry
    reads stage artifacts from server threads while fits write from
    workers, so the connection is opened with
    ``check_same_thread=False`` and every statement runs under one
    reentrant lock.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = str(path)
        self.hits = 0
        self.misses = 0
        self.recovered = False
        self._lock = threading.RLock()
        self._conn = self._open()

    # -- lifecycle -----------------------------------------------------------

    def _connect(self, path: str) -> sqlite3.Connection:
        conn = sqlite3.connect(path, check_same_thread=False)
        if path != ":memory:":
            conn.execute("PRAGMA busy_timeout=30000")
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_SCHEMA)
        return conn

    def _open(self) -> sqlite3.Connection:
        try:
            return self._connect(self.path)
        except sqlite3.DatabaseError:
            self.recovered = True
            if os.path.isfile(self.path):
                try:
                    os.replace(self.path, self.path + ".corrupt")
                    return self._connect(self.path)
                except (OSError, sqlite3.Error):
                    pass
            return self._connect(":memory:")

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __len__(self) -> int:
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM stage_artifacts"
                ).fetchone()
            return int(row[0])
        except sqlite3.Error:
            return 0

    # -- serialization -----------------------------------------------------------

    @staticmethod
    def _pack(arrays: dict[str, np.ndarray]) -> bytes:
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        return buffer.getvalue()

    @staticmethod
    def _unpack(blob: bytes) -> dict[str, np.ndarray]:
        with np.load(io.BytesIO(blob)) as data:
            return {name: data[name] for name in data.files}

    # -- access ----------------------------------------------------------------
    #
    # Every read failure is a miss and every write failure is silent: a
    # broken store must never break a fit, only slow it down.

    def get(self, key: str) -> Artifact | None:
        """Fetch one artifact by fingerprint, or ``None`` when absent."""
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT stage, meta, payload FROM stage_artifacts WHERE key=?",
                    (key,),
                ).fetchone()
            hit = (
                Artifact(
                    key=key,
                    stage=row[0],
                    meta=json.loads(row[1]),
                    arrays=self._unpack(row[2]),
                )
                if row
                else None
            )
        except (sqlite3.Error, ValueError, json.JSONDecodeError, OSError):
            hit = None
        if hit is not None:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def put(
        self,
        key: str,
        stage: str,
        arrays: dict[str, np.ndarray],
        meta: dict | None = None,
    ) -> None:
        """Insert or replace the artifact stored under ``key``."""
        try:
            payload = self._pack(arrays)
            with self._lock:
                self._conn.execute(
                    "INSERT OR REPLACE INTO stage_artifacts VALUES (?,?,?,?,?)",
                    (
                        key,
                        stage,
                        json.dumps(meta or {}, sort_keys=True),
                        payload,
                        time.time(),
                    ),
                )
                self._conn.commit()
        except (sqlite3.Error, ValueError):
            pass

    def entries(self, stage: str | None = None) -> list[ArtifactInfo]:
        """Artifact listing (newest first), optionally for one stage."""
        query = (
            "SELECT key, stage, created, LENGTH(payload) FROM stage_artifacts"
        )
        params: tuple = ()
        if stage is not None:
            query += " WHERE stage=?"
            params = (stage,)
        query += " ORDER BY created DESC, key"
        try:
            with self._lock:
                rows = self._conn.execute(query, params).fetchall()
        except sqlite3.Error:
            return []
        return [
            ArtifactInfo(key=r[0], stage=r[1], created=float(r[2]), nbytes=int(r[3]))
            for r in rows
        ]

    def invalidate(self, stage: str | None = None) -> int:
        """Delete artifacts (all, or one stage's); returns rows removed."""
        try:
            with self._lock:
                if stage is None:
                    cur = self._conn.execute("DELETE FROM stage_artifacts")
                else:
                    cur = self._conn.execute(
                        "DELETE FROM stage_artifacts WHERE stage=?", (stage,)
                    )
                self._conn.commit()
                return cur.rowcount
        except sqlite3.Error:
            return 0

