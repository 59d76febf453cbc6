"""Thread-safe registry of fitted selectors with atomic hot-reload.

The serving subsystem holds long-lived fitted knowledge: the registry
maps names to read-only :class:`SelectorHandle` snapshots, each pinning
one :class:`~repro.core.vesta.VestaSelector` together with its knowledge
fingerprint and a monotonically increasing generation number.

Handles are immutable and swaps are atomic (one dict assignment under a
lock), so a hot-reload never disturbs in-flight work: a request that
already resolved its handle keeps serving from the old selector until it
finishes, while the next batch picks up the new one.  Reloading from a
persistence archive is *fingerprint-gated* — the registry peeks at the
archive's knowledge fingerprint (metadata only, no array restore) and
skips the swap entirely when the archive holds the version already being
served, which makes periodic reload-from-disk loops cheap.  The peek is
compared with the fingerprint of the archive the served handle was
restored from, so the skip holds under a fault plan too, although a
plan is folded into the served selector's own fingerprint.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.persistence import archive_knowledge_fingerprint, load_selector
from repro.core.vesta import VestaSelector
from repro.errors import ServiceError, ValidationError

__all__ = ["SelectorHandle", "SelectorRegistry"]


@dataclass(frozen=True)
class SelectorHandle:
    """One immutable registered-selector snapshot.

    ``fingerprint`` is the selector's knowledge fingerprint (see
    :meth:`~repro.core.vesta.VestaSelector.knowledge_fingerprint`);
    ``generation`` counts swaps of the name since registration, so two
    handles with equal fingerprints but different generations denote a
    reload that restored the same knowledge.  ``archive_fingerprint`` is
    the peeked knowledge fingerprint of the archive the handle was
    restored from (``None`` when registered directly, or restored from
    a version-1 archive); a fault plan given at load time makes
    ``fingerprint`` differ from it.
    """

    name: str
    selector: VestaSelector = field(repr=False)
    fingerprint: str
    generation: int
    registered_at: float
    archive_fingerprint: str | None = None

    def describe(self) -> dict:
        """JSON-able summary for health/stats endpoints."""
        sel = self.selector
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "generation": self.generation,
            "cmf_mode": sel.cmf_mode,
            "vms": len(sel.vms),
            "sources": len(sel.sources),
            "seed": sel.seed,
            "catalog": sel.catalog.name,
            "catalog_fingerprint": sel.catalog.fingerprint(),
            # Mask-keyed fold-in operator cache (None until the selector
            # serves its first fold-in wave, or under cmf_mode="full").
            "foldin_cache": sel.foldin_cache_stats(),
        }


class SelectorRegistry:
    """Named, hot-reloadable collection of fitted selectors.

    All mutation happens under one lock; readers receive immutable
    handles and never block each other.  The registry never mutates a
    selector it hands out — replacing a name installs a *new* handle and
    leaves the old object alive for whoever still holds it.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._handles: dict[str, SelectorHandle] = {}

    # -- registration -----------------------------------------------------------

    def register(self, name: str, selector: VestaSelector) -> SelectorHandle:
        """Install ``selector`` under ``name`` (replacing any previous).

        The selector must be fitted; its knowledge fingerprint is
        computed once here.  Returns the installed handle.
        """
        return self._install(name, selector, None)

    def _install(
        self, name: str, selector: VestaSelector, archive_fingerprint: str | None
    ) -> SelectorHandle:
        fingerprint = selector.knowledge_fingerprint()  # validates fitted
        with self._lock:
            previous = self._handles.get(name)
            handle = SelectorHandle(
                name=name,
                selector=selector,
                fingerprint=fingerprint,
                generation=(previous.generation + 1) if previous else 1,
                registered_at=time.time(),
                archive_fingerprint=archive_fingerprint,
            )
            self._handles[name] = handle
        return handle

    def load(self, name: str, path: str | Path, **load_kwargs) -> SelectorHandle:
        """Load a persistence archive and register it under ``name``.

        ``load_kwargs`` are forwarded to
        :func:`~repro.core.persistence.load_selector` (``cache``,
        ``faults``, ``store``).
        """
        # Peek before restoring: an archive replaced in between then
        # reads as changed on the next reload, never as unchanged.
        peeked = archive_knowledge_fingerprint(path)
        return self._install(name, load_selector(path, **load_kwargs), peeked)

    def reload(
        self, name: str, path: str | Path, **load_kwargs
    ) -> tuple[SelectorHandle, bool]:
        """Fingerprint-gated hot-reload of ``name`` from an archive.

        Peeks at the archive's knowledge fingerprint first: when it
        matches the archive the current handle was restored from (or,
        for a directly registered handle, its own fingerprint), nothing
        is loaded and the current handle is returned with
        ``swapped=False``.  Otherwise the archive is fully restored and
        atomically swapped in.  Returns ``(handle, swapped)``.

        A reload never changes the provider catalog a name serves: an
        archive fitted on a different catalog than the one currently
        registered under ``name`` is refused with a
        :class:`~repro.errors.ServiceError` (clients cache VM names and
        pricing semantics per served name — a silent catalog swap would
        invalidate them mid-flight).
        """
        current = self.get(name) if name in self.names() else None
        peeked = archive_knowledge_fingerprint(path)
        if (
            current is not None
            and peeked is not None
            and peeked == (current.archive_fingerprint or current.fingerprint)
        ):
            return current, False
        selector = load_selector(path, **load_kwargs)
        if current is not None:
            served = current.selector.catalog
            loaded = selector.catalog
            if (served.name, served.fingerprint()) != (
                loaded.name,
                loaded.fingerprint(),
            ):
                raise ServiceError(
                    f"reload of {name!r} refused: archive is fitted on catalog "
                    f"{loaded.name!r} ({loaded.fingerprint()}) but the served "
                    f"selector uses {served.name!r} ({served.fingerprint()})"
                )
        fingerprint = selector.knowledge_fingerprint()
        with self._lock:
            existing = self._handles.get(name)
            if existing is not None and existing.fingerprint == fingerprint:
                # Raced with another reloader, or a v1 archive (no peek)
                # restoring the served version: keep the existing handle.
                return existing, False
            return self._install(name, selector, peeked), True

    def unregister(self, name: str) -> None:
        """Remove ``name``; in-flight holders of its handle are unaffected."""
        with self._lock:
            if self._handles.pop(name, None) is None:
                raise ServiceError(f"no selector registered under {name!r}")

    # -- lookup ----------------------------------------------------------------

    def get(self, name: str) -> SelectorHandle:
        """The current handle for ``name``.

        Raises
        ------
        ValidationError
            When no selector is registered under ``name``.
        """
        with self._lock:
            handle = self._handles.get(name)
        if handle is None:
            raise ValidationError(f"no selector registered under {name!r}")
        return handle

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._handles))

    def __len__(self) -> int:
        with self._lock:
            return len(self._handles)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._handles

    def describe(self) -> dict:
        """JSON-able summary of every registered selector."""
        with self._lock:
            handles = list(self._handles.values())
        return {h.name: h.describe() for h in handles}
