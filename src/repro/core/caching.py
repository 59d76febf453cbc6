"""Small thread-safe LRU cache with hit/miss/eviction counters.

Backs the serving fast path's recommendation memo (see
``docs/architecture.md``, "The serving fast path") in
:class:`~repro.service.scheduler.MicroBatchScheduler`.  The memo only
ever stores values derived deterministically from their key, so eviction
is purely a memory bound — never a correctness event — and the counters
exist to make hit rates observable through ``/statsz`` and the benches.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ValidationError

__all__ = ["LRUCache"]


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    ``get``/``put`` are O(1) and safe to call from any number of
    threads; a successful ``get`` refreshes the entry's recency.  The
    cache never copies values — callers that share mutable values across
    threads should freeze them before insertion.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValidationError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key, default=None):
        """The value under ``key`` (refreshing its recency), else ``default``."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key, value) -> None:
        """Insert/replace ``key``, evicting the coldest entries past the bound."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> dict:
        """JSON-able counters: size/maxsize plus lifetime hit/miss/eviction."""
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
