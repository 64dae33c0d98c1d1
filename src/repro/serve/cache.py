"""Bounded LRU cache for the job server.

The server's three caches (circuit, partition, full result) are
instances of :class:`LruCache`: an ``OrderedDict`` with move-to-end on
hit and evict-oldest on overflow, guarded by a lock because job workers
run on a thread pool.  Each cache counts its own hits, misses and
evictions; the ``/metrics`` endpoint reads them from :meth:`stats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ConfigError

_MISSING = object()


class LruCache:
    """Least-recently-used mapping bounded to *capacity* entries."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError("cache capacity must be >= 1")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key, default=None):
        """Return the cached value (refreshing its recency) or *default*."""
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        """Insert/refresh *key*, evicting the oldest entry on overflow."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict:
        """Snapshot for the ``/metrics`` endpoint."""
        with self._lock:
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
