"""Warm worker-ring pool: spawn rings once, lease them per job.

Forking N node processes and building their transport channels is the
dominant fixed cost of a small process-backend run.  :class:`RingPool`
keeps finished rings warm, keyed by node count, and leases them to
jobs: a repeat configuration pays only the simulation itself.

Lifecycle rules:

- :meth:`lease` is a context manager.  On release a healthy ring goes
  back to the idle shelf; a poisoned one (job error, timeout,
  cancellation) is closed and forgotten — rings never carry failure
  state between jobs.
- The shelf holds at most ``max_idle`` rings total; releasing onto a
  full shelf closes the least-recently-used idle ring (LRU across node
  counts, so a burst of 8-node jobs eventually reclaims idle 2-node
  rings).
- Counters (``ring_spawns`` / ``ring_reuses`` / ``ring_retires``) feed
  the server's metrics so warm-pool effectiveness is observable; so do
  the rings' world-residency counters (``ring_world_ships`` /
  ``ring_world_hits`` / ``ring_world_evictions``), folded in after
  every lease — a hit is a job that shipped no circuit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager

from repro.errors import ConfigError
from repro.obs import Metrics
from repro.warped.parallel.ring import WorkerRing


class RingPool:
    """Bounded shelf of warm :class:`WorkerRing` instances."""

    def __init__(
        self,
        *,
        transport: str | None = None,
        max_idle: int = 4,
        metrics: Metrics | None = None,
    ) -> None:
        if max_idle < 0:
            raise ConfigError("max_idle must be >= 0")
        self.transport = transport
        self.max_idle = max_idle
        self._metrics = metrics if metrics is not None else Metrics(enabled=False)
        # token -> (num_nodes, ring); ordered oldest-released first.
        self._idle: OrderedDict[int, tuple[int, WorkerRing]] = OrderedDict()
        self._token = 0
        self._lock = threading.Lock()
        self._closed = False
        self.spawned = 0
        self.reused = 0
        self.retired = 0
        #: Sum of every leased ring's ``world_stats``.
        self.worlds = {"ships": 0, "hits": 0, "evictions": 0}

    # ------------------------------------------------------------------
    def _take_idle(self, num_nodes: int) -> WorkerRing | None:
        """Pop the most-recently-released idle ring of this size."""
        for token in reversed(self._idle):
            size, ring = self._idle[token]
            if size == num_nodes:
                del self._idle[token]
                return ring
        return None

    @contextmanager
    def lease(self, num_nodes: int):
        """Borrow a warm ring of *num_nodes* nodes (spawning on miss)."""
        with self._lock:
            if self._closed:
                raise ConfigError("ring pool is closed")
            ring = self._take_idle(num_nodes)
        if ring is not None and not ring.alive:
            # A shelved ring can only die from worker crash while idle;
            # treat it as a miss.
            ring.close()
            with self._lock:
                self.retired += 1
            self._metrics.inc("ring_retires")
            ring = None
        if ring is None:
            ring = WorkerRing(num_nodes, transport=self.transport).start()
            with self._lock:
                self.spawned += 1
            self._metrics.inc("ring_spawns")
        else:
            with self._lock:
                self.reused += 1
            self._metrics.inc("ring_reuses")
        before = dict(ring.world_stats)
        try:
            yield ring
        finally:
            deltas = {
                name: count - before[name]
                for name, count in ring.world_stats.items()
            }
            with self._lock:
                for name, delta in deltas.items():
                    self.worlds[name] += delta
            for name, delta in deltas.items():
                self._metrics.inc(f"ring_world_{name}", delta)
            self._release(num_nodes, ring)

    def _release(self, num_nodes: int, ring: WorkerRing) -> None:
        if not ring.alive:
            ring.close()
            with self._lock:
                self.retired += 1
            self._metrics.inc("ring_retires")
            return
        to_close: list[WorkerRing] = []
        with self._lock:
            if self._closed or self.max_idle == 0:
                to_close.append(ring)
            else:
                self._token += 1
                self._idle[self._token] = (num_nodes, ring)
                while len(self._idle) > self.max_idle:
                    _, (_, oldest) = self._idle.popitem(last=False)
                    to_close.append(oldest)
        for stale in to_close:
            stale.close()
            with self._lock:
                self.retired += 1
            self._metrics.inc("ring_retires")

    # ------------------------------------------------------------------
    def idle_count(self) -> int:
        with self._lock:
            return len(self._idle)

    def stats(self) -> dict:
        with self._lock:
            return {
                "idle": len(self._idle),
                "max_idle": self.max_idle,
                "spawned": self.spawned,
                "reused": self.reused,
                "retired": self.retired,
                **{f"world_{name}": n for name, n in self.worlds.items()},
                "transport": self.transport,
            }

    def close(self) -> None:
        """Close every idle ring and refuse further leases."""
        with self._lock:
            self._closed = True
            rings = [ring for _, ring in self._idle.values()]
            self._idle.clear()
        for ring in rings:
            ring.close()
