"""Simulation-as-a-service: the asyncio job server and its caches.

``python -m repro serve --port 8472`` turns the process backend into a
long-lived service: POSTed jobs (a named benchmark or inline BENCH
source, a partitioner, a machine config) run on a pool of warm
:class:`~repro.warped.parallel.ring.WorkerRing` worker rings, behind a
two-tier cache — a partition cache (partitioning dominates setup cost
on repeat configurations) and a full-result cache (a repeat job is a
dictionary lookup).  Live per-node status streams over Server-Sent
Events while a job runs.

Layering::

    app.py    HTTP surface (stdlib asyncio; no third-party deps)
    jobs.py   JobRequest, the validated job (its fields are every
              cache key: a job is its request); JobManager: queueing,
              concurrency, timeouts, caching, and the /metrics view
              over the counts each layer keeps
    pool.py   RingPool: warm WorkerRing lifecycle
    cache.py  LruCache: bounded, counts its hits/misses/evictions
"""

from repro.serve.cache import LruCache
from repro.serve.jobs import JobManager, JobRequest, JobState
from repro.serve.pool import RingPool

__all__ = [
    "JobManager",
    "JobRequest",
    "JobState",
    "LruCache",
    "RingPool",
]
