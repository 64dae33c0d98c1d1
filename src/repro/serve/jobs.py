"""Job lifecycle for the simulation server.

:class:`JobRequest` is the validated, immutable description of one
simulation a client asked for — a named benchmark or inline BENCH
source, a partitioner, the machine knobs.  :class:`JobManager` runs
requests on a bounded thread pool, each worker thread leasing a warm
ring from the :class:`~repro.serve.pool.RingPool`, behind the two-tier
cache:

1. **Result cache** — keyed by :func:`~repro.serve.keys.result_key`.
   A hit returns the stored :class:`TimeWarpResult` object itself: the
   served payload is bit-identical to the cold run that populated the
   entry, in every counter (the cache-key layer guarantees nothing
   semantic differs between the two jobs).
2. **Partition cache** — keyed by
   :func:`~repro.serve.keys.partition_key`; partitioning dominates the
   setup cost of repeat configurations that differ only in stimulus or
   machine knobs.  An entry is the partition's
   :class:`~repro.warped.world.World` — circuit and assignment as one
   value, so the circuit the stimulus is built on is the assignment's,
   and the object a warm ring keeps resident in its workers is the one
   cached here: a partition hit is a world hit.

Jobs are cancellable: a queued job is simply dropped; a running one
has its leased ring killed (cancellation costs the ring — there is no
safe mid-GVT stop), and the pool replaces it on the next lease.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

from repro.circuit.bench_parser import parse_bench
from repro.circuit.graph import CircuitGraph
from repro.circuit.iscas89 import load_benchmark
from repro.errors import ConfigError, ReproError
from repro.obs import Metrics
from repro.obs.tracer import shard_path
from repro.partition.registry import get_partitioner
from repro.serve.cache import LruCache
from repro.serve.keys import (
    circuit_fingerprint,
    machine_fingerprint,
    partition_key,
    result_key,
    stimulus_fingerprint,
)
from repro.serve.pool import RingPool
from repro.sim.stimulus import RandomStimulus
from repro.warped.machine import VirtualMachine
from repro.warped.stats import TimeWarpResult
from repro.warped.world import World


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: Hard ceiling on a client-supplied timeout (a server must not let one
#: job camp on a worker slot for hours).
MAX_TIMEOUT = 600.0
#: Finished jobs the table remembers.  Each holds its whole
#: :class:`TimeWarpResult`, so an unbounded table is a leak the size of
#: the server's lifetime; an evicted id answers 404 like an unknown one.
#: (The result cache is separate: a repeat of an evicted job still hits.)
MAX_TERMINAL_JOBS = 1024


@dataclass(frozen=True)
class JobRequest:
    """One client-submitted simulation, validated at construction."""

    #: Named benchmark (``s27``/``s5378``/...) — exclusive with *bench*.
    circuit: str | None = None
    #: Inline ISCAS'89 ``.bench`` netlist source.
    bench: str | None = None
    scale: float = 1.0
    circuit_seed: int = 2000
    algorithm: str = "Multilevel"
    partition_seed: int = 3
    nodes: int = 2
    num_cycles: int = 40
    period: int = 100
    activity: float = 0.5
    stimulus_seed: int = 7
    gvt_interval: int = 512
    optimism_window: int | None = 100
    migration_threshold: float | None = None
    migration_fraction: float = 0.05
    max_events: int = 50_000_000
    timeout: float = 120.0

    def __post_init__(self) -> None:
        if (self.circuit is None) == (self.bench is None):
            raise ConfigError(
                "a job names exactly one netlist source: 'circuit' "
                "(a benchmark name) or 'bench' (inline netlist text)"
            )
        if self.nodes < 1:
            raise ConfigError("nodes must be >= 1")
        if self.num_cycles < 2:
            raise ConfigError("need at least 2 cycles (cycle 0 is reset)")
        if not 0.0 < self.activity <= 1.0:
            raise ConfigError("activity must be in (0, 1]")
        if self.period < 1:
            raise ConfigError("period must be >= 1")
        if self.max_events < 1:
            raise ConfigError("max_events must be >= 1")
        if not 0 < self.timeout <= MAX_TIMEOUT:
            raise ConfigError(f"timeout must be in (0, {MAX_TIMEOUT:g}]")

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRequest":
        if not isinstance(payload, dict):
            raise ConfigError("job payload must be a JSON object")
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown job field(s): {sorted(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def machine(self) -> VirtualMachine:
        return VirtualMachine(
            num_nodes=self.nodes,
            gvt_interval=self.gvt_interval,
            optimism_window=self.optimism_window,
            migration_threshold=self.migration_threshold,
            migration_fraction=self.migration_fraction,
        )

    def describe(self) -> dict:
        payload = dataclasses.asdict(self)
        if payload["bench"] is not None:
            # Don't echo whole netlists back in job listings.
            payload["bench"] = (
                f"<{len(self.bench)} chars, "
                f"sha256 {hashlib.sha256(self.bench.encode()).hexdigest()[:12]}>"
            )
        return payload


@dataclass
class Job:
    """Mutable server-side record of one submitted request."""

    id: str
    request: JobRequest
    state: JobState = JobState.QUEUED
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    error: str | None = None
    result: TimeWarpResult | None = None
    #: "hit" / "miss" per cache tier, filled in as the job executes.
    cache: dict = field(default_factory=dict)
    #: Live-status snapshot base path (None when the server has no
    #: status directory).
    status_base: str | None = None
    cancel_requested: bool = False
    _ring = None  # leased WorkerRing while RUNNING (not serialised)
    _done_event: threading.Event = field(default_factory=threading.Event)
    _future = None

    def to_dict(self, *, include_result: bool = True) -> dict:
        payload = {
            "id": self.id,
            "state": self.state.value,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "cache": dict(self.cache),
            "request": self.request.describe(),
        }
        if include_result and self.result is not None:
            payload["result"] = dataclasses.asdict(self.result)
        return payload


class JobManager:
    """Bounded-concurrency executor + two-tier cache for served jobs."""

    def __init__(
        self,
        *,
        transport: str | None = None,
        max_concurrency: int = 2,
        result_cache_size: int = 128,
        partition_cache_size: int = 64,
        circuit_cache_size: int = 32,
        max_idle_rings: int = 4,
        status_dir: str | None = None,
        metrics: Metrics | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ConfigError("max_concurrency must be >= 1")
        self.metrics = metrics if metrics is not None else Metrics(enabled=True)
        self.result_cache = LruCache(
            result_cache_size, metrics=self.metrics, name="result_cache"
        )
        self.partition_cache = LruCache(
            partition_cache_size, metrics=self.metrics, name="partition_cache"
        )
        self._circuit_cache = LruCache(
            circuit_cache_size, metrics=self.metrics, name="circuit_cache"
        )
        self.pool = RingPool(
            transport=transport,
            max_idle=max_idle_rings,
            metrics=self.metrics,
        )
        self.status_dir = status_dir
        if status_dir is not None:
            os.makedirs(status_dir, exist_ok=True)
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="serve-job"
        )
        self._jobs: dict[str, Job] = {}
        #: Ids of terminal jobs, oldest finish first (eviction order).
        self._finished: deque[str] = deque()
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # submission / queries
    # ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> Job:
        """Queue *request*; returns its :class:`Job` record."""
        with self._lock:
            if self._closed:
                raise ConfigError("job manager is closed")
            job_id = f"job-{next(self._seq):06d}"
            job = Job(id=job_id, request=request)
            if self.status_dir is not None:
                job.status_base = os.path.join(self.status_dir, job_id)
            self._jobs[job_id] = job
            # Only terminal ids are ever in _finished, so a queued or
            # running job cannot be evicted.
            while len(self._finished) > MAX_TERMINAL_JOBS:
                self._jobs.pop(self._finished.popleft(), None)
        self.metrics.inc("jobs_submitted")
        job._future = self._executor.submit(self._execute, job)
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: float | None = None) -> Job | None:
        """Block until the job reaches a terminal state (long-poll)."""
        job = self.get(job_id)
        if job is None:
            return None
        job._done_event.wait(timeout)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; True if anything changed."""
        job = self.get(job_id)
        if job is None or job.state.terminal:
            return False
        job.cancel_requested = True
        future = job._future
        if future is not None and future.cancel():
            # Never started: finalise here (the executor won't call us).
            self._finish(job, JobState.CANCELLED, error="cancelled while queued")
            return True
        ring = job._ring
        if ring is not None:
            # Running: killing the ring unblocks the worker thread's
            # run_job with a SimulationError; _execute turns that into
            # CANCELLED because cancel_requested is set.
            ring.kill()
        return True

    def status_snapshots(self, job_id: str) -> dict[int, dict]:
        """Current per-node live-status snapshots for a running job.

        Only snapshots stamped with this job's run id are returned —
        a recycled status base can briefly hold files from an earlier,
        wider run.
        """
        job = self.get(job_id)
        if job is None or job.status_base is None:
            return {}
        snapshots: dict[int, dict] = {}
        for node in range(job.request.nodes):
            try:
                with open(shard_path(job.status_base, node)) as fh:
                    snapshot = json.loads(fh.read())
            except (OSError, ValueError):
                continue
            if snapshot.get("run") == job.id:
                snapshots[node] = snapshot
        return snapshots

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _resolve_circuit(self, request: JobRequest):
        """(circuit, digest) for the request's netlist, cached."""
        if request.bench is not None:
            key = ("bench", hashlib.sha256(request.bench.encode()).hexdigest())
        else:
            key = (
                "named", request.circuit, request.scale, request.circuit_seed,
            )
        entry = self._circuit_cache.get(key)
        if entry is None:
            if request.bench is not None:
                circuit = parse_bench(request.bench, name="inline")
            else:
                circuit = load_benchmark(
                    request.circuit,
                    scale=request.scale,
                    seed=request.circuit_seed,
                )
            entry = (circuit, circuit_fingerprint(circuit))
            self._circuit_cache.put(key, entry)
        return entry

    def _resolve_partition(self, request: JobRequest, circuit, digest):
        """The request's :class:`World` under the partition cache.

        On a hit the stimulus must be built on the *cached* world's
        circuit object (the circuit cache may have re-parsed since).
        """
        pkey = partition_key(
            digest, request.algorithm, request.partition_seed, request.nodes
        )
        world = self.partition_cache.get(pkey)
        if world is None:
            world = World.of(
                get_partitioner(
                    request.algorithm, seed=request.partition_seed
                ).partition(circuit, request.nodes)
            )
            self.partition_cache.put(pkey, world)
            return world, "miss"
        return world, "hit"

    def _execute(self, job: Job) -> None:
        request = job.request
        try:
            job.started = time.time()
            job.state = JobState.RUNNING
            circuit, digest = self._resolve_circuit(request)
            machine = request.machine()
            rkey = result_key(
                digest,
                request.algorithm,
                request.partition_seed,
                request.nodes,
                machine_fingerprint(machine),
                stimulus_fingerprint(
                    request.num_cycles,
                    request.period,
                    request.activity,
                    request.stimulus_seed,
                ),
                request.max_events,
            )
            cached = self.result_cache.get(rkey)
            if cached is not None:
                job.cache["result"] = "hit"
                job.result = cached
                self.metrics.inc("jobs_result_cache_hits")
                self._finish(job, JobState.DONE)
                return
            job.cache["result"] = "miss"
            world, partition_state = self._resolve_partition(
                request, circuit, digest
            )
            job.cache["partition"] = partition_state
            stimulus = RandomStimulus(
                world.circuit,
                num_cycles=request.num_cycles,
                period=request.period,
                activity=request.activity,
                seed=request.stimulus_seed,
            )
            if job.cancel_requested:
                raise CancelledError("cancelled before execution")
            with self.metrics.time("job_run_seconds"):
                with self.pool.lease(request.nodes) as ring:
                    job._ring = ring
                    try:
                        # A cancel that landed while the ring was being
                        # leased found no ring to kill: honour it here.
                        if job.cancel_requested:
                            raise CancelledError("cancelled before execution")
                        result = ring.run_job(
                            world.circuit,
                            world,
                            stimulus,
                            machine,
                            max_events=request.max_events,
                            timeout=request.timeout,
                            status_path=job.status_base,
                            run_id=job.id,
                        )
                    finally:
                        job._ring = None
            self.result_cache.put(rkey, result)
            job.result = result
            self._finish(job, JobState.DONE)
        except CancelledError as exc:
            self._finish(job, JobState.CANCELLED, error=str(exc))
        except BaseException as exc:  # noqa: BLE001 - server must survive
            if job.cancel_requested:
                # The killed ring surfaces as whatever run_job was blocked
                # in: a SimulationError, or an OSError on a closed pipe.
                self._finish(job, JobState.CANCELLED, error="cancelled mid-run")
            elif isinstance(exc, ReproError):
                self._finish(job, JobState.FAILED, error=str(exc))
            else:
                self._finish(
                    job, JobState.FAILED, error=f"{type(exc).__name__}: {exc}"
                )

    def _finish(
        self, job: Job, state: JobState, *, error: str | None = None
    ) -> None:
        job.state = state
        job.error = error
        job.finished = time.time()
        self.metrics.inc(f"jobs_{state.value}")
        self._finished.append(job.id)
        job._done_event.set()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        states: dict[str, int] = {}
        with self._lock:
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
        return {
            "jobs": states,
            "result_cache": self.result_cache.stats(),
            "partition_cache": self.partition_cache.stats(),
            "circuit_cache": self._circuit_cache.stats(),
            "pool": self.pool.stats(),
        }

    def close(self) -> None:
        """Cancel queued jobs, wait for running ones, shut the pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            jobs = list(self._jobs.values())
        for job in jobs:
            future = job._future
            if future is not None and future.cancel():
                self._finish(
                    job, JobState.CANCELLED, error="server shutting down"
                )
        self._executor.shutdown(wait=True)
        self.pool.close()
