"""Job lifecycle for the simulation server.

:class:`JobRequest` is the validated, immutable description of one
simulation a client asked for — a named benchmark or inline BENCH
source, a partitioner, the machine knobs.  :class:`JobManager` runs
requests on a bounded thread pool, each worker thread leasing a warm
ring from the :class:`~repro.serve.pool.RingPool`, behind the two-tier
cache.  Every cache key is a projection of the request, so "the same
job" has one definition: the request's fields.

1. **Result cache** — keyed by :meth:`JobRequest.result_key`, every
   field but ``timeout``.  A hit returns the stored
   :class:`TimeWarpResult` object itself: the served payload is
   bit-identical to the cold run that populated the entry, in every
   counter.
2. **Partition cache** — keyed by :meth:`JobRequest.partition_key`,
   the netlist source plus algorithm, seed and node count;
   partitioning dominates the setup cost of repeat configurations that
   differ only in stimulus or machine knobs.  An entry is the
   partition's :class:`~repro.warped.world.World` — circuit and
   assignment as one value, so the circuit the stimulus is built on is
   the assignment's, and the object a warm ring keeps resident in its
   workers is the one cached here: a partition hit is a world hit.

A netlist source is a benchmark name (with scale and seed) or the
digest of the inline text, never the circuit's structure: committed
results are indexed by gate number, and gate numbers follow line order,
so two orderings of one netlist are two jobs.

Jobs are cancellable: a queued job is simply dropped; a running one
has its leased ring killed (cancellation costs the ring — there is no
safe mid-GVT stop), and the pool replaces it on the next lease.

Every count the server reports lives once, on the object that makes
it: the caches count their hits, misses and evictions, the pool its
rings and world ships, and the manager its submissions, terminal
states and ring run times.  :meth:`JobManager.stats` is the
``/metrics`` view over them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import threading
import time
from collections import deque
from concurrent import futures
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

from repro.circuit.bench_parser import parse_bench
from repro.circuit.iscas89 import benchmark_spec, load_benchmark
from repro.errors import ConfigError, PartitionError, ReproError, SimulationError
from repro.obs.metrics import summarize
from repro.obs.tracer import shard_path
from repro.partition.registry import get_partitioner
from repro.serve.cache import LruCache
from repro.serve.pool import RingPool
from repro.sim.stimulus import RandomStimulus, check_schedule
from repro.warped.machine import VirtualMachine
from repro.warped.parallel.ring import clear_status_files
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
#: Ceiling on ``nodes``: a leased ring forks one worker per node, and
#: the paper's largest machine has 8.
MAX_NODES = 64
#: Ceiling on ``num_cycles``: the stimulus (one value per primary input
#: per cycle) is built inside the server process; the paper runs 400.
#: (``period`` needs no ceiling: no memory or work grows with it.)
MAX_CYCLES = 10_000
#: Finished jobs the table remembers.  Each holds its whole
#: :class:`TimeWarpResult`, so an unbounded table is a leak the size of
#: the server's lifetime; an evicted id answers 404 like an unknown one,
#: and its live-status files are deleted with it.  The ring run times
#: ``/metrics`` digests are bounded to as many of the newest.
#: (The result cache is separate: a repeat of an evicted job still hits.)
MAX_TERMINAL_JOBS = 1024
#: Finished results the result cache keeps.  A served result is ≈5 KB;
#: 128 is four times the window the served mix draws its repeats from.
RESULT_CACHE_SIZE = 128
#: Partition worlds the partition cache keeps (a circuit plus its
#: assignment each, so half as many as results).
PARTITION_CACHE_SIZE = 64
#: Parsed netlists: the four named benchmarks plus inline sources.
CIRCUIT_CACHE_SIZE = 32

#: What a field annotated with each base type accepts (``bool`` never:
#: it is an ``int`` to ``isinstance``, and not a count or a seed).
_FIELD_TYPES = {"str": (str,), "int": (int,), "float": (int, float)}


@dataclass(frozen=True)
class JobRequest:
    """One client-submitted simulation, validated at construction.

    The request is the job: the serve caches key on its fields
    (:meth:`partition_key`, :meth:`result_key`), so every field is
    type-checked as well as range-checked.  ``source`` is the netlist
    source key the circuit cache uses: ``("named", circuit, scale,
    circuit_seed)`` or ``("bench", sha256 of the text)``.
    """

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
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            base, _, optional = spec.type.partition(" | ")
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(
                value, _FIELD_TYPES[base]
            ):
                raise ConfigError(
                    f"{spec.name} must be {spec.type}, "
                    f"not {type(value).__name__}"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{spec.name} must be finite")
        if (self.circuit is None) == (self.bench is None):
            raise ConfigError(
                "a job names exactly one netlist source: 'circuit' "
                "(a benchmark name) or 'bench' (inline netlist text)"
            )
        if self.scale <= 0:
            raise ConfigError("scale must be positive")
        if self.circuit is not None:
            benchmark_spec(
                self.circuit, scale=self.scale, seed=self.circuit_seed
            )
        try:
            get_partitioner(self.algorithm)
            check_schedule(self.num_cycles, self.period)
        except (PartitionError, SimulationError) as exc:
            raise ConfigError(str(exc)) from None
        if self.nodes > MAX_NODES:
            raise ConfigError(f"nodes must be <= {MAX_NODES}")
        self.machine()  # validates nodes and the machine knobs
        if not 2 <= self.num_cycles <= MAX_CYCLES:
            raise ConfigError(
                f"num_cycles must be in [2, {MAX_CYCLES}] "
                "(cycle 0 is reset)"
            )
        if not 0.0 < self.activity <= 1.0:
            raise ConfigError("activity must be in (0, 1]")
        if self.max_events < 1:
            raise ConfigError("max_events must be >= 1")
        if not 0 < self.timeout <= MAX_TIMEOUT:
            raise ConfigError(f"timeout must be in (0, {MAX_TIMEOUT:g}]")
        # Derived once, so no job hashes its netlist twice.  Not a
        # field: it is no constructor argument and no part of equality.
        if self.bench is not None:
            source = ("bench", hashlib.sha256(self.bench.encode()).hexdigest())
        else:
            source = ("named", self.circuit, self.scale, self.circuit_seed)
        object.__setattr__(self, "source", source)

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

    def partition_key(self) -> tuple:
        """The partition is a function of the netlist source and these."""
        return (self.source, self.algorithm, self.partition_seed, self.nodes)

    def result_key(self) -> tuple:
        """Every field but ``timeout`` (which only bounds the wait),
        with ``bench`` replaced by the source key, which holds its
        digest.  A field added later is in the key unless it is left
        out here on purpose."""
        return tuple(
            self.source if spec.name == "bench" else getattr(self, spec.name)
            for spec in dataclasses.fields(self)
            if spec.name != "timeout"
        )

    def describe(self) -> dict:
        payload = dataclasses.asdict(self)
        if payload["bench"] is not None:
            # Don't echo whole netlists back in job listings.
            payload["bench"] = (
                f"<{len(self.bench)} chars, sha256 {self.source[1][:12]}>"
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
    #: The executor's future; done once the job is terminal.  Set
    #: before the job is published, so every reader finds it.
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
        status_dir: str | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ConfigError("max_concurrency must be >= 1")
        self.result_cache = LruCache(RESULT_CACHE_SIZE)
        self.partition_cache = LruCache(PARTITION_CACHE_SIZE)
        self._circuit_cache = LruCache(CIRCUIT_CACHE_SIZE)
        self.pool = RingPool(transport=transport)
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
        #: Jobs submitted and jobs that reached each terminal state,
        #: over the server's lifetime.
        self.submitted = 0
        self.outcomes = {
            state.value: 0 for state in JobState if state.terminal
        }
        #: Seconds each of the newest result-cache misses held its
        #: leased ring (spawn or reuse, run, release).
        self.run_seconds: deque[float] = deque(maxlen=MAX_TERMINAL_JOBS)
        # Reentrant: _finish takes it, and cancel/close call _finish
        # holding it.
        self._lock = threading.RLock()
        self._closed = False

    # ------------------------------------------------------------------
    # submission / queries
    # ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> Job:
        """Queue *request*; returns its :class:`Job` record."""
        evicted = []
        with self._lock:
            if self._closed:
                raise ConfigError("job manager is closed")
            job_id = f"job-{next(self._seq):06d}"
            job = Job(id=job_id, request=request)
            if self.status_dir is not None:
                job.status_base = os.path.join(self.status_dir, job_id)
            job._future = self._executor.submit(self._execute, job)
            self._jobs[job_id] = job
            self.submitted += 1
            # Only terminal ids are ever in _finished, so a queued or
            # running job cannot be evicted.
            while len(self._finished) > MAX_TERMINAL_JOBS:
                old = self._jobs.pop(self._finished.popleft(), None)
                if old is not None:
                    evicted.append(old)
        for old in evicted:
            if old.status_base is not None:
                clear_status_files(old.status_base)
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
        futures.wait([job._future], timeout)
        # A job cancelled while queued has its future cancelled and is
        # finished under the lock: taking it orders this read after.
        with self._lock:
            return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; True if anything changed."""
        job = self.get(job_id)
        if job is None or job.state.terminal:
            return False
        job.cancel_requested = True
        with self._lock:
            if job._future.cancel():
                # Never started: finalise here (the executor won't call
                # us).
                self._finish(
                    job, JobState.CANCELLED, error="cancelled while queued"
                )
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
    def _resolve_world(self, request: JobRequest):
        """The request's :class:`World` under the partition cache, and
        whether it was a hit; a miss partitions the request's circuit,
        parsed or generated once per netlist source."""
        key = request.partition_key()
        world = self.partition_cache.get(key)
        if world is not None:
            return world, "hit"
        circuit = self._circuit_cache.get(request.source)
        if circuit is None:
            if request.bench is not None:
                circuit = parse_bench(request.bench, name="inline")
            else:
                circuit = load_benchmark(
                    request.circuit,
                    scale=request.scale,
                    seed=request.circuit_seed,
                )
            self._circuit_cache.put(request.source, circuit)
        world = World.of(
            get_partitioner(
                request.algorithm, seed=request.partition_seed
            ).partition(circuit, request.nodes)
        )
        self.partition_cache.put(key, world)
        return world, "miss"

    def _execute(self, job: Job) -> None:
        request = job.request
        try:
            job.started = time.time()
            job.state = JobState.RUNNING
            rkey = request.result_key()
            cached = self.result_cache.get(rkey)
            if cached is not None:
                job.cache["result"] = "hit"
                job.result = cached
                self._finish(job, JobState.DONE)
                return
            job.cache["result"] = "miss"
            world, job.cache["partition"] = self._resolve_world(request)
            stimulus = RandomStimulus(
                world.circuit,
                num_cycles=request.num_cycles,
                period=request.period,
                activity=request.activity,
                seed=request.stimulus_seed,
            )
            if job.cancel_requested:
                raise CancelledError("cancelled before execution")
            leased = time.perf_counter()
            try:
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
                            request.machine(),
                            max_events=request.max_events,
                            timeout=request.timeout,
                            status_path=job.status_base,
                            run_id=job.id,
                        )
                    finally:
                        job._ring = None
            finally:
                self.run_seconds.append(time.perf_counter() - leased)
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
        with self._lock:
            job.state = state
            job.error = error
            job.finished = time.time()
            self.outcomes[state.value] += 1
            self._finished.append(job.id)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``/metrics`` payload: a view over the counts the caches,
        the pool and this manager keep.

        ``counters`` repeats them under the flat names a metrics
        scraper reads (``result_cache_hits``, ``ring_spawns``,
        ``jobs_done`` ...), each rendered from its one owner.
        """
        states: dict[str, int] = {}
        with self._lock:
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            submitted = self.submitted
            outcomes = dict(self.outcomes)
            run_seconds = list(self.run_seconds)
        caches = {
            "result_cache": self.result_cache.stats(),
            "partition_cache": self.partition_cache.stats(),
            "circuit_cache": self._circuit_cache.stats(),
        }
        pool = self.pool.stats()
        counters = {
            f"{cache}_{count}": stats[count]
            for cache, stats in caches.items()
            for count in ("hits", "misses", "evictions")
        }
        counters.update(
            ring_spawns=pool["spawned"],
            ring_reuses=pool["reused"],
            ring_retires=pool["retired"],
            ring_world_ships=pool["world_ships"],
            ring_world_hits=pool["world_hits"],
            ring_world_evictions=pool["world_evictions"],
            jobs_submitted=submitted,
            jobs_result_cache_hits=caches["result_cache"]["hits"],
            **{f"jobs_{state}": n for state, n in outcomes.items()},
        )
        return {
            "jobs": states,
            **caches,
            "pool": pool,
            "counters": {
                "counters": counters,
                "histograms": {"job_run_seconds": summarize(run_seconds)},
            },
        }

    def close(self) -> None:
        """Cancel queued jobs, wait for running ones, shut the pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for job in self._jobs.values():
                # A job cancelled while queued is finished already (and
                # its future, cancelled, would answer True again).
                if not job.state.terminal and job._future.cancel():
                    self._finish(
                        job, JobState.CANCELLED, error="server shutting down"
                    )
        self._executor.shutdown(wait=True)
        self.pool.close()
