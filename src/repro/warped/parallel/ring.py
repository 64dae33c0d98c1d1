"""Time Warp worker rings: the parent side of the node processes.

:class:`WorkerRing` is the one code that forks, watches, joins and
terminates node processes.  It forks N workers into
:func:`~repro.warped.parallel.worker.worker_main` and executes jobs on
them: per job it admits the job's world (below), puts one
:class:`~repro.warped.parallel.worker.JobSpec` and one
:class:`~repro.warped.parallel.worker.NodeAttempt` on each worker's job
queue, collects one DONE payload per node from the control channel and
assembles them into a :class:`~repro.warped.stats.TimeWarpResult`
(:func:`assemble_result`).  What a worker does with a job — drain and
arm its inbox, build a fresh engine and loop, run to quiescence — is
:mod:`repro.warped.parallel.worker`'s.

A ring lives for one job or for many, and nothing else differs:

- **A run.**  :class:`~repro.warped.parallel.backend.ProcessTimeWarpSimulator`
  is a ring that lives for one job: :meth:`WorkerRing.run_job` starts
  it, forking the workers with the job's world already in their
  tables, so the job ships no world.  A crash-recovery run is a
  sequence of such rings; the restart policy is the simulator's, and a
  ring carries out one attempt of it (one
  :class:`~repro.warped.parallel.worker.NodeAttempt` per node:
  checkpoint directory, restore payload, in-flight replays) and
  reports how it failed.
- **A served ring.**  ``repro.serve`` keeps a pool of rings started
  empty with :meth:`WorkerRing.start`, each running job after job:
  process spawn, interpreter fork, transport construction and teardown
  happen once instead of per job.

Committed results are bit-identical either way, and the differential
test layer holds them to that.

**Resident worlds.**  The circuit, the partition and what a node
derives from them (:class:`~repro.warped.world.World`) belong to many
jobs, so the ring ships a world to its workers the first time a job
needs it and the workers keep it; every later job on it is a
:class:`~repro.warped.parallel.worker.JobSpec` of about a kilobyte —
the world's key, the stimulus table, the knobs.  Residency is decided
in exactly one place, the parent: :attr:`WorkerRing._resident` is an
LRU of the worlds the workers hold, bounded by
:data:`WORLD_GATE_BUDGET`, and each job message tells the workers what
to install and what to drop.  A worker never decides (it cannot know
what the parent will send next, and two tables that can disagree are a
protocol, not a cache): asked for a world it does not hold, it fails
the job with an error naming the world.

Any worker error, death or timeout poisons the whole ring — peers may
be mid-GVT-round with in-flight messages — so the ring tears its
processes down and refuses further jobs; the caller replaces it (the
pool, or the simulator's next attempt).  Aggressive cancellation only,
and one job at a time per ring: concurrency comes from pooling rings,
not from multiplexing one.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import os
import queue as queue_mod
import time
from collections import OrderedDict
from collections.abc import Sequence

from repro.circuit.graph import CircuitGraph
from repro.errors import ConfigError, SimulationError
from repro.obs.tracer import merge_shards, shard_path
from repro.partition.assignment import PartitionAssignment
from repro.sim.stimulus import Stimulus
from repro.warped.machine import VirtualMachine, check_job
from repro.warped.parallel import recovery as recovery_mod
from repro.warped.parallel.protocol import CKPT, DONE, ERROR
from repro.warped.parallel.transport import drain_queue, make_transport
from repro.warped.parallel.worker import JobSpec, NodeAttempt, STOP, worker_main
from repro.warped.stats import NodeStats, TimeWarpResult, node_totals
from repro.warped.world import World

#: Join budget when closing a healthy ring.
_CLOSE_PATIENCE = 5.0
#: Gates a ring keeps resident in its workers, summed over worlds (the
#: newest world always stays, whatever its size).  A resident world
#: costs each worker ≈1.7 KB per gate (measured: the unpickled netlist,
#: one roster's statics, one skeleton), so this is ≈14 MB per worker —
#: fourteen served-shape (563-gate) circuits, or the one paper-scale
#: circuit in use.
WORLD_GATE_BUDGET = 8_192


class RingFailure(SimulationError):
    """A job failed and poisoned its ring.

    ``failed`` names the nodes that died or reported an error;
    ``restartable`` says whether a fresh ring resuming from a checkpoint
    can help — not after a timeout: a wedged-but-alive worker is a
    liveness failure no crash detector confirmed.
    """

    def __init__(
        self, failed: set[int], reason: str, *, restartable: bool = True
    ) -> None:
        super().__init__(reason)
        self.failed = failed
        self.restartable = restartable


class _ControlQueue:
    """Feeder-less control channel (DONE/ERROR/CKPT) over ``SimpleQueue``.

    ``mp.Queue`` starts a feeder thread in each process on its first
    ``put``; for the control channel that thread's startup cost lands
    inside the measured run, right at the worker's final report.
    ``SimpleQueue`` writes the pickle straight into the pipe — no
    thread, and nothing a worker reported can still be in flight once
    it has exited — and this wrapper adds the small Queue surface the
    collection loop and the shutdown drains rely on.
    """

    def __init__(self, ctx) -> None:
        self._q = ctx.SimpleQueue()

    def put(self, item) -> None:
        self._q.put(item)

    def get(self, timeout: float | None = None):
        if timeout is not None and not self._q._reader.poll(timeout):
            raise queue_mod.Empty
        return self._q.get()

    def get_nowait(self):
        return self.get(timeout=0)

    def close(self) -> None:
        self._q.close()


class WorkerRing:
    """N node processes executing one simulation job at a time.

    :meth:`run_job` on a ring that is not running forks it with that
    job's world resident; :meth:`start` forks it empty (a pool, which
    does not know its jobs yet).  :meth:`close` shuts the ring down.
    Also usable as a context manager (started empty).  ``jobs_run``
    counts completed jobs; ``alive`` turns False the moment a job
    poisons the ring (after which :meth:`run_job` raises and the ring
    only accepts :meth:`close`).
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        transport: str | None = None,
        inbox_maxsize: int | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        self.num_nodes = num_nodes
        #: ``REPRO_TW_TRANSPORT`` overrides the built-in default
        #: (``queue``) so CI can sweep the whole process-backend test
        #: matrix across transports; a ring is the one place it is read.
        self.transport = (
            transport
            if transport is not None
            else os.environ.get("REPRO_TW_TRANSPORT", "queue")
        )
        self.inbox_maxsize = inbox_maxsize
        self._transport = make_transport(self.transport)
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._inboxes = None
        self._job_queues: list = []
        self._results: _ControlQueue | None = None
        self._workers: list = []
        #: World -> its key in the workers' tables, least recently used
        #: first: exactly the worlds the workers hold.
        self._resident: OrderedDict[World, str] = OrderedDict()
        #: Residency counters: worlds shipped to the workers, jobs that
        #: found theirs resident, worlds the budget pushed out.
        self.world_stats = {"ships": 0, "hits": 0, "evictions": 0}
        self.jobs_run = 0
        self._started = False
        self._dead = False
        #: OS pid of each worker (evidence of real process execution,
        #: and of reuse: stable across jobs).
        self.worker_pids: dict[int, int] = {}
        #: Exit code of each worker once the ring is closed or poisoned
        #: (0 = clean; negative = terminated by that signal).
        self.worker_exitcodes: dict[int, int | None] = {}

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the ring is started, healthy, and not closed."""
        return (
            self._started
            and not self._dead
            and all(w.is_alive() for w in self._workers)
        )

    # ------------------------------------------------------------------
    def start(self) -> "WorkerRing":
        """Fork the worker processes, holding no world yet (idempotent)."""
        if not self._started:
            self._fork(None)
        return self

    def _fork(self, seed: World | None) -> None:
        """Fork the workers — with *seed* already resident in every
        worker's table, so the job that brought it ships nothing."""
        self._started = True
        worlds: dict[str, World] = {}
        if seed is not None:
            key = self._resident[seed] = f"{seed.name}#0"
            worlds[key] = seed
        n = self.num_nodes
        self._inboxes = self._transport.make_inboxes(
            self._ctx, n, self.inbox_maxsize
        )
        self._job_queues = [self._ctx.SimpleQueue() for _ in range(n)]
        self._barrier = self._ctx.Barrier(n)
        self._results = _ControlQueue(self._ctx)
        self._workers = [
            self._ctx.Process(
                target=worker_main,
                args=(
                    node, self._inboxes, self._job_queues[node],
                    self._barrier, self._results, worlds,
                ),
                daemon=True,
                name=f"timewarp-ring-{node}",
            )
            for node in range(n)
        ]
        for worker in self._workers:
            worker.start()
        self.worker_pids = {i: w.pid for i, w in enumerate(self._workers)}

    def __enter__(self) -> "WorkerRing":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run_job(
        self,
        circuit: CircuitGraph,
        assignment: PartitionAssignment | World,
        stimulus: Stimulus,
        machine: VirtualMachine,
        *,
        max_events: int = 50_000_000,
        timeout: float = 120.0,
        trace_path: str | None = None,
        status_path: str | None = None,
        run_id: str = "",
        fault_spec: str = "",
        attempt: Sequence[NodeAttempt] | None = None,
    ) -> TimeWarpResult:
        """Execute one job on the ring; returns its result.

        Accepts the simulator's (circuit, assignment, stimulus, machine)
        quadruple with the same validation; *assignment* may already be
        a :class:`World` (what ``repro.serve`` caches).  A ring that is
        not running yet is forked with the job's world resident; a
        running one ships the world only if its workers do not hold an
        equal one.  *fault_spec* is a resolved ``REPRO_TW_FAULT`` string
        (a test hook).  *attempt*, one :class:`NodeAttempt` per node,
        makes the job one try of a supervised run: checkpoints go to its
        directory, a restart's nodes restore its epoch and handle its
        replays, and the trace shards are left for the supervisor to
        merge across attempts.

        On any worker error, death, or timeout the ring is poisoned:
        remaining workers are terminated and :class:`RingFailure`
        carries the diagnosis — the caller replaces the ring, it does
        not retry on it.
        """
        if self._dead:
            raise SimulationError("worker ring is dead (a prior job failed)")
        check_job(circuit, assignment, stimulus, machine, aggressive_only=True)
        if machine.num_nodes != self.num_nodes:
            raise SimulationError(
                f"machine has {machine.num_nodes} nodes but this ring "
                f"has {self.num_nodes}"
            )
        supervised = attempt is not None
        if machine.checkpoint_interval is not None and not supervised:
            raise ConfigError(
                "a worker ring checkpoints only as an attempt of a "
                "ProcessTimeWarpSimulator run, which owns the epoch "
                "directory and the restart policy"
            )
        if not supervised:
            attempt = [NodeAttempt(trace_epoch=time.time())] * self.num_nodes
        if status_path is not None:
            clear_status_files(status_path)
        world = World.of(assignment)
        if not self._started:
            self._fork(world)
        key, shipped, dropped = self._admit(world)
        spec = JobSpec(
            world=key,
            stimulus=stimulus.detached(),
            optimism_window=machine.optimism_window,
            gvt_interval=machine.gvt_interval,
            max_events=max_events,
            trace_base=trace_path,
            status_base=status_path,
            run_id=run_id,
            fault_spec=fault_spec,
            migration_threshold=machine.migration_threshold,
            migration_fraction=machine.migration_fraction,
        )
        try:
            for q, node_attempt in zip(self._job_queues, attempt):
                q.put((spec, shipped, dropped, node_attempt))
        except BaseException:
            # Some workers have the job (and its residency verdict),
            # some do not: neither the barrier nor the table can be
            # trusted again.
            self._poison()
            raise
        payloads = self._collect(timeout, attempt[0].ckpt_dir)
        self.jobs_run += 1
        if trace_path is not None and not supervised:
            merge_shards(
                trace_path,
                [shard_path(trace_path, node) for node in range(self.num_nodes)],
            )
        return assemble_result(
            circuit,
            assignment.algorithm,
            stimulus.num_cycles,
            payloads,
            transport=self.transport,
        )

    # ------------------------------------------------------------------
    def _admit(
        self, world: World
    ) -> tuple[str, World | None, tuple[str, ...]]:
        """Make *world* resident for the job about to be sent.

        Returns ``(key, shipped, dropped)``: the world's key in the
        workers' tables, the world itself if the workers must install
        it (None on a hit), and the keys they must drop — least
        recently used first, until the gate budget holds again.  The
        one place residency is decided; the job message carries the
        verdict to the workers.
        """
        resident = self._resident
        key = resident.get(world)
        if key is not None:
            resident.move_to_end(world)
            self.world_stats["hits"] += 1
            return key, None, ()
        self.world_stats["ships"] += 1
        key = resident[world] = f"{world.name}#{self.world_stats['ships']}"
        dropped = []
        gates = sum(w.circuit.num_gates for w in resident)
        while gates > WORLD_GATE_BUDGET and len(resident) > 1:
            evicted, evicted_key = resident.popitem(last=False)
            gates -= evicted.circuit.num_gates
            dropped.append(evicted_key)
        self.world_stats["evictions"] += len(dropped)
        return key, world, tuple(dropped)

    # ------------------------------------------------------------------
    def _collect(
        self, timeout: float, ckpt_dir: str | None
    ) -> dict[int, dict]:
        """Gather one DONE payload per node, or poison the ring and
        raise :class:`RingFailure`.

        A dead worker is declared lost only after the control pipe has
        been read dry: its last report — an ERROR traceback, a DONE —
        went into the pipe before it could exit, so reading what the
        pipe holds once the death is seen is exact and needs no timer.
        CKPT notices keep *ckpt_dir* tidy: once every node has written
        its file of a cid, that epoch is the freshest restart point and
        older ones go.
        """
        n = self.num_nodes
        deadline = time.monotonic() + timeout
        payloads: dict[int, dict] = {}
        epochs: dict[int, set[int]] = {}

        def take(item) -> None:
            tag, node = item[0], item[1]
            if tag == ERROR:
                raise RingFailure({node}, f"node {node} failed:\n{item[2]}")
            if tag == DONE:
                payloads[node] = item[2]
            elif tag == CKPT:
                cid = item[2]
                seen = epochs.setdefault(cid, set())
                seen.add(node)
                if len(seen) == n:
                    recovery_mod.drop_epochs_before(ckpt_dir, cid)
                    for old in [c for c in epochs if c < cid]:
                        del epochs[old]

        try:
            while len(payloads) < n:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RingFailure(
                        set(),
                        f"process backend timed out after {timeout:.0f}s "
                        f"({len(payloads)}/{n} nodes reported)",
                        restartable=False,
                    )
                try:
                    take(self._results.get(timeout=min(remaining, 0.25)))
                    continue
                except queue_mod.Empty:
                    pass
                dead = [
                    i for i, w in enumerate(self._workers) if not w.is_alive()
                ]
                if not dead:
                    continue
                try:
                    while True:
                        take(self._results.get(timeout=0))
                except queue_mod.Empty:
                    pass
                lost = {
                    i: self._workers[i].exitcode
                    for i in dead
                    if i not in payloads
                }
                if lost:
                    detail = ", ".join(
                        f"node {i} (exitcode {code})"
                        for i, code in sorted(lost.items())
                    )
                    raise RingFailure(
                        set(lost),
                        "node process(es) died without reporting a "
                        f"result: {detail}",
                    )
        except BaseException:
            self._poison()
            raise
        return payloads

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Forcibly tear the ring down (idempotent).

        The cancellation path for a job already executing on this ring:
        there is no safe way to stop mid-GVT workers and keep the ring,
        so cancellation costs the whole ring.  The in-flight
        :meth:`run_job` (on whichever thread is blocked in it) observes
        worker death and raises :class:`SimulationError`.
        """
        if self._started:
            self._poison()

    def _poison(self) -> None:
        """Mark the ring unusable and tear its processes down
        (idempotent)."""
        if self._dead:
            return
        self._dead = True
        for w in self._workers:
            if w.is_alive():
                w.terminate()
        for w in self._workers:
            w.join(timeout=5.0)
        self._release_channels()

    def _release_channels(self) -> None:
        """Record the workers' exit codes, then give back every fd the
        ring holds in this process: both ends of each inbox and job
        pipe, the control pipe, and (by dropping the joined handles)
        the workers' sentinels."""
        self.worker_exitcodes = {
            i: w.exitcode for i, w in enumerate(self._workers)
        }
        for q in (*(self._inboxes or ()), self._results):
            if q is None:
                continue
            try:
                drain_queue(q)
                q.close()
            except (OSError, ValueError):  # pragma: no cover
                pass
        for q in self._job_queues:
            q.close()
        self._workers = []
        self._resident.clear()
        self._transport.cleanup()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the ring down (idempotent)."""
        if not self._started or self._dead:
            return
        for q in self._job_queues:
            try:
                q.put(STOP)
            except (OSError, ValueError):  # pragma: no cover
                pass
        join_deadline = time.monotonic() + _CLOSE_PATIENCE
        pending = [w for w in self._workers if w.is_alive()]
        while pending and time.monotonic() < join_deadline:
            for q in (*self._inboxes, self._results):
                drain_queue(q)
            for w in pending:
                w.join(timeout=0.05)
            pending = [w for w in pending if w.is_alive()]
        for w in pending:  # pragma: no cover - wedged worker
            w.terminate()
            w.join(timeout=5.0)
        self._release_channels()
        self._dead = True


def clear_status_files(base: str) -> int:
    """Delete every ``<base>.node*`` snapshot file; returns the count.

    Run start calls this so a run reusing a ``--live-status`` base
    never inherits a previous run's per-node files (a 4-node run after
    an 8-node run used to leave nodes 4-7 haunting the dashboard).
    """
    removed = 0
    for path in glob.glob(f"{base}.node*"):
        try:
            os.remove(path)
            removed += 1
        except OSError:  # pragma: no cover - raced unlink
            pass
    return removed


def assemble_result(
    circuit: CircuitGraph,
    algorithm: str,
    num_cycles: int,
    payloads: dict[int, dict],
    *,
    transport: str,
) -> TimeWarpResult:
    """Merge per-node DONE payloads into one :class:`TimeWarpResult`
    (its ``restarts`` are the supervisor's to fill in)."""
    n = len(payloads)
    node_stats: list[NodeStats] = [payloads[i]["stats"] for i in range(n)]
    final_values = [0] * circuit.num_gates
    for payload in payloads.values():
        for index, value in payload["final_values"].items():
            final_values[index] = value
    captures: dict[tuple[int, int], int] = {}
    for payload in payloads.values():
        captures.update(payload["captures"])
    return TimeWarpResult(
        circuit_name=circuit.name,
        algorithm=algorithm,
        num_nodes=n,
        num_cycles=num_cycles,
        execution_time=max(s.wall_time for s in node_stats),
        **node_totals(node_stats),
        gvt_rounds=payloads[0]["gvt_rounds"],
        lazy_reuses=0,
        peak_history=sum(p["peak_history"] for p in payloads.values()),
        migrations=sum(p["counters"]["migrations_out"] for p in payloads.values()),
        final_values=final_values,
        node_stats=node_stats,
        committed_captures=sorted(
            (gate, cycle, value)
            for (gate, cycle), value in captures.items()
        ),
        backend="process",
        transport=transport,
    )
