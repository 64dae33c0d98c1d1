"""The multiprocess Time Warp backend and its restart policy.

:class:`ProcessTimeWarpSimulator` mirrors the constructor and ``run()``
contract of the virtual :class:`~repro.warped.kernel.TimeWarpSimulator`
but executes the simulation on **real OS processes**: one
``multiprocessing`` worker per node, each hosting its partition's LP
cluster behind a :class:`~repro.warped.parallel.node.NodeEngine`.
Signal and anti-messages travel over per-node inboxes built by a
pluggable :class:`~repro.warped.parallel.transport.Transport` —
``queue`` (one OS pipe per node carrying pickled item batches, the
portable default) or ``shm`` (shared-memory rings carrying
struct-packed fixed-width records).  Either way sends are batched per
destination.  GVT is computed by the colored token ring of
:mod:`repro.warped.parallel.protocol` and broadcast for fossil
collection; a GVT of ``T_END`` proves quiescence and shuts the ring
down.

Imports run one way: this module (the restart policy) →
:mod:`~repro.warped.parallel.ring` (the parent side of a ring) →
:mod:`~repro.warped.parallel.worker` (what a node process runs) →
:mod:`~repro.warped.parallel.loop` (one node's event/GVT loop) →
:mod:`~repro.warped.parallel.node` (its engine).

Timing semantics differ from the virtual backend by design: the
virtual machine *models* a cluster's clock deterministically, while
this backend reports **measured** wall-clock per node.  Committed
simulation results (final signal values, DFF capture history) are
identical between the two — rollback makes the outcome independent of
message interleaving — and the differential test layer holds both
backends to that.

The node processes belong to a
:class:`~repro.warped.parallel.ring.WorkerRing` — the one code that
forks, watches, joins and terminates them.  A run is a ring that lives
for one job: forked with the run's :class:`~repro.warped.world.World`
already in its workers' tables, sent one job, closed.

Fault tolerance: with ``machine.checkpoint_interval`` set, every node
snapshots its full state (LP histories, pending queue, GVT clerk,
channel send log) each time an applied GVT broadcast crosses a multiple
of that virtual-time interval — the N snapshots of one computation id
form a consistent epoch (:mod:`repro.warped.parallel.recovery`).  With
``max_restarts > 0`` the parent reacts to a worker death or error by
rolling the whole ring back: the failed ring is poisoned and a fresh
one forked, every node restores the last complete epoch, handles the
messages that were in flight across the cut (carried in its job
message) and resumes the GVT ring under fresh computation ids.  After
a node exhausts its restart budget the run degrades gracefully to the
virtual backend, reported via
``TimeWarpResult.degraded``.  Committed results are bit-identical to an
uninterrupted run either way — Time Warp's interleaving independence
extends to restarts because the replay protocol neither loses nor
duplicates messages.  ``REPRO_TW_FAULT`` injects the worker faults
these paths are tested with (:mod:`repro.warped.parallel.worker`).
"""

from __future__ import annotations

import os
import tempfile
import time
import uuid
from dataclasses import dataclass, replace

from repro.circuit.graph import CircuitGraph
from repro.errors import ConfigError
from repro.obs.tracer import merge_shards, shard_path
from repro.partition.assignment import PartitionAssignment
from repro.sim.stimulus import Stimulus
from repro.warped.kernel import TimeWarpSimulator
from repro.warped.machine import VirtualMachine, check_job
from repro.warped.parallel import recovery as recovery_mod
from repro.warped.parallel.ring import RingFailure, WorkerRing
from repro.warped.parallel.worker import NodeAttempt, node_faults
from repro.warped.stats import TimeWarpResult
from repro.warped.world import World


@dataclass(frozen=True)
class Attempt:
    """One try of a supervised run: the restart policy's state between
    rings.  :class:`ProcessTimeWarpSimulator` makes one per ring it
    starts and hands that ring :meth:`nodes`."""

    #: What every node starts this attempt with: its number, the run's
    #: trace epoch, the checkpoint interval and directory.
    start: NodeAttempt
    #: The restart point (:meth:`ProcessTimeWarpSimulator._prepare_resume`),
    #: None on a first attempt or a restart from scratch.
    resume: dict | None = None

    def nodes(self, n: int) -> list[NodeAttempt]:
        """Each of *n* nodes' record: on a restart, with its restore
        payload and the in-flight messages addressed to it."""
        resume = self.resume
        if resume is None:
            return [self.start] * n
        return [
            replace(
                self.start,
                restore=resume["payloads"][node],
                cid_base=resume["cid_base"],
                replays=tuple(resume["replays"].get(node, ())),
            )
            for node in range(n)
        ]


class ProcessTimeWarpSimulator:
    """Run one circuit under one partition on real OS processes.

    Accepts the same (circuit, assignment, stimulus, machine) quadruple
    as the virtual backend.  The machine's ``num_nodes``,
    ``gvt_interval``, ``optimism_window``, ``checkpoint_interval`` and
    ``migration_threshold``/``migration_fraction`` govern the run; its
    cost and network models are ignored (this backend measures real
    time).  Policies the process backend does not implement (lazy
    cancellation) are rejected up front;
    ``checkpoint_interval`` selects periodic consistent checkpointing,
    which here drives crash-recovery epochs rather than rollback state
    saving (the process backend always saves LP state incrementally).

    This class is the restart policy; the processes belong to a
    :class:`~repro.warped.parallel.ring.WorkerRing`.  Every attempt is
    one ring that lives for one job — forked with the run's world, sent
    the job, closed.  With checkpointing on and ``max_restarts > 0``, a
    worker death or error poisons the attempt's ring and the next ring
    resumes from the last complete checkpoint epoch (see the module
    docstring); once any single node exhausts the restart budget the run
    degrades to the virtual backend and the result carries
    ``degraded=True``.

    With ``trace_path`` set, every worker streams a JSONL trace shard
    (rollbacks, GVT rounds, inbox depth, busy/idle summary) and the
    parent merges the shards into ``trace_path`` ordered by
    ``(wall time, node)`` after a successful run; shards are left in
    place on failure for post-mortem.  Restart attempts write separate
    shards (``.r<k>`` suffix) and the merge keeps each node's newest
    attempt only.
    """

    def __init__(
        self,
        circuit: CircuitGraph,
        assignment: PartitionAssignment,
        stimulus: Stimulus,
        machine: VirtualMachine,
        *,
        max_events: int = 50_000_000,
        timeout: float = 120.0,
        trace_path: str | None = None,
        status_path: str | None = None,
        max_restarts: int = 0,
        checkpoint_dir: str | None = None,
        inbox_maxsize: int | None = None,
        transport: str | None = None,
        fault_spec: str | None = None,
    ) -> None:
        check_job(circuit, assignment, stimulus, machine, aggressive_only=True)
        if max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        if max_restarts > 0 and machine.checkpoint_interval is None:
            raise ConfigError(
                "max_restarts needs machine.checkpoint_interval: restarts "
                "resume from periodic checkpoint epochs"
            )
        self.circuit = circuit
        self.assignment = assignment
        self.stimulus = stimulus
        self.machine = machine
        #: What every attempt's ring is forked with: the frozen (circuit,
        #: partition) pair.  Nothing is derived from it here — each
        #: worker builds its own roster's statics and skeleton, once.
        self.world = World.of(assignment)
        self.max_events = max_events
        self.timeout = timeout
        self.trace_path = trace_path
        #: Live-status base: each worker atomically refreshes
        #: ``<status_path>.node<i>`` with a one-line JSON snapshot at
        #: every GVT application (``tools/tw_top.py`` tails them).
        self.status_path = status_path
        #: Restart budget **per node** (0 = fail-stop, the default) and
        #: where epoch files live (None = a TemporaryDirectory for the
        #: run; set it to keep epochs for post-mortem).
        self.max_restarts = max_restarts
        self.checkpoint_dir = checkpoint_dir
        #: Bound on each node's inbox, in records (None = the
        #: channel's own capacity: one pipe buffer on ``queue``, the
        #: default ring on ``shm``).  Senders use bounded-retry
        #: ``put_nowait`` with exponential backoff, so a full inbox
        #: degrades into a diagnosable node failure instead of a silent
        #: distributed deadlock.
        self.inbox_maxsize = inbox_maxsize
        #: Wire transport name ("queue" or "shm"); None lets each
        #: attempt's :class:`WorkerRing` resolve the
        #: ``REPRO_TW_TRANSPORT`` environment default.
        self.transport = transport
        #: Fault-injection clauses, resolved from ``REPRO_TW_FAULT``
        #: exactly once, **here in the parent** (None = read env; pass
        #: ``""`` to force no faults regardless of environment).  The
        #: resolved string travels to workers inside their
        #: :class:`JobSpec` — workers never read ambient env, so two
        #: simulators in one parent cannot cross-contaminate.  Malformed
        #: specs fail loudly now, not inside a worker.
        self.fault_spec = (
            fault_spec
            if fault_spec is not None
            else os.environ.get("REPRO_TW_FAULT", "")
        )
        node_faults(-1, 0, self.fault_spec)  # eager validation
        #: Run id stamped into live-status snapshots (distinguishes
        #: this run's ``<base>.node<i>`` files from a previous run's
        #: leftovers on the same base).
        self.run_id = uuid.uuid4().hex[:12]
        #: OS pid of each worker of the last attempt — evidence the
        #: simulation really executed on separate processes.
        self.worker_pids: dict[int, int] = {}
        #: Exit code of each worker of the last attempt (0 = clean).
        self.worker_exitcodes: dict[int, int | None] = {}
        #: Records in the merged trace (0 when tracing is off).
        self.trace_records = 0
        #: Ring restarts performed, and one dict per restart (failed
        #: nodes, restore epoch, replay count, downtime) — also merged
        #: into the trace as parent ``restart`` records.
        self.restarts = 0
        self.restart_log: list[dict] = []

    # ------------------------------------------------------------------
    def run(self) -> TimeWarpResult:
        """Simulate to quiescence, one ring per attempt.

        With checkpointing on and a restart budget, worker failures
        roll the ring back to the last complete epoch and resume; once
        any single node exhausts its budget the run degrades to the
        virtual backend (``result.degraded``).  A timeout is terminal,
        and the wall-clock timeout spans the whole run, restarts
        included.  Every finished run, degraded or not, merges its
        attempts' trace shards and ``restart`` records.
        """
        n = self.machine.num_nodes
        recovery_on = self.machine.checkpoint_interval is not None
        deadline = time.monotonic() + self.timeout
        self.restarts = 0
        self.restart_log = []
        restarts_by_node: dict[int, int] = {}
        ckpt_tmp = None
        ckpt_dir = None
        if recovery_on:
            if self.checkpoint_dir is None:
                ckpt_tmp = tempfile.TemporaryDirectory(prefix="tw-ckpt-")
                ckpt_dir = ckpt_tmp.name
            else:
                ckpt_dir = self.checkpoint_dir
                os.makedirs(ckpt_dir, exist_ok=True)
        attempt = Attempt(
            NodeAttempt(
                trace_epoch=time.time(),
                ckpt_interval=self.machine.checkpoint_interval,
                ckpt_dir=ckpt_dir,
            )
        )
        result = None  # stays None when the restart budget runs out
        try:
            while True:
                ring = WorkerRing(
                    n, transport=self.transport,
                    inbox_maxsize=self.inbox_maxsize,
                )
                try:
                    result = ring.run_job(
                        self.circuit, self.world, self.stimulus, self.machine,
                        max_events=self.max_events,
                        timeout=max(deadline - time.monotonic(), 0.0),
                        trace_path=self.trace_path,
                        status_path=self.status_path,
                        run_id=self.run_id,
                        fault_spec=self.fault_spec,
                        attempt=attempt.nodes(n),
                    )
                    break
                except RingFailure as failure:
                    if not (
                        failure.restartable and recovery_on
                        and self.max_restarts
                    ):
                        raise  # fail-stop: the ring's diagnosis, verbatim
                    if any(
                        restarts_by_node.get(i, 0) >= self.max_restarts
                        for i in failure.failed
                    ):
                        break
                    down_t0 = time.monotonic()
                    resume = self._prepare_resume(ckpt_dir, n)
                    if resume is None:
                        # No complete epoch on disk — a node died before
                        # writing even its epoch-0 file (startup fault).
                        # Nothing of value is lost: restart the whole
                        # run from scratch, wiping leftovers so a
                        # partial old-lineage epoch can never pair with
                        # the fresh lineage's files.
                        recovery_mod.drop_epochs_after(ckpt_dir, -1)
                    for i in failure.failed:
                        restarts_by_node[i] = restarts_by_node.get(i, 0) + 1
                    start = attempt.start
                    start = replace(start, number=start.number + 1)
                    attempt = Attempt(start, resume)
                    self.restarts += 1
                    self.restart_log.append(
                        {
                            "ts": round(time.time() - start.trace_epoch, 6),
                            "node": -1,
                            "seq": self.restarts - 1,
                            "kind": "restart",
                            "failed": sorted(failure.failed),
                            "to_attempt": start.number,
                            "epoch": resume["cid"] if resume else None,
                            "gvt": resume["gvt"] if resume else None,
                            "replayed": resume["replayed"] if resume else 0,
                            "downtime": round(
                                time.monotonic() - down_t0, 6
                            ),
                        }
                    )
                finally:
                    ring.close()
                    self.worker_pids = ring.worker_pids
                    self.worker_exitcodes = ring.worker_exitcodes
        finally:
            if ckpt_tmp is not None:
                ckpt_tmp.cleanup()
        if self.trace_path is not None:
            self.trace_records = merge_shards(
                self.trace_path,
                [
                    shard_path(self.trace_path, node, k)
                    for node in range(n)
                    for k in range(attempt.start.number + 1)
                ],
                extra=self.restart_log or None,
            )
        if result is None:
            result = self._degrade()
        result.restarts = self.restarts
        return result

    # ------------------------------------------------------------------
    def _prepare_resume(self, ckpt_dir: str, n: int) -> dict | None:
        """Load the restart point: newest complete epoch + its replays.

        Epochs newer than the restart point are deleted first — they
        belong to the crashed lineage, the resumed ring will rewrite
        them, and an epoch mixing files from two lineages would pair
        incompatible message-uid streams.
        """
        found = recovery_mod.latest_complete_epoch(ckpt_dir, n)
        if found is None:  # pragma: no cover - epoch 0 always written
            return None
        cid, payloads = found
        recovery_mod.drop_epochs_after(ckpt_dir, cid)
        replays = recovery_mod.compute_replays(payloads)
        return {
            "cid": cid,
            "gvt": payloads[0]["gvt"],
            "payloads": payloads,
            "replays": replays,
            "cid_base": recovery_mod.resume_cid_base(payloads),
            "replayed": sum(len(items) for items in replays.values()),
        }

    # ------------------------------------------------------------------
    def _degrade(self) -> TimeWarpResult:
        """Finish on the virtual backend — the restart budget is spent.

        The virtual kernel recomputes the same committed results from
        scratch (rollback makes them interleaving-independent, so they
        match what the ring would have produced); slower and
        single-process, but the simulation completes instead of dying.
        """
        result = TimeWarpSimulator(
            self.circuit, self.assignment, self.stimulus, self.machine,
            max_events=self.max_events,
        ).run()
        result.degraded = True
        return result
