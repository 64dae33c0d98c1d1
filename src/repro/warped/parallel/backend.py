"""The multiprocess Time Warp backend.

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
collection; a GVT of ``+inf`` proves quiescence and shuts the ring
down.

Each worker runs a :class:`NodeLoop` — the event/GVT loop factored out
of the process entry point so tests can drive a full ring inside one
process with ``queue.Queue`` stand-ins (the GVT regression tests do
exactly that).

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
duplicates messages.

Fault injection for tests: ``REPRO_TW_FAULT`` is a comma-separated
list of ``node:mode[:arg]`` clauses applied inside the matching worker
— ``raise`` (throw at startup, exercising the ERROR wire path),
``exit`` (``os._exit(arg)``, silent death), ``hang`` (sleep *arg*
seconds), ``flood`` (stuff ~4k messages into node *arg*'s inbox via
``put_nowait`` — dropping, never blocking, once the inbox is full —
and exit without reporting),
``exit-at`` (``os._exit`` after *arg* locally processed events — the
mid-run crash the recovery tests inject), and ``late-report`` (sleep
*arg* seconds between finishing and reporting — a slow report is not a
death).  Clauses fire on the first attempt only, so a respawned worker
runs clean; suffix the mode with ``*`` (e.g.
``1:exit-at*:200``) to re-arm it on every attempt, which is how the
restart-budget-exhaustion path is exercised.  Malformed clauses raise
:class:`~repro.errors.ConfigError` naming the offending clause.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import queue as queue_mod
import tempfile
import time
import uuid
from dataclasses import dataclass, replace

from repro.circuit.graph import CircuitGraph
from repro.errors import ConfigError, ProtocolError, SimulationError
from repro.obs.tracer import TraceWriter, merge_shards, shard_path
from repro.partition.assignment import PartitionAssignment
from repro.sim.stimulus import Stimulus
from repro.warped.machine import VirtualMachine, check_job
from repro.warped.parallel import recovery as recovery_mod
from repro.warped.parallel.node import NodeEngine
from repro.warped.parallel.protocol import (
    CKPT,
    DONE,
    GVT,
    MIGCMD,
    MIGRATE,
    MSG,
    TOKEN,
    T_INF,
    GvtClerk,
    GvtToken,
)
from repro.warped.parallel.transport import default_transport
from repro.warped.stats import NodeStats, TimeWarpResult, node_totals
from repro.warped.world import World

#: Local events processed between inbox polls (rollback responsiveness
#: vs. polling overhead) — the slice of a node with little to do.
_BATCH = 16
#: A node with a backlog takes slices of 1/``_SLICE_SHARE`` of the
#: events it could process right now, never more than ``_SLICE_MAX``:
#: a starving peer waits for at most that share of what this node still
#: has to do.  Below ``_BACKLOG_FLOOR`` pending events the question is
#: not asked (the answer would be ``_BATCH``).
_SLICE_SHARE = 2
_SLICE_MAX = 256
_BACKLOG_FLOOR = _BATCH * _SLICE_SHARE
#: How long an idle node keeps polling — lapping the main loop with one
#: ``sched_yield`` per lap — before it parks in a blocking receive (s).
#: A wake-up through ``select`` costs 50-180 µs, a polled delivery a few;
#: 100 µs buys about half the gain, 1 ms nothing more.
_IDLE_SPIN = 0.0003
#: Blocking-receive timeout once a node has been idle that long (s).
_BATCH_IDLE_WAIT = 0.0005
#: Minimum spacing between idle-triggered GVT computations (s).  Both
#: channels deliver in tens of microseconds, so a window-throttled ring
#: can afford idle rounds this close — where it spends its life.
_BATCH_IDLE_GVT_SPACING = 0.00005
#: Minimum spacing between live-status snapshot writes per node (s).
_STATUS_INTERVAL = 0.1
#: Bounded retry on transport puts: attempts and first backoff (s).
#: Exponential doubling makes the total wait ~2.5s before the sender
#: gives up and dies with a diagnosis (which the parent can then treat
#: as a restartable node failure).
_PUT_RETRIES = 10
_PUT_BACKOFF = 0.005
#: Adaptive migration fires only when the hottest node processed at
#: least this many events since its previous load fold — wall-clock
#: busy windows on a real host are noisy at startup (imports, page
#: faults), and a migration that moves no real work just thrashes LPs.
_MIN_MIGRATION_EVENTS = 32


# ----------------------------------------------------------------------
# fault injection (test hook)
# ----------------------------------------------------------------------
#: Recognised REPRO_TW_FAULT modes (an unknown mode is a ConfigError —
#: a typo must fail loudly, not silently skip the injection).
_FAULT_MODES = frozenset(
    {"raise", "exit", "hang", "flood", "exit-at", "late-report"}
)


def _worker_faults(
    node: int, attempt: int = 0, spec: str | None = None
) -> list[tuple[str, str | None]]:
    """Parse fault clauses addressed to *node* from *spec*.

    Each clause is ``node:mode[:arg]``; a ``*`` suffix on the mode
    re-arms the fault on every restart attempt (by default a clause
    fires only on attempt 0, so a respawned worker runs clean).
    Malformed clauses — no mode, a non-integer node, an unknown mode —
    raise :class:`ConfigError` naming the clause.

    *spec* ``None`` falls back to ``REPRO_TW_FAULT`` — a convenience
    for the parent process and direct tests only.  Workers never read
    the environment: the resolved spec travels inside the
    :class:`JobSpec` the parent ships them, so two simulators running
    concurrently in one parent (a job server) cannot cross-contaminate
    through ambient process state.
    """
    if spec is None:
        spec = os.environ.get("REPRO_TW_FAULT", "")
    faults: list[tuple[str, str | None]] = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        if len(parts) < 2 or not parts[1]:
            raise ConfigError(
                f"REPRO_TW_FAULT clause {clause!r} has no mode "
                "(expected node:mode[:arg])"
            )
        try:
            target = int(parts[0])
        except ValueError:
            raise ConfigError(
                f"REPRO_TW_FAULT clause {clause!r} has a non-integer "
                "node (expected node:mode[:arg])"
            ) from None
        mode = parts[1]
        persistent = mode.endswith("*")
        if persistent:
            mode = mode[:-1]
        if mode not in _FAULT_MODES:
            raise ConfigError(
                f"REPRO_TW_FAULT clause {clause!r} has unknown mode "
                f"{mode!r} (one of {sorted(_FAULT_MODES)})"
            )
        if target != node:
            continue
        if attempt > 0 and not persistent:
            continue  # faults are one-shot unless re-armed with '*'
        faults.append((mode, parts[2] if len(parts) > 2 else None))
    return faults


def _apply_startup_faults(
    node: int, inboxes, attempt: int = 0, spec: str = ""
) -> None:
    """Run *node*'s startup fault clauses (``exit`` and ``flood`` end
    the process here, ``flood`` with exit code 0 and no report)."""
    for mode, arg in _worker_faults(node, attempt, spec):
        if mode == "raise":
            raise RuntimeError(f"injected fault in node {node}")
        if mode == "exit":
            os._exit(int(arg or 3))
        if mode == "hang":
            time.sleep(float(arg or 3600.0))
        if mode == "flood":
            dest = int(arg or 0)
            dropped = 0
            for _ in range(4096):
                try:
                    # Never block: an inbox nobody drains would
                    # otherwise deadlock the injector against its own
                    # flood.  Dropping is fine — the point is a full
                    # inbox, which the successful puts already achieve.
                    inboxes[dest].put_nowait((GVT, 0, 0.0))
                except queue_mod.Full:
                    dropped += 1
            if dropped:  # pragma: no cover - depends on inbox bound
                print(
                    f"flood injector: dropped {dropped} messages against "
                    f"a full inbox {dest}",
                    flush=True,
                )
            os._exit(0)


def _wait_out_full(own, delay: float) -> None:
    """Spend one retry backoff; on a channel that can, spend it draining
    the sender's *own* inbox (``pump``) so two nodes never sleep on each
    other's full inboxes."""
    pump = getattr(own, "pump", None)
    if pump is None:
        time.sleep(delay)
    else:
        pump(delay)


def _put_wire(q, item, own=None) -> None:
    """Put *item* with bounded retry and exponential backoff.

    A channel with room takes it at once, so this is a single
    ``put_nowait`` on the hot path.  Against a full one the sender backs
    off exponentially (see :func:`_wait_out_full` for what *own* buys)
    and, if the channel stays full past the retry budget (a dead or
    wedged peer), raises instead of blocking forever — turning a silent
    distributed deadlock into a diagnosable, restartable node failure.
    """
    delay = _PUT_BACKOFF
    for remaining in range(_PUT_RETRIES, 0, -1):
        try:
            q.put_nowait(item)
            return
        except queue_mod.Full:
            if remaining == 1:
                raise SimulationError(
                    f"transport put failed {_PUT_RETRIES} times against a "
                    "full queue — receiver dead or wedged"
                ) from None
            _wait_out_full(own, delay)
            delay *= 2


def _put_wire_batch(chan, items: list, own=None) -> None:
    """Batched :func:`_put_wire`: one channel write per flush.

    Partial writes against a bounded channel make progress across
    retries — only a channel accepting *nothing* for the whole budget
    (dead or wedged receiver) raises, with the same diagnosis and the
    same restartable-failure semantics as the single-item path.
    """
    delay = _PUT_BACKOFF
    stalls = 0
    while items:
        try:
            sent = chan.put_batch(items)
        except queue_mod.Full:  # lock timeout: peer died holding it
            sent = 0
        if sent:
            items = items[sent:]
            # Progress resets the stall budget: only a channel accepting
            # nothing at all for the whole budget is dead.
            stalls = 0
            delay = _PUT_BACKOFF
            continue
        stalls += 1
        if stalls >= _PUT_RETRIES:
            raise SimulationError(
                f"transport put failed {_PUT_RETRIES} times against a "
                "full queue — receiver dead or wedged"
            )
        _wait_out_full(own, delay)
        delay *= 2


# ----------------------------------------------------------------------
# the per-job spawn spec
# ----------------------------------------------------------------------
@dataclass
class JobSpec:
    """Everything one node needs to execute one simulation job.

    The parent materializes every knob — including the fault-injection
    spec and the live-status run id — before dispatching, so workers
    never consult ambient process environment.  That is what lets two
    jobs run concurrently inside one parent (a job server) without
    cross-contaminating: each ring's workers see exactly the spec their
    job shipped, nothing shared.

    A spec carries no circuit.  It *names* a
    :class:`~repro.warped.world.World` the worker already holds (forked
    into a ring that its first job started, or shipped once and kept
    resident) and brings only what is the job's own: a
    :meth:`~repro.sim.stimulus.Stimulus.detached` stimulus and the
    machine knobs — about a kilobyte on the wire.
    """

    #: Key of the world in the worker's table (see :func:`_run_node`).
    world: str
    #: Detached: table, cycle count and period, no circuit reference.
    stimulus: Stimulus
    optimism_window: int | None
    gvt_interval: int
    max_events: int
    trace_base: str | None = None
    trace_epoch: float = 0.0
    status_base: str | None = None
    #: Run id stamped into every live-status snapshot so a dashboard
    #: reading a reused ``--live-status`` base can tell this run's
    #: snapshots from a previous (possibly wider) run's leftovers.
    run_id: str = ""
    #: Resolved fault-injection clauses ("" = none).  Parsed from
    #: ``REPRO_TW_FAULT`` once, in the parent, at simulator
    #: construction — never re-read inside a worker.
    fault_spec: str = ""
    migration_threshold: float | None = None
    migration_fraction: float = 0.05


@dataclass
class Attempt:
    """One try of a supervised run: what
    :meth:`~repro.warped.parallel.ring.WorkerRing.run_job` needs to know
    beyond the job.

    :class:`ProcessTimeWarpSimulator` makes one per ring it starts; a
    plain job on a ring gets a fresh first attempt without checkpoints.
    """

    #: Wall-clock origin of every trace record of the run, shared by its
    #: attempts so one merged trace orders them all.
    trace_epoch: float
    #: Where checkpoint epochs live (None = checkpointing off).
    ckpt_dir: str | None = None
    number: int = 0
    #: The restart point (:meth:`ProcessTimeWarpSimulator._prepare_resume`),
    #: None on a first attempt or a restart from scratch.
    resume: dict | None = None

    def node_record(self, node: int, interval: int | None) -> dict:
        """What *node*'s job message carries for this attempt: its
        restore payload and the in-flight messages addressed to it."""
        resume = self.resume
        return {
            "attempt": self.number,
            "interval": interval,
            "dir": self.ckpt_dir,
            "payload": resume["payloads"][node] if resume else None,
            "cid_base": resume["cid_base"] if resume else 0,
            "replays": resume["replays"].get(node, ()) if resume else (),
        }


# ----------------------------------------------------------------------
# the per-node loop (transport-agnostic, testable in-process)
# ----------------------------------------------------------------------
class NodeLoop:
    """One node's Time Warp event/GVT loop over abstract inboxes.

    ``inboxes`` only needs ``put_nowait``/``put_batch``/``take``/
    ``get``/``qsize`` — transport channels in production, a
    ``queue.Queue`` with a ``put_batch`` and a ``take`` in the
    in-process ring tests.
    Node 0 is the GVT initiator; every node applies broadcast GVT
    values, resets its ``since_gvt`` progress counter and compacts its
    :class:`~repro.warped.parallel.protocol.GvtClerk` tables on each
    application (both were initiator-only once — non-initiators leaked
    counter colors and an ever-growing ``since_gvt``).
    """

    def __init__(
        self,
        node: int,
        num_nodes: int,
        engine: NodeEngine,
        inboxes,
        *,
        gvt_interval: int = 512,
        tracer: TraceWriter | None = None,
        status_path: str | None = None,
        run_id: str = "",
        ckpt_interval: int | None = None,
        ckpt_dir: str | None = None,
        attempt: int = 0,
        control=None,
        migration_threshold: float | None = None,
        migration_fraction: float = 0.05,
    ) -> None:
        self.node = node
        self.num_nodes = num_nodes
        self.engine = engine
        self.inboxes = inboxes
        self.inbox = inboxes[node]
        self.gvt_interval = gvt_interval
        self.tracer = tracer
        #: Crash-recovery checkpointing: with an interval set, a state
        #: snapshot goes to ``ckpt_dir`` each time an applied GVT value
        #: crosses a multiple of the interval (virtual time units).
        #: All the per-message bookkeeping below is gated on this flag
        #: so the recovery-off wire path stays exactly as lean as before.
        self.ckpt_interval = ckpt_interval
        self.ckpt_dir = ckpt_dir
        self.recovery = ckpt_interval is not None and ckpt_dir is not None
        self.attempt = attempt
        #: Parent-facing queue for CKPT notifications (None in tests).
        self.control = control
        #: Per-destination channel sequence of the last sent message.
        self.send_seq: dict[int, int] = {}
        #: Per-source channel sequence of the last received message.
        self.recv_seq: dict[int, int] = {}
        #: Append-ordered log of remote sends per destination:
        #: ``(chan_seq, color, msg)``.  Pruned at every GVT application
        #: (entries below the GVT can never need replay).
        self.send_log: dict[int, list[tuple[int, int, object]]] = {}
        #: Highest multiple of ``ckpt_interval`` already snapshotted.
        self.ckpt_mark = 0
        #: Checkpoints written (visible to tests).
        self.ckpts_written = 0
        #: Injected-fault hook: ``os._exit`` once this many events have
        #: been processed locally (None = disarmed).
        self.exit_at: int | None = None
        #: Live-status base path; each GVT application refreshes this
        #: node's single-line JSON snapshot (``<base>.node<i>``, written
        #: atomically) for ``tools/tw_top.py`` to tail.
        self.status_path = status_path
        #: Stamped into every snapshot so readers can discard stale
        #: ``<base>.node<i>`` files left behind by an earlier (wider)
        #: run that reused the same base path.
        self.run_id = run_id
        self._status_last = 0.0
        self._start = time.perf_counter()
        #: Adaptive LP migration (None disables).  Every token fold
        #: also folds this node's busy window since its last applied
        #: GVT into the token; when a round concludes, node 0 reads the
        #: hottest and coldest node off the token and — if the imbalance
        #: clears the threshold — orders the hot node to shed LPs via
        #: MIGCMD/MIGRATE (see DESIGN.md §6).
        self.migration_threshold = migration_threshold
        self.migration_fraction = migration_fraction
        self.migrating = migration_threshold is not None
        #: Busy clock / event count at the last applied GVT broadcast —
        #: the baseline of the busy window the load fold reports.
        self._busy_at_gvt = 0.0
        self._events_at_gvt = 0
        #: Computation id of the newest applied GVT broadcast.  An
        #: LP-carrying MIGRATE for epoch C adopts only once the GVT
        #: broadcast of C has been applied here — so the epoch-C
        #: checkpoint this node writes inside that application is
        #: always *pre*-adoption, matching the sender's pre-extraction
        #: epoch-C snapshot (the consistency recovery needs).
        self._last_applied_cid = 0
        self._pending_adoptions: list[tuple] = []
        self.clerk = GvtClerk(node=node)
        self.gvt = 0.0
        self.done = False
        self.busy = 0.0
        #: Measured wall time inside :meth:`handle` — transport ingest
        #: plus the rollbacks remote messages trigger.  Only maintained
        #: with tracing on (the timed wrapper shadows ``handle``), so
        #: the untraced wire path stays bare.
        self.recv_busy = 0.0
        #: Seconds and count of blocking receives (:meth:`run`'s park):
        #: one clock pair around a call that is rare by construction.
        self.park = 0.0
        self.parks = 0
        #: Seconds inside :meth:`apply_gvt` (sweep, clerk compaction,
        #: checkpoint trigger): one clock pair per applied broadcast.
        self.gvt_busy = 0.0
        #: Slices that processed events / fossil sweeps made.
        self.slices = 0
        self.sweeps = 0
        #: Sweep by need: the history size at which the next GVT
        #: application sweeps — a record per hosted LP to begin with, as
        #: a sweep's fixed cost is a scan of the LPs holding history —
        #: and the GVT value of the last sweep (a sweep at or below it
        #: has nothing new to free).
        self._sweep_at = len(engine.lps)
        self._swept = 0.0
        if tracer is not None:
            self._handle_inner = self.handle
            self.handle = self._timed_handle
        #: Events processed since this node last applied a GVT value.
        self.since_gvt = 0
        #: Conclusive GVT computations this node observed (initiator:
        #: concluded; others: broadcasts applied).
        self.gvt_rounds_seen = 0
        # Initiator (node 0) state.
        self.active_cid = 0        # computation in progress (0 = none)
        self.next_cid = 0
        self.gvt_computations = 0  # conclusive computations initiated
        self.last_initiate = 0.0
        self._round_started = 0.0  # wall time active_cid was initiated
        self._round_trips = 0      # ring circuits of the active computation

    # -- plumbing ------------------------------------------------------
    def put(self, dest: int, item) -> None:
        """Send one protocol item to node *dest* (bounded retry)."""
        _put_wire(self.inboxes[dest], item, self.inbox)

    def flush_wire(self) -> None:
        """Ship the engine's outbox, one batch per destination, and
        clear it.

        The outbox is the send buffer: remote messages wait there, in
        emission order (an anti-message behind the positive it chases),
        until this runs.  GVT colors and recovery sequence numbers are
        assigned *here*, at wire time, so a message the clerk has
        counted as sent is always really on the wire.  Every
        :meth:`work_batch` ends here, so a send waits for at most the
        batch that made it; calling it as well before every token fold,
        GVT application and migration (``handle`` leaves a rollback's
        anti-messages in the outbox between batches) keeps the
        invariant the Mattern proof and checkpoint consistency need:
        the outbox is empty whenever this node folds a token, applies a
        GVT, checkpoints or migrates.
        """
        outbox = self.engine.outbox
        if not outbox:
            return
        note_send = self.clerk.note_send
        batches: dict[int, list] = {}
        if self.recovery:
            # Recovery wire format: each MSG carries (src, chan_seq) and
            # is logged so a restart can replay exactly the in-flight
            # tail of this channel.  The log lives *inside* this node's
            # checkpoints — a crash can never lose it.
            send_seq = self.send_seq
            for dest, msg in outbox:
                color = note_send(msg.time)
                seq = send_seq[dest] = send_seq.get(dest, 0) + 1
                self.send_log.setdefault(dest, []).append((seq, color, msg))
                batches.setdefault(dest, []).append(
                    (MSG, color, msg, self.node, seq)
                )
        else:
            for dest, msg in outbox:
                batches.setdefault(dest, []).append(
                    (MSG, note_send(msg.time), msg)
                )
        outbox.clear()
        for dest, items in batches.items():
            _put_wire_batch(self.inboxes[dest], items, self.inbox)

    def local_min(self) -> float:
        t = self.engine.min_pending()
        return T_INF if t is None else float(t)

    def fold_token(self, token: GvtToken) -> None:
        """Fold this node's GVT contribution — and, with migration on,
        its busy window since the last applied broadcast — into *token*."""
        self.clerk.fold_token(token, self.local_min())
        if self.migrating:
            token.fold_load(self.node, *self.load_window())

    def load_window(self) -> tuple[int, int]:
        """``(busy µs, events)`` since the last applied GVT broadcast —
        this node's entry in the token's hot/cold fold."""
        return (
            int((self.busy - self._busy_at_gvt) * 1e6),
            self.engine.counters["events"] - self._events_at_gvt,
        )

    # -- GVT -----------------------------------------------------------
    def sweep(self, value: float) -> None:
        """Fossil-collect below *value* and set the bar for the next
        sweep by need: twice the history this one left, and at least a
        record per hosted LP.

        A value the last sweep already covered has nothing new to free
        (every record made since is at or above it) — polling idle
        nodes make such rounds common — and costs a compare.
        """
        if value <= self._swept or value == T_INF:
            return
        engine = self.engine
        engine.fossil_collect(value)
        self._swept = value
        self.sweeps += 1
        self._sweep_at = max(len(engine.lps), 2 * engine.history)

    def apply_gvt(self, cid: int, value: float) -> None:
        """Apply a GVT broadcast: reset per-round bookkeeping, and
        fossil-collect at *value* if the history has grown enough to be
        worth a sweep (a checkpoint or a migration at this value sweeps
        regardless, so what they capture is as small as it can be)."""
        t0 = time.perf_counter()
        if self.engine.history >= self._sweep_at:
            self.sweep(value)
        # Every node resets its progress counter and compacts clerk
        # state here — on the initiator this used to live in
        # ``conclude``; non-initiators never did either (the since_gvt
        # and clerk-growth bugs this method now owns the fix for).
        self.since_gvt = 0
        self.clerk.forget_before(cid)
        self.gvt_rounds_seen += 1
        self._last_applied_cid = max(self._last_applied_cid, cid)
        if self.migrating:
            self._busy_at_gvt = self.busy
            self._events_at_gvt = self.engine.counters["events"]
        if value == T_INF:
            self.done = True
        else:
            self.gvt = value
        if self.recovery:
            # A conclusive GVT of v proves no in-flight or future
            # message carries time < v (the fossil-collection
            # invariant), so logged sends below v can never fall in a
            # replay window — prune them here to keep the log bounded.
            for dest, entries in self.send_log.items():
                self.send_log[dest] = [
                    e for e in entries if e[2].time >= value
                ]
            if value != T_INF:
                crossed = int(value // self.ckpt_interval)
                if crossed > self.ckpt_mark:
                    self.ckpt_mark = crossed
                    self.write_checkpoint(cid, value)
        if self.tracer is not None:
            self.tracer.emit(
                "inbox_depth", depth=self._inbox_depth(), gvt=value, cid=cid
            )
        if self.status_path is not None:
            self.write_status()
        if self._pending_adoptions:
            # Deferred LP adoptions whose epoch barrier this broadcast
            # just cleared: adopt strictly *after* the epoch-``cid``
            # checkpoint above, so that snapshot stays pre-adoption
            # (mirroring the shedder's pre-extraction snapshot).
            ready = [i for i in self._pending_adoptions if i[3] <= cid]
            if ready:
                self._pending_adoptions = [
                    i for i in self._pending_adoptions if i[3] > cid
                ]
                for item in ready:
                    self._adopt(item)
        self.gvt_busy += time.perf_counter() - t0

    # -- crash-recovery checkpointing ----------------------------------
    def write_checkpoint(self, cid: int, gvt: float) -> None:
        """Snapshot this node's full state as its file of epoch *cid*.

        Every node applies the identical GVT broadcast sequence, so this
        fires at the same cid ring-wide and the N files form a
        consistent epoch.  The loop-level dict captures everything the
        engine snapshot does not: GVT/clerk state, channel cursors and
        the send log (in-flight replay), and the initiator counters.
        Swept first: a restore point holds no record below its GVT.
        """
        self.sweep(gvt)
        t0 = time.perf_counter()
        payload = {
            "node": self.node,
            "cid": cid,
            "gvt": gvt,
            "engine": self.engine.snapshot_state(),
            "loop": self.snapshot_loop(),
        }
        path = recovery_mod.ckpt_path(self.ckpt_dir, self.node, cid)
        nbytes = recovery_mod.write_checkpoint(path, payload)
        self.ckpts_written += 1
        secs = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.emit(
                "ckpt", cid=cid, gvt=gvt, bytes=nbytes, secs=round(secs, 6)
            )
        if self.control is not None:
            self.control.put((CKPT, self.node, cid, gvt))

    def snapshot_loop(self) -> dict:
        """The ``loop`` dict of :meth:`write_checkpoint` (test hook)."""
        return {
            "gvt": self.gvt,
            "since_gvt": self.since_gvt,
            "gvt_rounds_seen": self.gvt_rounds_seen,
            "busy": self.busy,
            "recv_busy": self.recv_busy,
            "next_cid": self.next_cid,
            "gvt_computations": self.gvt_computations,
            "clerk": self.clerk,
            "send_seq": self.send_seq,
            "recv_seq": self.recv_seq,
            "send_log": self.send_log,
            "ckpt_mark": self.ckpt_mark,
        }

    def restore_loop(self, snap: dict, *, cid_base: int) -> None:
        """Adopt a snapshotted loop state on a respawned node.

        ``cid_base`` rebases the initiator's computation-id counter
        above every color any restored clerk knows (stale colors would
        poison the fresh ring's white accounting).  ``active_cid`` needs
        no restoring: the initiator concludes a computation *before*
        applying its GVT, so a checkpoint can never capture one open.
        """
        self.gvt = snap["gvt"]
        self.since_gvt = snap["since_gvt"]
        self.gvt_rounds_seen = snap["gvt_rounds_seen"]
        self.busy = snap["busy"]
        self.recv_busy = snap["recv_busy"]
        self.gvt_computations = snap["gvt_computations"]
        self.clerk = snap["clerk"]
        self.send_seq = snap["send_seq"]
        self.recv_seq = snap["recv_seq"]
        self.send_log = snap["send_log"]
        self.ckpt_mark = snap["ckpt_mark"]
        self.next_cid = max(snap["next_cid"], cid_base)

    def _inbox_depth(self) -> int | None:
        try:
            return self.inbox.qsize()
        except (NotImplementedError, OSError):  # pragma: no cover
            return None

    def write_status(self, *, force: bool = False) -> None:
        """Atomically refresh this node's live-status snapshot file.

        Throttled to one write per ``_STATUS_INTERVAL`` (idle-triggered
        GVT rounds conclude every millisecond or so); temp-file +
        ``os.replace`` so a tailing reader never sees a partial line.
        """
        now = time.perf_counter()
        if not force and now - self._status_last < _STATUS_INTERVAL:
            return
        self._status_last = now
        counters = self.engine.counters
        snapshot = {
            "node": self.node,
            "run": self.run_id,
            "ts": round(time.time(), 3),
            "gvt": None if self.done or self.gvt == T_INF else self.gvt,
            "done": self.done,
            "events": counters["events"],
            "rollbacks": counters["rollbacks"],
            "rolled_back": counters["rolled_back"],
            "antis": counters["anti_messages"],
            "busy": round(self.busy, 4),
            "wall": round(now - self._start, 4),
            "inbox": self._inbox_depth(),
            "num_lps": len(self.engine.lps),
        }
        path = shard_path(self.status_path, self.node)
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            fh.write(json.dumps(snapshot, separators=(",", ":")) + "\n")
        os.replace(tmp, path)

    def _timed_handle(self, item) -> None:
        t0 = time.perf_counter()
        gvt_busy = self.gvt_busy
        self._handle_inner(item)
        # A GVT application inside this item is ``gvt_busy``'s, not ours.
        self.recv_busy += (
            time.perf_counter() - t0 - (self.gvt_busy - gvt_busy)
        )

    def conclude(self, token: GvtToken) -> None:
        """Initiator: finish or extend the computation *token* closes."""
        if token.conclusive:
            value = token.gvt
            self.gvt_computations += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "gvt_round",
                    cid=token.cid,
                    gvt=value,
                    final=value == T_INF,
                    latency=time.perf_counter() - self._round_started,
                    trips=self._round_trips,
                )
            decision = self._migration_decision(token, value)
            for other in range(self.num_nodes):
                if other != self.node:
                    self.put(other, (GVT, token.cid, value))
            if decision is not None:
                hot, cold = decision
                if hot != self.node:
                    # Same channel as the GVT broadcast the hot node
                    # just got, so FIFO delivery guarantees it applies
                    # the GVT (and writes the epoch checkpoint) before
                    # it extracts and ships a single LP.
                    self.put(hot, (MIGCMD, token.cid, value, cold))
            self.active_cid = 0
            self.apply_gvt(token.cid, value)
            if decision is not None and decision[0] == self.node:
                self.do_migrate(token.cid, value, decision[1])
        else:
            # Whites still in flight: circulate a fresh round of the
            # same computation.  Re-folding this node's contribution is
            # correct — each round is a fresh cut, and the clerk's
            # cumulative sent/received tables make every round's white
            # balance self-consistent (see DESIGN.md §6 for the audit).
            self._round_trips += 1
            fresh = GvtToken(cid=token.cid)
            self.fold_token(fresh)
            self.put((self.node + 1) % self.num_nodes, (TOKEN, fresh))

    # -- adaptive LP migration -----------------------------------------
    def _migration_decision(self, token: GvtToken, value: float) -> tuple[int, int] | None:
        """Read the (hot, cold) pair off a conclusive token, or None.

        Only the initiator calls this, right before broadcasting the
        GVT.  With recovery on, migration epochs coincide with
        checkpoint epochs (the GVT value must cross a checkpoint mark),
        so every migration is bracketed by pre-migration snapshots on
        both sides and a restore can never resurrect an LP twice.
        """
        if not self.migrating or not token.conclusive or value == T_INF:
            return None
        if self.recovery and int(value // self.ckpt_interval) <= self.ckpt_mark:
            return None
        hot, cold = token.busy_max_node, token.busy_min_node
        if hot < 0 or cold < 0 or hot == cold:
            return None
        if token.ev_max < _MIN_MIGRATION_EVENTS:
            return None  # too little signal to call anyone "hot"
        if token.busy_max <= self.migration_threshold * max(token.busy_min, 0):
            return None
        return hot, cold

    def do_migrate(self, cid: int, value: float, dest: int) -> None:
        """Hot node: extract loosely-attached LPs and ship them to *dest*.

        Runs strictly after this node applied the GVT broadcast of
        *cid* (wrote its pre-migration checkpoint).  The MIGRATE blob
        is clerk-colored like an application message, so no GVT round
        — and hence no checkpoint epoch — can conclude while it is in
        flight; it is *not* sequence-logged, because a restore to epoch
        ``cid`` lands pre-migration on both ends and simply re-decides.
        """
        self.flush_wire()
        self.sweep(value)  # migrants travel without committed history
        payload = self.engine.extract_migrants(dest, self.migration_fraction, cid)
        if payload is None:
            return
        color = self.clerk.note_send(int(value))
        self.put(dest, (MIGRATE, color, self.node, cid, payload))
        if self.tracer is not None:
            self.tracer.emit(
                "migr",
                src=self.node,
                dst=dest,
                lps=len(payload["gates"]),
                pending=len(payload["queue"]),
                gvt=float(value),
            )

    def _adopt(self, item) -> None:
        """Adopt a MIGRATE blob and announce the new ownership ring-wide."""
        _, color, src, cid, payload = item
        self.clerk.note_receive(color)
        gates = self.engine.adopt_migrants(payload, src, cid)
        announcement = {"gates": gates, "owner": self.node}
        for other in range(self.num_nodes):
            if other == self.node or other == src:
                continue
            ann_color = self.clerk.note_send(int(self.gvt))
            self.put(other, (MIGRATE, ann_color, self.node, cid, announcement))

    def maybe_initiate(self) -> None:
        """Initiator: start a GVT computation when one is due.

        Idle or window-throttled nodes need GVT to advance (or prove
        quiescence), so initiation is also idleness-triggered.
        """
        if self.node != 0 or self.active_cid:
            return
        now = time.perf_counter()
        idle = not self.engine.processable(self.gvt)
        if self.since_gvt >= self.gvt_interval or (
            idle and now - self.last_initiate >= _BATCH_IDLE_GVT_SPACING
        ):
            self.flush_wire()  # fold with an empty outbox
            self.next_cid += 1
            self.active_cid = self.next_cid
            self.last_initiate = now
            self._round_started = now
            self._round_trips = 1
            token = GvtToken(cid=self.active_cid)
            self.fold_token(token)
            if self.num_nodes == 1:
                self.conclude(token)
            else:
                self.put(1, (TOKEN, token))

    # -- wire dispatch -------------------------------------------------
    def handle(self, item) -> None:
        tag = item[0]
        if tag == MSG:
            # Recovery-on MSGs trail (src, chan_seq); dispatch on length
            # so the recovery-off tuple stays the 3 elements it was.
            # A restart's replays come through here too, from the job
            # message instead of the wire.
            if len(item) == 5:
                _, color, msg, src, seq = item
                # Monotonic cursor: a regressed one would make a later
                # restart replay a received message twice.
                if seq > self.recv_seq.get(src, 0):
                    self.recv_seq[src] = seq
            else:
                _, color, msg = item
            self.clerk.note_receive(color)
            # A straggler's anti-messages wait in the outbox for the
            # next flush.
            self.engine.handle_remote(msg)
        elif tag == TOKEN:
            # Empty the outbox before folding (or concluding) so every
            # message the fold's white balance counts is really in
            # flight — the invariant the GVT proof needs.
            self.flush_wire()
            token = item[1]
            if self.node == 0 and token.cid == self.active_cid:
                self.conclude(token)  # the round came home
            else:
                self.fold_token(token)
                self.put((self.node + 1) % self.num_nodes, (TOKEN, token))
        elif tag == GVT:
            # A checkpoint written inside apply_gvt must capture an
            # empty outbox (unflushed messages are neither logged nor
            # clerk-counted yet).
            self.flush_wire()
            self.apply_gvt(item[1], item[2])
        elif tag == MIGCMD:
            # Initiator's verdict: this node ran hottest over the epoch
            # just concluded — shed LPs to the coldest.  FIFO with the
            # GVT broadcast on the same channel, so the epoch
            # checkpoint is already written by the time this arrives.
            _, cid, value, dest = item
            self.do_migrate(cid, value, dest)
        elif tag == MIGRATE:
            payload = item[4]
            if "lps" not in payload:
                # Ownership announcement: apply immediately.  The map
                # may briefly run ahead of a peer's, but forwarding
                # makes stale routing harmless, and the blob's white
                # imbalance stalls every GVT round until it lands.
                self.clerk.note_receive(item[1])
                self.engine.apply_ownership(
                    payload["gates"], payload["owner"], item[3]
                )
            elif item[3] <= self._last_applied_cid:
                self._adopt(item)
            else:
                # The LP blob outran the GVT broadcast of its epoch
                # (cross-channel, so no FIFO guarantee): park it until
                # apply_gvt writes the pre-adoption checkpoint.
                self._pending_adoptions.append(item)
        else:  # pragma: no cover - defensive
            raise SimulationError(
                f"node {self.node}: unknown wire item {item!r}"
            )

    # -- loop phases ---------------------------------------------------
    def poll(self) -> bool:
        """Handle everything the transport has delivered (nonblocking):
        batch after batch until one comes back empty."""
        handled = False
        take = self.inbox.take
        while not self.done:
            batch = take()
            if not batch:
                break
            handled = True
            for item in batch:
                self.handle(item)
                if self.done:
                    break  # GVT = +inf: nothing legitimate can follow it
        return handled

    def slice_size(self) -> int:
        """Events the next :meth:`work_batch` asks for: ``_BATCH`` for a
        node with little to do (the latency-first lap), a
        ``_SLICE_SHARE``-th of the processable backlog — pending events
        inside the optimism window — for a node with plenty, capped at
        ``_SLICE_MAX``."""
        engine = self.engine
        if len(engine.queue) < _BACKLOG_FLOOR:
            return _BATCH
        return min(
            max(engine.backlog(self.gvt) // _SLICE_SHARE, _BATCH), _SLICE_MAX
        )

    def work_batch(self) -> int:
        """Optimistically process a slice of local events and ship what
        they sent.

        One engine call — for :meth:`slice_size` events — one clock
        pair and one outbox flush per batch.  The flush is the latency
        rule: a remote message leaves with the batch that made it (and
        with it whatever anti-messages :meth:`handle` left in the outbox
        since the previous batch), in emission order, so the outbox is
        empty after every call — worked or not — and an idle node never
        sits on a peer's input.
        """
        engine = self.engine
        limit = self.slice_size()
        if self.exit_at is not None:
            limit = min(limit, self.exit_at - engine.counters["events"])
        t0 = time.perf_counter()
        worked = engine.run_batch(limit, self.gvt)
        self.flush_wire()
        if worked:
            self.busy += time.perf_counter() - t0
            self.since_gvt += worked
            self.slices += 1
        if (
            self.exit_at is not None
            and engine.counters["events"] >= self.exit_at
        ):
            # Injected mid-run crash (exit-at fault): die exactly
            # like a segfaulted worker would — no report.
            os._exit(13)
        return worked

    def run(self) -> None:
        """Drive the node to quiescence (GVT == +inf).

        One idle path for every channel: a node with nothing drained and
        nothing worked keeps lapping the *whole* loop — so the
        initiator's idle-GVT rule stays live — yielding the core once
        per lap, and parks in a blocking receive only after
        ``_IDLE_SPIN`` without a handled item or a processed event.
        The yield hands the core to a runnable peer, so the same rule
        serves hosts with more cores than nodes and fewer.
        """
        idle_since = None
        while not self.done:
            handled = self.poll()
            if self.done:
                break
            worked = self.work_batch()
            self.maybe_initiate()
            if handled or worked:
                idle_since = None
                continue
            now = time.perf_counter()
            if idle_since is None:
                idle_since = now
            if now - idle_since < _IDLE_SPIN:
                os.sched_yield()
                continue
            try:
                item = self.inbox.get(timeout=_BATCH_IDLE_WAIT)
            except queue_mod.Empty:
                item = None
            self.park += time.perf_counter() - now
            self.parks += 1
            if item is not None:
                self.handle(item)
                idle_since = None
        if self.status_path is not None:
            self.write_status(force=True)  # the final "done" snapshot


def _run_node(
    node: int,
    spec: JobSpec,
    worlds: dict[str, World],
    inboxes,
    result_queue,
    recovery: dict | None = None,
) -> None:
    """Execute one job on this node: look its world up, build the
    engine, run to quiescence, report the DONE payload.

    *worlds* is the ring worker's resident table.  Which worlds are
    resident is the parent's decision alone, so a miss here is a
    protocol violation — reported, never papered over with a rebuild
    (the spec carries no circuit to rebuild from).  *recovery* is this
    node's :meth:`Attempt.node_record`: the attempt number, the
    checkpoint interval and directory, and — on a restart — the restore
    payload, the ring-wide ``cid_base`` and the replays.
    """
    start = time.perf_counter()
    world = worlds.get(spec.world)
    if world is None:
        raise SimulationError(
            f"node {node} was sent a job on world {spec.world!r} but does "
            f"not hold it (resident: {sorted(worlds)})"
        )
    attempt = recovery["attempt"] if recovery else 0
    tracer = None
    if spec.trace_base is not None:
        tracer = TraceWriter(
            shard_path(spec.trace_base, node, attempt),
            node=node, epoch=spec.trace_epoch, attempt=attempt,
        )
    try:
        engine = NodeEngine(
            world, node, spec.stimulus.attach(world.circuit),
            optimism_window=spec.optimism_window, max_events=spec.max_events,
            tracer=tracer,
            migration_enabled=spec.migration_threshold is not None,
        )
        loop = NodeLoop(
            node, world.k, engine, inboxes,
            gvt_interval=spec.gvt_interval, tracer=tracer,
            status_path=spec.status_base,
            run_id=spec.run_id,
            ckpt_interval=recovery["interval"] if recovery else None,
            ckpt_dir=recovery["dir"] if recovery else None,
            attempt=attempt,
            control=result_queue if recovery else None,
            migration_threshold=spec.migration_threshold,
            migration_fraction=spec.migration_fraction,
        )
        for mode, arg in _worker_faults(node, attempt, spec.fault_spec):
            if mode == "exit-at":
                loop.exit_at = int(arg or 500)
        if recovery and recovery.get("payload") is not None:
            # Restart: adopt the restore epoch instead of the initial
            # schedule (schedule_initial would double-inject stimulus
            # the restored queues already carry).
            payload = recovery["payload"]
            engine.restore_state(payload["engine"])
            loop.restore_loop(payload["loop"], cid_base=recovery["cid_base"])
            # Re-publish the restore epoch under this attempt: the
            # state just restored IS that epoch, so the write is an
            # idempotent overwrite of the same cid — and it puts a
            # ckpt record (and its restore cost) in this attempt's own
            # trace shard, which the newest-attempt-only shard merge
            # would otherwise lose whenever no new checkpoint interval
            # is crossed between the restore point and quiescence.
            loop.write_checkpoint(payload["cid"], payload["gvt"])
            # The messages in flight across the cut, in channel order,
            # as the MSGs the wire would have delivered.  Handled here,
            # after the arming barrier: whatever they make this node
            # send cannot fall to a peer's arming drain.
            for item in recovery["replays"]:
                loop.handle(item)
        else:
            engine.schedule_initial()
            if loop.recovery:
                # Epoch 0: a complete restore point exists before any
                # event is processed, so a crash at *any* moment —
                # including before the first GVT-crossing checkpoint —
                # leaves something to restart from.
                loop.write_checkpoint(0, 0.0)
        # The loop allocates heavily (messages, history records, key
        # tuples) but never creates reference cycles: everything dies
        # by refcount.  Generational GC passes over the live history are
        # pure overhead, so — the kernel's argument verbatim — they are
        # suspended for the run and restored on every exit path (a ring
        # worker gets its collector back between jobs).
        gc_was_enabled = gc.isenabled()
        gc.disable()
        setup = time.perf_counter() - start
        try:
            loop.run()
        finally:
            if gc_was_enabled:
                gc.enable()
        engine.check_quiescent()
        engine.flush_committed()
        wall = time.perf_counter() - start
        counters = engine.counters
        stats = NodeStats(
            node=node,
            num_lps=len(engine.lps),
            events_processed=counters["events"],
            events_rolled_back=counters["rolled_back"],
            rollbacks=counters["rollbacks"],
            messages_sent_remote=counters["app_messages"],
            messages_sent_local=counters["local_messages"],
            anti_messages_sent=counters["anti_messages"],
            wall_time=wall,
            busy_time=loop.busy,
        )
        if tracer is not None:
            # Measured attribution: compute is the event-processing
            # batch clock (local rollbacks and the batch's wire flush
            # included), transport the timed wire handler (ingest +
            # remote-triggered rollbacks) less the GVT applications
            # inside it, gvt those applications (fossil sweep, clerk
            # compaction, checkpoint trigger), park the blocking
            # receives, setup everything before the loop (engine build,
            # initial schedule or restore), idle the remainder (polling
            # laps, token folds).
            tracer.emit(
                "node_summary",
                busy=loop.busy,
                wall=wall,
                events=stats.events_processed,
                rollbacks=stats.rollbacks,
                rolled_back=stats.events_rolled_back,
                antis=stats.anti_messages_sent,
                sent_remote=stats.messages_sent_remote,
                sent_local=stats.messages_sent_local,
                gvt_rounds=loop.gvt_rounds_seen,
                num_lps=stats.num_lps,
                parks=loop.parks,
                slices=loop.slices,
                sweeps=loop.sweeps,
                setup=setup,
                attr={
                    "compute": loop.busy,
                    "transport": loop.recv_busy,
                    "gvt": loop.gvt_busy,
                    "park": loop.park,
                    "setup": setup,
                    "idle": max(
                        0.0,
                        wall - loop.busy - loop.recv_busy - loop.gvt_busy
                        - loop.park - setup,
                    ),
                },
            )
    finally:
        if tracer is not None:
            tracer.close()
    for mode, arg in _worker_faults(node, attempt, spec.fault_spec):
        if mode == "late-report":
            # A sibling can report long before this node's payload
            # appears; the parent must wait, not call the node lost.
            time.sleep(float(arg or 1.5))
    result_queue.put(
        (
            DONE,
            node,
            {
                "stats": stats,
                "counters": engine.counters,
                "final_values": engine.final_values(),
                "captures": dict(engine.capture_log),
                "peak_history": engine.peak_history,
                "gvt_rounds": loop.gvt_computations,
            },
        )
    )


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


def _drain_queue(q) -> int:
    """Discard whatever *q* currently holds; returns the count.

    A channel with a ``drain`` of its own (the pipe channel: local
    deque and half-reassembled blobs besides the pipe) is asked to.
    """
    drain = getattr(q, "drain", None)
    drained = 0
    try:
        if drain is not None:
            return drain()
        while True:
            q.get_nowait()
            drained += 1
    except (queue_mod.Empty, OSError, ValueError, ProtocolError):
        # ProtocolError: a just-terminated worker can in principle
        # leave a torn record at the shm ring frontier; shutdown
        # drains must never die over garbage they are discarding.
        return drained


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
        #: Wire transport name ("queue" or "shm"); None resolves the
        #: ``REPRO_TW_TRANSPORT`` environment default so CI can sweep
        #: the whole process-backend matrix across transports.
        self.transport = (
            transport if transport is not None else default_transport()
        )
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
        _worker_faults(-1, 0, self.fault_spec)  # eager validation
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
        included.
        """
        from repro.warped.parallel.ring import RingFailure, WorkerRing

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
        attempt = Attempt(trace_epoch=time.time(), ckpt_dir=ckpt_dir)
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
                        attempt=attempt,
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
                        return self._degrade()
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
                    attempt = replace(
                        attempt, number=attempt.number + 1, resume=resume
                    )
                    self.restarts += 1
                    self.restart_log.append(
                        {
                            "ts": round(time.time() - attempt.trace_epoch, 6),
                            "node": -1,
                            "seq": self.restarts - 1,
                            "kind": "restart",
                            "failed": sorted(failure.failed),
                            "to_attempt": attempt.number,
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
                    for k in range(attempt.number + 1)
                ],
                extra=self.restart_log or None,
            )
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
        from repro.warped.kernel import TimeWarpSimulator

        result = TimeWarpSimulator(
            self.circuit, self.assignment, self.stimulus, self.machine,
            max_events=self.max_events,
        ).run()
        result.degraded = True
        result.restarts = self.restarts
        return result


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
