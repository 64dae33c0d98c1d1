"""One node's Time Warp event/GVT loop and the wire puts it makes.

Every ring worker runs a :class:`NodeLoop` around its
:class:`~repro.warped.parallel.node.NodeEngine`: drain the inbox,
process a slice of local events, ship what they sent, pass the GVT
token of :mod:`repro.warped.parallel.protocol` on, apply the broadcast
GVT.  The loop knows nothing of processes, so tests drive a full ring
inside one process with ``queue.Queue`` stand-ins.  :func:`_put_wire`
and :func:`_put_wire_batch` turn a channel that stays full into a
diagnosable node failure instead of a silent deadlock.
"""

from __future__ import annotations

import json
import os
import queue as queue_mod
import time

from repro.errors import SimulationError
from repro.obs.tracer import TraceWriter, shard_path
from repro.sim.event import T_END
from repro.warped.parallel import recovery as recovery_mod
from repro.warped.parallel.node import NodeEngine
from repro.warped.parallel.protocol import (
    CKPT,
    GVT,
    MIGCMD,
    MIGRATE,
    MSG,
    TOKEN,
    GvtClerk,
    GvtToken,
)

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
#: A wake-up through ``select`` measured 0.17-1.8 ms a hop on a 2-core
#: host, a polled delivery 58 µs (p50); yet polling without bound moved
#: neither process workload (DESIGN.md §8, leads rejected).
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
        self.gvt = 0
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
        self._swept = 0
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

    def local_min(self) -> int:
        t = self.engine.min_pending()
        return T_END if t is None else t

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
    def sweep(self, value: int) -> None:
        """Fossil-collect below *value* and set the bar for the next
        sweep by need: twice the history this one left, and at least a
        record per hosted LP.

        A value the last sweep already covered has nothing new to free
        (every record made since is at or above it) — polling idle
        nodes make such rounds common — and costs a compare.
        """
        if value <= self._swept or value == T_END:
            return
        engine = self.engine
        engine.fossil_collect(value)
        self._swept = value
        self.sweeps += 1
        self._sweep_at = max(len(engine.lps), 2 * engine.history)

    def apply_gvt(self, cid: int, value: int) -> None:
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
        if value == T_END:
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
            if value != T_END:
                crossed = value // self.ckpt_interval
                if crossed > self.ckpt_mark:
                    self.ckpt_mark = crossed
                    self.write_checkpoint(cid, value)
        if self.tracer is not None:
            self.tracer.emit(
                "inbox_depth",
                depth=self._inbox_depth(),
                gvt=None if value == T_END else value,
                cid=cid,
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
    def write_checkpoint(self, cid: int, gvt: int) -> None:
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
            "gvt": None if self.done else self.gvt,
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
            final = value == T_END
            self.gvt_computations += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "gvt_round",
                    cid=token.cid,
                    gvt=None if final else value,
                    final=final,
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
    def _migration_decision(self, token: GvtToken, value: int) -> tuple[int, int] | None:
        """Read the (hot, cold) pair off a conclusive token, or None.

        Only the initiator calls this, right before broadcasting the
        GVT.  With recovery on, migration epochs coincide with
        checkpoint epochs (the GVT value must cross a checkpoint mark),
        so every migration is bracketed by pre-migration snapshots on
        both sides and a restore can never resurrect an LP twice.
        """
        if not self.migrating or not token.conclusive or value == T_END:
            return None
        if self.recovery and value // self.ckpt_interval <= self.ckpt_mark:
            return None
        hot, cold = token.busy_max_node, token.busy_min_node
        if hot < 0 or cold < 0 or hot == cold:
            return None
        if token.ev_max < _MIN_MIGRATION_EVENTS:
            return None  # too little signal to call anyone "hot"
        if token.busy_max <= self.migration_threshold * max(token.busy_min, 0):
            return None
        return hot, cold

    def do_migrate(self, cid: int, value: int, dest: int) -> None:
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
        color = self.clerk.note_send(value)
        self.put(dest, (MIGRATE, color, self.node, cid, payload))
        if self.tracer is not None:
            self.tracer.emit(
                "migr",
                src=self.node,
                dst=dest,
                lps=len(payload["gates"]),
                pending=len(payload["queue"]),
                gvt=value,
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
            ann_color = self.clerk.note_send(self.gvt)
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
                    break  # GVT = T_END: nothing legitimate can follow it
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
        """Drive the node to quiescence (GVT == ``T_END``).

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

