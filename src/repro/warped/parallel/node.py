"""The Time Warp engine one worker process runs over its LP cluster.

This is the single-node core of the protocol the virtual kernel
(:mod:`repro.warped.kernel`) executes for the whole machine: the same
:class:`~repro.warped.lp.LogicalProcess` state saving, the same
:class:`~repro.warped.queues.NodeQueue`, the same eager rollback with
iterative cancellation cascades — and, as one shared copy, the same
:class:`~repro.warped.world.World`, rollback (``unwind`` and its
``rollback`` trace record), fossil sweep, commit flush and migrant
policy.  What differs is the boundary — remote
sends leave through an outbox the hosting worker loop flushes onto real
``multiprocessing`` queues, and stragglers/anti-messages arrive whenever
the transport delivers them, not on a modelled clock.

:attr:`NodeEngine.counters` is the engine's one set of books; the
node's :class:`~repro.warped.stats.NodeStats` is built from it when the
node reports.

The engine is transport-agnostic on purpose: unit tests drive two
engines in one process by shuttling their outboxes by hand, and the
worker loop in :mod:`repro.warped.parallel.backend` drives it across
real OS processes.  Results are interleaving-independent either way —
that is Time Warp's correctness argument, and what the differential
suite checks.
"""

from __future__ import annotations

from collections import deque
from itertools import count

from repro.errors import SimulationError
from repro.sim.event import CAPTURE, SIG, STIM
from repro.sim.stimulus import Stimulus
from repro.warped.lp import (
    LogicalProcess, ProcessedRecord, flush_committed, fossil_sweep,
    trace_rollback, unwind,
)
from repro.warped.messages import ANTI, Message, fan_out
from repro.warped.parallel.protocol import T_INF
from repro.warped.queues import NodeQueue
from repro.warped.world import World


class NodeEngine:
    """Optimistic executive for the LPs of one node."""

    def __init__(
        self,
        world: World,
        node: int,
        stimulus: Stimulus,
        *,
        optimism_window: int | None = None,
        max_events: int = 50_000_000,
        tracer=None,
        migration_enabled: bool = False,
    ) -> None:
        #: The (circuit, partition) pair this node is one part of, and
        #: the source of everything static: LP structure, the initial
        #: schedule's skeleton.  Shared between jobs, never written.
        self.world = world
        self.circuit = world.circuit
        #: This engine's own copy of the ownership map: migration
        #: rewrites it, the world's stays the static partition.
        self.assignment = list(world.assignment)
        self.node = node
        self.num_nodes = world.k
        self.stimulus = stimulus
        self.window = optimism_window
        self.max_events = max_events
        #: Optional :class:`repro.obs.tracer.TraceWriter` — rollback
        #: records go out here (None keeps the hot path bare).
        self.tracer = tracer
        #: LPs hosted here, keyed by gate index.
        self.lps: dict[int, LogicalProcess] = world.roster_lps(node)
        self.queue = NodeQueue()
        #: The send buffer: remote messages produced since the worker
        #: loop's last wire flush, as (dest_node, Message) in emission
        #: order.  The loop ships and clears it (``NodeLoop.flush_wire``).
        self.outbox: list[tuple[int, Message]] = []
        #: Anti-messages that beat their positive copy to this node.
        self._waiting_antis: dict[int, Message] = {}
        self._pending_cancels: deque[Message] = deque()
        #: Committed DFF captures: (gate, cycle) -> captured value.
        #: Entries for rolled-back captures are removed on undo, so at
        #: quiescence the log holds exactly the committed capture
        #: history — the quantity the differential suite compares.
        self.capture_log: dict[tuple[int, int], int] = {}
        #: Local history (sum of LP record counts), maintained on every
        #: process/undo/free step, and its true high-water mark.
        self._history = 0
        self.peak_history = 0
        #: LPs currently holding history -> virtual time of their oldest
        #: record: the only LPs a fossil sweep visits, and its skip test.
        self._oldest: dict[int, int] = {}
        self.counters = {
            "events": 0,
            "rolled_back": 0,
            "rollbacks": 0,
            "app_messages": 0,
            "anti_messages": 0,
            "local_messages": 0,
            "migrations_out": 0,
            "migrations_in": 0,
            "forwarded": 0,
        }
        # Globally unique uids without coordination: stride by node.
        self._uid_next = node + 1
        #: With adaptive migration on, a message for a gate this node
        #: does not own is *forwarded* to the gate's current owner
        #: instead of being a protocol violation (the sender may hold a
        #: stale ownership map for one epoch).
        self.migration_enabled = migration_enabled
        #: Epoch (computation id) of the newest ownership update
        #: applied per gate — a stale announcement never overwrites a
        #: newer one, whatever order the wire delivers them in.
        self._owner_version: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _next_uid(self) -> int:
        uid = self._uid_next
        self._uid_next += self.num_nodes
        return uid

    def owner(self, gate_index: int) -> int:
        return self.assignment[gate_index]

    # ------------------------------------------------------------------
    def schedule_initial(self) -> None:
        """Self-schedule every initial message destined to a local LP.

        Mirrors the virtual kernel's initial schedule (DFF power-up
        resets, per-cycle captures, primary-input stimulus).  The world
        supplies the entries — its resident skeleton plus this job's
        STIMs (:meth:`World.initial_schedule`), already grouped per
        virtual time — and the queue adopts the buckets.
        """
        buckets, self._uid_next = self.world.initial_schedule(
            self.node, self.stimulus
        )
        self.queue.load(buckets)

    # ------------------------------------------------------------------
    # rollback / cancellation (aggressive, incremental state saving)
    # ------------------------------------------------------------------
    def _dispatch_anti(self, em: Message) -> None:
        """Cancel emission *em* wherever its positive copy went."""
        if self.owner(em.dest) == self.node:
            self._pending_cancels.append(em)
        else:
            self.outbox.append((self.owner(em.dest), em.make_anti()))
            self.counters["anti_messages"] += 1

    def _rollback(
        self,
        lp: LogicalProcess,
        to_key,
        cancel_uid: int | None,
        cause_msg: Message,
    ) -> None:
        records, _ = unwind(lp, to_key, cancel_uid, self.queue, self.capture_log)
        for record in records:
            for em in record.emissions:
                self._dispatch_anti(em)
        self._history -= len(records)
        if not lp.processed:
            self._oldest.pop(lp.gate_index, None)
        counters = self.counters
        counters["rollbacks"] += 1
        counters["rolled_back"] += len(records)
        if self.tracer is not None:
            trace_rollback(
                self.tracer, lp, counters["rollbacks"], records, to_key,
                cancel_uid, cause_msg, self.owner(cause_msg.src),
            )

    def _apply_cancel(self, em: Message) -> None:
        lp = self.lps[em.dest]
        if self.queue.annihilate(em):
            return  # the positive copy was still pending
        if lp.holds(em):
            self._rollback(lp, em.key, cancel_uid=em.uid, cause_msg=em)
        else:
            self._waiting_antis[em.uid] = em

    def _drain_cancels(self) -> None:
        while self._pending_cancels:
            self._apply_cancel(self._pending_cancels.popleft())

    def _insert_positive(self, msg: Message) -> None:
        if msg.uid in self._waiting_antis:
            del self._waiting_antis[msg.uid]
            return
        lp = self.lps[msg.dest]
        if msg.key <= lp.last_key:
            self._rollback(lp, msg.key, cancel_uid=None, cause_msg=msg)
        self.queue.push(msg)

    # ------------------------------------------------------------------
    # the worker loop's surface
    # ------------------------------------------------------------------
    def handle_remote(self, msg: Message) -> None:
        """Ingest one message delivered by the transport.

        A message for a gate this node does not own is a protocol
        violation under static partitioning; with migration enabled it
        is a legal stale-map delivery (the sender had not yet seen the
        gate's newest ownership announcement) and is forwarded to the
        current owner.  The forwarding chain follows the finite
        migration history of the gate, so it terminates at whichever
        node hosts the LP now.
        """
        if self.owner(msg.dest) != self.node:
            if not self.migration_enabled:
                raise SimulationError(
                    f"node {self.node} received message for gate {msg.dest} "
                    f"owned by node {self.owner(msg.dest)}"
                )
            self.outbox.append((self.owner(msg.dest), msg))
            self.counters["forwarded"] += 1
            return
        if msg.sign == ANTI:
            self._apply_cancel(msg)
        else:
            self._insert_positive(msg)
        self._drain_cancels()

    def min_pending(self) -> int | None:
        """Virtual time of the earliest pending event (None = idle)."""
        return self.queue.min_time

    def processable(self, gvt: float) -> bool:
        """True iff the next pending event is inside the optimism window."""
        t = self.queue.min_time
        if t is None:
            return False
        return self.window is None or t <= gvt + self.window

    def backlog(self, gvt: float) -> int:
        """Pending events inside the optimism window at *gvt* — what
        :meth:`run_batch` could process before it has to stop."""
        if self.window is None:
            return len(self.queue)
        return self.queue.count_through(gvt + self.window)

    @property
    def history(self) -> int:
        """Processed records currently held (what a fossil sweep thins)."""
        return self._history

    def process_one(self) -> int:
        """Process the earliest pending event (1), or nothing if idle (0)."""
        return self.run_batch(1, T_INF)

    def run_batch(self, limit: int, gvt: float) -> int:
        """Process up to *limit* pending events inside the optimism
        window at *gvt*; returns how many ran.

        This is the engine's one event path.  New remote messages land
        in :attr:`outbox`, in emission order (an anti-message always
        behind the positive copy it chases — what per-channel FIFO
        rests on); the caller flushes them to the wire, stamping GVT
        colors on the way out.

        The per-event block is the virtual executive's, line for line
        (:meth:`repro.warped.kernel.TimeWarpSimulator.run`): queue pop,
        :meth:`LogicalProcess.process` and the same-node insert run
        inline, with the same local names, and any change here must
        mirror ``lp.py`` and that loop.  The scalars the block advances
        — event and message counts, ``_uid_next``, ``_history``,
        ``peak_history`` — ride in locals and are written back before
        every call into the slow path (``_rollback``,
        ``_drain_cancels``; it reads them, and of them writes only
        ``_history``) and on every exit, exceptions included.  The
        ``max_events`` guard fires once per batch, as the kernel's does
        once per GVT interval.
        """
        node = self.node
        lps = self.lps
        assignment = self.assignment
        proc_queue = self.queue
        buckets = proc_queue._buckets
        outbox = self.outbox
        waiting_antis = self._waiting_antis
        pending_cancels = self._pending_cancels
        capture_log = self.capture_log
        oldest_setdefault = self._oldest.setdefault
        counters = self.counters
        horizon = T_INF if self.window is None else gvt + self.window
        stride = self.num_nodes
        msg_new = Message.__new__
        rec_new = ProcessedRecord.__new__
        first_event = events = counters["events"]
        last_event = events + limit
        local_messages = counters["local_messages"]
        app_messages = counters["app_messages"]
        uid_next = self._uid_next
        history_total = self._history
        peak_history = self.peak_history
        try:
            while events < last_event:
                t = proc_queue.min_time
                if t is None or t > horizon:
                    break
                # --- NodeQueue.pop, inlined ------------------------------
                open_bucket = proc_queue._open
                msg = open_bucket.pop()[5]
                if not open_bucket:
                    proc_queue._advance()
                # --- end inlined pop -------------------------------------
                dest = msg.dest
                lp = lps[dest]
                # --- LogicalProcess.process, inlined ---------------------
                # The method stays the reference (conservative kernel,
                # component tests, tests/test_node_engine_batch.py).  Its
                # straggler guard is kept: messages reach this queue from
                # three directions (local sends, the wire, migration) and
                # this is the one place that checks every one of them
                # rolled back first.  Engine LPs never checkpoint
                # (incremental state saving only), so that branch of the
                # method is absent.
                if msg.key <= lp.last_key:
                    raise SimulationError(
                        f"LP {lp.gate.name}: straggler {msg!r} reached "
                        f"process() (last key {lp.last_key}); kernel must "
                        "roll back first"
                    )
                values = lp._fanin_values
                old_output = lp.output_value
                old_input = None
                # The shared empty tuple stands in for "no emissions";
                # every consumer only iterates it.
                emissions = ()
                prio = msg.prio
                if prio == SIG or (prio == STIM and msg.src != lp.gate_index):
                    # Signal (or stimulus copy) from a driving LP.
                    slots = lp._src_slots[msg.src]
                    if type(slots) is int:
                        old_input = values[slots]
                        values[slots] = msg.value
                    else:
                        old_input = values[slots[0]]
                        value = msg.value
                        for position in slots:
                            values[position] = value
                    if lp._is_comb:
                        nv = lp._eval(values)
                        if nv != old_output:
                            lp.output_value = nv
                            n_seq = lp.emission_seq
                            lp.emission_seq = n_seq + 1
                            t_out = msg.time + lp.delay
                            gi = lp.gate_index
                            sinks = lp._sink_list
                            n_sinks = len(sinks)
                            key_out = (t_out, SIG, gi, n_seq)
                            if n_sinks == 1:
                                em = msg_new(Message)
                                em.time = t_out
                                em.prio = SIG
                                em.src = gi
                                em.n = n_seq
                                em.value = nv
                                em.dest = sinks[0]
                                em.uid = uid_next
                                em.sign = 1
                                em.key = key_out
                                emissions = [em]
                            elif n_sinks == 2:
                                em = msg_new(Message)
                                em.time = t_out
                                em.prio = SIG
                                em.src = gi
                                em.n = n_seq
                                em.value = nv
                                em.dest = sinks[0]
                                em.uid = uid_next
                                em.sign = 1
                                em.key = key_out
                                em2 = msg_new(Message)
                                em2.time = t_out
                                em2.prio = SIG
                                em2.src = gi
                                em2.n = n_seq
                                em2.value = nv
                                em2.dest = sinks[1]
                                em2.uid = uid_next + stride
                                em2.sign = 1
                                em2.key = key_out
                                emissions = [em, em2]
                            else:
                                emissions = fan_out(
                                    t_out, SIG, gi, n_seq, nv, sinks,
                                    count(uid_next, stride),
                                )
                            uid_next += stride * n_sinks
                elif prio == CAPTURE:
                    data = values[0]
                    if data != old_output:
                        lp.output_value = data
                        capture_log[(dest, msg.n)] = data
                        n_seq = lp.emission_seq
                        lp.emission_seq = n_seq + 1
                        sinks = lp._sink_list
                        emissions = fan_out(
                            msg.time + lp.delay, SIG, lp.gate_index, n_seq,
                            data, sinks, count(uid_next, stride),
                        )
                        uid_next += stride * len(sinks)
                else:
                    # Own stimulus: apply, fan the SAME key out to the sinks.
                    value = msg.value
                    if value != old_output:
                        lp.output_value = value
                        sinks = lp._sink_list
                        emissions = fan_out(
                            msg.time, STIM, lp.gate_index, msg.n, value,
                            sinks, count(uid_next, stride),
                        )
                        uid_next += stride * len(sinks)
                record = rec_new(ProcessedRecord)
                record.msg = msg
                record.old_input = old_input
                record.old_output = old_output
                record.emissions = emissions
                lp.processed.append(record)
                lp.last_key = msg.key
                # --- end inlined process ---------------------------------
                events += 1
                history_total += 1
                if history_total > peak_history:
                    peak_history = history_total
                oldest_setdefault(dest, msg.time)
                for em in emissions:
                    dest_node = assignment[em.dest]
                    if dest_node == node:
                        local_messages += 1
                        # _insert_positive, inlined for the same-node case
                        # (the overwhelming majority of traffic under a good
                        # partition).
                        if waiting_antis and em.uid in waiting_antis:
                            del waiting_antis[em.uid]
                            continue
                        dest_lp = lps[em.dest]
                        if em.key <= dest_lp.last_key:
                            self._write_back(
                                events, local_messages, app_messages,
                                uid_next, history_total, peak_history,
                            )
                            self._rollback(
                                dest_lp, em.key, cancel_uid=None, cause_msg=em
                            )
                            history_total = self._history
                        # The later-bucket append of NodeQueue.push,
                        # inlined (mirrors it; the queue never rebinds
                        # its bucket dict).  Every other case is the
                        # method's.
                        bucket = buckets.get(em.time)
                        if bucket is not None:
                            bucket.append(
                                (em.prio, em.src, em.n, em.dest, em.uid, em)
                            )
                        else:
                            proc_queue.push(em)
                    else:
                        outbox.append((dest_node, em))
                        app_messages += 1
                if pending_cancels:
                    self._write_back(
                        events, local_messages, app_messages,
                        uid_next, history_total, peak_history,
                    )
                    self._drain_cancels()
                    history_total = self._history
        finally:
            self._write_back(
                events, local_messages, app_messages,
                uid_next, history_total, peak_history,
            )
        if events > self.max_events:
            raise SimulationError(
                f"node {node} exceeded max_events={self.max_events}; "
                "thrashing rollbacks or workload too large"
            )
        return events - first_event

    def _write_back(
        self,
        events: int,
        local_messages: int,
        app_messages: int,
        uid_next: int,
        history_total: int,
        peak_history: int,
    ) -> None:
        """Store :meth:`run_batch`'s local scalars into the engine:
        three of its :attr:`counters`, the uid cursor and the history
        size with its high-water mark."""
        counters = self.counters
        counters["events"] = events
        counters["local_messages"] = local_messages
        counters["app_messages"] = app_messages
        self._uid_next = uid_next
        self._history = history_total
        self.peak_history = peak_history

    def fossil_collect(self, gvt: float) -> None:
        """Free history below *gvt* through the executives' shared
        :func:`~repro.warped.lp.fossil_sweep` (one ``commit`` record per
        LP freed from, with tracing on)."""
        if gvt != T_INF:
            self._history -= fossil_sweep(
                self.lps, self._oldest, int(gvt), self.tracer
            )

    def flush_committed(self) -> None:
        """Emit the quiescence ``commit`` flush for this node's LPs
        (:func:`repro.warped.lp.flush_committed`)."""
        flush_committed(self.lps.values(), self.tracer)

    # ------------------------------------------------------------------
    # adaptive migration (see repro.warped.parallel.backend)
    # ------------------------------------------------------------------
    def select_migrants(self, fraction: float) -> list[int]:
        """The resident gates to shed, by :meth:`World.migrants
        <repro.warped.world.World.migrants>` — the virtual kernel's
        policy too — with an LP's uncommitted history size as its
        activity (the kernel ranks by a decayed event count)."""
        lps = self.lps
        return self.world.migrants(
            lps, fraction, lambda index: len(lps[index].processed)
        )

    def extract_migrants(self, dest_node: int, fraction: float, version: int):
        """Strip the selected LPs out of this engine for *dest_node*.

        Returns the MIGRATE payload dict (``None`` when nothing should
        move): per-LP state exactly as :meth:`snapshot_state` packs it,
        the LPs' pending events, any anti-messages still waiting for
        their positive copies, and their capture-log entries.  This
        engine's ownership map is updated in the same step, so any
        event the remaining LPs emit toward a moved gate is routed (or
        forwarded) to *dest_node* from here on.
        """
        moving = self.select_migrants(fraction)
        if not moving:
            return None
        moved_set = set(moving)
        states = {}
        for index in moving:
            lp = self.lps.pop(index)
            self._history -= len(lp.processed)
            self._oldest.pop(index, None)
            states[index] = _lp_state(lp)
        pending = self.queue.extract_dests(moved_set)
        antis = {
            uid: msg
            for uid, msg in self._waiting_antis.items()
            if msg.dest in moved_set
        }
        for uid in antis:
            del self._waiting_antis[uid]
        captures = {
            key: value
            for key, value in self.capture_log.items()
            if key[0] in moved_set
        }
        for key in captures:
            del self.capture_log[key]
        self.apply_ownership(moving, dest_node, version)
        self.counters["migrations_out"] += len(moving)
        return {
            "gates": moving,
            "lps": states,
            "queue": pending,
            "waiting_antis": antis,
            "capture_log": captures,
        }

    def adopt_migrants(self, payload: dict, src: int, version: int) -> list[int]:
        """Install migrated LPs shipped by *src*; returns their gates."""
        gates = payload["gates"]
        for index, state in payload["lps"].items():
            self._install_lp(index, state)
        for msg in payload["queue"]:
            self.queue.push(msg)
        self._waiting_antis.update(payload["waiting_antis"])
        self.capture_log.update(payload["capture_log"])
        self.apply_ownership(gates, self.node, version)
        self.counters["migrations_in"] += len(gates)
        return gates

    def _install_lp(self, index: int, state: tuple) -> None:
        """Host gate *index* with the LP *state* a migration or a
        snapshot packed (see :func:`_lp_state`), accounting for the
        history it arrives with."""
        fanin, out, last_key, processed, eseq = state
        lp = self.lps[index] = self.world.new_lp(index, self.node)
        lp._fanin_values = fanin
        lp.output_value = out
        lp.last_key = last_key
        lp.processed = processed
        lp.emission_seq = eseq
        if processed:
            self._history += len(processed)
            if self._history > self.peak_history:
                self.peak_history = self._history
            self._oldest[index] = processed[0].msg.time

    def apply_ownership(self, gates, owner: int, version: int) -> None:
        """Apply an ownership announcement, ignoring stale versions."""
        versions = self._owner_version
        for gate_index in gates:
            if version >= versions.get(gate_index, -1):
                self.assignment[gate_index] = owner
                versions[gate_index] = version

    # ------------------------------------------------------------------
    # checkpoint/restart (see repro.warped.parallel.recovery)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Everything a restarted worker needs to resume this engine.

        The returned dict references live structures; the caller must
        serialize it synchronously (the checkpoint writer pickles it in
        the same call, before the event loop runs again).
        """
        return {
            "lps": {index: _lp_state(lp) for index, lp in self.lps.items()},
            "queue": self.queue.pending(),
            "waiting_antis": self._waiting_antis,
            "capture_log": self.capture_log,
            "counters": self.counters,
            "peak_history": self.peak_history,
            "uid_next": self._uid_next,
            # Migration moves LPs between nodes at epoch boundaries, so
            # residency is run-time state: the ownership map and its
            # per-gate versions are part of every snapshot, and restore
            # rebuilds the LP set from the snapshot rather than from
            # the static partition.
            "assignment": list(self.assignment),
            "owner_version": dict(self._owner_version),
        }

    def restore_state(self, snap: dict) -> None:
        """Rebuild this (freshly constructed) engine from a snapshot.

        The caller must NOT have run :meth:`schedule_initial` — the
        snapshot's pending queue already holds whatever of the initial
        schedule was still unprocessed at the epoch.
        """
        self.assignment[:] = snap["assignment"]
        self._owner_version = dict(snap["owner_version"])
        # Residency at the epoch may differ from the static partition
        # this engine was constructed with (LPs migrate): the LP set is
        # whatever the snapshot holds.
        self.lps = {}
        for index, state in snap["lps"].items():
            self._install_lp(index, state)
        for msg in snap["queue"]:
            self.queue.push(msg)
        self._waiting_antis = snap["waiting_antis"]
        self.capture_log = snap["capture_log"]
        self.counters = snap["counters"]
        self.peak_history = snap["peak_history"]
        self._uid_next = snap["uid_next"]

    # ------------------------------------------------------------------
    def check_quiescent(self) -> None:
        """Invariant checks once GVT reached +inf."""
        if self._waiting_antis:
            raise SimulationError(
                f"node {self.node}: {len(self._waiting_antis)} anti-messages "
                "never met their positive copies — kernel invariant broken"
            )
        if self.queue:
            raise SimulationError(
                f"node {self.node}: {len(self.queue)} events still pending "
                "after quiescence GVT — protocol invariant broken"
            )

    def final_values(self) -> dict[int, int]:
        """Quiescent output value of every local LP."""
        return {index: lp.output_value for index, lp in self.lps.items()}


def _lp_state(lp: LogicalProcess) -> tuple:
    """The state of *lp* a migration or a snapshot carries, in the
    shape :meth:`NodeEngine._install_lp` takes: fanin values (a copy),
    output value, last key, history and emission counter."""
    return (
        list(lp._fanin_values),
        lp.output_value,
        lp.last_key,
        lp.processed,
        lp.emission_seq,
    )
