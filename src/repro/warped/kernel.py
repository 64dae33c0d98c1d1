"""The Time Warp executive over the virtual cluster.

One instance simulates the parallel machine deterministically: each
node (cluster of LPs) has its own wall clock and pending-event queue;
the executive repeatedly performs whichever happens first in modelled
wall time — a network delivery or one event processed on the
least-advanced busy node. Optimism is real: a node happily processes
ahead of its peers, and remote messages landing in its past trigger
rollback with aggressive cancellation, exactly the WARPED protocol.

Cancellation is *eager at insertion*: a straggler or anti-message rolls
its LP back the moment it reaches the node, and cascades (undone sends
annihilating downstream work) are drained iteratively — chains through
deep circuits would blow the recursion limit otherwise.

Hot-path bookkeeping is incremental (PR 3): node queues cache their
head key, the global history size (and its peak, the true memory
high-water mark) is maintained per process/undo instead of summed per
GVT round, fossil collection only visits LPs that actually hold
history, and the load-balancer's activity decay is applied lazily on
read. The differential suite (``tests/test_seed_equivalence.py``) pins
all of it to the pre-optimization kernel's observable behavior.

Around the event loop the slow paths are the process engine's, written
once (DESIGN §8): LPs and every node's initial schedule come from a
:class:`~repro.warped.world.World`, a rollback undoes through
:func:`~repro.warped.lp.unwind` and is traced by
:func:`~repro.warped.lp.trace_rollback`, history goes through
:func:`~repro.warped.lp.fossil_sweep` and
:func:`~repro.warped.lp.flush_committed`, and ``World.migrants`` picks
migrants.  Anti-message dispatch and the modelled cost charge stay
here: undone sends go to the in-flight heap or the lazy buffer.

Every count is kept once, per node: the hot loop's tallies and
:class:`~repro.warped.stats.NodeStats`, whose sums are the result's
totals.  A rollback's ``rid`` is its node's rollback ordinal.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque
from itertools import count

from repro.circuit.graph import CircuitGraph
from repro.errors import SimulationError
from repro.partition.assignment import PartitionAssignment
from repro.sim.event import CAPTURE, SIG, STIM, T_END
from repro.sim.stimulus import Stimulus
from repro.warped.gvt import compute_gvt
from repro.warped.lp import (
    LogicalProcess, ProcessedRecord, flush_committed, fossil_sweep,
    trace_rollback, unwind,
)
from repro.warped.machine import VirtualMachine, check_job
from repro.warped.messages import ANTI, Message, fan_out
from repro.warped.queues import NodeQueue
from repro.warped.stats import NodeStats, TimeWarpResult, node_totals
from repro.warped.world import World


class TimeWarpSimulator:
    """Run one circuit under one partition on one virtual machine."""

    def __init__(
        self,
        circuit: CircuitGraph,
        assignment: PartitionAssignment,
        stimulus: Stimulus,
        machine: VirtualMachine,
        *,
        max_events: int = 50_000_000,
        tracer=None,
    ) -> None:
        check_job(circuit, assignment, stimulus, machine)
        self.circuit = circuit
        self.assignment = assignment
        self.stimulus = stimulus
        self.machine = machine
        self.max_events = max_events
        #: Optional :class:`repro.obs.tracer.TraceWriter` — structured
        #: rollback / GVT-round / node-summary records.
        self.tracer = tracer

    # ------------------------------------------------------------------
    def run(self) -> TimeWarpResult:
        """Simulate to quiescence under Time Warp; returns all counters."""
        circuit = self.circuit
        machine = self.machine
        cost = machine.cost_model
        # Every cross-node hop costs the same modelled latency.
        hop_delay = machine.network.delay
        n_nodes = machine.num_nodes

        checkpointing = machine.checkpoint_interval is not None
        ckpt_interval = machine.checkpoint_interval
        world = World.of(self.assignment)
        lps: list[LogicalProcess] = [None] * circuit.num_gates
        node_stats = []
        queues = [NodeQueue() for _ in range(n_nodes)]
        # Initial schedule: every node's messages as the world mints
        # them (uids strided by node).  No two share (time, prio, src,
        # n, dest), so uids never break a tie and pop order is that of
        # the sequential kernel; emission uids start above them all.
        first_uid = 1
        for node, queue in enumerate(queues):
            roster = world.roster_lps(node, ckpt_interval)
            for index, lp in roster.items():
                lps[index] = lp
            node_stats.append(NodeStats(node=node, num_lps=len(roster)))
            buckets, next_free = world.initial_schedule(node, self.stimulus)
            queue.load(buckets)
            first_uid = max(first_uid, next_free)
        wall = [0.0] * n_nodes
        busy = [0.0] * n_nodes
        migration_threshold = machine.migration_threshold
        migrating = migration_threshold is not None
        # Dynamic load balancing bookkeeping: work done per node since
        # the previous GVT round, and a decaying per-LP activity score
        # used to pick which LPs to move. The decay (halving after every
        # migration) is lazy: each LP folds the epochs it missed into
        # its score the next time the score is touched, so a migration
        # costs O(1) instead of O(gates).
        busy_at_last_gvt = [0.0] * n_nodes
        lp_activity = [0.0] * circuit.num_gates
        lp_activity_epoch = [0] * circuit.num_gates
        decay_epoch = 0
        busy_at_last_sample = [0.0] * n_nodes
        utilization_timeline: list[tuple[float, list[float]]] = []
        # Hot per-node tallies, folded into node_stats at the end.
        ns_events = [0] * n_nodes
        ns_local = [0] * n_nodes
        ns_remote = [0] * n_nodes
        # Attribution tallies (coasted replays, checkpoint snapshots,
        # migration transfer time): cheap integers/floats maintained off
        # the innermost path, turned into the per-node wall-time
        # breakdown of the node_summary trace record.
        ns_coast = [0] * n_nodes
        ns_ckpt = [0] * n_nodes
        ns_migr = [0.0] * n_nodes

        in_flight: list[tuple[float, int, Message]] = []
        # Cached arrival time of the earliest in-flight message (INF when
        # none): the scheduler compares it against the processing
        # candidate once per event, so the heap head is not re-read.
        next_arrival = float("inf")
        waiting_antis: dict[int, Message] = {}
        pending_cancels: deque[Message] = deque()
        lazy = machine.cancellation == "lazy"
        # Lazy cancellation: per-LP FIFO of undone sends awaiting their
        # re-execution verdict (reuse if re-derived identically, cancel
        # on first divergence or when virtual time passes them by).
        lazy_buffers: dict[int, deque[Message]] = {}

        # Fresh message uids, minted at C speed (one closure frame per
        # uid was measurable at ~1.4 uid mints per event).
        uids = count(first_uid)
        next_uid = uids.__next__

        flight_seq = 0
        tracer = self.tracer
        # Committed DFF captures: (gate, cycle) -> value captured.
        # Entries are removed when their record is rolled back, so at
        # quiescence the log is exactly the committed capture history
        # (the cross-backend differential invariant).
        capture_log: dict[tuple[int, int], int] = {}
        counters = {"gvt_rounds": 0, "lazy_reuses": 0, "migrations": 0}
        # Incrementally-maintained total/peak of in-history records
        # (sum of len(lp.processed) over all LPs). The peak is tracked
        # on every growth step, not sampled at GVT rounds, so it is the
        # true memory high-water mark even with a sparse gvt_interval.
        history_total = 0
        peak_history = 0
        # LPs currently holding history records (the only ones a
        # fossil-collection sweep needs to visit), mapped to the virtual
        # time of their OLDEST record — the sweep's skip test reads the
        # map instead of chasing lp.processed[0].msg.time attributes.
        oldest_times: dict[int, int] = {}

        # ------------------------------------------------------------
        # cancellation machinery (iterative, see module docstring)
        # ------------------------------------------------------------
        def dispatch_anti(em: Message, node: int, depart: float) -> int:
            """Cancel emission *em*; returns 1 if a remote anti was sent."""
            if lps[em.dest].node == node:
                pending_cancels.append(em)
                return 0
            nonlocal flight_seq, next_arrival
            flight_seq += 1
            arr = depart + hop_delay
            heapq.heappush(in_flight, (arr, flight_seq, em.make_anti()))
            if arr < next_arrival:
                next_arrival = arr
            return 1

        def flush_lazy(lp: LogicalProcess, now_wall: float, *, before: int = T_END) -> None:
            """Cancel buffered sends of *lp* with time < *before* (all by default).

            Called when re-execution diverges from the undone history,
            when virtual time passes a buffered send (it can no longer
            be re-derived), or at quiescence.
            """
            buffer = lazy_buffers.get(lp.gate.index)
            if not buffer:
                return
            node = lp.node
            depart = max(wall[node], now_wall)
            remote = 0
            while buffer and buffer[0].time < before:
                remote += dispatch_anti(buffer.popleft(), node, depart)
            if remote:
                node_stats[node].anti_messages_sent += remote
                wall[node] = depart + cost.send_overhead * remote
                busy[node] += cost.send_overhead * remote

        reused_uids: set[int] = set()

        def _lazy_match(lp: LogicalProcess, record, now_wall: float) -> None:
            """Prefix-match fresh emissions against the lazy buffer.

            A fresh emission identical in (time, prio, dest, value) to
            the buffer head re-derives the undone send: the ORIGINAL
            message (still live at its destination) replaces the fresh
            copy in the history record, and nothing is transmitted. The
            first divergence refutes the rest of the buffer.
            """
            buffer = lazy_buffers.get(lp.gate.index)
            if not buffer:
                return
            new_emissions = []
            diverged = False
            for em in record.emissions:
                head = buffer[0] if buffer else None
                if (
                    not diverged
                    and head is not None
                    and head.time == em.time
                    and head.prio == em.prio
                    and head.dest == em.dest
                    and head.value == em.value
                ):
                    buffer.popleft()
                    new_emissions.append(head)
                    reused_uids.add(head.uid)
                    counters["lazy_reuses"] += 1
                else:
                    diverged = True
                    new_emissions.append(em)
            if diverged:
                flush_lazy(lp, now_wall)
            record.emissions[:] = new_emissions

        def rollback(
            lp: LogicalProcess,
            to_key,
            now_wall: float,
            cancel_uid: int | None,
            cause_msg: Message,
        ) -> None:
            nonlocal history_total
            node = lp.node
            stats = node_stats[node]
            remote_antis = 0
            # The rollback executes on this node's CPU: it cannot start
            # before work the node already performed. Anti-messages
            # depart at or after every send already made, preserving
            # per-channel FIFO with the positives they chase.
            depart = max(wall[node], now_wall)
            undone_records, coasted = unwind(
                lp, to_key, cancel_uid, queues[node], capture_log
            )
            undone = len(undone_records)
            history_total -= undone
            if not lp.processed:
                oldest_times.pop(lp.gate_index, None)
            if lazy:
                # Older buffered sends are stale the moment a second
                # rollback reaches further back: cancel them, then hold
                # the newly undone sends (in forward emission order) for
                # the re-execution to confirm or refute.
                flush_lazy(lp, now_wall)
                buffer = lazy_buffers.setdefault(lp.gate.index, deque())
                for record in reversed(undone_records):
                    buffer.extend(record.emissions)
            else:
                for record in undone_records:
                    for em in record.emissions:
                        remote_antis += dispatch_anti(em, node, depart)
            stats.rollbacks += 1
            stats.events_rolled_back += undone
            stats.anti_messages_sent += remote_antis
            ns_coast[node] += coasted
            if tracer is not None:
                trace_rollback(
                    tracer, lp, stats.rollbacks, undone_records, to_key,
                    cancel_uid, cause_msg, lps[cause_msg.src].node,
                )
            work = (
                cost.rollback_event_cost * undone
                + cost.coast_event_cost * coasted
                + cost.send_overhead * remote_antis
            )
            wall[node] = max(wall[node], now_wall) + work
            busy[node] += work

        def apply_cancel(em: Message, now_wall: float) -> None:
            """Annihilate the (node-local or delivered) positive copy *em*."""
            lp = lps[em.dest]
            if queues[lp.node].annihilate(em):
                return  # the positive copy was still pending
            if lp.holds(em):
                rollback(lp, em.key, now_wall, cancel_uid=em.uid, cause_msg=em)
            else:
                # Positive copy not yet arrived (it can still be in
                # flight even if the LP advanced past its key — the anti
                # took a shorter wall-clock path); annihilate on arrival.
                waiting_antis[em.uid] = em

        def drain_cancels(now_wall: float) -> None:
            while pending_cancels:
                apply_cancel(pending_cancels.popleft(), now_wall)

        recv_overhead = cost.recv_overhead

        # ------------------------------------------------------------
        # main virtual-machine loop
        # ------------------------------------------------------------
        gvt_interval = machine.gvt_interval
        since_gvt = 0
        event_cost = cost.event_cost
        if checkpointing:
            # Incremental state saving is folded into event_cost; with
            # periodic snapshots the per-event share is skipped and the
            # snapshot itself is charged when taken (the cost model
            # validates state_save_cost < event_cost).
            event_cost = cost.event_cost - cost.state_save_cost
        send_overhead = cost.send_overhead
        state_save_cost = cost.state_save_cost
        window = machine.optimism_window
        gvt_now = 0  # current GVT estimate (for window throttling)
        horizon = None if window is None else gvt_now + window
        max_events = self.max_events

        def fold_activity(gate_index: int) -> float:
            """Apply pending lazy decay; returns the current score."""
            behind = decay_epoch - lp_activity_epoch[gate_index]
            if behind:
                lp_activity[gate_index] *= 0.5 ** behind
                lp_activity_epoch[gate_index] = decay_epoch
            return lp_activity[gate_index]

        def run_gvt_round() -> int:
            nonlocal history_total
            round_t0 = time.perf_counter()
            counters["gvt_rounds"] += 1
            if lazy:
                # Buffered undone sends strictly below the pending/
                # in-flight floor can never be re-derived (an LP only
                # emits at or after the time of the event it processes,
                # and no unprocessed event exists below the floor): they
                # are refuted — cancel them now. Without this, a
                # buffered send below every pending event would pin GVT
                # (and a bounded-optimism window) forever.
                floor = compute_gvt(queues, (m.time for _, _, m in in_flight))
                for index, buffer in lazy_buffers.items():
                    if buffer and buffer[0].time < floor:
                        lp_ = lps[index]
                        flush_lazy(lp_, wall[lp_.node], before=floor)
                drain_cancels(max(wall))
            # Remaining lazily-buffered sends are pending cancellation
            # obligations: they hold GVT back just like in-flight
            # messages, or fossil collection would free the very
            # positives their antis must eventually annihilate.
            outstanding = [m.time for _, _, m in in_flight]
            if lazy:
                outstanding.extend(
                    buffer[0].time for buffer in lazy_buffers.values() if buffer
                )
            gvt = compute_gvt(queues, outstanding)
            final = gvt == T_END
            if not final:
                history_total -= fossil_sweep(lps, oldest_times, gvt, tracer)
            for node_ in range(n_nodes):
                wall[node_] += cost.gvt_cost
                busy[node_] += cost.gvt_cost
            utilization_timeline.append(
                (
                    max(wall),
                    [busy[i] - busy_at_last_sample[i] for i in range(n_nodes)],
                )
            )
            for i in range(n_nodes):
                busy_at_last_sample[i] = busy[i]
            if migrating and not final:
                migrate_load(gvt)
            if tracer is not None:
                tracer.emit(
                    "gvt_round",
                    cid=counters["gvt_rounds"],
                    gvt=None if final else gvt,
                    final=final,
                    latency=time.perf_counter() - round_t0,
                    trips=1,
                )
            return gvt

        def migrate_load(gvt: int) -> None:
            """Move :meth:`World.migrants` of the busiest node, ranked
            by decayed activity, to the idlest node.

            Runs inside a GVT round: everything below GVT is committed,
            in-flight and anti-messages resolve their target node at
            delivery time, and the moved LP's pending events follow it —
            so migration is transparent to the Time Warp protocol.
            """
            nonlocal decay_epoch
            window = [busy[i] - busy_at_last_gvt[i] for i in range(n_nodes)]
            for i in range(n_nodes):
                busy_at_last_gvt[i] = busy[i]
            hot = max(range(n_nodes), key=lambda i: (window[i], -i))
            cold = min(range(n_nodes), key=lambda i: (window[i], i))
            if hot == cold:
                return
            # Two gates, both required. The absolute floor first: when
            # the cold node sat idle (window 0) any nonzero hot window
            # would pass a pure ratio test and LPs would thrash back
            # and forth every round; a move must at least pay for its
            # own transfer cost to be worth considering. Then the
            # ratio: the imbalance must exceed the configured factor.
            if window[hot] < cost.migrate_lp_cost:
                return
            if window[hot] <= migration_threshold * window[cold]:
                return
            moving = world.migrants(
                (lp_.gate_index for lp_ in lps if lp_.node == hot),
                machine.migration_fraction,
                fold_activity,
            )
            if not moving:
                return
            moved_set = set(moving)
            for gate_index in moving:
                lps[gate_index].node = cold
            pending_moved = 0
            for msg in queues[hot].extract_dests(moved_set):
                queues[cold].push(msg)
                pending_moved += 1
            transfer = cost.migrate_lp_cost * len(moving)
            wall[hot] += transfer
            busy[hot] += transfer
            wall[cold] = max(wall[cold], wall[hot]) + transfer
            busy[cold] += transfer
            ns_migr[hot] += transfer
            ns_migr[cold] += transfer
            counters["migrations"] += len(moving)
            node_stats[hot].num_lps -= len(moving)
            node_stats[cold].num_lps += len(moving)
            if tracer is not None:
                tracer.emit(
                    "migr",
                    node=hot,
                    src=hot,
                    dst=cold,
                    lps=len(moving),
                    pending=pending_moved,
                    gvt=gvt,
                )
            # Decay activity so the score tracks RECENT load; lazy —
            # every LP folds the halving in on its next touch.
            decay_epoch += 1

        INF = float("inf")
        heappush = heapq.heappush
        heappop = heapq.heappop
        oldest_setdefault = oldest_times.setdefault
        msg_new = Message.__new__
        rec_new = ProcessedRecord.__new__

        # --- scheduler tournament tree --------------------------------
        # The executive repeatedly needs argmin over nodes of
        # (wall, node) restricted to nodes with an eligible pending
        # event (non-empty queue, head inside the optimism window).
        # Each loop iteration mutates exactly ONE node (the processing
        # node, or a delivery's destination — cancellation cascades stay
        # on that node by construction), so instead of rescanning all
        # nodes per event, leaves of a small tournament tree hold
        # (wall, node) — or (inf, node) when ineligible — and one leaf
        # update bubbles through log2(nodes) internal mins. Ties on
        # wall resolve to the lowest node index, exactly like the scan
        # it replaces. GVT rounds, migration and quiescence flushes
        # touch many nodes at once and trigger a full rebuild.
        tree_size = 1
        while tree_size < n_nodes:
            tree_size <<= 1
        sched_tree: list[tuple[float, int]] = [(INF, 0)] * (2 * tree_size)
        idle_leaves = [(INF, i) for i in range(tree_size)]

        def sched_rebuild() -> None:
            for i in range(tree_size):
                if i < n_nodes:
                    t = queues[i].min_time
                    if t is None or (horizon is not None and t > horizon):
                        sched_tree[tree_size + i] = idle_leaves[i]
                    else:
                        sched_tree[tree_size + i] = (wall[i], i)
                else:
                    sched_tree[tree_size + i] = idle_leaves[i]
            for k in range(tree_size - 1, 0, -1):
                a = sched_tree[k + k]
                b = sched_tree[k + k + 1]
                sched_tree[k] = a if a <= b else b

        sched_rebuild()

        # The hot loop allocates heavily (messages, records, heap
        # tuples) but never creates reference cycles: everything
        # dies by refcount. Generational GC passes triggered by that
        # churn are pure overhead, so they are suspended for the
        # duration of the run and restored on every exit path.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            # The scheduler root (earliest eligible node) is carried in
            # (proc_wall, node) across iterations: every path that
            # changes the tree rebinds it, so the loop top re-reads
            # nothing.
            proc_wall, node = sched_tree[1]
            while True:
                if next_arrival <= proc_wall:
                    # Either a message arrives before the processing
                    # candidate, or both are INF (scheduler idle AND
                    # nothing in flight). The single compare covers the
                    # old separate idle check: proc_wall == INF implies
                    # next_arrival <= proc_wall.
                    if in_flight:
                        # --- deliver, inlined ----------------------------
                        # Taking a message off the wire costs destination
                        # CPU. Only the destination node's state changes;
                        # its scheduler leaf update is folded in at the
                        # end.
                        arrival, _, msg = heappop(in_flight)
                        next_arrival = in_flight[0][0] if in_flight else INF
                        d_lp = lps[msg.dest]
                        d_node = d_lp.node
                        w = wall[d_node]
                        wall[d_node] = (w if w >= arrival else arrival) + recv_overhead
                        busy[d_node] += recv_overhead
                        if msg.sign == ANTI:
                            apply_cancel(msg, arrival)
                        elif msg.uid in waiting_antis:
                            del waiting_antis[msg.uid]
                        else:
                            if msg.key <= d_lp.last_key:
                                rollback(
                                    d_lp, msg.key, arrival,
                                    cancel_uid=None, cause_msg=msg,
                                )
                            queues[d_lp.node].push(msg)
                        if pending_cancels:
                            drain_cancels(arrival)
                        # sched_update(d_node), inlined; the final bubble
                        # value IS the new root.
                        t = queues[d_node].min_time
                        if t is None or (horizon is not None and t > horizon):
                            m = idle_leaves[d_node]
                        else:
                            m = (wall[d_node], d_node)
                        k = tree_size + d_node
                        sched_tree[k] = m
                        while k > 1:
                            k >>= 1
                            a = sched_tree[k + k]
                            b = sched_tree[k + k + 1]
                            m = a if a <= b else b
                            sched_tree[k] = m
                        proc_wall, node = m
                        continue
                    if any(queue.min_time is not None for queue in queues):
                        # Every pending event sits beyond the window: a
                        # fresh GVT round re-opens it (min pending time IS
                        # the new GVT).
                        since_gvt = 0
                        gvt_now = run_gvt_round()
                        if window is not None:
                            horizon = gvt_now + window
                        sched_rebuild()
                        proc_wall, node = sched_tree[1]
                        continue
                    if lazy and any(lazy_buffers.values()):
                        # Quiescence with unresolved lazy sends: those
                        # messages will never be re-derived — cancel them all
                        # and let the cleanup cascade settle.
                        for lp_ in lps:
                            flush_lazy(lp_, max(wall))
                        drain_cancels(max(wall))
                        sched_rebuild()
                        proc_wall, node = sched_tree[1]
                        continue
                    break

                proc_queue = queues[node]
                # --- NodeQueue.pop, inlined ------------------------------
                open_bucket = proc_queue._open
                msg = open_bucket.pop()[5]
                if not open_bucket:
                    proc_queue._advance()
                # --- end inlined pop -------------------------------------
                dest = msg.dest
                lp = lps[dest]
                if lazy and lazy_buffers.get(dest):
                    # Buffered sends with an emission time this event can no
                    # longer produce are refuted: virtual time passed them.
                    flush_lazy(lp, wall[node], before=msg.time)
                # --- LogicalProcess.process, inlined ---------------------
                # The method remains the public API (the conservative
                # kernel, the tests) and keeps the straggler assertion; the
                # executive runs the body inline because the call
                # dominated the per-event profile, and relies on the
                # rollback-before-process contract the surrounding code
                # enforces (tests/test_seed_equivalence.py checks the
                # outcome against the reference kernel). Any change here
                # must mirror lp.py.
                values = lp._fanin_values
                old_output = lp.output_value
                old_input = None
                # The shared empty tuple stands in for "no emissions";
                # every consumer only iterates it, and the lazy-match
                # mutation path is gated on emissions being non-empty
                # (a real list).
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
                                em.uid = next_uid()
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
                                em.uid = next_uid()
                                em.sign = 1
                                em.key = key_out
                                em2 = msg_new(Message)
                                em2.time = t_out
                                em2.prio = SIG
                                em2.src = gi
                                em2.n = n_seq
                                em2.value = nv
                                em2.dest = sinks[1]
                                em2.uid = next_uid()
                                em2.sign = 1
                                em2.key = key_out
                                emissions = [em, em2]
                            else:
                                emissions = fan_out(
                                    t_out, SIG, gi, n_seq, nv, sinks, uids
                                )
                elif prio == CAPTURE:
                    data = values[0]
                    if data != old_output:
                        lp.output_value = data
                        capture_log[(dest, msg.n)] = data
                        n_seq = lp.emission_seq
                        lp.emission_seq = n_seq + 1
                        emissions = fan_out(
                            msg.time + lp.delay, SIG, lp.gate_index, n_seq,
                            data, lp._sink_list, uids,
                        )
                else:
                    # Own stimulus: apply, fan the SAME key out to the sinks.
                    value = msg.value
                    if value != old_output:
                        lp.output_value = value
                        emissions = fan_out(
                            msg.time, STIM, lp.gate_index, msg.n, value,
                            lp._sink_list, uids,
                        )
                record = rec_new(ProcessedRecord)
                record.msg = msg
                record.old_input = old_input
                record.old_output = old_output
                record.emissions = emissions
                lp.processed.append(record)
                lp.last_key = msg.key
                # --- end inlined process ---------------------------------
                ns_events[node] += 1
                history_total += 1
                if history_total > peak_history:
                    peak_history = history_total
                oldest_setdefault(dest, msg.time)
                if migrating:
                    behind = decay_epoch - lp_activity_epoch[dest]
                    if behind:
                        lp_activity[dest] *= 0.5 ** behind
                        lp_activity_epoch[dest] = decay_epoch
                    lp_activity[dest] += 1.0
                wall[node] += event_cost
                busy[node] += event_cost
                if checkpointing:
                    since = lp._since_checkpoint + 1
                    if since >= ckpt_interval:
                        lp.checkpoints.append(
                            (msg.key, list(values), lp.output_value)
                        )
                        lp._since_checkpoint = 0
                        ns_ckpt[node] += 1
                        wall[node] += state_save_cost  # snapshot just taken
                        busy[node] += state_save_cost
                    else:
                        lp._since_checkpoint = since
                now = wall[node]
                if lazy and emissions and lazy_buffers.get(dest):
                    _lazy_match(lp, record, now)
                    emissions = record.emissions
                if emissions:
                    remote_sends = 0
                    buckets = proc_queue._buckets  # never rebound
                    for em in emissions:
                        if reused_uids and em.uid in reused_uids:
                            reused_uids.discard(em.uid)
                            continue  # live at its destination from before the rollback
                        dest_lp = lps[em.dest]
                        dest_node = dest_lp.node
                        if dest_node == node:
                            ns_local[node] += 1
                            # insert_positive, inlined for the same-node case
                            # (the overwhelming majority of traffic under a good
                            # partition).
                            if waiting_antis and em.uid in waiting_antis:
                                del waiting_antis[em.uid]
                                continue
                            if em.key <= dest_lp.last_key:
                                rollback(
                                    dest_lp, em.key, now,
                                    cancel_uid=None, cause_msg=em,
                                )
                            # The later-bucket append of NodeQueue.push,
                            # inlined (mirrors it).  Every other case is
                            # the method's.
                            bucket = buckets.get(em.time)
                            if bucket is not None:
                                bucket.append(
                                    (em.prio, em.src, em.n, em.dest, em.uid, em)
                                )
                            else:
                                proc_queue.push(em)
                        else:
                            flight_seq += 1
                            arr = now + hop_delay
                            heappush(in_flight, (arr, flight_seq, em))
                            if arr < next_arrival:
                                next_arrival = arr
                            ns_remote[node] += 1
                            remote_sends += 1
                    if remote_sends:
                        wall[node] += send_overhead * remote_sends
                        busy[node] += send_overhead * remote_sends
                if pending_cancels:
                    drain_cancels(wall[node])

                since_gvt += 1
                if since_gvt >= gvt_interval:
                    since_gvt = 0
                    # Runaway guard, amortised over the GVT interval: a
                    # thrashing run overshoots by at most gvt_interval
                    # events before the abort fires.
                    if sum(ns_events) > max_events:
                        raise SimulationError(
                            f"exceeded max_events={self.max_events}; "
                            "thrashing rollbacks or workload too large"
                        )
                    gvt_now = run_gvt_round()
                    if window is not None:
                        horizon = gvt_now + window
                    sched_rebuild()
                    proc_wall, node = sched_tree[1]
                else:
                    # sched_update(node), inlined: only this node's wall /
                    # queue head changed during the iteration. The final
                    # bubble value IS the new root.
                    t = proc_queue.min_time
                    if t is None or (horizon is not None and t > horizon):
                        m = idle_leaves[node]
                    else:
                        m = (wall[node], node)
                    k = tree_size + node
                    sched_tree[k] = m
                    while k > 1:
                        k >>= 1
                        a = sched_tree[k + k]
                        b = sched_tree[k + k + 1]
                        m = a if a <= b else b
                        sched_tree[k] = m
                    proc_wall, node = m
        finally:
            if gc_was_enabled:
                gc.enable()

        if waiting_antis:
            raise SimulationError(
                f"{len(waiting_antis)} anti-messages never met their "
                "positive copies — kernel invariant broken"
            )

        flush_committed(lps, tracer)
        for i in range(n_nodes):
            node_stats[i].events_processed = ns_events[i]
            node_stats[i].messages_sent_local = ns_local[i]
            node_stats[i].messages_sent_remote = ns_remote[i]
            node_stats[i].wall_time = wall[i]
            node_stats[i].busy_time = busy[i]
            if tracer is not None:
                # Exact decomposition of this node's busy time under the
                # modelled cost machine; recv is the residual (it equals
                # recv_overhead x deliveries by construction) and idle
                # the wall/busy gap.
                attr_compute = (
                    ns_events[i] * event_cost + ns_ckpt[i] * state_save_cost
                )
                attr_rollback = (
                    node_stats[i].events_rolled_back
                    * cost.rollback_event_cost
                    + ns_coast[i] * cost.coast_event_cost
                )
                attr_gvt = counters["gvt_rounds"] * cost.gvt_cost
                attr_send = (
                    ns_remote[i] + node_stats[i].anti_messages_sent
                ) * cost.send_overhead
                attr_recv = busy[i] - (
                    attr_compute
                    + attr_rollback
                    + attr_gvt
                    + attr_send
                    + ns_migr[i]
                )
                tracer.emit(
                    "node_summary",
                    node=i,
                    busy=busy[i],
                    wall=wall[i],
                    events=node_stats[i].events_processed,
                    rollbacks=node_stats[i].rollbacks,
                    rolled_back=node_stats[i].events_rolled_back,
                    antis=node_stats[i].anti_messages_sent,
                    sent_remote=ns_remote[i],
                    sent_local=ns_local[i],
                    gvt_rounds=counters["gvt_rounds"],
                    num_lps=node_stats[i].num_lps,
                    attr={
                        "compute": attr_compute,
                        "rollback": attr_rollback,
                        "gvt": attr_gvt,
                        "send": attr_send,
                        "recv": max(0.0, attr_recv),
                        "migration": ns_migr[i],
                        "idle": max(0.0, wall[i] - busy[i]),
                    },
                )
        return TimeWarpResult(
            circuit_name=circuit.name,
            algorithm=self.assignment.algorithm,
            num_nodes=n_nodes,
            num_cycles=self.stimulus.num_cycles,
            execution_time=max(wall),
            **node_totals(node_stats),
            gvt_rounds=counters["gvt_rounds"],
            lazy_reuses=counters["lazy_reuses"],
            peak_history=peak_history,
            migrations=counters["migrations"],
            final_values=[lp.output_value for lp in lps],
            utilization_timeline=utilization_timeline,
            node_stats=node_stats,
            committed_captures=sorted(
                (gate, cycle, value)
                for (gate, cycle), value in capture_log.items()
            ),
        )
