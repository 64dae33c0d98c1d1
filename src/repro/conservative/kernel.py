"""The conservative executive: CMB with null messages over the VM.

Event semantics (keys, LP evaluation, stimulus) are byte-identical to
the other two kernels — only the synchronization differs:

- channels exist between node pairs connected by cross-partition
  signals; a channel's *bound* is the promise "nothing with a smaller
  timestamp will ever arrive here" (valid because a node emits with
  nondecreasing timestamps and the network is FIFO);
- a node may process its earliest pending event only while its
  timestamp is strictly below every incoming channel bound;
- when nothing is safe and nothing is in flight, every node broadcasts
  a null message carrying its current output floor (earliest possible
  future emission = earliest local work plus the channel's lookahead,
  the minimum boundary-gate delay); rounds repeat until some node is
  freed — the null-message traffic this generates is the quantity the
  optimistic literature holds against CMB at gate-level lookahead.

Primary-input stimulus and flip-flop reset fan-out are distributed at
initialisation (they are static, known to all nodes), so channels only
ever carry gate-output events, whose lookahead is >= 1 gate delay —
without this, PI-fed channels would have zero lookahead and CMB would
deadlock.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from repro.circuit.gate import FALSE
from repro.circuit.graph import CircuitGraph
from repro.errors import SimulationError
from repro.partition.assignment import PartitionAssignment
from repro.sim.event import CAPTURE, SIG, STIM
from repro.sim.stimulus import Stimulus
from repro.warped.lp import LogicalProcess
from repro.warped.machine import VirtualMachine, check_job
from repro.warped.messages import Message
from repro.warped.queues import NodeQueue

#: Sentinel bound meaning "this channel will never carry anything again".
INF_TIME = 1 << 60


class ConservativeResult:
    """Outcome of one conservative run (no rollbacks by construction)."""

    def __init__(
        self,
        circuit_name: str,
        algorithm: str,
        num_nodes: int,
        num_cycles: int,
        execution_time: float,
        events_processed: int,
        app_messages: int,
        null_messages: int,
        null_rounds: int,
        final_values: list[int],
    ) -> None:
        self.circuit_name = circuit_name
        self.algorithm = algorithm
        self.num_nodes = num_nodes
        self.num_cycles = num_cycles
        self.execution_time = execution_time
        self.events_processed = events_processed
        self.app_messages = app_messages
        self.null_messages = null_messages
        self.null_rounds = null_rounds
        self.final_values = final_values

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.circuit_name} [CMB {self.algorithm} x{self.num_nodes}] "
            f"T={self.execution_time:.2f}s ev={self.events_processed} "
            f"msg={self.app_messages} null={self.null_messages}"
        )


class ConservativeSimulator:
    """Run one circuit under one partition, conservatively."""

    def __init__(
        self,
        circuit: CircuitGraph,
        assignment: PartitionAssignment,
        stimulus: Stimulus,
        machine: VirtualMachine,
        *,
        max_events: int = 50_000_000,
        max_null_rounds: int = 5_000_000,
    ) -> None:
        check_job(circuit, assignment, stimulus, machine)
        self.circuit = circuit
        self.assignment = assignment
        self.stimulus = stimulus
        self.machine = machine
        self.max_events = max_events
        self.max_null_rounds = max_null_rounds

    # ------------------------------------------------------------------
    def run(self) -> ConservativeResult:
        """Simulate to quiescence under CMB synchronization."""
        circuit = self.circuit
        machine = self.machine
        cost = machine.cost_model
        network = machine.network
        n_nodes = machine.num_nodes
        stim = self.stimulus

        lps = [
            LogicalProcess(gate, self.assignment[gate.index])
            for gate in circuit.gates
        ]
        queues = [NodeQueue() for _ in range(n_nodes)]
        wall = [0.0] * n_nodes

        # --- channels: (src node -> dst node) with per-channel lookahead
        # = min delay of the boundary gates driving it. SIG emissions
        # from gate u arrive with vt = (eval time) + delay(u).
        lookahead: dict[tuple[int, int], int] = {}
        for gate in circuit.gates:
            src_node = lps[gate.index].node
            for sink in gate.fanout:
                dst_node = lps[sink].node
                if dst_node == src_node:
                    continue
                key = (src_node, dst_node)
                lookahead[key] = min(
                    lookahead.get(key, INF_TIME), max(1, gate.delay)
                )
        incoming: dict[int, list[tuple[int, int]]] = defaultdict(list)
        outgoing: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for (src_node, dst_node), la in lookahead.items():
            incoming[dst_node].append((src_node, dst_node))
            outgoing[src_node].append((src_node, dst_node))
        #: Receiver-side promise per channel.
        bound: dict[tuple[int, int], int] = dict.fromkeys(lookahead, 0)
        #: Sender-side floor already promised (avoid duplicate nulls).
        promised: dict[tuple[int, int], int] = dict.fromkeys(lookahead, -1)

        uid_counter = 0

        def next_uid() -> int:
            nonlocal uid_counter
            uid_counter += 1
            return uid_counter

        # --- static schedule, distributed at init (see module docstring):
        # stimulus, captures AND the pre-known PI/reset fan-out copies.
        # Stimulus copies are fanned out here because a runtime STIM copy
        # carries the SAME timestamp as the event that produced it — a
        # zero-lookahead channel message that conservative synchronization
        # cannot admit. The fan-out is static, so every node can hold its
        # copies from the start (the same value-change suppression the
        # LPs apply is applied here).
        from repro.circuit.gate import UNKNOWN

        for ff in circuit.dffs:
            for sink in lps[ff]._sink_list:
                queues[lps[sink].node].push(
                    Message(0, SIG, ff, 0, FALSE, sink, next_uid())
                )
        for cycle in range(stim.num_cycles):
            t = stim.cycle_time(cycle)
            if cycle > 0:
                for ff in circuit.dffs:
                    queues[lps[ff].node].push(
                        Message(t, CAPTURE, ff, cycle, 0, ff, next_uid())
                    )
        for pi in circuit.primary_inputs:
            previous = UNKNOWN
            for cycle in range(stim.num_cycles):
                t = stim.cycle_time(cycle)
                value = stim.value(pi, cycle)
                queues[lps[pi].node].push(
                    Message(t, STIM, pi, cycle, value, pi, next_uid())
                )
                if value != previous:
                    for sink in lps[pi]._sink_list:
                        queues[lps[sink].node].push(
                            Message(t, STIM, pi, cycle, value, sink, next_uid())
                        )
                previous = value

        in_flight: list[tuple[float, int, object]] = []
        flight_seq = 0
        counters = {
            "events": 0,
            "app_messages": 0,
            "null_messages": 0,
            "null_rounds": 0,
        }

        def incoming_bound(node: int) -> int:
            channels = incoming.get(node)
            if not channels:
                return INF_TIME
            return min(bound[ch] for ch in channels)

        def output_floor(node: int, channel: tuple[int, int]) -> int:
            """Earliest timestamp *node* could still emit on *channel*."""
            pending_min = queues[node].min_time
            horizon = min(
                pending_min if pending_min is not None else INF_TIME,
                incoming_bound(node),
            )
            if horizon >= INF_TIME:
                return INF_TIME
            return horizon + lookahead[channel]

        def null_round() -> bool:
            """Broadcast nulls; returns True if any promise advanced."""
            counters["null_rounds"] += 1
            advanced = False
            nonlocal flight_seq
            for node in range(n_nodes):
                sends = 0
                for channel in outgoing.get(node, ()):
                    floor = output_floor(node, channel)
                    if floor <= promised[channel]:
                        continue
                    promised[channel] = floor
                    flight_seq += 1
                    heapq.heappush(
                        in_flight,
                        (
                            wall[node] + network.latency(node, channel[1]),
                            flight_seq,
                            ("null", channel, floor),
                        ),
                    )
                    counters["null_messages"] += 1
                    sends += 1
                    advanced = True
                if sends:
                    wall[node] += cost.send_overhead * sends
            return advanced

        # ------------------------------------------------------------
        event_cost = cost.event_cost
        while True:
            next_arrival = in_flight[0][0] if in_flight else None

            proc_node = -1
            proc_wall = None
            any_pending = False
            for node in range(n_nodes):
                queue = queues[node]
                min_time = queue.min_time
                if min_time is None:
                    continue
                any_pending = True
                if min_time >= incoming_bound(node):
                    continue  # not provably safe yet
                if proc_wall is None or wall[node] < proc_wall:
                    proc_wall = wall[node]
                    proc_node = node

            if next_arrival is None and not any_pending:
                break

            if proc_wall is None or (
                next_arrival is not None and next_arrival <= proc_wall
            ):
                if next_arrival is None:
                    # Blocked everywhere with an empty network: the null
                    # protocol must free someone (lookahead >= 1).
                    if counters["null_rounds"] > self.max_null_rounds:
                        raise SimulationError("null-message budget exhausted")
                    if not null_round():
                        raise SimulationError(
                            "conservative deadlock: no promise can advance"
                        )
                    continue
                arrival, _, payload = heapq.heappop(in_flight)
                if isinstance(payload, tuple) and payload[0] == "null":
                    _, channel, floor = payload
                    dst = channel[1]
                    wall[dst] = max(wall[dst], arrival) + cost.recv_overhead
                    if floor > bound[channel]:
                        bound[channel] = floor
                else:
                    msg = payload
                    dst = lps[msg.dest].node
                    wall[dst] = max(wall[dst], arrival) + cost.recv_overhead
                    channel = (msg_src_node(msg, lps), dst)
                    # With heterogeneous gate delays, emission times on a
                    # channel are NOT monotone (a later event through a
                    # faster gate can emit earlier). The guarantee a real
                    # message carries is therefore derived from the event
                    # that produced it: the sender processed an event at
                    # msg.time - delay(src), so nothing earlier than that
                    # event time + the channel lookahead can still come.
                    promise = (
                        msg.time
                        - circuit.gates[msg.src].delay
                        + lookahead[channel]
                    )
                    if promise > bound[channel]:
                        bound[channel] = promise
                    queues[dst].push(msg)
                continue

            node = proc_node
            msg = queues[node].pop()
            lp = lps[msg.dest]
            record = lp.process(msg, next_uid)
            if msg.prio == STIM and msg.src == msg.dest:
                # The stimulus fan-out was distributed at init; the self
                # event only updates the PI's own output value here.
                record.emissions.clear()
            counters["events"] += 1
            if counters["events"] > self.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events}"
                )
            wall[node] += event_cost
            now = wall[node]
            remote_sends = 0
            for em in record.emissions:
                dest_node = lps[em.dest].node
                if dest_node == node:
                    queues[node].push(em)
                else:
                    flight_seq += 1
                    heapq.heappush(
                        in_flight,
                        (now + network.latency(node, dest_node), flight_seq, em),
                    )
                    channel = (node, dest_node)
                    # Track the *guarantee* this send conveys (see the
                    # delivery path), not its raw timestamp — otherwise a
                    # later, lower null would be wrongly suppressed.
                    promised[channel] = max(
                        promised[channel],
                        em.time - circuit.gates[em.src].delay
                        + lookahead[channel],
                    )
                    counters["app_messages"] += 1
                    remote_sends += 1
            if remote_sends:
                wall[node] += cost.send_overhead * remote_sends
            # History is irrelevant without rollback: reclaim it.
            lp.processed.clear()

        return ConservativeResult(
            circuit_name=circuit.name,
            algorithm=self.assignment.algorithm,
            num_nodes=n_nodes,
            num_cycles=stim.num_cycles,
            execution_time=max(wall),
            events_processed=counters["events"],
            app_messages=counters["app_messages"],
            null_messages=counters["null_messages"],
            null_rounds=counters["null_rounds"],
            final_values=[lp.output_value for lp in lps],
        )


def msg_src_node(msg: Message, lps) -> int:
    """Node that emitted *msg* (the source gate's home node)."""
    return lps[msg.src].node
