"""The part of a process-backend job that outlives it.

The paper partitions a circuit once and simulates it many times: the
LP-to-node map, and everything derived from it, belongs to the
(circuit, partition) pair, not to a stimulus.  A :class:`World` is that
pair as one immutable value, plus what a node derives from it —

- its **roster** (the gates the static partition places there) and the
  static per-gate LP structure of exactly those gates, built on first
  use (a worker never pays for a peer's half of the circuit);
- the **skeleton** of its initial schedule: the DFF power-up resets and
  every per-cycle CAPTURE, as ready-made queue entries grouped per
  virtual time and carrying the uids a from-scratch schedule would
  mint.  These depend on the cycle count and the clock period but not
  on a single stimulus value, and they are most of the schedule (85 %
  on the served job shape), so a job copies the groups and adds only
  its STIM messages.

Nothing a job can change lives here: the assignment is a tuple (an
engine copies it — migration mutates its copy), messages and queue
entries are never written after construction (a job gets its own copy
of every bucket *list* — a queue appends to the lists it is handed), LP
state is per engine.
That is what lets a :class:`~repro.warped.parallel.ring.WorkerRing`
fork its workers with a world (a run: one job), keep worlds resident in
them (a served ring: many jobs) and ship a job as little more than its
stimulus table.

Two worlds are equal when they pair the *same circuit object* with the
same assignment — the identity a ring's residency table keys on.
Pickling carries the pair only; derived structure is rebuilt where it
is used.

Both Time Warp executives build from a world — the virtual kernel every
node's LPs and schedule, a process node its own — and both pick
migrants with :meth:`World.migrants`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from weakref import WeakKeyDictionary

from repro.circuit.gate import FALSE
from repro.circuit.graph import CircuitGraph
from repro.errors import SimulationError
from repro.sim.event import CAPTURE, SIG, STIM
from repro.sim.stimulus import Stimulus
from repro.warped.lp import LogicalProcess, gate_static
from repro.warped.messages import Message
from repro.warped.queues import Entry, bucketed, make_entry

#: Circuit -> (gate index -> static LP structure), filled as LPs are
#: built.  Frozen circuits never mutate, so every world over one
#: circuit — a partition sweep, a ring's resident worlds — shares one
#: entry per gate; it lives exactly as long as the circuit does.
_STATICS: "WeakKeyDictionary[CircuitGraph, dict[int, tuple]]" = (
    WeakKeyDictionary()
)


class _Roster:
    """What one node derives from the world (built on first use)."""

    __slots__ = ("gates", "resets", "dffs", "inputs", "skeleton")

    def __init__(
        self, circuit: CircuitGraph, assignment: tuple, node: int
    ) -> None:
        #: Gates the static partition places on the node, ascending.
        self.gates = [g for g, owner in enumerate(assignment) if owner == node]
        local = set(self.gates)
        #: (flip-flop, local sink) per power-up reset copy, in the
        #: order the initial schedule mints them.
        self.resets = [
            (ff, sink)
            for ff in circuit.dffs
            for sink in dict.fromkeys(circuit.gates[ff].fanout)
            if sink in local
        ]
        self.dffs = [ff for ff in circuit.dffs if ff in local]
        self.inputs = [pi for pi in circuit.primary_inputs if pi in local]
        #: ``((num_cycles, period), time -> entries)`` of the newest
        #: skeleton — one per node, so a client sweeping cycle counts
        #: cannot grow a resident world without bound.
        self.skeleton: (
            tuple[tuple[int, int], dict[int, list[Entry]]] | None
        ) = None


class World:
    """An immutable (circuit, partition) pair and its derived structure."""

    __slots__ = (
        "circuit", "k", "assignment", "algorithm",
        "_hash", "_rosters",
    )

    def __init__(
        self,
        circuit: CircuitGraph,
        k: int,
        assignment: Sequence[int],
        algorithm: str = "unknown",
    ) -> None:
        if not circuit.frozen:
            raise SimulationError("circuit must be frozen")
        if len(assignment) != circuit.num_gates:
            raise SimulationError(
                f"assignment covers {len(assignment)} gates, "
                f"circuit has {circuit.num_gates}"
            )
        self.circuit = circuit
        self.k = k
        self.assignment = tuple(assignment)
        self.algorithm = algorithm
        self._hash = hash((id(circuit), k, self.assignment))
        self._rosters: dict[int, _Roster] = {}

    @classmethod
    def of(cls, partition) -> "World":
        """The world of a
        :class:`~repro.partition.assignment.PartitionAssignment` (a
        world is returned as it is): its circuit, ``k``, a frozen copy
        of the gate-to-node map, and the algorithm name."""
        if isinstance(partition, cls):
            return partition
        return cls(
            partition.circuit, partition.k, partition.assignment,
            partition.algorithm,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, World):
            return NotImplemented
        return (
            self.circuit is other.circuit
            and self.k == other.k
            and self.assignment == other.assignment
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (World, (self.circuit, self.k, self.assignment, self.algorithm))

    @property
    def name(self) -> str:
        """Human-readable label for diagnostics (not unique)."""
        return f"{self.circuit.name}/{self.algorithm}/k{self.k}"

    # ------------------------------------------------------------------
    # logical processes
    # ------------------------------------------------------------------
    def _roster(self, node: int) -> _Roster:
        roster = self._rosters.get(node)
        if roster is None:
            roster = self._rosters[node] = _Roster(
                self.circuit, self.assignment, node
            )
        return roster

    def new_lp(
        self, index: int, node: int, checkpoint_interval: int | None = None
    ) -> LogicalProcess:
        """A fresh LP for gate *index* hosted on *node* — the one way an
        executive's LP is built (roster, migrant or restored alike)."""
        gate = self.circuit.gates[index]
        statics = _STATICS.setdefault(self.circuit, {})
        static = statics.get(index)
        if static is None:
            static = statics[index] = gate_static(gate)
        return LogicalProcess(gate, node, checkpoint_interval, static)

    def roster_lps(
        self, node: int, checkpoint_interval: int | None = None
    ) -> dict[int, LogicalProcess]:
        """Fresh LPs for every gate the partition places on *node*."""
        return {
            index: self.new_lp(index, node, checkpoint_interval)
            for index in self._roster(node).gates
        }

    def migrants(
        self,
        residents: Iterable[int],
        fraction: float,
        activity: Callable[[int], float],
    ) -> list[int]:
        """The resident gates a hot node sheds: adaptive migration's one
        placement policy.

        Sheds load without shredding locality.  Moving the hottest LPs
        would maximise the new cut (their traffic is with co-located
        neighbours), so residents are ranked *loosely attached* first
        (fewest fanin/fanout neighbours among the residents), then by
        higher ``activity(gate)`` so the move transfers real work, then
        by gate index.  The first ``round(fraction × n)`` of the *n*
        residents go, at least one and never all: a node with at most
        one resident sheds nothing.
        """
        ranked = list(residents)
        if len(ranked) <= 1:
            return []
        budget = min(max(1, round(len(ranked) * fraction)), len(ranked) - 1)
        resident_set = set(ranked)
        gates = self.circuit.gates

        def attachment(index: int) -> int:
            gate = gates[index]
            return sum(
                1 for other in (*gate.fanin, *gate.fanout) if other in resident_set
            )

        ranked.sort(key=lambda g: (attachment(g), -activity(g), g))
        return ranked[:budget]

    # ------------------------------------------------------------------
    # initial schedule
    # ------------------------------------------------------------------
    def initial_schedule(
        self, node: int, stimulus: Stimulus
    ) -> tuple[dict[int, list[Entry]], int]:
        """Queue entries of every initial message addressed to *node*
        under *stimulus*, grouped per virtual time, and the node's next
        unused uid.

        Each node schedules only the copies addressed to it, so startup
        needs no cross-process traffic.  Messages and uids are exactly
        those of minting the schedule in program order — resets, then
        per cycle the CAPTUREs (from cycle 1) and the STIMs — with uids
        strided by ``k`` from ``node + 1``; the stimulus-free ones come
        from the resident skeleton, the STIMs are minted here.  Every
        bucket list is the caller's own (the skeleton's are copied):
        one :meth:`NodeQueue.load <repro.warped.queues.NodeQueue.load>`
        away from a queue.
        """
        roster = self._roster(node)
        shape = (stimulus.num_cycles, stimulus.period)
        if roster.skeleton is None or roster.skeleton[0] != shape:
            roster.skeleton = (shape, self._skeleton(node, roster, stimulus))
        buckets = {t: list(b) for t, b in roster.skeleton[1].items()}
        value = stimulus.value
        inputs = roster.inputs
        stride = self.k
        capture_uids = stride * len(roster.dffs)
        uid = node + 1 + stride * len(roster.resets)
        for cycle in range(stimulus.num_cycles):
            t = stimulus.cycle_time(cycle)
            if cycle > 0:
                uid += capture_uids
            if not inputs:
                continue  # no bucket without an entry
            append = buckets.setdefault(t, []).append
            for pi in inputs:
                append(
                    make_entry(
                        Message(t, STIM, pi, cycle, value(pi, cycle), pi, uid)
                    )
                )
                uid += stride
        return buckets, uid

    def _skeleton(
        self, node: int, roster: _Roster, stimulus: Stimulus
    ) -> dict[int, list[Entry]]:
        """Entries of *node*'s stimulus-independent initial messages,
        per virtual time, for *stimulus*'s cycle count and period (its
        values are not read; ``cycle_time`` is a function of the
        period)."""
        stride = self.k
        stim_uids = stride * len(roster.inputs)
        uid = node + 1
        messages = []
        for ff, sink in roster.resets:
            messages.append(Message(0, SIG, ff, 0, FALSE, sink, uid))
            uid += stride
        for cycle in range(1, stimulus.num_cycles):
            t = stimulus.cycle_time(cycle)
            uid += stim_uids  # the previous cycle's STIMs
            for ff in roster.dffs:
                messages.append(Message(t, CAPTURE, ff, cycle, 0, ff, uid))
                uid += stride
        return bucketed(messages)
