"""The sequential event-driven simulator.

Processing model (shared key semantics with the Time Warp kernel — see
:mod:`repro.sim.event`): an event applies gate ``src``'s new output
value, then every combinational sink re-evaluates and, if its result
changed from its last evaluation, emits its own output change after its
inertial delay. DFFs capture their data input at clock boundaries
(priority 0, i.e. before same-instant stimulus/signal changes) and all
flip-flops power up reset to 0 via an emission at t=0.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.gate import FALSE, UNKNOWN, GateType, eval_func
from repro.circuit.graph import CircuitGraph
from repro.errors import SimulationError
from repro.sim.cost_model import SequentialCostModel
from repro.sim.event import CAPTURE, SIG, STIM, Event
from repro.sim.event_queue import EventQueue
from repro.sim.stimulus import Stimulus
from repro.sim.trace import Trace


@dataclass
class SequentialResult:
    """Outcome of one sequential run."""

    circuit_name: str
    num_cycles: int
    events_processed: int
    emissions: int
    final_values: list[int]
    execution_time: float
    trace: Trace | None = None
    #: DFF capture history as sorted (gate, cycle, value) triples — one
    #: entry per capture that changed the flip-flop's output.  The Time
    #: Warp backends produce the identical committed log; the
    #: differential tests compare against this oracle.
    committed_captures: list[tuple[int, int, int]] | None = None

    def value_of(self, circuit: CircuitGraph, name: str) -> int:
        """Final value of the gate called *name*."""
        return self.final_values[circuit.index_of(name)]

    def disagreement(self, result) -> str | None:
        """The first way a parallel *result* differs from this oracle
        run, or None: final values, then the committed capture history
        when *result* keeps one."""
        if result.final_values != self.final_values:
            return "final values differ from the sequential oracle"
        captures = getattr(result, "committed_captures", None)
        if captures is not None and captures != self.committed_captures:
            return "committed captures differ from the sequential oracle"
        return None


class SequentialSimulator:
    """Single event queue, global state — the Table 2 baseline."""

    def __init__(
        self,
        circuit: CircuitGraph,
        stimulus: Stimulus,
        *,
        cost_model: SequentialCostModel | None = None,
        trace: Trace | None = None,
        max_events: int = 50_000_000,
        forced: dict[int, int] | None = None,
        tracer=None,
    ) -> None:
        if not circuit.frozen:
            raise SimulationError("circuit must be frozen")
        if stimulus.circuit is not circuit:
            raise SimulationError("stimulus was built for a different circuit")
        self.circuit = circuit
        self.stimulus = stimulus
        self.cost_model = cost_model or SequentialCostModel()
        self.trace = trace
        self.max_events = max_events
        #: Optional :class:`repro.obs.tracer.TraceWriter`.  The
        #: sequential engine has no rollbacks or GVT; it contributes
        #: ``run_start``/``run_end`` records so cross-engine traces
        #: share one schema.
        self.tracer = tracer
        #: Gate outputs pinned to constant values for the whole run —
        #: the fault-injection mechanism (stuck-at faults) and a general
        #: what-if tool. A forced gate never evaluates, captures or
        #: follows stimulus; its pinned value propagates from t=0.
        self.forced = dict(forced or {})
        for gate, value in self.forced.items():
            if not 0 <= gate < circuit.num_gates:
                raise SimulationError(f"forced gate {gate} out of range")
            if value not in (0, 1):
                raise SimulationError(
                    f"forced value for gate {gate} must be 0 or 1"
                )

    def run(self) -> SequentialResult:
        """Simulate to quiescence and return the result."""
        circuit = self.circuit
        stim = self.stimulus
        n = circuit.num_gates
        value = [UNKNOWN] * n       # applied (visible) output values
        eval_value = [UNKNOWN] * n  # last evaluation result per gate
        emit_count: dict[tuple[int, int], int] = {}
        queue = EventQueue()
        events_processed = 0
        emissions = 0
        capture_log: dict[tuple[int, int], int] = {}

        def emit(time: int, src: int, v: int) -> None:
            nonlocal emissions
            key = (src, time)
            seq = emit_count.get(key, 0)
            emit_count[key] = seq + 1
            queue.push(Event(time, SIG, src, seq, v))
            emissions += 1

        forced = self.forced
        # --- initial schedule: forced pins, DFF resets, captures, stimulus.
        for gate_index, pinned in forced.items():
            eval_value[gate_index] = pinned
            emit(0, gate_index, pinned)
        for ff in circuit.dffs:
            if ff in forced:
                continue
            eval_value[ff] = FALSE
            emit(0, ff, FALSE)
        for cycle in range(stim.num_cycles):
            t = stim.cycle_time(cycle)
            if cycle > 0:
                # Cycle 0 is the reset cycle: a capture there would race
                # the power-up reset and latch X into feedback loops.
                for ff in circuit.dffs:
                    queue.push(Event(t, CAPTURE, ff, cycle, 0))
            for pi in circuit.primary_inputs:
                queue.push(Event(t, STIM, pi, cycle, stim.value(pi, cycle)))

        if self.tracer is not None:
            self.tracer.emit(
                "run_start",
                engine="sequential",
                circuit=circuit.name,
                cycles=stim.num_cycles,
            )
        gates = circuit.gates
        # Hot-loop tables: one indexed read per use instead of attribute
        # chains and per-call arity validation (the circuit is frozen —
        # arity was checked once at build time).
        evals = [eval_func(g.gate_type, len(g.fanin)) for g in gates]
        fanins = [g.fanin for g in gates]
        fanouts = [g.fanout for g in gates]
        delays = [g.delay for g in gates]
        sequential = [g.gate_type.is_sequential for g in gates]
        trace_record = self.trace.record if self.trace is not None else None
        queue_pop = queue.pop
        max_events = self.max_events
        # Per-gate committed-event tally for the trace timeline (every
        # sequential event is committed); None when tracing is off so
        # the hot loop pays a single identity check.
        commit_n = [0] * circuit.num_gates if self.tracer is not None else None
        while queue:
            event = queue_pop()
            events_processed += 1
            if commit_n is not None:
                commit_n[event.src] += 1
            if events_processed > max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events}; "
                    "runaway oscillation or workload too large"
                )
            src = event.src
            if forced and src in forced and event.prio != SIG:
                continue  # pinned gates ignore stimulus and clocks
            if event.prio == CAPTURE:
                data = value[fanins[src][0]]
                if data != eval_value[src]:
                    eval_value[src] = data
                    capture_log[(src, event.n)] = data
                    emit(event.time + delays[src], src, data)
                continue
            # STIM and SIG both apply an output change, then fan out.
            value[src] = event.value
            if trace_record is not None:
                trace_record(event.time, src, event.value)
            time_ = event.time
            for sink in fanouts[src]:
                if forced and sink in forced:
                    continue  # pinned gates never re-evaluate
                if sequential[sink]:
                    continue  # DFFs sample on CAPTURE, not on data edges
                nv = evals[sink]([value[d] for d in fanins[sink]])
                if nv != eval_value[sink]:
                    eval_value[sink] = nv
                    emit(time_ + delays[sink], sink, nv)

        if self.tracer is not None:
            # Committed-timeline records (one per active gate), same
            # shape the Time Warp engines emit at fossil collection, so
            # repro.obs.analyze reads all three engines identically.
            for gate_index, n in enumerate(commit_n):
                if n:
                    self.tracer.emit(
                        "commit",
                        node=0,
                        lp=gate_index,
                        n=n,
                        t_lo=0,
                        t_hi=None,
                        final=True,
                    )
            self.tracer.emit(
                "run_end",
                engine="sequential",
                events=events_processed,
                emissions=emissions,
            )
        return SequentialResult(
            circuit_name=circuit.name,
            num_cycles=stim.num_cycles,
            events_processed=events_processed,
            emissions=emissions,
            final_values=value,
            execution_time=self.cost_model.execution_time(events_processed),
            trace=self.trace,
            committed_captures=sorted(
                (gate, cycle, data)
                for (gate, cycle), data in capture_log.items()
            ),
        )
