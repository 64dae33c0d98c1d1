"""Unit tests for the sequential event-driven simulator."""

import pytest

from repro.circuit import GateType, parse_bench
from repro.circuit.gate import FALSE, TRUE, UNKNOWN
from repro.errors import SimulationError
from repro.sim import (
    RandomStimulus,
    SequentialCostModel,
    SequentialSimulator,
    Trace,
    VectorStimulus,
)


def inverter_chain(n=3):
    lines = ["INPUT(a)"]
    prev = "a"
    for i in range(n):
        lines.append(f"g{i} = NOT({prev})")
        prev = f"g{i}"
    lines.append(f"OUTPUT({prev})")
    return parse_bench("\n".join(lines), name="chain")


class TestCombinational:
    def test_inverter_chain_final_value(self):
        c = inverter_chain(3)
        stim = VectorStimulus(c, [{"a": 1}])
        result = SequentialSimulator(c, stim).run()
        # odd number of inversions
        assert result.value_of(c, "g2") == FALSE
        assert result.value_of(c, "g1") == TRUE

    def test_all_gate_types_settle(self):
        src = (
            "INPUT(a)\nINPUT(b)\n"
            "g0 = AND(a, b)\ng1 = NAND(a, b)\ng2 = OR(a, b)\n"
            "g3 = NOR(a, b)\ng4 = XOR(a, b)\ng5 = XNOR(a, b)\n"
            "g6 = NOT(a)\ng7 = BUFF(b)\n"
            + "".join(f"OUTPUT(g{i})\n" for i in range(8))
        )
        c = parse_bench(src)
        stim = VectorStimulus(c, [{"a": 1, "b": 0}])
        r = SequentialSimulator(c, stim).run()
        expected = {"g0": 0, "g1": 1, "g2": 1, "g3": 0, "g4": 1,
                    "g5": 0, "g6": 0, "g7": 0}
        for name, want in expected.items():
            assert r.value_of(c, name) == want, name

    def test_quiescence_values_equal_truth_table(self, combinational_circuit):
        """After settling, every gate equals its function of its inputs."""
        from repro.circuit.gate import evaluate_gate

        c = combinational_circuit
        stim = RandomStimulus(c, num_cycles=5, seed=9)
        r = SequentialSimulator(c, stim).run()
        for gate in c.gates:
            if gate.gate_type in (GateType.INPUT, GateType.DFF):
                continue
            want = evaluate_gate(
                gate.gate_type, [r.final_values[d] for d in gate.fanin]
            )
            assert r.final_values[gate.index] == want, gate.name


class TestSequentialElements:
    def test_dff_resets_to_zero(self, s27):
        stim = VectorStimulus(s27, [{"G0": 0, "G1": 0, "G2": 0, "G3": 0}])
        r = SequentialSimulator(s27, stim).run()
        # cycle 0: capture happens before reset propagates, so flops
        # hold their reset value
        for ff in s27.dffs:
            assert r.final_values[ff] in (FALSE, TRUE)

    def test_dff_captures_on_cycle_boundary(self):
        c = parse_bench(
            "INPUT(a)\nff = DFF(a)\nq = BUF(ff)\nOUTPUT(q)\n"
        )
        # a=1 during cycle 1; the capture at cycle 2 latches it
        stim = VectorStimulus(c, [{"a": 0}, {"a": 1}, {"a": 1}])
        r = SequentialSimulator(c, stim).run()
        assert r.value_of(c, "ff") == TRUE
        assert r.value_of(c, "q") == TRUE

    def test_toggle_flop(self):
        # classic divide-by-two: FF feeding an inverter feeding itself
        c = parse_bench(
            "INPUT(en)\nff = DFF(nq)\nnq = NOT(ff)\nq = BUF(ff)\nOUTPUT(q)\n"
        )
        values = []
        for cycles in (2, 3, 4, 5):
            stim = VectorStimulus(c, [{"en": 0}] * cycles)
            r = SequentialSimulator(c, stim).run()
            values.append(r.value_of(c, "ff"))
        # output toggles each extra cycle
        assert values == [values[0], 1 - values[0], values[0], 1 - values[0]]

    def test_unknowns_cleared_after_reset(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=8, seed=3)
        r = SequentialSimulator(medium_circuit, stim).run()
        unknown = sum(1 for v in r.final_values if v == UNKNOWN)
        assert unknown == 0


class TestStimulus:
    def test_random_stimulus_deterministic(self, s27):
        a = RandomStimulus(s27, num_cycles=10, seed=4)
        b = RandomStimulus(s27, num_cycles=10, seed=4)
        for pi in s27.primary_inputs:
            for cycle in range(10):
                assert a.value(pi, cycle) == b.value(pi, cycle)

    def test_activity_bounds_toggle_rate(self, s27):
        stim = RandomStimulus(s27, num_cycles=200, seed=4, activity=0.1)
        toggles = 0
        for pi in s27.primary_inputs:
            for cycle in range(1, 200):
                toggles += stim.value(pi, cycle) != stim.value(pi, cycle - 1)
        rate = toggles / (len(s27.primary_inputs) * 199)
        assert 0.03 < rate < 0.2

    def test_vector_stimulus_holds_previous(self, s27):
        stim = VectorStimulus(s27, [{"G0": 1}, {}, {"G0": 0}])
        g0 = s27.index_of("G0")
        assert [stim.value(g0, c) for c in range(3)] == [1, 1, 0]

    def test_vector_stimulus_rejects_bad_value(self, s27):
        with pytest.raises(SimulationError, match="drives"):
            VectorStimulus(s27, [{"G0": 3}])

    def test_stimulus_out_of_range_cycle(self, s27):
        stim = RandomStimulus(s27, num_cycles=2, seed=1)
        with pytest.raises(SimulationError, match="no stimulus"):
            stim.value(s27.primary_inputs[0], 5)

    def test_config_validation(self, s27):
        with pytest.raises(SimulationError):
            RandomStimulus(s27, num_cycles=0)
        with pytest.raises(SimulationError):
            RandomStimulus(s27, num_cycles=5, period=1)
        with pytest.raises(SimulationError):
            RandomStimulus(s27, num_cycles=5, activity=0.0)


class TestCostAndGuards:
    def test_execution_time_proportional_to_events(self, s27):
        stim = RandomStimulus(s27, num_cycles=10, seed=1)
        model = SequentialCostModel(event_cost=1e-3)
        r = SequentialSimulator(s27, stim, cost_model=model).run()
        assert r.execution_time == pytest.approx(r.events_processed * 1e-3)

    def test_max_events_guard(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=10, seed=1)
        sim = SequentialSimulator(medium_circuit, stim, max_events=10)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run()

    def test_mismatched_stimulus_rejected(self, s27, small_circuit):
        stim = RandomStimulus(small_circuit, num_cycles=5, seed=1)
        with pytest.raises(SimulationError, match="different circuit"):
            SequentialSimulator(s27, stim)

    def test_trace_records_changes(self, s27):
        g17 = s27.index_of("G17")
        trace = Trace(s27, watch=[g17])
        stim = RandomStimulus(s27, num_cycles=15, seed=2)
        r = SequentialSimulator(s27, stim, trace=trace).run()
        changes = trace.changes(g17)
        assert changes, "output should change at least once in 15 cycles"
        assert changes == sorted(changes, key=lambda tv: tv[0])
        assert changes[-1][1] == r.final_values[g17]


class TestEventQueue:
    """The strict ``remove`` contract (a missing key is an error)."""

    @staticmethod
    def _event(time, src=0):
        from repro.sim.event import SIG, Event

        return Event(time, SIG, src, 0, 1)

    def test_remove_unknown_key_raises(self):
        from repro.sim.event_queue import EventQueue

        q = EventQueue()
        q.push(self._event(5))
        with pytest.raises(KeyError):
            q.remove(self._event(7).key)  # never pushed
        assert len(q) == 1  # live count untouched by the failed remove

    def test_remove_twice_raises(self):
        from repro.sim.event_queue import EventQueue

        q = EventQueue()
        event = self._event(5)
        q.push(event)
        q.remove(event.key)
        assert len(q) == 0 and not q
        # Regression: double-remove used to silently drive the live
        # count negative, making __len__ and __bool__ disagree.
        with pytest.raises(KeyError):
            q.remove(event.key)
        assert len(q) == 0

    def test_remove_popped_key_raises(self):
        from repro.sim.event_queue import EventQueue

        q = EventQueue()
        event = self._event(5)
        q.push(event)
        assert q.pop() is event
        with pytest.raises(KeyError):
            q.remove(event.key)

    def test_push_revives_removed_key(self):
        from repro.sim.event_queue import EventQueue

        q = EventQueue()
        q.push(self._event(5))
        q.remove(self._event(5).key)
        revived = self._event(5)
        q.push(revived)  # fresh emission with the annihilated key
        assert len(q) == 1
        assert q.pop() is revived
        with pytest.raises(IndexError):
            q.pop()
