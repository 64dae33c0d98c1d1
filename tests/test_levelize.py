"""Unit tests for topological levelization."""

import pytest

from repro.circuit import levelize, parse_bench
from repro.circuit.levelize import levels_to_buckets
from repro.errors import CircuitError


class TestLevelize:
    def test_chain_levels(self):
        c = parse_bench(
            "INPUT(a)\nb = NOT(a)\nc = NOT(b)\nd = NOT(c)\nOUTPUT(d)\n"
        )
        level = levelize(c)
        assert level[c.index_of("a")] == 0
        assert level[c.index_of("b")] == 1
        assert level[c.index_of("c")] == 2
        assert level[c.index_of("d")] == 3

    def test_longest_path_wins(self):
        # d sees a (level 0) and c (level 2): must be level 3.
        c = parse_bench(
            "INPUT(a)\nb = NOT(a)\nc = NOT(b)\nd = AND(a, c)\nOUTPUT(d)\n"
        )
        assert levelize(c)[c.index_of("d")] == 3

    def test_dff_is_level_zero_source(self):
        c = parse_bench(
            "INPUT(i)\nff = DFF(g)\ng = NAND(i, ff)\nh = NOT(ff)\n"
            "OUTPUT(g)\nOUTPUT(h)\n"
        )
        level = levelize(c)
        assert level[c.index_of("ff")] == 0
        assert level[c.index_of("h")] == 1
        assert level[c.index_of("g")] == 1

    def test_combinational_cycle_detected(self):
        c = parse_bench(
            "INPUT(i)\nx = NAND(i, y)\ny = NAND(i, x)\nOUTPUT(y)\n"
        )
        with pytest.raises(CircuitError, match="cycle"):
            levelize(c)

    def test_sequential_loop_is_fine(self, s27):
        level = levelize(s27)  # s27 has feedback through 3 DFFs
        assert len(level) == s27.num_gates
        assert all(lvl >= 0 for lvl in level)

    def test_every_gate_deeper_than_combinational_drivers(self, medium_circuit):
        level = levelize(medium_circuit)
        for gate in medium_circuit.gates:
            if gate.gate_type.is_sequential or gate.gate_type.is_source:
                continue
            for driver in gate.fanin:
                assert level[gate.index] >= level[driver] + 1 or (
                    medium_circuit.gates[driver].gate_type.is_sequential
                    and level[gate.index] >= 0
                )


class TestHelpers:
    def test_levels_to_buckets(self):
        buckets = levels_to_buckets([0, 1, 1, 2, 0])
        assert buckets == [[0, 4], [1, 2], [3]]

    def test_levels_to_buckets_empty(self):
        assert levels_to_buckets([]) == []
