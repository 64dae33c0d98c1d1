"""Unit tests for the CircuitGraph data structure."""

import pytest

from repro.circuit import CircuitGraph, GateType
from repro.errors import CircuitError


def tiny():
    c = CircuitGraph("tiny")
    a = c.add_gate("a", GateType.INPUT)
    b = c.add_gate("b", GateType.INPUT)
    g = c.add_gate("g", GateType.AND)
    c.connect(a, g)
    c.connect(b, g)
    c.mark_output(g)
    return c, (a, b, g)


class TestConstruction:
    def test_indices_are_dense(self):
        c, (a, b, g) = tiny()
        assert [a, b, g] == [0, 1, 2]

    def test_duplicate_name_rejected(self):
        c, _ = tiny()
        with pytest.raises(CircuitError, match="duplicate"):
            c.add_gate("a", GateType.OR)

    def test_negative_delay_rejected(self):
        c, _ = tiny()
        with pytest.raises(CircuitError, match="delay"):
            c.add_gate("slow", GateType.OR, delay=-1)

    def test_self_loop_rejected(self):
        c, (_, _, g) = tiny()
        with pytest.raises(CircuitError, match="self-loop"):
            c.connect(g, g)

    def test_fanin_into_primary_input_rejected(self):
        c, (a, _, g) = tiny()
        with pytest.raises(CircuitError, match="primary input"):
            c.connect(g, a)

    def test_parallel_edges_allowed(self):
        c = CircuitGraph()
        a = c.add_gate("a", GateType.INPUT)
        x = c.add_gate("x", GateType.XOR)
        c.connect(a, x)
        c.connect(a, x)
        c.mark_output(x)
        c.freeze()
        assert c.fanin(x) == [a, a]
        assert c.num_edges == 2


class TestFreeze:
    def test_freeze_validates_arity(self):
        c = CircuitGraph()
        c.add_gate("a", GateType.INPUT)
        c.add_gate("lonely", GateType.AND)  # zero fanin: illegal
        with pytest.raises(CircuitError, match="lonely"):
            c.freeze()

    def test_frozen_rejects_mutation(self):
        c, (a, _, g) = tiny()
        c.freeze()
        with pytest.raises(CircuitError, match="frozen"):
            c.add_gate("new", GateType.OR)
        with pytest.raises(CircuitError, match="frozen"):
            c.connect(a, g)

    def test_queries_require_freeze(self):
        c, _ = tiny()
        with pytest.raises(CircuitError, match="freeze"):
            _ = c.primary_inputs

    def test_derived_indexes(self):
        c, (a, b, g) = tiny()
        c.freeze()
        assert c.primary_inputs == [a, b]
        assert c.primary_outputs == [g]
        assert c.dffs == []

    def test_freeze_idempotent(self):
        c, _ = tiny()
        assert c.freeze() is c.freeze()


class TestQueries:
    def test_index_of_and_contains(self):
        c, (a, _, _) = tiny()
        assert c.index_of("a") == a
        assert "a" in c and "zz" not in c
        with pytest.raises(CircuitError, match="zz"):
            c.index_of("zz")

    def test_edges_iteration(self):
        c, (a, b, g) = tiny()
        assert sorted(c.edges()) == [(a, g), (b, g)]

    def test_copy_preserves_structure(self):
        c, _ = tiny()
        c.freeze()
        dup = c.copy()
        assert dup.frozen
        assert dup.num_gates == c.num_gates
        assert sorted(dup.edges()) == sorted(c.edges())
        assert dup.primary_outputs == c.primary_outputs

    def test_s27_shape(self, s27):
        assert len(s27.primary_inputs) == 4
        assert len(s27.primary_outputs) == 1
        assert len(s27.dffs) == 3
        assert s27.num_gates == 17  # 4 PIs + 13 logic elements
