"""Unit tests for fanin/fanout cone extraction."""

from repro.circuit import fanin_cone, fanout_cone, parse_bench
from repro.circuit.cones import input_cones


def diamond():
    return parse_bench(
        "INPUT(a)\n"
        "l = NOT(a)\n"
        "r = BUF(a)\n"
        "m = AND(l, r)\n"
        "ff = DFF(m)\n"
        "q = NOT(ff)\n"
        "OUTPUT(q)\n"
    )


class TestFanoutCone:
    def test_reaches_reconvergence(self):
        c = diamond()
        cone = fanout_cone(c, c.index_of("a"), through_dffs=True)
        assert cone == set(range(c.num_gates))

    def test_stops_at_dff_by_default(self):
        c = diamond()
        cone = fanout_cone(c, c.index_of("a"))
        assert c.index_of("ff") in cone
        assert c.index_of("q") not in cone

    def test_root_included(self):
        c = diamond()
        assert c.index_of("m") in fanout_cone(c, c.index_of("m"))

    def test_multiple_roots(self):
        c = diamond()
        cone = fanout_cone(c, [c.index_of("l"), c.index_of("r")])
        assert c.index_of("m") in cone
        assert c.index_of("a") not in cone


class TestFaninCone:
    def test_collects_all_ancestors(self):
        c = diamond()
        cone = fanin_cone(c, c.index_of("q"), through_dffs=True)
        assert cone == set(range(c.num_gates))

    def test_stops_at_dff_by_default(self):
        c = diamond()
        cone = fanin_cone(c, c.index_of("q"))
        assert cone == {c.index_of("q"), c.index_of("ff")}


class TestConeMaps:
    def test_input_cones_cover_reachable_gates(self, small_circuit):
        cones = input_cones(small_circuit)
        assert set(cones) == set(small_circuit.primary_inputs)
        covered = set().union(*cones.values())
        # every primary output depends on at least one input
        assert covered.issuperset(set(small_circuit.primary_outputs) & covered)

    def test_cone_duality(self, small_circuit):
        """v in fanout_cone(u) iff u in fanin_cone(v) (through DFFs)."""
        pis = small_circuit.primary_inputs[:3]
        pos = small_circuit.primary_outputs[:3]
        for u in pis:
            fo = fanout_cone(small_circuit, u, through_dffs=True)
            for v in pos:
                fi = fanin_cone(small_circuit, v, through_dffs=True)
                assert (v in fo) == (u in fi)
