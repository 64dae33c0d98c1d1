"""Weighted coarse graphs — one level of the multilevel hierarchy.

Each vertex (*globule*, the paper's term) stands for a connected set of
vertices of the next finer graph. Vertex weight counts the original
gates subsumed; edge weight counts the original signals running between
two globules (the union-of-edges relation of Section 3).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuit.gate import GateType
from repro.circuit.graph import CircuitGraph
from repro.errors import PartitionError


class CoarseGraph:
    """A directed weighted multigraph over globules.

    ``fanout[u]`` maps sink globule -> total signal weight (directed,
    used by fanout coarsening); ``neighbors[u]`` is the undirected view
    (used by gain computation in refinement). ``members[u]`` lists the
    *finer-level* vertex ids subsumed by globule ``u``; ``seeds`` marks
    globules that grew (≥2 members) during the coarsening step that
    produced this graph — the next step's depth-first traversal starts
    from them, per the paper.
    """

    def __init__(self, num_vertices: int) -> None:
        self.n = num_vertices
        self.weight = [1] * num_vertices
        self.contains_input = [False] * num_vertices
        self.fanout: list[dict[int, int]] = [dict() for _ in range(num_vertices)]
        self.neighbors: list[dict[int, int]] = [dict() for _ in range(num_vertices)]
        self.members: list[list[int]] = [[i] for i in range(num_vertices)]
        self.seeds: list[int] = []
        #: Total weight of all vertices (== number of original gates).
        self.total_weight = num_vertices

    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(
        cls,
        circuit: CircuitGraph,
        edge_weights: Sequence[int] | None = None,
        vertex_weights: Sequence[int] | None = None,
    ) -> "CoarseGraph":
        """Level-0 graph: one globule per gate.

        *edge_weights*, when given, holds one weight per DRIVER gate —
        the weight every edge of that gate's output signal carries
        (e.g. its measured activity). Heavier signals are then kept
        internal by coarsening and refinement alike.

        *vertex_weights* replaces the unit gate weight with measured
        per-gate work (e.g. event counts), so load balancing equalises
        actual workload instead of gate count.
        """
        g = cls(circuit.num_gates)
        for gate in circuit.gates:
            if gate.gate_type is GateType.INPUT:
                g.contains_input[gate.index] = True
        if edge_weights is not None and len(edge_weights) != circuit.num_gates:
            raise PartitionError(
                "edge_weights must hold one weight per gate (driver)"
            )
        if vertex_weights is not None:
            if len(vertex_weights) != circuit.num_gates:
                raise PartitionError(
                    "vertex_weights must hold one weight per gate"
                )
            g.weight = [max(1, int(w)) for w in vertex_weights]
            g.total_weight = sum(g.weight)
        # Edges accumulate in ``circuit.edges()`` order: it fixes the
        # dict orders, which gain ties and the depth-first traversal read.
        neighbors = g.neighbors
        for gate in circuit.gates:
            u = gate.index
            weight = 1 if edge_weights is None else max(1, int(edge_weights[u]))
            out_u = g.fanout[u]
            adj_u = neighbors[u]
            for v in gate.fanout:
                if v == u:
                    continue  # internal signals of a globule carry no cut cost
                out_u[v] = out_u.get(v, 0) + weight
                adj_u[v] = adj_u.get(v, 0) + weight
                adj_v = neighbors[v]
                adj_v[u] = adj_v.get(u, 0) + weight
        g.seeds = list(circuit.primary_inputs)
        return g

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of distinct directed coarse edges."""
        return sum(len(adj) for adj in self.fanout)

    @property
    def input_globules(self) -> list[int]:
        """Globules containing at least one primary input."""
        return [u for u in range(self.n) if self.contains_input[u]]

    def edge_weight_total(self) -> int:
        """Sum of directed edge weights (== finer-level signal count)."""
        return sum(sum(adj.values()) for adj in self.fanout)

    def contract(self, groups: Sequence[Sequence[int]]) -> "CoarseGraph":
        """Build the next coarser graph from a partition of this one.

        *groups* must cover every vertex exactly once; each group becomes
        one globule of the new graph. Groups with ≥2 members are recorded
        as the new graph's ``seeds``.
        """
        coarse_of = [-1] * self.n
        for gi, group in enumerate(groups):
            for v in group:
                if coarse_of[v] != -1:
                    raise PartitionError(f"vertex {v} in two coarsening groups")
                coarse_of[v] = gi
        if any(c == -1 for c in coarse_of):
            missing = coarse_of.index(-1)
            raise PartitionError(f"vertex {missing} not covered by coarsening")

        out = CoarseGraph(len(groups))
        out.total_weight = self.total_weight
        weight = self.weight
        contains_input = self.contains_input
        out.weight = [sum([weight[v] for v in group]) for group in groups]
        out.contains_input = [
            any([contains_input[v] for v in group]) for group in groups
        ]
        out.members = [list(group) for group in groups]
        out.seeds = [gi for gi, group in enumerate(groups) if len(group) >= 2]
        # Fine edges accumulate by fine vertex, each in its fanout order:
        # that fixes the coarse dict orders, as ``from_circuit`` does.
        neighbors = out.neighbors
        for u, fine_out in enumerate(self.fanout):
            cu = coarse_of[u]
            out_u = out.fanout[cu]
            adj_u = neighbors[cu]
            for v, w in fine_out.items():
                cv = coarse_of[v]
                if cv == cu:
                    continue  # internal signals of a globule carry no cut cost
                out_u[cv] = out_u.get(cv, 0) + w
                adj_u[cv] = adj_u.get(cv, 0) + w
                adj_v = neighbors[cv]
                adj_v[cu] = adj_v.get(cu, 0) + w
        return out

    def project(self, coarse_partition: Sequence[int]) -> list[int]:
        """Map a partition of THIS graph down to the next finer graph.

        ``members[u]`` holds finer-level ids, so ``result[fine] =
        coarse_partition[u]`` for every ``fine in members[u]`` — the
        paper's invariant ``∀ v ∈ V_ij : P[v] = P[V_ij]``.
        """
        size = sum(len(m) for m in self.members)
        fine = [0] * size
        for u in range(self.n):
            p = coarse_partition[u]
            for v in self.members[u]:
                fine[v] = p
        return fine

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoarseGraph(n={self.n}, edges={self.num_edges})"
