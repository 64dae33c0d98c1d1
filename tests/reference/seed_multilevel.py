"""Frozen pre-optimization multilevel phase-3 refiner and contraction.

``move_gains`` and ``greedy_refine`` are verbatim copies of
``repro.partition.multilevel.refine_greedy`` as it stood before the
refiner kept its gains in incrementally updated tables; ``add_edge``,
``from_circuit`` and ``contract`` are the matching ``CoarseGraph``
methods, rewritten as functions over a graph (``self`` -> ``graph``)
and otherwise unchanged. They are the oracle for
``tests/test_partition_identity.py``: the optimized code must make the
same moves in the same order and build the same coarse graphs, dict
insertion order included (it decides gain ties and the depth-first
coarsening order).

Do NOT "clean up" or optimize this file — its value is that it never
changes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuit.gate import GateType
from repro.circuit.graph import CircuitGraph
from repro.errors import PartitionError
from repro.partition.multilevel.coarse_graph import CoarseGraph


def add_edge(graph: CoarseGraph, u: int, v: int, weight: int = 1) -> None:
    """Accumulate a directed edge ``u -> v`` of *weight* signals."""
    if u == v:
        return  # internal signals of a globule carry no cut cost
    graph.fanout[u][v] = graph.fanout[u].get(v, 0) + weight
    graph.neighbors[u][v] = graph.neighbors[u].get(v, 0) + weight
    graph.neighbors[v][u] = graph.neighbors[v].get(u, 0) + weight


def from_circuit(
    circuit: CircuitGraph,
    edge_weights: Sequence[int] | None = None,
    vertex_weights: Sequence[int] | None = None,
) -> CoarseGraph:
    """Level-0 graph: one globule per gate."""
    g = CoarseGraph(circuit.num_gates)
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
    for u, v in circuit.edges():
        weight = 1 if edge_weights is None else max(1, int(edge_weights[u]))
        add_edge(g, u, v, weight)
    g.seeds = list(circuit.primary_inputs)
    return g


def contract(graph: CoarseGraph, groups: Sequence[Sequence[int]]) -> CoarseGraph:
    """Build the next coarser graph from a partition of this one."""
    coarse_of = [-1] * graph.n
    for gi, group in enumerate(groups):
        for v in group:
            if coarse_of[v] != -1:
                raise PartitionError(f"vertex {v} in two coarsening groups")
            coarse_of[v] = gi
    if any(c == -1 for c in coarse_of):
        missing = coarse_of.index(-1)
        raise PartitionError(f"vertex {missing} not covered by coarsening")

    out = CoarseGraph(len(groups))
    out.total_weight = graph.total_weight
    out.seeds = []
    for gi, group in enumerate(groups):
        out.weight[gi] = sum(graph.weight[v] for v in group)
        out.contains_input[gi] = any(graph.contains_input[v] for v in group)
        members: list[int] = []
        for v in group:
            members.extend([v])
        out.members[gi] = members
        if len(group) >= 2:
            out.seeds.append(gi)
    for u in range(graph.n):
        cu = coarse_of[u]
        for v, w in graph.fanout[u].items():
            add_edge(out, cu, coarse_of[v], w)
    return out


def move_gains(
    graph: CoarseGraph, partition: list[int], vertex: int
) -> dict[int, int]:
    """Cut-weight reduction for moving *vertex* to each adjacent partition.

    Only partitions that contain a neighbour can yield positive gain, so
    only those are returned. Gain = (edge weight to the destination) -
    (edge weight kept in the current partition).
    """
    src = partition[vertex]
    internal = 0
    external: dict[int, int] = {}
    for neighbor, weight in graph.neighbors[vertex].items():
        p = partition[neighbor]
        if p == src:
            internal += weight
        else:
            external[p] = external.get(p, 0) + weight
    return {dest: w - internal for dest, w in external.items()}


def greedy_refine(
    graph: CoarseGraph,
    partition: list[int],
    k: int,
    rng: np.random.Generator,
    *,
    max_weight: float,
    max_iterations: int = 8,
) -> int:
    """Refine *partition* in place; return the total number of moves.

    ``max_weight`` is the load-balance capacity per partition, in
    original-gate units (globule weight).
    """
    load = [0] * k
    count = [0] * k
    for v in range(graph.n):
        load[partition[v]] += graph.weight[v]
        count[partition[v]] += 1

    total_moves = 0
    order = np.arange(graph.n)
    for _ in range(max_iterations):
        locked = bytearray(graph.n)
        rng.shuffle(order)
        moves_this_iter = 0
        for v in map(int, order):
            if locked[v]:
                continue
            src = partition[v]
            if count[src] <= 1:
                continue  # never empty a partition
            gains = move_gains(graph, partition, v)
            if not gains:
                continue
            # Highest gain; ties broken toward the lighter partition so
            # refinement also nudges the balance in the right direction.
            best_dest = -1
            best_gain = 0
            for dest, gain in gains.items():
                if load[dest] + graph.weight[v] > max_weight:
                    continue
                if gain > best_gain or (
                    gain == best_gain and best_dest >= 0 and load[dest] < load[best_dest]
                ):
                    best_dest = dest
                    best_gain = gain
            if best_dest < 0 or best_gain <= 0:
                continue
            partition[v] = best_dest
            load[src] -= graph.weight[v]
            load[best_dest] += graph.weight[v]
            count[src] -= 1
            count[best_dest] += 1
            locked[v] = 1
            moves_this_iter += 1
        total_moves += moves_this_iter
        if moves_this_iter == 0:
            break
    return total_moves
