"""Corolla partitioning (Sporrer & Bauer [20]).

Two phases, as in the original: a *fine-grained* step first groups each
gate with its fanout-free region — the maximal single-sink cones
("petals") that form around reconvergence points, which are the
strongly connected activity regions of combinational logic — then a
*coarse-grained* step packs the petals into partitions, preferring the
partition already holding the most neighbouring petals (affinity)
subject to a balance cap.
"""

from __future__ import annotations

from repro.circuit.graph import CircuitGraph
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import (
    Partitioner,
    balanced_capacity,
    fill_empty_partitions,
)
from repro.utils.rng import derive_rng


def fanout_free_regions(circuit: CircuitGraph) -> list[int]:
    """Map each gate to the root of its fanout-free region (FFR).

    A gate with a single sink belongs to its sink's region; gates with
    multiple (or zero) sinks root their own region. Classic linear-time
    netlist decomposition.
    """
    n = circuit.num_gates
    gates = circuit.gates
    root = list(range(n))
    # Process in reverse topological-ish order by repeated passes: a
    # gate's root is its unique sink's root. Circuit graphs are shallow
    # enough that path compression over a few passes settles it; DFFs
    # always root their own region (their fanout is next-cycle logic).
    order = sorted(range(n), key=lambda g: -len(gates[g].fanout))

    def find(g: int) -> int:
        while root[g] != g:
            root[g] = root[root[g]]
            g = root[g]
        return g

    for g in order:
        sinks = set(gates[g].fanout)
        if len(sinks) == 1 and not gates[g].gate_type.is_sequential:
            (sink,) = sinks
            if find(sink) != g:  # avoid creating a union cycle
                root[g] = find(sink)
    return [find(g) for g in range(n)]


class CorollaPartitioner(Partitioner):
    """FFR clustering followed by affinity-driven packing."""

    name = "Corolla"

    def _partition(self, circuit: CircuitGraph, k: int) -> PartitionAssignment:
        rng = derive_rng(self.seed, "corolla-partitioner", circuit.name, k)
        roots = fanout_free_regions(circuit)
        clusters: dict[int, list[int]] = {}
        for gate, root in enumerate(roots):
            clusters.setdefault(root, []).append(gate)

        # Cluster adjacency (for affinity): edges between clusters.
        neighbor_weight: dict[int, dict[int, int]] = {r: {} for r in clusters}
        for u, v in circuit.edges():
            ru, rv = roots[u], roots[v]
            if ru != rv:
                neighbor_weight[ru][rv] = neighbor_weight[ru].get(rv, 0) + 1
                neighbor_weight[rv][ru] = neighbor_weight[rv].get(ru, 0) + 1

        capacity = balanced_capacity(circuit.num_gates, k)
        order = sorted(
            clusters, key=lambda r: (-len(clusters[r]), r)
        )
        rng.shuffle(order[len(order) // 2 :])  # diversify the small tail

        assignment = [-1] * circuit.num_gates
        cluster_part: dict[int, int] = {}
        load = [0] * k
        for root in order:
            members = clusters[root]
            # Affinity: weight of edges into each already-placed partition.
            affinity = [0] * k
            for other, weight in neighbor_weight[root].items():
                part = cluster_part.get(other)
                if part is not None:
                    affinity[part] += weight
            candidates = [
                p for p in range(k) if load[p] + len(members) <= capacity
            ]
            if not candidates:
                candidates = list(range(k))
            dest = max(candidates, key=lambda p: (affinity[p], -load[p]))
            cluster_part[root] = dest
            for gate in members:
                assignment[gate] = dest
            load[dest] += len(members)

        fill_empty_partitions(assignment, k)
        return PartitionAssignment(circuit, k, assignment)
