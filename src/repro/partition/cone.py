"""Fanout-cone partitioning (Smith et al. [19]).

The fanout cone of each primary input — every gate its transitions can
reach — is kept together: cones are assigned whole where possible
(first-come for gates shared by several cones) to the currently
least-loaded partition, largest cone first. Keeping cones intact
minimises communication along activity paths; the balance granularity
is coarse, which is why the paper finds the Cone partitioner
competitive but not the winner.

Real circuits have strongly overlapping cones, and a high-fanout input
can reach most of the netlist; a capacity bound therefore spills the
tail of an oversized cone (in DFS preorder, so each spilled piece is a
deep subtree) into the next partitions instead of collapsing everything
into one.
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


def _cone_dfs_order(circuit: CircuitGraph, root: int) -> list[int]:
    """Fanout cone of *root* (through DFFs) in DFS preorder.

    Preorder matters when a cone is larger than a partition and must be
    spilled: consecutive preorder slices are deep subtrees with few
    boundary signals, whereas breadth-first slices cut every chain they
    cross.
    """
    seen = {root}
    order: list[int] = []
    stack = [root]
    gates = circuit.gates
    while stack:
        u = stack.pop()
        order.append(u)
        for v in reversed(gates[u].fanout):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return order


class ConePartitioner(Partitioner):
    """Cluster the fanout cones of the primary inputs."""

    name = "ConePartition"

    def _partition(self, circuit: CircuitGraph, k: int) -> PartitionAssignment:
        rng = derive_rng(self.seed, "cone-partitioner", circuit.name, k)
        capacity = balanced_capacity(circuit.num_gates, k)
        cones = [
            (pi, _cone_dfs_order(circuit, pi)) for pi in circuit.primary_inputs
        ]
        cones.sort(key=lambda item: (-len(item[1]), item[0]))

        assignment = [-1] * circuit.num_gates
        sizes = [0] * k
        for _, cone in cones:
            fresh = [g for g in cone if assignment[g] == -1]
            while fresh:
                dest = min(range(k), key=sizes.__getitem__)
                room = capacity - sizes[dest]
                if room <= 0:
                    # All partitions at capacity can only happen through
                    # rounding; relax by one gate at a time.
                    room = 1
                chunk, fresh = fresh[:room], fresh[room:]
                for gate in chunk:
                    assignment[gate] = dest
                sizes[dest] += len(chunk)
        # Gates unreachable from any primary input (isolated DFF loops):
        # scatter them over the least-loaded partitions.
        stragglers = [g for g in range(circuit.num_gates) if assignment[g] == -1]
        rng.shuffle(stragglers)
        for gate in stragglers:
            dest = min(range(k), key=sizes.__getitem__)
            assignment[gate] = dest
            sizes[dest] += 1
        # Tight capacities (k close to the gate count) can still strand
        # empty partitions; peel single gates off the largest ones.
        fill_empty_partitions(assignment, k)
        return PartitionAssignment(circuit, k, assignment)
