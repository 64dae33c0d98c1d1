"""Topological (level) partitioning (Cloutier [5], Smith [19]).

The circuit is levelized and each topological level is assigned to a
partition, cycling ``level mod k``. Gates that can evaluate at the same
time thus sit in *different* partitions from their predecessors: the
scheme buys concurrency by splitting almost every signal across a
partition boundary, which is exactly the communication blow-up the
paper observes for it.
"""

from __future__ import annotations

from repro.circuit.graph import CircuitGraph
from repro.circuit.levelize import levelize, levels_to_buckets
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import (
    Partitioner,
    balanced_capacity,
    fill_empty_partitions,
)


class TopologicalPartitioner(Partitioner):
    """Assign whole topological levels to partitions, round-robin."""

    name = "Topological"

    def _partition(self, circuit: CircuitGraph, k: int) -> PartitionAssignment:
        buckets = levels_to_buckets(levelize(circuit))
        capacity = balanced_capacity(circuit.num_gates, k)
        sizes = [0] * k
        assignment = [0] * circuit.num_gates
        for level, bucket in enumerate(buckets):
            target = level % k
            for gate in bucket:
                dest = target
                if sizes[dest] >= capacity:
                    # Level overflowed its round-robin slot: spill to the
                    # least-loaded partition to preserve balance.
                    dest = min(range(k), key=sizes.__getitem__)
                assignment[gate] = dest
                sizes[dest] += 1
        fill_empty_partitions(assignment, k)
        return PartitionAssignment(circuit, k, assignment)
