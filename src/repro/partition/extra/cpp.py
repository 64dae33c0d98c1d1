"""Concurrency-preserving partitioning — CPP (Kim & Jean [14]).

CPP balances the *instantaneous* workload: gates at the same
topological level tend to be active at the same simulated instant, so
each level's gates are spread over all partitions (concurrency) while
each gate individually prefers the partition that already holds most
of its fanin (communication affinity). A per-level quota keeps any one
partition from hoarding a level.
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
from repro.utils.rng import derive_rng


class CppPartitioner(Partitioner):
    """Per-level spreading with fanin affinity."""

    name = "CPP"

    def _partition(self, circuit: CircuitGraph, k: int) -> PartitionAssignment:
        rng = derive_rng(self.seed, "cpp-partitioner", circuit.name, k)
        buckets = levels_to_buckets(levelize(circuit))
        capacity = balanced_capacity(circuit.num_gates, k)
        assignment = [-1] * circuit.num_gates
        load = [0] * k

        for bucket in buckets:
            if not bucket:
                continue
            # Per-level quota: even share of this level, rounded up.
            quota = -(-len(bucket) // k)
            level_load = [0] * k
            order = list(bucket)
            rng.shuffle(order)
            for gate in order:
                affinity = [0] * k
                for driver in circuit.fanin(gate):
                    part = assignment[driver]
                    if part >= 0:
                        affinity[part] += 1
                candidates = [
                    p
                    for p in range(k)
                    if level_load[p] < quota and load[p] < capacity
                ]
                if not candidates:
                    candidates = [
                        p for p in range(k) if load[p] < capacity
                    ] or list(range(k))
                dest = max(
                    candidates, key=lambda p: (affinity[p], -load[p], -p)
                )
                assignment[gate] = dest
                load[dest] += 1
                level_load[dest] += 1

        fill_empty_partitions(assignment, k)
        return PartitionAssignment(circuit, k, assignment)
