"""Simulated-annealing partitioning (Patil, Banerjee & Polychronopoulos [17]).

Minimises a weighted cost ``cut + lambda * imbalance`` by
Metropolis-accepted single-gate moves under geometric cooling. The
initial temperature is calibrated from the observed move-cost spread
(median uphill delta), the textbook recipe. Slow compared to the
constructive heuristics — which is precisely the comparison point the
original authors made.
"""

from __future__ import annotations

import math

from repro.circuit.graph import CircuitGraph
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import (
    BALANCE_SLACK,
    Partitioner,
    fill_empty_partitions,
)
from repro.partition.metrics import gain_of_move
from repro.utils.rng import derive_rng

#: The schedule the extended-field comparison (ablation A7) measures:
#: attempted moves per gate, the geometric cooling factor per step of
#: n/2 moves, and the cost of one gate over the balance cap in cut edges.
MOVES_PER_GATE = 40.0
COOLING = 0.95
BALANCE_WEIGHT = 2.0


class AnnealingPartitioner(Partitioner):
    """Metropolis single-move annealing over cut + imbalance."""

    name = "Annealing"

    def _partition(self, circuit: CircuitGraph, k: int) -> PartitionAssignment:
        rng = derive_rng(self.seed, "annealing-partitioner", circuit.name, k)
        n = circuit.num_gates
        assignment = [int(x) for x in rng.integers(0, k, size=n)]
        load = [0] * k
        for part in assignment:
            load[part] += 1
        even = n / k
        cap = even * (1.0 + BALANCE_SLACK)

        def move_cost_delta(gate: int, dest: int) -> float:
            """Cost change of moving *gate* to *dest* (negative = better)."""
            src = assignment[gate]
            cut_delta = -gain_of_move(circuit, assignment, gate, dest)
            balance_delta = (
                max(0.0, load[dest] + 1 - cap) - max(0.0, load[src] - cap)
            )
            return cut_delta + BALANCE_WEIGHT * balance_delta

        # Calibrate T0 so a median uphill move is accepted ~80% of the time.
        probes = []
        for _ in range(min(200, 4 * n)):
            gate = int(rng.integers(0, n))
            dest = int(rng.integers(0, k))
            delta = move_cost_delta(gate, dest)
            if delta > 0:
                probes.append(delta)
        t0 = (sorted(probes)[len(probes) // 2] / 0.22) if probes else 1.0

        temperature = t0
        total_moves = int(MOVES_PER_GATE * n)
        moves_per_step = max(1, n // 2)
        performed = 0
        while performed < total_moves and temperature > 1e-3:
            for _ in range(moves_per_step):
                gate = int(rng.integers(0, n))
                src = assignment[gate]
                if load[src] <= 1:
                    continue
                dest = int(rng.integers(0, k))
                if dest == src:
                    continue
                delta = move_cost_delta(gate, dest)
                if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                    assignment[gate] = dest
                    load[src] -= 1
                    load[dest] += 1
            performed += moves_per_step
            temperature *= COOLING

        fill_empty_partitions(assignment, k)
        return PartitionAssignment(circuit, k, assignment)
