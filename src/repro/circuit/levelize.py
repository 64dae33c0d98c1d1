"""Topological levelization of a sequential circuit.

The topological partitioner (Cloutier [5], Smith [19]) first *levelizes*
the circuit — assigns each gate the length of the longest combinational
path from a source — and then distributes whole levels over partitions.
Primary inputs and DFF outputs are the level-0 sources; edges *into* a
DFF terminate a path (they carry next-cycle values), so sequential
feedback does not create cycles in the levelized view.
"""

from __future__ import annotations

from collections import deque

from repro.circuit.graph import CircuitGraph
from repro.errors import CircuitError


def levelize(circuit: CircuitGraph) -> list[int]:
    """Return ``level[i]`` for every gate index ``i``.

    Sources (primary inputs and DFFs) are level 0; every other gate is
    ``1 + max(level of fanin)`` over the acyclic view that cuts edges
    whose sink is a DFF. Raises :class:`CircuitError` if the view still
    contains a cycle (a feedback loop with no flip-flop on it).
    """
    n = circuit.num_gates
    gates = circuit.gates
    level = [0] * n
    indegree = [0] * n
    for gate in gates:
        if gate.gate_type.is_source or gate.gate_type.is_sequential:
            indegree[gate.index] = 0
        else:
            indegree[gate.index] = len(gate.fanin)

    queue = deque(i for i in range(n) if indegree[i] == 0)
    visited = 0
    while queue:
        u = queue.popleft()
        visited += 1
        for v in gates[u].fanout:
            if gates[v].gate_type.is_sequential or gates[v].gate_type.is_source:
                # Edge into a DFF carries next-cycle data: path ends here.
                # (Source sinks cannot occur — kept for symmetry/safety.)
                continue
            if level[u] + 1 > level[v]:
                level[v] = level[u] + 1
            indegree[v] -= 1
            if indegree[v] == 0:
                queue.append(v)
    if visited != n:
        unvisited = [gates[i].name for i in range(n) if indegree[i] > 0][:5]
        raise CircuitError(
            "combinational cycle detected (no DFF on a feedback loop); "
            f"involved gates include {unvisited}"
        )
    return level


def levels_to_buckets(level: list[int]) -> list[list[int]]:
    """Group gate indices by level: ``buckets[L]`` lists gates at level L."""
    if not level:
        return []
    buckets: list[list[int]] = [[] for _ in range(max(level) + 1)]
    for index, lvl in enumerate(level):
        buckets[lvl].append(index)
    return buckets
