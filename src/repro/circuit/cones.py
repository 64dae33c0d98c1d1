"""Fanin/fanout cone extraction.

The cone partitioner (Smith [19]) clusters the fanout cones grown from
the primary inputs; test and analysis code also uses fanin cones (all
logic that can influence a gate). Cones are computed on the combinational
view so they terminate at sequential boundaries.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.circuit.graph import CircuitGraph


def fanout_cone(
    circuit: CircuitGraph, roots: int | Iterable[int], *, through_dffs: bool = False
) -> set[int]:
    """All gates reachable from *roots* by following fanout edges.

    The roots themselves are included. With ``through_dffs=False`` (the
    default) traversal stops *at* a DFF: the DFF joins the cone but its
    next-cycle fanout does not.
    """
    if isinstance(roots, int):
        roots = (roots,)
    cone: set[int] = set()
    queue = deque(roots)
    gates = circuit.gates
    while queue:
        u = queue.popleft()
        if u in cone:
            continue
        cone.add(u)
        if not through_dffs and gates[u].gate_type.is_sequential:
            continue
        queue.extend(v for v in gates[u].fanout if v not in cone)
    return cone


def fanin_cone(
    circuit: CircuitGraph, roots: int | Iterable[int], *, through_dffs: bool = False
) -> set[int]:
    """All gates that can reach *roots* by following fanin edges."""
    if isinstance(roots, int):
        roots = (roots,)
    cone: set[int] = set()
    queue = deque(roots)
    gates = circuit.gates
    while queue:
        u = queue.popleft()
        if u in cone:
            continue
        cone.add(u)
        if not through_dffs and gates[u].gate_type.is_sequential:
            continue
        queue.extend(v for v in gates[u].fanin if v not in cone)
    return cone


def input_cones(circuit: CircuitGraph) -> dict[int, set[int]]:
    """Fanout cone of each primary input (key: the input's gate index).

    Cones overlap wherever reconvergent fanout exists; the cone
    partitioner resolves the overlaps by first-come assignment.
    """
    return {
        pi: fanout_cone(circuit, pi, through_dffs=True)
        for pi in circuit.primary_inputs
    }
