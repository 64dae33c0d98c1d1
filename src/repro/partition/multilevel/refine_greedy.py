"""Phase 3 refiner: greedy k-way refinement (Karypis & Kumar [12]).

Per iteration, every vertex is visited once in random order; it reads
the cut-set gain of moving to each adjacent partition from kept tables
and takes the maximum-gain move if it is strictly positive and keeps
the load balanced. Iterations repeat until a full pass makes no move
(the paper observes convergence in a few iterations).
"""

from __future__ import annotations

import numpy as np

from repro.partition.multilevel.coarse_graph import CoarseGraph


def move_gains(
    graph: CoarseGraph, partition: list[int], vertex: int
) -> dict[int, int]:
    """Cut-weight reduction for moving *vertex* to each adjacent partition.

    Only partitions that contain a neighbour can yield positive gain, so
    only those are returned. Gain = (edge weight to the destination) -
    (edge weight kept in the current partition).
    """
    internal, external = _degrees(graph, partition, vertex)
    return {dest: w - internal for dest, w in external.items()}


def _degrees(
    graph: CoarseGraph, partition: list[int], vertex: int
) -> tuple[int, dict[int, int]]:
    """*vertex*'s edge weight into its own partition, and into each
    foreign partition (in the order they first appear among its
    neighbours)."""
    src = partition[vertex]
    internal = 0
    external: dict[int, int] = {}
    for neighbor, weight in graph.neighbors[vertex].items():
        p = partition[neighbor]
        if p == src:
            internal += weight
        else:
            external[p] = external.get(p, 0) + weight
    return internal, external


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

    The gains come from two tables built once per call and updated on
    every move: ``internal[v]`` (edge weight into v's own partition) and
    ``external[v]`` (adjacent foreign partition -> edge weight). A visit
    costs O(adjacent partitions), and an interior vertex none; a move
    costs O(deg). Edge weights are positive, so a partition is in
    ``external[v]`` exactly when one of v's neighbours lies in it.
    """
    weight = graph.weight
    neighbors = graph.neighbors
    load = [0] * k
    count = [0] * k
    for v in range(graph.n):
        load[partition[v]] += weight[v]
        count[partition[v]] += 1
    degrees = [_degrees(graph, partition, v) for v in range(graph.n)]
    internal = [inside for inside, _ in degrees]
    external = [ext for _, ext in degrees]

    total_moves = 0
    order = np.arange(graph.n)
    for _ in range(max_iterations):
        rng.shuffle(order)
        moves_this_iter = 0
        for v in order.tolist():
            ext = external[v]
            if not ext:
                continue  # interior: no move can gain
            src = partition[v]
            if count[src] <= 1:
                continue  # never empty a partition
            wv = weight[v]
            best_dest, tied = _best_move(ext, internal[v], load, wv, max_weight)
            if best_dest < 0:
                continue
            if tied:
                # Equal candidates: the first in ``move_gains`` order wins,
                # an order the kept table loses as neighbours move.
                inside, in_order = _degrees(graph, partition, v)
                best_dest, _ = _best_move(in_order, inside, load, wv, max_weight)
            _move(partition, neighbors, internal, external, v, src, best_dest)
            load[src] -= wv
            load[best_dest] += wv
            count[src] -= 1
            count[best_dest] += 1
            moves_this_iter += 1
        total_moves += moves_this_iter
        if moves_this_iter == 0:
            break
    return total_moves


def _best_move(
    external: dict[int, int],
    internal: int,
    load: list[int],
    weight: int,
    max_weight: float,
) -> tuple[int, bool]:
    """The move a vertex makes, and whether another destination ties it.

    Highest positive gain, then the lighter destination (so refinement
    also nudges the balance in the right direction), then the first in
    *external*'s order; ``-1`` if no destination gains within capacity.
    ``tied`` reports an exact (gain, load) tie with the chosen one.
    """
    best_dest = -1
    best_gain = 0
    tied = False
    for dest, w in external.items():
        gain = w - internal
        if gain <= 0 or gain < best_gain:
            continue
        if load[dest] + weight > max_weight:
            continue
        if gain > best_gain or load[dest] < load[best_dest]:
            best_dest = dest
            best_gain = gain
            tied = False
        elif load[dest] == load[best_dest]:
            tied = True
    return best_dest, tied


def _move(
    partition: list[int],
    neighbors: list[dict[int, int]],
    internal: list[int],
    external: list[dict[int, int]],
    v: int,
    src: int,
    dst: int,
) -> None:
    """Move *v* from *src* to *dst*, keeping both gain tables exact."""
    partition[v] = dst
    ext = external[v]
    kept = internal[v]
    internal[v] = ext.pop(dst)
    if kept:
        ext[src] = kept
    for u, w in neighbors[v].items():
        pu = partition[u]
        ext_u = external[u]
        if pu == src:
            internal[u] -= w
            ext_u[dst] = ext_u.get(dst, 0) + w
            continue
        left = ext_u[src] - w
        if left:
            ext_u[src] = left
        else:
            del ext_u[src]
        if pu == dst:
            internal[u] += w
        else:
            ext_u[dst] = ext_u.get(dst, 0) + w


def cut_weight(graph: CoarseGraph, partition: list[int]) -> int:
    """Total weight of directed edges crossing partitions."""
    total = 0
    for u in range(graph.n):
        pu = partition[u]
        for v, w in graph.fanout[u].items():
            if partition[v] != pu:
                total += w
    return total
