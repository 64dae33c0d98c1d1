"""Ablation refiner: Fiduccia–Mattheyses-style k-way passes [6].

Unlike the greedy refiner, an FM pass applies moves *tentatively* —
including negative-gain moves — and afterwards rolls back to the prefix
of the move sequence with the best cumulative gain. This hill-climbing
lets FM escape local minima the greedy refiner is stuck in, at the cost
of more work per pass; the paper (citing [12]) reports the greedy
scheme reaches comparable cuts faster, which ablation A2 checks.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.multilevel.coarse_graph import CoarseGraph
from repro.partition.multilevel.refine_greedy import move_gains

#: FM passes per level; refinement stops earlier once a pass keeps no
#: move.
MAX_PASSES = 4


def fm_refine(
    graph: CoarseGraph,
    partition: list[int],
    k: int,
    rng: np.random.Generator,
    *,
    max_weight: float,
) -> int:
    """Refine *partition* in place; return the number of retained moves."""
    retained_total = 0
    for _ in range(MAX_PASSES):
        retained = _one_pass(graph, partition, k, max_weight)
        retained_total += retained
        if retained == 0:
            break
    return retained_total


def _one_pass(
    graph: CoarseGraph, partition: list[int], k: int, max_weight: float
) -> int:
    load = [0] * k
    count = [0] * k
    for v in range(graph.n):
        load[partition[v]] += graph.weight[v]
        count[partition[v]] += 1

    # Max-heap of candidate moves with lazy invalidation: entries carry
    # the gain they were computed with and are revalidated on pop.
    heap: list[tuple[int, int, int, int]] = []  # (-gain, tiebreak, v, dest)
    tiebreak = 0

    def push_moves(v: int) -> None:
        nonlocal tiebreak
        for dest, gain in move_gains(graph, partition, v).items():
            heapq.heappush(heap, (-gain, tiebreak, v, dest))
            tiebreak += 1

    for v in range(graph.n):
        push_moves(v)

    locked = bytearray(graph.n)
    history: list[tuple[int, int, int]] = []  # (v, src, dest)
    cumulative = 0
    best_cumulative = 0
    best_prefix = 0

    while heap:
        neg_gain, _, v, dest = heapq.heappop(heap)
        if locked[v]:
            continue
        src = partition[v]
        current = move_gains(graph, partition, v).get(dest)
        if current is None or -neg_gain != current:
            if current is not None:
                heapq.heappush(heap, (-current, tiebreak, v, dest))
            continue  # stale entry: reinsert fresh value if still legal
        if load[dest] + graph.weight[v] > max_weight or count[src] <= 1:
            continue
        partition[v] = dest
        load[src] -= graph.weight[v]
        load[dest] += graph.weight[v]
        count[src] -= 1
        count[dest] += 1
        locked[v] = 1
        history.append((v, src, dest))
        cumulative += current
        if cumulative > best_cumulative:
            best_cumulative = cumulative
            best_prefix = len(history)
        for neighbor in graph.neighbors[v]:
            if not locked[neighbor]:
                push_moves(neighbor)

    # Keep the best prefix of the tentative move sequence; since the
    # locking discipline moves each vertex at most once per pass, undoing
    # a move is a simple re-assignment.
    if best_cumulative > 0:
        for v, src, _ in history[best_prefix:]:
            partition[v] = src
        return best_prefix
    for v, src, _ in history:
        partition[v] = src
    return 0
