"""Ablation refiner: Kernighan–Lin pairwise exchanges [13].

The classical KL algorithm improves a *bisection* by swapping vertex
pairs; for k-way partitions it is applied to every pair of partitions
in turn. Swaps keep partition *cardinalities* fixed, but on weighted
coarse graphs the swapped globules carry different weights, so the load
can still drift — swaps that would push a side past ``max_weight`` are
rejected. KL's pairwise structure and swap granularity are two reasons
[12] found move-based refinement superior, which ablation A2 revisits.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.partition.multilevel.coarse_graph import CoarseGraph

#: Sweeps over every partition pair; refinement stops earlier once a
#: sweep swaps nothing.
MAX_PASSES = 2
#: Swaps one pair may make per sweep: bounds a sweep's cost on large
#: coarse graphs.
MAX_SWAPS_PER_PAIR = 64


def _d_value(graph: CoarseGraph, partition: list[int], v: int, other: int) -> int:
    """KL D-value of *v* w.r.t. partition *other*: external - internal."""
    own = partition[v]
    internal = 0
    external = 0
    for neighbor, weight in graph.neighbors[v].items():
        p = partition[neighbor]
        if p == own:
            internal += weight
        elif p == other:
            external += weight
    return external - internal


def kl_refine(
    graph: CoarseGraph,
    partition: list[int],
    k: int,
    rng: np.random.Generator,
    *,
    max_weight: float,
) -> int:
    """Refine *partition* in place via pairwise KL; return swap count."""
    load = [0.0] * k
    for v in range(graph.n):
        load[partition[v]] += graph.weight[v]
    total_swaps = 0
    for _ in range(MAX_PASSES):
        swaps = 0
        for a, b in combinations(range(k), 2):
            swaps += _kl_pair(
                graph, partition, a, b, MAX_SWAPS_PER_PAIR, load, max_weight
            )
        total_swaps += swaps
        if swaps == 0:
            break
    return total_swaps


def _kl_pair(
    graph: CoarseGraph,
    partition: list[int],
    a: int,
    b: int,
    max_swaps: int,
    load: list[float],
    max_weight: float,
) -> int:
    """One KL improvement pass between partitions *a* and *b*.

    Greedy best-positive-swap with locking — the best-prefix variant
    over full tentative sequences is quadratic per pass and the study
    only needs KL as a comparison point, so positive swaps suffice.
    """
    side_a = [v for v in range(graph.n) if partition[v] == a]
    side_b = [v for v in range(graph.n) if partition[v] == b]
    if not side_a or not side_b:
        return 0
    locked: set[int] = set()
    swaps = 0
    for _ in range(min(max_swaps, len(side_a), len(side_b))):
        best: tuple[int, int, int] | None = None  # (gain, va, vb)
        d_a = {
            v: _d_value(graph, partition, v, b)
            for v in side_a
            if v not in locked
        }
        d_b = {
            v: _d_value(graph, partition, v, a)
            for v in side_b
            if v not in locked
        }
        # Restrict to the most promising vertices: full O(|A||B|) pairing
        # on big sides is wasteful when only boundary vertices matter.
        top_a = sorted(d_a, key=d_a.get, reverse=True)[:24]
        top_b = sorted(d_b, key=d_b.get, reverse=True)[:24]
        for va in top_a:
            for vb in top_b:
                delta = graph.weight[va] - graph.weight[vb]
                if load[b] + delta > max_weight or load[a] - delta > max_weight:
                    continue  # weighted swap would break the balance cap
                cross = graph.neighbors[va].get(vb, 0)
                gain = d_a[va] + d_b[vb] - 2 * cross
                if best is None or gain > best[0]:
                    best = (gain, va, vb)
        if best is None or best[0] <= 0:
            break
        _, va, vb = best
        delta = graph.weight[va] - graph.weight[vb]
        load[b] += delta
        load[a] -= delta
        partition[va] = b
        partition[vb] = a
        side_a.remove(va)
        side_b.remove(vb)
        side_a.append(vb)
        side_b.append(va)
        locked.add(va)
        locked.add(vb)
        swaps += 1
    return swaps
