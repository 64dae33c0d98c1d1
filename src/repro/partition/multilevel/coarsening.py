"""Phase 1: fanout coarsening (the concurrency phase).

Exactly the scheme of Section 3:

- traversal is depth-first, starting from the primary-input globules at
  the first level and from the globules *grown in the previous step*
  (``CoarseGraph.seeds``) at later levels — growing linear chains keeps
  concurrency high;
- a chosen vertex is combined with all not-yet-coarsened vertices on
  its fanout signal, keeping the vertices of a signal together (fewer
  split signals → fewer remote messages → fewer rollbacks);
- each vertex is coarsened at most once per level;
- two globules that both contain a primary input never merge (inputs
  stay spread out, preserving concurrent event sources);
- coarsening halts when the globule count drops below a threshold or
  when only input globules remain (no legal combination left).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PartitionError
from repro.partition.multilevel.coarse_graph import CoarseGraph

#: Safety net on hierarchy depth: each level at least merges one pair,
#: and real runs stop on the threshold or on no progress long before.
MAX_LEVELS = 64


@dataclass
class CoarseningResult:
    """The hierarchy ``G0 .. Gm`` plus per-level bookkeeping."""

    levels: list[CoarseGraph] = field(default_factory=list)

    @property
    def coarsest(self) -> CoarseGraph:
        return self.levels[-1]

    @property
    def num_levels(self) -> int:
        return len(self.levels)


def coarsen_once(
    graph: CoarseGraph,
    *,
    merge_all: bool = False,
    max_group_weight: float | None = None,
) -> tuple[list[list[int]], int]:
    """One coarsening step: group vertices of *graph* by fanout merging.

    With ``merge_all`` (the first level, where every vertex is a single
    gate driving exactly one signal) a chosen vertex combines with *all*
    free vertices on its fanout — "maintaining vertices on a signal
    together". At coarser levels a globule drives several coarse signals
    and the paper's rule "only one of them is considered for coarsening"
    applies: the globule merges along its single heaviest outgoing edge.

    Returns ``(groups, merged)`` where *groups* partitions the vertex
    set (singletons included) and *merged* counts groups with ≥2
    members. ``contract`` is left to the caller so tests can inspect the
    grouping itself.
    """
    n = graph.n
    matched = [False] * n
    groups: list[list[int]] = []
    cap = max_group_weight if max_group_weight is not None else float("inf")

    def grow_group(v: int) -> list[int]:
        """Merge *v* with free vertices on its chosen fanout signal."""
        matched[v] = True
        group = [v]
        group_weight = graph.weight[v]
        has_input = graph.contains_input[v]
        if merge_all:
            candidates = list(graph.fanout[v])
        else:
            legal = [
                (weight, sink)
                for sink, weight in graph.fanout[v].items()
                if not matched[sink]
                and not (has_input and graph.contains_input[sink])
                and group_weight + graph.weight[sink] <= cap
            ]
            candidates = [max(legal)[1]] if legal else []
        for sink in candidates:
            if matched[sink]:
                continue
            if has_input and graph.contains_input[sink]:
                continue  # input globules may not combine together
            if group_weight + graph.weight[sink] > cap:
                continue  # weight cap: oversized globules wreck balance
            matched[sink] = True
            group.append(sink)
            group_weight += graph.weight[sink]
            if graph.contains_input[sink]:
                has_input = True
        return group

    # Depth-first traversal seeded per the paper. Seeds first; vertices
    # not reachable from any seed are swept afterwards in index order so
    # the grouping always covers V.
    roots = list(graph.seeds) if graph.seeds else list(range(n))
    visited = [False] * n
    for root in roots:
        if visited[root]:
            continue
        stack = [root]
        while stack:
            u = stack.pop()
            if visited[u]:
                continue
            visited[u] = True
            if not matched[u]:
                groups.append(grow_group(u))
            stack.extend(
                sink for sink in reversed(list(graph.fanout[u])) if not visited[sink]
            )
    for u in range(n):
        if not matched[u]:
            groups.append(grow_group(u))

    merged = sum(1 for g in groups if len(g) >= 2)
    return groups, merged


def hem_coarsen_once(
    graph: CoarseGraph,
    rng,
    *,
    max_group_weight: float | None = None,
) -> tuple[list[list[int]], int]:
    """Heavy-edge matching — the METIS-style alternative scheme.

    Visits vertices in random order and pairs each unmatched vertex
    with the unmatched neighbour sharing the heaviest (undirected)
    edge. Compared to the paper's fanout scheme it ignores signal
    direction and chains, maximising absorbed edge weight per level —
    ablation A10 measures what that trades away. The input-globule and
    weight-cap rules still apply.
    """
    n = graph.n
    cap = max_group_weight if max_group_weight is not None else float("inf")
    matched = [False] * n
    groups: list[list[int]] = []
    order = rng.permutation(n)
    for v in map(int, order):
        if matched[v]:
            continue
        matched[v] = True
        best = None
        best_weight = 0
        for neighbor, weight in graph.neighbors[v].items():
            if matched[neighbor]:
                continue
            if graph.contains_input[v] and graph.contains_input[neighbor]:
                continue
            if graph.weight[v] + graph.weight[neighbor] > cap:
                continue
            if weight > best_weight:
                best = neighbor
                best_weight = weight
        if best is None:
            groups.append([v])
        else:
            matched[best] = True
            groups.append([v, best])
    merged = sum(1 for g in groups if len(g) >= 2)
    return groups, merged


def coarsen(
    graph: CoarseGraph,
    *,
    threshold: int,
    min_vertices: int = 1,
    scheme: str = "fanout",
    rng=None,
) -> CoarseningResult:
    """Build the full hierarchy ``G0 .. Gm`` starting from *graph*.

    Halts when the globule count falls below *threshold*, when a step
    stops making progress (every globule is an input globule, or fanout
    merging found nothing to combine), or at :data:`MAX_LEVELS` as a
    safety net. A level with fewer than *min_vertices* globules is
    discarded (callers need at least ``k`` globules to build a k-way
    partition).

    A single globule may subsume at most ~1.5x the even share of the
    target coarsest graph in original gates, which keeps the
    initial-partitioning phase able to balance. The first (gate-level)
    step is exempt — a whole fanout signal always stays together, per
    the paper.
    """
    if scheme not in ("fanout", "hem"):
        raise PartitionError(f"unknown coarsening scheme {scheme!r}")
    if scheme == "hem" and rng is None:
        raise PartitionError("HEM coarsening needs an rng")
    max_globule_weight = max(2.0, 1.5 * graph.total_weight / max(threshold, 1))
    result = CoarseningResult(levels=[graph])
    current = graph
    first = True
    while current.n > threshold and result.num_levels <= MAX_LEVELS:
        if all(current.contains_input[v] for v in range(current.n)):
            break  # only input globules remain: no legal combination
        if scheme == "hem":
            groups, merged = hem_coarsen_once(
                current, rng, max_group_weight=max_globule_weight
            )
        else:
            groups, merged = coarsen_once(
                current,
                merge_all=first,
                max_group_weight=None if first else max_globule_weight,
            )
        first = False
        if merged == 0:
            break
        if len(groups) < min_vertices:
            break
        current = current.contract(groups)
        result.levels.append(current)
    return result
