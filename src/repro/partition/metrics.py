"""Static quality metrics for partition assignments.

The paper evaluates partitions *dynamically* (execution time, messages,
rollbacks of the Time Warp run); these static metrics explain those
outcomes and drive the quality ablation (DESIGN.md A3):

- **edge cut** — signals crossing partitions; each cut edge is a
  potential inter-processor message per transition (what the multilevel
  refinement phase minimises).
- **load imbalance** — max partition size over the even share; an
  imbalanced partition idles processors.
- **concurrency** — how evenly each topological level's gates spread
  over partitions; low concurrency serialises the simulation and breeds
  rollbacks (what the coarsening phase protects).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.graph import CircuitGraph
from repro.circuit.levelize import levelize, levels_to_buckets
from repro.partition.assignment import PartitionAssignment


def edge_cut(assignment: PartitionAssignment) -> int:
    """Number of signal edges whose endpoints lie in different partitions."""
    part = assignment.assignment
    return sum(1 for u, v in assignment.circuit.edges() if part[u] != part[v])


def cut_fraction(assignment: PartitionAssignment) -> float:
    """Edge cut as a fraction of all edges."""
    total = assignment.circuit.num_edges
    return edge_cut(assignment) / total if total else 0.0


def load_imbalance(assignment: PartitionAssignment) -> float:
    """``max(sizes) / (n/k)``: 1.0 is perfect balance."""
    sizes = assignment.sizes()
    even = assignment.circuit.num_gates / assignment.k
    return max(sizes) / even if even else 1.0


def concurrency_score(assignment: PartitionAssignment) -> float:
    """Mean per-level partition coverage, size-weighted, in (0, 1].

    For each topological level, count the fraction of partitions that
    hold at least one gate of that level (capped by the level's size);
    weight by level size. 1.0 means every level is spread over all the
    partitions it could be — maximal concurrent progress; a score near
    ``1/k`` means levels are confined to single partitions and the
    simulation advances one processor at a time.
    """
    level = levelize(assignment.circuit)
    buckets = levels_to_buckets(level)
    part = assignment.assignment
    k = assignment.k
    total_weight = 0
    acc = 0.0
    for bucket in buckets:
        if not bucket:
            continue
        present = len({part[g] for g in bucket})
        possible = min(k, len(bucket))
        acc += len(bucket) * (present / possible)
        total_weight += len(bucket)
    return acc / total_weight if total_weight else 1.0


def external_messages_upper_bound(assignment: PartitionAssignment) -> int:
    """Distinct (driver, destination-partition) pairs over cut edges.

    A driver gate whose fanout touches a remote partition sends one
    message per transition to that partition (signals with multiple
    remote sinks in the same partition still cost one message there in
    the clustered kernel); this counts those channels.
    """
    part = assignment.assignment
    channels: set[tuple[int, int]] = set()
    for u, v in assignment.circuit.edges():
        if part[u] != part[v]:
            channels.add((u, part[v]))
    return len(channels)


@dataclass(frozen=True)
class PartitionQuality:
    """All static metrics for one assignment (ablation A3 row)."""

    algorithm: str
    k: int
    edge_cut: int
    cut_fraction: float
    load_imbalance: float
    concurrency: float
    message_channels: int
    sizes: tuple[int, ...]


def partition_quality(assignment: PartitionAssignment) -> PartitionQuality:
    """Compute :class:`PartitionQuality` for *assignment*."""
    return PartitionQuality(
        algorithm=assignment.algorithm,
        k=assignment.k,
        edge_cut=edge_cut(assignment),
        cut_fraction=cut_fraction(assignment),
        load_imbalance=load_imbalance(assignment),
        concurrency=concurrency_score(assignment),
        message_channels=external_messages_upper_bound(assignment),
        sizes=tuple(assignment.sizes()),
    )


def gain_of_move(
    circuit: CircuitGraph, part: list[int], gate: int, dest: int
) -> int:
    """Edge-cut reduction if *gate* moves to partition *dest*.

    Positive gain means the cut shrinks. Counts each incident edge once
    (parallel edges count with multiplicity).
    """
    src = part[gate]
    if dest == src:
        return 0
    gain = 0
    g = circuit.gates[gate]
    for other in g.fanin:
        p = part[other]
        if p == src:
            gain -= 1
        elif p == dest:
            gain += 1
    for other in g.fanout:
        p = part[other]
        if p == src:
            gain -= 1
        elif p == dest:
            gain += 1
    return gain
