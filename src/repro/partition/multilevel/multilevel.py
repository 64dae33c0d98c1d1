"""Phase orchestration: the multilevel partitioner itself.

Coarsen → initially partition the coarsest graph → refine at every
level while projecting back up to the original graph (Figures 1 and 2
of the paper). The refiner is pluggable (``greedy`` — the paper's
choice, ``kl``, ``fm`` or ``none``) for ablation A2.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from repro.circuit.graph import CircuitGraph
from repro.errors import PartitionError
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import Partitioner, fill_empty_partitions
from repro.partition.multilevel.coarse_graph import CoarseGraph
from repro.partition.multilevel.coarsening import coarsen
from repro.partition.multilevel.initial import initial_partition
from repro.partition.multilevel.refine_greedy import cut_weight, greedy_refine
from repro.partition.multilevel.refine_kl import kl_refine
from repro.partition.multilevel.refine_fm import fm_refine
from repro.utils.rng import derive_rng

RefinerFn = Callable[..., int]

#: Load headroom of refinement moves over the even share.  Tighter than
#: the single-pass partitioners' 10 %: on an N-node machine the slowest
#: node IS the execution time, so imbalance converts to time one-for-one.
SLACK = 0.05
#: Random initial partitions tried at the coarsest level; the best
#: refined cut wins.  Multi-start costs almost nothing there and
#: consistently buys cut quality.
NUM_INITIAL = 4

_REFINERS: dict[str, RefinerFn | None] = {
    "greedy": greedy_refine,
    "kl": kl_refine,
    "fm": fm_refine,
    "none": None,
}


class MultilevelPartitioner(Partitioner):
    """The paper's three-phase multilevel partitioning algorithm.

    Parameters
    ----------
    seed:
        Root seed for the initial-partitioning and refinement RNG.
    coarsen_threshold:
        Stop coarsening once the globule count falls below this; the
        default ``max(32, 8*k)`` leaves the initial phase enough globules
        to balance while keeping the coarsest graph trivial to split.
    coarsening:
        ``"fanout"`` (the paper's scheme) or ``"hem"`` (heavy-edge
        matching, the METIS-style alternative §6 alludes to).
    refiner:
        ``"greedy"`` (paper), ``"kl"``, ``"fm"`` or ``"none"``.
    edge_weights:
        Optional per-driver signal weights; see
        :class:`repro.partition.extra_activity.ActivityMultilevelPartitioner`
        for the activity-profiled variant (the paper's §6 direction).
    """

    name = "Multilevel"

    def __init__(
        self,
        seed=None,
        *,
        coarsen_threshold: int | None = None,
        coarsening: str = "fanout",
        refiner: str = "greedy",
        edge_weights: list[int] | None = None,
        vertex_weights: list[int] | None = None,
    ) -> None:
        super().__init__(seed)
        if refiner not in _REFINERS:
            raise PartitionError(
                f"unknown refiner {refiner!r}; choose from {sorted(_REFINERS)}"
            )
        self.coarsen_threshold = coarsen_threshold
        self.coarsening = coarsening
        self.refiner = refiner
        #: Optional per-driver signal weights (activity counts): phases
        #: then minimise *weighted* cut = expected message traffic.
        self.edge_weights = edge_weights
        #: Optional per-gate work weights: balance measured load instead
        #: of gate count.
        self.vertex_weights = vertex_weights
        #: Diagnostics from the last run: globule count per level.
        self.last_level_sizes: list[int] = []
        #: Diagnostics from the last run: wall seconds per phase —
        #: ``coarsen`` (level-0 graph and hierarchy), ``initial``
        #: (multi-start partitions of the coarsest graph, each refined)
        #: and ``refine`` (refinement and projection, level by level).
        self.last_phase_seconds: dict[str, float] = {}

    def _partition(self, circuit: CircuitGraph, k: int) -> PartitionAssignment:
        rng = derive_rng(self.seed, "multilevel", circuit.name, k)
        threshold = self.coarsen_threshold or max(32, 8 * k)
        threshold = max(threshold, k)

        start = time.perf_counter()
        level0 = CoarseGraph.from_circuit(
            circuit, self.edge_weights, self.vertex_weights
        )
        hierarchy = coarsen(
            level0,
            threshold=threshold,
            min_vertices=k,
            scheme=self.coarsening,
            rng=rng,
        )
        self.last_level_sizes = [g.n for g in hierarchy.levels]
        coarsened = time.perf_counter()

        coarsest = hierarchy.coarsest
        max_weight = (level0.total_weight / k) * (1.0 + SLACK)
        max_weight = max(max_weight, max(coarsest.weight))

        # Multi-start: several random initial partitions are refined at
        # the coarsest level (where refinement is nearly free) and the
        # best cut proceeds down the hierarchy.
        refine = _REFINERS[self.refiner]
        best_partition: list[int] | None = None
        best_cut = -1
        for _ in range(NUM_INITIAL):
            candidate = initial_partition(coarsest, k, rng)
            if refine is not None:
                refine(coarsest, candidate, k, rng, max_weight=max_weight)
            cut = cut_weight(coarsest, candidate)
            if best_partition is None or cut < best_cut:
                best_partition = candidate
                best_cut = cut
        partition = best_partition
        initialised = time.perf_counter()

        # Refine the coarsest level, then project down one level at a
        # time, refining after each projection (Figure 2).
        for level in range(hierarchy.num_levels - 1, -1, -1):
            graph = hierarchy.levels[level]
            if refine is not None:
                refine(graph, partition, k, rng, max_weight=max_weight)
            if level > 0:
                partition = graph.project(partition)
        self.last_phase_seconds = {
            "coarsen": coarsened - start,
            "initial": initialised - coarsened,
            "refine": time.perf_counter() - initialised,
        }
        if len(partition) != circuit.num_gates:
            raise PartitionError(
                "projection lost vertices: "
                f"{len(partition)} != {circuit.num_gates}"
            )
        # Refinement respects non-emptiness, but initial partitions with
        # k near the globule count plus weight-capped moves can still
        # strand an empty block on pathological graphs; repair cheaply.
        fill_empty_partitions(partition, k)
        return PartitionAssignment(circuit, k, partition)
