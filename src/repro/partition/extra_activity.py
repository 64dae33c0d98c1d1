"""Activity-weighted multilevel partitioning — the paper's §6 direction.

"We are currently investigating the use of activity levels of
communication to make better decisions while coarsening." This module
implements exactly that: a short sequential profiling run measures how
often each signal actually toggles (:mod:`repro.sim.activity`), and the
multilevel phases then operate on the activity-weighted circuit graph —
coarsening merges along the *busiest* signal of a globule, and
refinement minimises the *expected message count* rather than the raw
edge count. A rarely-toggling signal is cheap to cut even if it is
structurally central; a hot signal is kept internal at almost any cost.
"""

from __future__ import annotations

from repro.circuit.graph import CircuitGraph
from repro.partition.assignment import PartitionAssignment
from repro.partition.multilevel.multilevel import MultilevelPartitioner
from repro.sim.activity import ActivityProfile, profile_activity
from repro.utils.rng import RngLike

#: Length of the profiling simulation in clock cycles: enough to
#: separate hot control/clock-adjacent nets from cold datapath corners.
PROFILE_CYCLES = 16


class ActivityMultilevelPartitioner(MultilevelPartitioner):
    """Multilevel partitioning over activity-weighted signals.

    Parameters mirror :class:`MultilevelPartitioner`; additionally:

    profile:
        A precomputed :class:`~repro.sim.activity.ActivityProfile` to
        use instead of running the profiler (e.g. measured on the real
        workload).
    balance_work:
        When True (default) partition load is balanced in measured
        events per gate rather than gate count, so a hot corner of the
        netlist does not overload its node.
    """

    name = "ActivityML"

    def __init__(
        self,
        seed: RngLike = None,
        *,
        profile: ActivityProfile | None = None,
        balance_work: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(seed, **kwargs)
        self.profile = profile
        self.balance_work = balance_work
        #: The profile actually used by the last partition() call.
        self.last_profile: ActivityProfile | None = None

    def _partition(self, circuit: CircuitGraph, k: int) -> PartitionAssignment:
        profile = self.profile
        if profile is None or profile.circuit_name != circuit.name:
            profile = profile_activity(
                circuit,
                num_cycles=PROFILE_CYCLES,
                seed=self.seed if isinstance(self.seed, int) else None,
            )
        self.last_profile = profile
        self.edge_weights = [
            profile.edge_weight(gate) for gate in range(circuit.num_gates)
        ]
        if self.balance_work:
            # Work per gate ~ events it processes ~ changes of its
            # drivers (each triggers one evaluation) + its own changes.
            work = []
            for gate in circuit.gates:
                evaluations = sum(
                    profile.changes[d] for d in gate.fanin
                )
                work.append(1 + evaluations + profile.changes[gate.index])
            self.vertex_weights = work
        try:
            return super()._partition(circuit, k)
        finally:
            self.edge_weights = None
            self.vertex_weights = None
