"""The virtual machine: N nodes, a CPU cost model, a network model.

This replaces the paper's physical testbed (see DESIGN.md §3). A *node*
models one processing element running one WARPED cluster of LPs; the
paper's x-axis "number of nodes" maps 1:1 onto this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError, SimulationError
from repro.warped.network import FastEthernet, UniformNetwork


@dataclass(frozen=True)
class TimeWarpCostModel:
    """Per-operation CPU costs of the Time Warp executive, in seconds.

    Defaults model the paper's era (300 MHz Pentium II running the
    TYVIS/WARPED C++ stack):

    - ``event_cost``: process one LP event — dequeue, incremental
      state save, one process evaluation, scheduling. An LP event is
      finer-grained than a sequential-kernel event (which evaluates
      every sink of a change in one go), hence the smaller constant.
    - ``rollback_event_cost``: undo one processed event (state
      restore + cancellation bookkeeping).
    - ``send_overhead``: CPU time to hand one remote message to the
      messaging layer (MPI send over TCP on the paper's stack).
    - ``recv_overhead``: CPU time to take one remote message off the
      wire at the destination node.
    - ``gvt_cost``: per-node CPU share of one GVT round.
    """

    event_cost: float = 180e-6
    rollback_event_cost: float = 90e-6
    #: Coast-forward replay of one event during a checkpoint-mode
    #: rollback (state rebuild only — no scheduling, no sends).
    coast_event_cost: float = 90e-6
    #: The share of ``event_cost`` attributable to incremental state
    #: saving; checkpoint mode skips it per event and pays it per
    #: snapshot instead.
    state_save_cost: float = 40e-6
    #: Transfer one LP (state + queued events) to another node during
    #: dynamic load balancing; charged to both endpoints.
    migrate_lp_cost: float = 500e-6
    send_overhead: float = 150e-6
    recv_overhead: float = 150e-6
    gvt_cost: float = 200e-6

    def __post_init__(self) -> None:
        for name in (
            "event_cost",
            "rollback_event_cost",
            "coast_event_cost",
            "state_save_cost",
            "migrate_lp_cost",
            "send_overhead",
            "recv_overhead",
            "gvt_cost",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.event_cost <= 0:
            raise ConfigError("event_cost must be positive")
        if self.state_save_cost >= self.event_cost:
            # Checkpoint mode charges event_cost - state_save_cost per
            # event; a state-save share at or above the whole event cost
            # would make that non-positive (the kernel used to clamp it
            # silently to 1e-9, hiding the misconfiguration).
            raise ConfigError(
                f"state_save_cost ({self.state_save_cost}) must be smaller "
                f"than event_cost ({self.event_cost}); it is the share of "
                "event_cost attributable to state saving"
            )


@dataclass
class VirtualMachine:
    """Configuration of the simulated cluster."""

    num_nodes: int
    cost_model: TimeWarpCostModel = field(default_factory=TimeWarpCostModel)
    network: UniformNetwork = field(default_factory=FastEthernet)
    #: Compute GVT (and fossil-collect) every this many processed events.
    gvt_interval: int = 512
    #: Cancellation policy: "aggressive" dispatches anti-messages the
    #: moment an event is rolled back (WARPED's default); "lazy" holds
    #: them back until re-execution proves the original send wrong — a
    #: re-derived identical message is reused instead of being cancelled
    #: and resent, saving anti-message traffic and secondary rollbacks
    #: when the speculation was value-correct.
    cancellation: str = "aggressive"
    #: State-saving policy: ``None`` = incremental (per-event undo
    #: records, WARPED's default for small states); an integer C =
    #: snapshot every C events with coast-forward on rollback.
    #: The process backend saves state incrementally regardless and
    #: reads C as the *virtual-time* spacing of its crash-recovery
    #: checkpoint epochs (a consistent ring-wide snapshot each time a
    #: broadcast GVT crosses a multiple of C).
    checkpoint_interval: int | None = None
    #: Dynamic load balancing: at each GVT round, if the busiest node
    #: did more than ``migration_threshold`` times the work of the
    #: idlest since the previous round, migrate the hottest LPs toward
    #: the idlest node. ``None`` disables migration (static partitions,
    #: as in the paper).
    migration_threshold: float | None = None
    #: At most this fraction of the busiest node's LPs moves per round.
    migration_fraction: float = 0.05
    #: Bounded optimism: a node only processes events with virtual time
    #: <= GVT + window. ``None`` = classic unthrottled Time Warp. The
    #: virtual machine's pre-scheduled stimulus gives every node
    #: unbounded lookahead, so an unthrottled node can race arbitrarily
    #: far ahead and thrash on deep rollbacks; a window of a few clock
    #: periods models the optimism control real kernels employ.
    optimism_window: int | None = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("need at least one node")
        if self.gvt_interval < 1:
            raise ConfigError("gvt_interval must be >= 1")
        if self.optimism_window is not None and self.optimism_window < 1:
            raise ConfigError("optimism_window must be >= 1 (or None)")
        if self.cancellation not in ("aggressive", "lazy"):
            raise ConfigError(
                f"cancellation must be 'aggressive' or 'lazy', "
                f"got {self.cancellation!r}"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1 (or None)")
        if self.migration_threshold is not None and self.migration_threshold <= 1.0:
            raise ConfigError("migration_threshold must be > 1 (or None)")
        if not 0.0 < self.migration_fraction <= 1.0:
            raise ConfigError("migration_fraction must be in (0, 1]")


def check_job(
    circuit, assignment, stimulus, machine: VirtualMachine,
    *, aggressive_only: bool = False,
) -> None:
    """The checks every simulator makes of the job it is handed: a
    frozen circuit, a partition and a stimulus built for that very
    circuit object, one partition block per node — and, for the process
    backend (*aggressive_only*), the one cancellation policy it runs."""
    if not circuit.frozen:
        raise SimulationError("circuit must be frozen")
    if assignment.circuit is not circuit:
        raise SimulationError("assignment was built for a different circuit")
    if stimulus.circuit is not circuit:
        raise SimulationError("stimulus was built for a different circuit")
    if assignment.k != machine.num_nodes:
        raise SimulationError(
            f"partition has k={assignment.k} but machine has "
            f"{machine.num_nodes} nodes"
        )
    if aggressive_only and machine.cancellation != "aggressive":
        raise ConfigError(
            "the process backend implements aggressive cancellation only"
        )
