"""Result and statistics records for Time Warp runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.graph import CircuitGraph


@dataclass
class NodeStats:
    """Per-node counters (one WARPED cluster)."""

    node: int
    num_lps: int = 0
    events_processed: int = 0
    events_rolled_back: int = 0
    rollbacks: int = 0
    messages_sent_remote: int = 0
    messages_sent_local: int = 0
    anti_messages_sent: int = 0
    wall_time: float = 0.0
    #: CPU time actually spent working (events, rollbacks, messaging,
    #: GVT shares); ``wall_time - busy_time`` is idle/blocked time.
    busy_time: float = 0.0

    @property
    def events_committed(self) -> int:
        return self.events_processed - self.events_rolled_back

    @property
    def efficiency(self) -> float:
        """Committed / processed events — the Time Warp efficiency."""
        if self.events_processed == 0:
            return 1.0
        return self.events_committed / self.events_processed

    @property
    def utilization(self) -> float:
        """busy_time / wall_time (1.0 = the node never waited)."""
        if self.wall_time <= 0:
            return 1.0
        return min(1.0, self.busy_time / self.wall_time)


def node_totals(node_stats: list[NodeStats]) -> dict[str, int]:
    """The event and message totals of a :class:`TimeWarpResult`, as
    sums over its nodes (keyed by result field)."""
    return {
        "events_processed": sum(s.events_processed for s in node_stats),
        "events_rolled_back": sum(s.events_rolled_back for s in node_stats),
        "rollbacks": sum(s.rollbacks for s in node_stats),
        "app_messages": sum(s.messages_sent_remote for s in node_stats),
        "anti_messages": sum(s.anti_messages_sent for s in node_stats),
        "local_messages": sum(s.messages_sent_local for s in node_stats),
    }


@dataclass
class TimeWarpResult:
    """Outcome of one optimistic parallel run.

    ``execution_time`` is the modelled wall-clock of the slowest node —
    the quantity of the paper's Table 2 / Figure 4. ``app_messages``
    counts positive inter-node event messages (Figure 5); ``rollbacks``
    counts rollback episodes (Figure 6).
    """

    circuit_name: str
    algorithm: str
    num_nodes: int
    num_cycles: int
    execution_time: float
    events_processed: int
    events_rolled_back: int
    rollbacks: int
    app_messages: int
    anti_messages: int
    local_messages: int
    gvt_rounds: int
    #: Lazy cancellation only: undone sends whose re-execution derived
    #: the identical message, so the original was kept (no anti, no
    #: resend).
    lazy_reuses: int
    #: Largest total number of history records held across all LPs at
    #: any GVT round — the state-memory high-water mark that fossil
    #: collection bounds (the paper's s15850 2-node row is missing
    #: because this is what overflowed on their machines).
    peak_history: int
    #: LPs moved between nodes by dynamic load balancing.
    migrations: int
    final_values: list[int]
    node_stats: list[NodeStats] = field(default_factory=list)
    #: One sample per GVT round: (max wall time so far, per-node busy
    #: time accumulated since the previous round). Drives
    #: :func:`render_utilization_timeline`.
    utilization_timeline: list[tuple[float, list[float]]] = field(
        default_factory=list
    )
    #: Committed DFF capture history as sorted (gate, cycle, value)
    #: triples — one entry per capture that changed the flip-flop's
    #: output.  Identical across the sequential kernel and every
    #: parallel engine (``SequentialResult.disagreement``).
    committed_captures: list[tuple[int, int, int]] | None = None
    #: Which execution substrate produced this result: "virtual" (the
    #: deterministic modelled machine) or "process" (real OS processes,
    #: measured wall-clock).
    backend: str = "virtual"
    #: Process backend only: the wire transport that carried the run's
    #: inter-node messages ("queue" or "shm"); None on other backends.
    transport: str | None = None
    #: Process backend only: ring restarts performed while recovering
    #: from worker crashes (0 on a fault-free run).
    restarts: int = 0
    #: True when the process backend exhausted a node's restart budget
    #: and finished the run on the virtual backend instead.  Committed
    #: results are still exact; timing/counters reflect the fallback.
    degraded: bool = False

    @property
    def events_committed(self) -> int:
        return self.events_processed - self.events_rolled_back

    @property
    def efficiency(self) -> float:
        if self.events_processed == 0:
            return 1.0
        return self.events_committed / self.events_processed

    def value_of(self, circuit: CircuitGraph, name: str) -> int:
        """Final value of the gate called *name*."""
        return self.final_values[circuit.index_of(name)]

    def summary(self) -> str:
        """One-line human-readable digest."""
        line = (
            f"{self.circuit_name} [{self.algorithm} x{self.num_nodes}] "
            f"T={self.execution_time:.2f}s ev={self.events_processed} "
            f"rb={self.rollbacks} ({self.events_rolled_back} ev) "
            f"msg={self.app_messages} eff={self.efficiency:.2f}"
        )
        if self.restarts:
            line += f" restarts={self.restarts}"
        if self.degraded:
            line += " DEGRADED(virtual fallback)"
        return line


def render_utilization_timeline(
    result: "TimeWarpResult", *, width: int = 64
) -> str:
    """ASCII heat strip of per-node utilization over modelled time.

    One row per node; each column is a slice of wall-clock, shaded by
    how busy the node was (` .:-=+*#%@` from idle to saturated). Makes
    stragglers and load holes visible at a glance.
    """
    samples = result.utilization_timeline
    if not samples:
        return "(no utilization samples — run with gvt_interval small "                "enough to fire at least once)"
    shades = " .:-=+*#%@"
    end = max(result.execution_time, samples[-1][0]) or 1.0
    n_nodes = result.num_nodes
    # Accumulate busy time into wall-time bins per node.
    bins = [[0.0] * width for _ in range(n_nodes)]
    spans = [[0.0] * width for _ in range(n_nodes)]
    previous = 0.0
    for wall_now, busy_delta in samples:
        span = max(wall_now - previous, 1e-12)
        lo = min(width - 1, int(previous / end * width))
        hi = min(width - 1, int(wall_now / end * width))
        for node in range(n_nodes):
            share = busy_delta[node] / (hi - lo + 1)
            for column in range(lo, hi + 1):
                bins[node][column] += share
                spans[node][column] += span / (hi - lo + 1)
        previous = wall_now
    lines = [
        f"utilization timeline — {result.circuit_name} "
        f"[{result.algorithm} x{n_nodes}], T={result.execution_time:.2f}s"
    ]
    for node in range(n_nodes):
        row = []
        for column in range(width):
            if spans[node][column] <= 0:
                row.append(" ")
                continue
            level = min(1.0, bins[node][column] / spans[node][column])
            row.append(shades[min(len(shades) - 1, int(level * len(shades)))])
        lines.append(f"node {node:2d} |{''.join(row)}|")
    return "\n".join(lines)
