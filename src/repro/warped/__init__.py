"""A Time Warp (optimistic) parallel simulation kernel — WARPED in Python.

The kernel implements classical Time Warp (Jefferson's virtual time
[10]) exactly as the paper's WARPED substrate does: each gate is a
logical process (LP) with incremental state saving; LPs are grouped
into clusters, one per node of the machine; stragglers roll the LP back
and cancel its undone sends with anti-messages (aggressive
cancellation); a periodic GVT computation fossil-collects history.

Because this repository cannot run on the paper's testbed (8 dual
Pentium II workstations on fast ethernet), the kernel executes over a
:class:`~repro.warped.machine.VirtualMachine` — a deterministic
discrete-event model of that cluster that charges per-event CPU time
and per-message network latency. All observable quantities of the
paper's evaluation (execution time, application message count,
rollback count) are produced by the same Time Warp algorithm the paper
ran; only the clock underneath is modelled. See DESIGN.md §3.
"""

from repro.warped.messages import Message
from repro.warped.network import FastEthernet, UniformNetwork
from repro.warped.machine import TimeWarpCostModel, VirtualMachine
from repro.warped.stats import (
    NodeStats,
    TimeWarpResult,
    render_utilization_timeline,
)
from repro.warped.kernel import TimeWarpSimulator
from repro.warped.parallel import ProcessTimeWarpSimulator

__all__ = [
    "FastEthernet",
    "Message",
    "NodeStats",
    "ProcessTimeWarpSimulator",
    "TimeWarpCostModel",
    "TimeWarpResult",
    "TimeWarpSimulator",
    "UniformNetwork",
    "VirtualMachine",
    "render_utilization_timeline",
]
