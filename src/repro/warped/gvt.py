"""Global Virtual Time estimation and fossil collection.

GVT is the floor below which no rollback can ever reach: the minimum
virtual time over every unprocessed message (pending in node queues or
in flight on the network). The kernel's single-threaded virtual-machine
loop sees a consistent global snapshot for free, so the textbook
min-reduction is exact here — no Mattern/Samadi token rounds are needed
(the *cost* of a distributed GVT round is still charged by the machine
model).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.sim.event import T_END
from repro.warped.queues import NodeQueue


def compute_gvt(
    node_queues: Iterable[NodeQueue],
    in_flight_times: Iterable[int],
) -> int:
    """Exact GVT: min virtual time over pending and in-flight messages
    (``T_END`` once the simulation quiesced)."""
    gvt = T_END
    for queue in node_queues:
        t = queue.min_time
        if t is not None and t < gvt:
            gvt = t
    for t in in_flight_times:
        if t < gvt:
            gvt = t
    return gvt
