"""Sequential event-driven logic simulation (the baseline of Table 2).

The event semantics here are shared with the Time Warp kernel
(:mod:`repro.warped`): events are gate *output changes* carrying the
deterministic key ``(time, priority, source gate, emission number)``,
DFFs capture on an implicit clock at priority 0, and primary-input
stimulus applies at priority 2. Because both engines order events by
the same keys, an optimistic run must quiesce to exactly the same final
signal values as the sequential run — the correctness oracle the
integration tests enforce.
"""

from repro.sim.event import CAPTURE, SIG, STIM, Event
from repro.sim.event_queue import EventQueue
from repro.sim.stimulus import RandomStimulus, Stimulus, VectorStimulus
from repro.sim.kernel import SequentialResult, SequentialSimulator
from repro.sim.cost_model import SequentialCostModel
from repro.sim.trace import Trace
from repro.sim.activity import ActivityProfile, profile_activity

__all__ = [
    "ActivityProfile",
    "CAPTURE",
    "Event",
    "EventQueue",
    "RandomStimulus",
    "SIG",
    "STIM",
    "SequentialCostModel",
    "SequentialResult",
    "SequentialSimulator",
    "Stimulus",
    "Trace",
    "VectorStimulus",
    "profile_activity",
]
