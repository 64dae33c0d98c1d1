"""Event records and the deterministic total order both engines share.

An event states "gate ``src``'s output becomes ``value`` at virtual
time ``time``". The key ``(time, prio, src, n)`` totally orders events:

- ``prio`` separates the three kinds at equal times — DFF captures
  (``CAPTURE``, 0) must read their data input *before* the same
  instant's stimulus (``STIM``, 1) and signal changes (``SIG``, 2)
  land;
- ``src`` and ``n`` (the per-source emission counter at this receive
  time) break remaining ties identically in the sequential and the
  Time Warp engine, so both resolve same-time glitches the same way.

Every emission is scheduled at least one delay unit after the event
that produced it, so an event's key is always strictly smaller than its
consequences' keys — the property optimistic rollback relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Event kind priorities (smaller processes first at equal times).
CAPTURE = 0
STIM = 1
SIG = 2

KIND_NAMES = {CAPTURE: "CAPTURE", STIM: "STIM", SIG: "SIG"}

#: The end of virtual time (the largest int64): later than any event,
#: a GVT of ``T_END`` proves quiescence, and as a bound it means "never".
T_END = 2**63 - 1

#: Type alias for the total-order key.
EventKey = tuple[int, int, int, int]


@dataclass(frozen=True, order=True)
class Event:
    """One scheduled output change (or DFF capture / PI stimulus)."""

    time: int
    prio: int
    src: int
    n: int
    value: int

    @property
    def key(self) -> EventKey:
        """The deterministic total-order key."""
        return (self.time, self.prio, self.src, self.n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = KIND_NAMES.get(self.prio, str(self.prio))
        return f"Event(t={self.time}, {kind}, src={self.src}, n={self.n}, v={self.value})"
