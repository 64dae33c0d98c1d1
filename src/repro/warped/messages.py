"""Positive and anti-messages exchanged between LPs."""

from __future__ import annotations

from repro.sim.event import EventKey, KIND_NAMES

#: Message signs.
POSITIVE = 1
ANTI = -1


class Message:
    """One event message (or its annihilating anti-message).

    ``(time, prio, src, n)`` is the shared deterministic event key —
    identical for every copy fanned out to different destinations and
    for the anti-message that cancels a copy. ``uid`` identifies one
    physical copy for annihilation matching.
    """

    __slots__ = ("time", "prio", "src", "n", "value", "dest", "uid", "sign", "key")

    def __init__(
        self,
        time: int,
        prio: int,
        src: int,
        n: int,
        value: int,
        dest: int,
        uid: int,
        sign: int = POSITIVE,
    ) -> None:
        self.time = time
        self.prio = prio
        self.src = src
        self.n = n
        self.value = value
        self.dest = dest
        self.uid = uid
        self.sign = sign
        #: The deterministic event key, precomputed: the kernels read it
        #: several times per message (straggler checks, history keys).
        self.key: EventKey = (time, prio, src, n)

    def __reduce__(self):
        # Eight constructor ints instead of copyreg's slot-state dict:
        # a third of the bytes and no per-slot setattr on load, for
        # everything that pickles messages (checkpoints, send logs,
        # MIGRATE blobs, replays).  ``key`` is rebuilt by ``__init__``.
        return (
            Message,
            (self.time, self.prio, self.src, self.n,
             self.value, self.dest, self.uid, self.sign),
        )

    @property
    def sort_key(self) -> tuple[int, int, int, int, int, int]:
        """Queue order: event key, then destination, then copy id."""
        return (self.time, self.prio, self.src, self.n, self.dest, self.uid)

    def make_anti(self) -> "Message":
        """The anti-message cancelling this positive copy."""
        return Message(
            self.time, self.prio, self.src, self.n,
            self.value, self.dest, self.uid, ANTI,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = KIND_NAMES.get(self.prio, str(self.prio))
        sign = "+" if self.sign == POSITIVE else "-"
        return (
            f"Msg({sign}t={self.time} {kind} src={self.src} n={self.n} "
            f"v={self.value} dest={self.dest} uid={self.uid})"
        )


_new = Message.__new__


def fan_out(time, prio, src, n, value, sinks, uids) -> list[Message]:
    """A positive copy per sink in *sinks*, uids drawn from the iterator
    *uids*, all sharing one key tuple and skipping ``__init__`` — as the
    executives' inline one- and two-sink fan-outs do."""
    key = (time, prio, src, n)
    copies = []
    for sink, uid in zip(sinks, uids):
        em = _new(Message)
        em.time = time
        em.prio = prio
        em.src = src
        em.n = n
        em.value = value
        em.dest = sink
        em.uid = uid
        em.sign = POSITIVE
        em.key = key
        copies.append(em)
    return copies
