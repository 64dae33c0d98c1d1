"""Per-node pending-event queue with annihilation support.

A node holds ONE queue over all its LPs (the clustered organisation of
WARPED: LPs of a cluster share a scheduler). The queue orders messages
by the deterministic event key and supports deletion by ``uid``, which
is how an anti-message annihilates an unprocessed positive copy.

Representation: a list sorted DESCENDING by sort key, so the earliest
live message sits at the END — ``pop`` is ``list.pop()`` (O(1)) and
insertion is a C-level :func:`bisect.insort` (binary search plus one
memmove), which beats a binary heap for the queue sizes logic
simulation produces and needs no lazy-deletion filtering: ``annihilate``
locates its entry exactly via the uid → key map and removes it.

The descending order is realised by storing each entry as
``(neg_key, sort_key, message)`` where ``neg_key`` negates every
element of the sort key: elementwise negation reverses the
lexicographic order of equal-length int tuples, so an ascending sort on
``neg_key`` is a descending sort on ``sort_key``. ``neg_key`` is unique
(the uid component is), so list comparisons never reach the message.

The head of the queue is cached: ``min_key``/``min_time`` are plain
attributes kept current by every mutator, so the executive's per-event
scheduling scan costs one attribute read per node.

Start-up is the one place many messages arrive at once: :meth:`load`
takes ready-made entries (:func:`make_entry`) and orders them with a
single sort instead of one ``insort`` each.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Sequence

from repro.warped.messages import Message

SortKey = tuple[int, int, int, int, int, int]

#: One stored entry: (negated sort key, sort key, message).
Entry = tuple[SortKey, SortKey, Message]


def make_entry(msg: Message) -> Entry:
    """The stored form of *msg* — what :meth:`NodeQueue.push` inserts."""
    return (
        (-msg.time, -msg.prio, -msg.src, -msg.n, -msg.dest, -msg.uid),
        (msg.time, msg.prio, msg.src, msg.n, msg.dest, msg.uid),
        msg,
    )


class NodeQueue:
    """Descending-sorted list of :class:`Message` with O(1) min-pop."""

    __slots__ = ("_list", "_uid_keys", "min_key", "min_time")

    def __init__(self) -> None:
        self._list: list[Entry] = []
        #: uid -> negated sort key of the live entry carrying it.
        self._uid_keys: dict[int, SortKey] = {}
        #: Sort key / virtual time of the earliest live message, or
        #: ``None`` when empty. Read-only for callers.
        self.min_key: SortKey | None = None
        self.min_time: int | None = None

    def push(self, msg: Message) -> None:
        """Insert *msg*."""
        sort_key = (msg.time, msg.prio, msg.src, msg.n, msg.dest, msg.uid)
        neg_key = (-msg.time, -msg.prio, -msg.src, -msg.n, -msg.dest, -msg.uid)
        insort(self._list, (neg_key, sort_key, msg))
        self._uid_keys[msg.uid] = neg_key
        min_key = self.min_key
        if min_key is None or sort_key < min_key:
            self.min_key = sort_key
            self.min_time = msg.time

    def load(self, entries: Sequence[Entry]) -> None:
        """Insert every entry of *entries* with one sort.

        Entries are immutable and may be shared between queues (a
        resident :class:`~repro.warped.world.World` hands every job the
        same stimulus-free ones); already-ordered stretches cost the
        sort one comparison per element.
        """
        self._uid_keys.update({entry[2].uid: entry[0] for entry in entries})
        lst = self._list
        lst.extend(entries)
        lst.sort()
        if lst:
            head = lst[-1]
            self.min_key = head[1]
            self.min_time = head[1][0]

    def pop(self) -> Message:
        """Remove and return the earliest live message."""
        lst = self._list
        if not lst:
            raise IndexError("pop from empty NodeQueue")
        _, _, msg = lst.pop()
        del self._uid_keys[msg.uid]
        if lst:
            head = lst[-1]
            self.min_key = head[1]
            self.min_time = head[1][0]
        else:
            self.min_key = None
            self.min_time = None
        return msg

    def contains_uid(self, uid: int) -> bool:
        """True iff a live message with *uid* is pending."""
        return uid in self._uid_keys

    def annihilate(self, uid: int) -> None:
        """Delete the pending message with *uid* (must be present)."""
        neg_key = self._uid_keys.pop(uid, None)
        if neg_key is None:
            raise KeyError(f"uid {uid} not pending")
        lst = self._list
        # A 1-tuple probe compares by first element only and sorts
        # before the (longer) entry carrying an equal first element, so
        # bisect_left lands exactly on the target entry.
        lo = bisect_left(lst, (neg_key,))
        del lst[lo]
        if lo == len(lst):
            # Removed the head (end of the descending list).
            if lst:
                head = lst[-1]
                self.min_key = head[1]
                self.min_time = head[1][0]
            else:
                self.min_key = None
                self.min_time = None

    def count_through(self, time: float) -> int:
        """How many pending messages carry a virtual time <= *time*."""
        lst = self._list
        # ``(-time,)`` sorts before every negated key that starts with
        # ``-time`` and after every one of a later time, so the entries
        # from that point to the end are exactly those due by *time*.
        return len(lst) - bisect_left(lst, ((-time,),))

    def peek_key(self) -> SortKey | None:
        """Sort key of the earliest live message, or ``None``."""
        return self.min_key

    def extract_dests(self, dests: set[int]) -> list[Message]:
        """Remove and return all pending messages addressed to *dests*.

        Used by LP migration: the moved LP's queued work follows it to
        its new node.
        """
        kept: list[Entry] = []
        moved: list[Message] = []
        uid_keys = self._uid_keys
        for entry in self._list:
            msg = entry[2]
            if msg.dest in dests:
                moved.append(msg)
                del uid_keys[msg.uid]
            else:
                kept.append(entry)
        self._list = kept
        if kept:
            head = kept[-1]
            self.min_key = head[1]
            self.min_time = head[1][0]
        else:
            self.min_key = None
            self.min_time = None
        return moved

    def __len__(self) -> int:
        return len(self._list)

    def __bool__(self) -> bool:
        return bool(self._list)
