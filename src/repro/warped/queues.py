"""Per-node pending-event queue with annihilation support.

A node holds ONE queue over all its LPs (the clustered organisation of
WARPED: LPs of a cluster share a scheduler). The queue hands messages
out in the deterministic order ``(time, prio, src, n, dest, uid)`` and
supports deleting a pending message, which is how an anti-message
annihilates an unprocessed positive copy.

Representation: a timing wheel over virtual time. Logic-simulation time
is a small dense integer range — a node holds a few thousand pending
messages but rarely a hundred distinct times — so messages are kept in
one **bucket** (a list) per virtual time, and ordering inside a time is
paid for once, when that time becomes the earliest:

- the **open** bucket holds the messages of the earliest pending time,
  ``min_time``, sorted descending so that the next message out is at
  its END (``pop`` is ``list.pop()``).  It is never empty while
  anything is pending; when the queue is empty ``min_time`` is ``None``;
- every later time has an **unsorted** bucket in ``_buckets`` and its
  time in the heap ``_times`` (exactly the keys of ``_buckets``).  When
  the open bucket runs out, :meth:`_advance` takes the smallest time
  off the heap, sorts that bucket once and opens it;
- an entry is the flat tuple ``(prio, src, n, dest, uid, msg)``: the
  message's ``sort_key`` less the bucket's time.  The uid makes the
  prefix unique, so comparisons never reach the message.  Entries are
  immutable and may be shared between queues; bucket lists never are.

A push therefore has three cases: to a later time it is a dict lookup
and an ``append`` (plus one ``heappush`` of an int when the time is
new); into the open time it is one insert where :func:`_below` bisects
that short list; before the open time it shelves the open bucket (still
sorted, so re-opening it costs one pass) and opens a new one.

Cancellation needs no uid index: an anti-message is a full copy of its
positive — time and key included — so :meth:`annihilate` bisects the
open bucket or scans the one bucket of ``msg.time``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from heapq import heapify, heappop, heappush

from repro.warped.messages import Message

#: One stored entry: the within-time order, then the message.
Entry = tuple[int, int, int, int, int, Message]


def make_entry(msg: Message) -> Entry:
    """The stored form of *msg* — what :meth:`NodeQueue.push` files
    under ``msg.time``."""
    return (msg.prio, msg.src, msg.n, msg.dest, msg.uid, msg)


def _below(bucket: list[Entry], probe: tuple) -> int:
    """Index of the first entry of the descending *bucket* below *probe*."""
    lo, hi = 0, len(bucket)
    while lo < hi:
        mid = (lo + hi) >> 1
        if bucket[mid] > probe:
            lo = mid + 1
        else:
            hi = mid
    return lo


def bucketed(messages: Iterable[Message]) -> dict[int, list[Entry]]:
    """Entries of *messages* grouped per virtual time — the shape
    :meth:`NodeQueue.load` takes."""
    buckets: dict[int, list[Entry]] = {}
    for msg in messages:
        bucket = buckets.get(msg.time)
        if bucket is None:
            bucket = buckets[msg.time] = []
        bucket.append(make_entry(msg))
    return buckets


class NodeQueue:
    """Pending :class:`Message` objects, one bucket per virtual time."""

    __slots__ = ("_buckets", "_times", "_open", "min_time")

    def __init__(self) -> None:
        #: time -> unsorted entries, for every pending time but the
        #: earliest.  Never rebound (the engines hold it in a local).
        self._buckets: dict[int, list[Entry]] = {}
        #: Heap of the keys of ``_buckets``.
        self._times: list[int] = []
        #: Entries of ``min_time``, descending, next message out last.
        self._open: list[Entry] = []
        #: Virtual time of the earliest pending message, or ``None``
        #: when empty. Read-only for callers.
        self.min_time: int | None = None

    def push(self, msg: Message) -> None:
        """Insert *msg*."""
        time = msg.time
        entry = make_entry(msg)
        bucket = self._buckets.get(time)
        if bucket is not None:
            bucket.append(entry)
            return
        min_time = self.min_time
        if time == min_time:
            self._open.insert(_below(self._open, entry), entry)
        elif min_time is None:
            self._open = [entry]
            self.min_time = time
        elif time > min_time:
            self._buckets[time] = [entry]
            heappush(self._times, time)
        else:
            self._buckets[min_time] = self._open
            heappush(self._times, min_time)
            self._open = [entry]
            self.min_time = time

    def load(self, buckets: Mapping[int, list[Entry]]) -> None:
        """Merge ready-made *buckets* (time -> a non-empty list of
        entries, :func:`bucketed`) into the queue.

        The queue keeps the lists it is handed — the caller must not
        use them again — and sorts only the one that ends up earliest.
        """
        own = self._buckets
        if self.min_time is not None:
            own[self.min_time] = self._open
        for time, entries in buckets.items():
            bucket = own.get(time)
            if bucket is None:
                own[time] = entries
            else:
                bucket.extend(entries)
        self._times = sorted(own)
        self._advance()

    def _advance(self) -> None:
        """Open the earliest shelved bucket (the open one is spent)."""
        if self._times:
            time = heappop(self._times)
            bucket = self._buckets.pop(time)
            bucket.sort(reverse=True)
            self._open = bucket
            self.min_time = time
        else:
            self._open = []
            self.min_time = None

    def pop(self) -> Message:
        """Remove and return the earliest pending message."""
        bucket = self._open
        if not bucket:
            raise IndexError("pop from empty NodeQueue")
        msg = bucket.pop()[5]
        if not bucket:
            self._advance()
        return msg

    def annihilate(self, msg: Message) -> bool:
        """Delete the pending copy of *msg* (a positive message or its
        anti-message); ``False``, and nothing changed, when no copy is
        pending."""
        time = msg.time
        if time == self.min_time:
            bucket = self._open
            # The entry's prefix sorts directly below the entry itself.
            at = _below(bucket, make_entry(msg)[:5]) - 1
            if at < 0 or bucket[at][4] != msg.uid:
                return False
            del bucket[at]
            if not bucket:
                self._advance()
            return True
        bucket = self._buckets.get(time)
        if bucket is None:
            return False
        uid = msg.uid
        for at, entry in enumerate(bucket):
            if entry[4] == uid:
                break
        else:
            return False
        del bucket[at]
        if not bucket:
            del self._buckets[time]
            self._times.remove(time)
            heapify(self._times)
        return True

    def count_through(self, time: float) -> int:
        """How many pending messages carry a virtual time <= *time*."""
        min_time = self.min_time
        if min_time is None or min_time > time:
            return 0
        return len(self._open) + sum(
            len(bucket) for t, bucket in self._buckets.items() if t <= time
        )

    def pending(self) -> list[Message]:
        """Every pending message, in the order :meth:`pop` would return
        them (the queue is not changed)."""
        messages = [entry[5] for entry in reversed(self._open)]
        buckets = self._buckets
        for time in sorted(buckets):
            messages.extend(entry[5] for entry in sorted(buckets[time]))
        return messages

    def extract_dests(self, dests: set[int]) -> list[Message]:
        """Remove and return all pending messages addressed to *dests*.

        Used by LP migration: the moved LP's queued work follows it to
        its new node.
        """
        moved: list[Message] = []
        buckets = self._buckets
        if self.min_time is not None:
            buckets[self.min_time] = self._open
        for time, bucket in list(buckets.items()):
            leaving = [e[5] for e in bucket if e[5].dest in dests]
            if not leaving:
                continue
            moved.extend(leaving)
            if len(leaving) == len(bucket):
                del buckets[time]
            else:
                bucket[:] = [e for e in bucket if e[5].dest not in dests]
        self._times = sorted(buckets)
        self._advance()
        return moved

    def __len__(self) -> int:
        return len(self._open) + sum(map(len, self._buckets.values()))

    def __bool__(self) -> bool:
        return self.min_time is not None
