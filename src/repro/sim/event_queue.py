"""A binary-heap event queue ordered by the shared event key."""

from __future__ import annotations

import heapq

from repro.sim.event import Event


class EventQueue:
    """Min-heap of :class:`Event` ordered by ``(time, prio, src, n)``.

    Supports lazy deletion by key (annihilation of a scheduled event);
    the sequential kernel never deletes. ``remove`` is strict: deleting
    a key that was never pushed, is already dead, or was already popped
    raises ``KeyError`` — silently accepting it would let the live count
    drift negative and ``__len__``/``__bool__`` disagree.
    (``NodeQueue.annihilate`` answers the same question with ``False``:
    there a missing copy is an ordinary outcome, the caller's cue to
    look in the LP's history instead.)
    """

    def __init__(self) -> None:
        self._heap: list[tuple[tuple[int, int, int, int], Event]] = []
        self._dead: set[tuple[int, int, int, int]] = set()
        self._live_keys: set[tuple[int, int, int, int]] = set()

    def push(self, event: Event) -> None:
        """Insert *event* (reviving its key if it was lazily deleted)."""
        key = event.key
        if key in self._dead:
            # The annihilated copy is still sitting in the heap (lazy
            # deletion). Purge it now: merely clearing the dead mark
            # would leave two entries live under one key, and pop could
            # hand back the stale corpse instead of this fresh emission.
            self._dead.discard(key)
            self._heap = [entry for entry in self._heap if entry[0] != key]
            heapq.heapify(self._heap)
        heapq.heappush(self._heap, (key, event))
        self._live_keys.add(key)

    def pop(self) -> Event:
        """Remove and return the earliest live event."""
        while self._heap:
            key, event = heapq.heappop(self._heap)
            if key in self._dead:
                self._dead.discard(key)
                continue
            self._live_keys.discard(key)
            return event
        raise IndexError("pop from empty EventQueue")

    def remove(self, key: tuple[int, int, int, int]) -> None:
        """Lazily delete the (unique) live event with *key*.

        Raises :class:`KeyError` if no live event has that key.
        """
        if key not in self._live_keys:
            raise KeyError(f"event key {key} is not pending")
        self._live_keys.discard(key)
        self._dead.add(key)

    def peek_key(self) -> tuple[int, int, int, int] | None:
        """Key of the next live event, or ``None`` when empty."""
        while self._heap:
            key, _ = self._heap[0]
            if key in self._dead:
                heapq.heappop(self._heap)
                self._dead.discard(key)
                continue
            return key
        return None

    def __len__(self) -> int:
        return len(self._live_keys)

    def __bool__(self) -> bool:
        return bool(self._live_keys)
