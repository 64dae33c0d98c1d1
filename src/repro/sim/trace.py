"""Waveform capture for selected gates."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from repro.circuit.graph import CircuitGraph


class Trace:
    """Records ``(time, value)`` output changes for watched gates."""

    def __init__(self, circuit: CircuitGraph, watch: Iterable[int] | None = None):
        self.circuit = circuit
        #: Watched gate indices; ``None`` means watch everything.
        self.watch: set[int] | None = set(watch) if watch is not None else None
        self._changes: dict[int, list[tuple[int, int]]] = defaultdict(list)

    def record(self, time: int, gate: int, value: int) -> None:
        """Log an output change (call only for watched gates)."""
        if self.watch is None or gate in self.watch:
            self._changes[gate].append((time, value))

    def changes(self, gate: int) -> list[tuple[int, int]]:
        """All recorded ``(time, value)`` changes of *gate*."""
        return list(self._changes[gate])

    def __len__(self) -> int:
        return sum(len(ch) for ch in self._changes.values())
