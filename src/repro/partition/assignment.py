"""Partition assignments: gate -> partition mapping with invariants."""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuit.graph import CircuitGraph
from repro.errors import PartitionError


class PartitionAssignment:
    """A complete ``k``-way assignment of gates to partitions.

    Invariants (enforced by :meth:`validate`): every gate of the circuit
    is assigned to exactly one partition in ``0..k-1``, and no partition
    is empty when ``k <= num_gates``.
    """

    def __init__(
        self,
        circuit: CircuitGraph,
        k: int,
        assignment: Sequence[int],
        *,
        algorithm: str = "unknown",
    ) -> None:
        if k < 1:
            raise PartitionError(f"k must be >= 1, got {k}")
        if len(assignment) != circuit.num_gates:
            raise PartitionError(
                f"assignment covers {len(assignment)} gates, "
                f"circuit has {circuit.num_gates}"
            )
        self.circuit = circuit
        self.k = k
        self.assignment = list(assignment)
        self.algorithm = algorithm

    # ------------------------------------------------------------------
    def __getitem__(self, gate: int) -> int:
        return self.assignment[gate]

    def __len__(self) -> int:
        return len(self.assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionAssignment):
            return NotImplemented
        return self.k == other.k and self.assignment == other.assignment

    def parts(self) -> list[list[int]]:
        """Gate indices grouped by partition."""
        blocks: list[list[int]] = [[] for _ in range(self.k)]
        for gate, part in enumerate(self.assignment):
            blocks[part].append(gate)
        return blocks

    def sizes(self) -> list[int]:
        """Number of gates in each partition."""
        counts = [0] * self.k
        for part in self.assignment:
            counts[part] += 1
        return counts

    def validate(self) -> None:
        """Raise :class:`PartitionError` if any invariant is violated."""
        for gate, part in enumerate(self.assignment):
            if not 0 <= part < self.k:
                raise PartitionError(
                    f"gate {self.circuit.gates[gate].name!r} assigned to "
                    f"partition {part}, legal range 0..{self.k - 1}"
                )
        if self.k <= self.circuit.num_gates:
            sizes = self.sizes()
            for part, size in enumerate(sizes):
                if size == 0:
                    raise PartitionError(f"partition {part} is empty")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionAssignment(k={self.k}, algorithm={self.algorithm!r}, "
            f"sizes={self.sizes()})"
        )
