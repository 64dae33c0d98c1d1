"""Abstract partitioner interface."""

from __future__ import annotations

import abc
import time

from repro.circuit.graph import CircuitGraph
from repro.errors import PartitionError
from repro.partition.assignment import PartitionAssignment
from repro.utils.rng import RngLike


class Partitioner(abc.ABC):
    """Base class for all static circuit partitioners.

    Subclasses set :attr:`name` to the label used in the paper's figures
    and implement :meth:`_partition`. The public :meth:`partition`
    validates inputs and the result, so algorithm implementations can
    focus on the assignment itself.
    """

    #: Display name; matches the legend labels in the paper's figures.
    name: str = "abstract"

    def __init__(self, seed: RngLike = None) -> None:
        self.seed = seed
        #: Wall-clock seconds spent in the last :meth:`partition` call.
        self.last_runtime: float = 0.0

    @abc.abstractmethod
    def _partition(self, circuit: CircuitGraph, k: int) -> PartitionAssignment:
        """Produce a k-way assignment (invariants checked by the caller)."""

    def partition(self, circuit: CircuitGraph, k: int) -> PartitionAssignment:
        """Partition *circuit* into *k* parts; validates the result."""
        if not circuit.frozen:
            raise PartitionError("circuit must be frozen before partitioning")
        if k < 1:
            raise PartitionError(f"k must be >= 1, got {k}")
        if k > circuit.num_gates:
            raise PartitionError(
                f"cannot split {circuit.num_gates} gates into {k} partitions"
            )
        start = time.perf_counter()
        result = self._partition(circuit, k)
        self.last_runtime = time.perf_counter() - start
        result.algorithm = self.name
        result.validate()
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(seed={self.seed!r})"


def fill_empty_partitions(assignment: list[int], k: int) -> None:
    """Repair *assignment* in place so every partition id 0..k-1 is used.

    Moves single gates out of the largest partitions. Degenerate inputs
    (k close to the gate count with chunky capacity rounding) are the
    only way partitioners reach this; the repair is O(n·empties).
    """
    counts = [0] * k
    for part in assignment:
        counts[part] += 1
    for dest in range(k):
        while counts[dest] == 0:
            donor = max(range(k), key=counts.__getitem__)
            if counts[donor] <= 1:
                raise PartitionError("not enough gates to populate partitions")
            mover = next(i for i, p in enumerate(assignment) if p == donor)
            assignment[mover] = dest
            counts[donor] -= 1
            counts[dest] += 1


#: Load headroom of the single-pass partitioners (Topological,
#: ConePartition, Corolla, CPP, Annealing) over the even share: room to
#: keep a level or cone together without letting one node run long.
BALANCE_SLACK = 0.10


def balanced_capacity(num_gates: int, k: int) -> int:
    """Maximum partition size for a balanced k-way split: the even
    share plus :data:`BALANCE_SLACK`, rounded up; partitioners use this
    as their feasibility bound."""
    if k < 1:
        raise PartitionError("k must be >= 1")
    even = -(-num_gates // k)  # ceil division
    return max(1, int(even * (1.0 + BALANCE_SLACK)) + 1)
