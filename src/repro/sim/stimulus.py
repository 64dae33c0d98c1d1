"""Primary-input stimulus generation.

Both engines pull input vectors from a :class:`Stimulus` object keyed
by ``(gate, cycle)``, so the optimistic simulation applies bit-for-bit
the same workload as the sequential baseline regardless of execution
order. Vectors are pure functions of the seed — an LP can (re)compute
its stimulus after a rollback without coordination.
"""

from __future__ import annotations

import abc
import copy
from collections.abc import Mapping, Sequence

from repro.circuit.gate import FALSE, TRUE
from repro.circuit.graph import CircuitGraph
from repro.errors import SimulationError
from repro.utils.rng import derive_rng


class Stimulus(abc.ABC):
    """Produces the value each primary input takes at each clock cycle."""

    def __init__(self, circuit: CircuitGraph, num_cycles: int, period: int = 10):
        if num_cycles < 1:
            raise SimulationError("need at least one stimulus cycle")
        if period < 2:
            raise SimulationError("clock period must be >= 2 time units")
        self.circuit = circuit
        self.num_cycles = num_cycles
        self.period = period

    @abc.abstractmethod
    def value(self, gate: int, cycle: int) -> int:
        """Value driven onto primary input *gate* during *cycle*."""

    def cycle_time(self, cycle: int) -> int:
        """Virtual time at which *cycle*'s stimulus (and capture) occurs."""
        return cycle * self.period

    def detached(self) -> "Stimulus":
        """A copy without the circuit reference: the value table, cycle
        count and period only.  This is the form a job ships to a
        worker that already holds the circuit — pickled, it is the
        table, not the netlist — and :meth:`attach` completes it there.
        """
        clone = copy.copy(self)
        clone.circuit = None
        return clone

    def attach(self, circuit: CircuitGraph) -> "Stimulus":
        """Bind a :meth:`detached` stimulus to the receiver's copy of
        the circuit it was built on; returns ``self``."""
        self.circuit = circuit
        return self


class RandomStimulus(Stimulus):
    """Random vectors with a configurable per-input toggle activity.

    Each input holds its previous value with probability ``1 -
    activity`` — realistic benches toggle a fraction of the inputs per
    cycle, which controls simulation workload. The value for ``(gate,
    cycle)`` is computed from a counter-mode RNG stream per gate, so
    lookups are random access (no sequential draw dependency).
    """

    def __init__(
        self,
        circuit: CircuitGraph,
        num_cycles: int,
        *,
        period: int = 10,
        activity: float = 0.5,
        seed: int | None = None,
    ) -> None:
        super().__init__(circuit, num_cycles, period)
        if not 0.0 < activity <= 1.0:
            raise SimulationError("activity must be in (0, 1]")
        self.activity = activity
        self.seed = seed
        self._table: dict[int, Sequence[int]] = {}
        for pi in circuit.primary_inputs:
            rng = derive_rng(seed, "stimulus", circuit.name, pi)
            # The initial value is drawn FIRST so the stream is
            # prefix-stable: a longer run replays the shorter run's
            # vectors exactly and then continues (fault-coverage and
            # convergence studies rely on this monotonicity).
            current = FALSE if rng.random() < 0.5 else TRUE
            toggles = rng.random(num_cycles) < activity
            values = []
            for cycle in range(num_cycles):
                if toggles[cycle]:
                    current = TRUE - current
                values.append(current)
            self._table[pi] = values

    def value(self, gate: int, cycle: int) -> int:
        try:
            return self._table[gate][cycle]
        except (KeyError, IndexError):
            raise SimulationError(
                f"no stimulus for gate {gate} at cycle {cycle}"
            ) from None


class VectorStimulus(Stimulus):
    """Explicit test vectors: ``vectors[cycle][input-name] -> 0/1``.

    Inputs missing from a cycle's mapping hold their previous value
    (missing at cycle 0 defaults to 0).
    """

    def __init__(
        self,
        circuit: CircuitGraph,
        vectors: Sequence[Mapping[str, int]],
        *,
        period: int = 10,
    ) -> None:
        super().__init__(circuit, len(vectors), period)
        self._table: dict[int, list[int]] = {}
        for pi in circuit.primary_inputs:
            name = circuit.gates[pi].name
            values: list[int] = []
            current = FALSE
            for cycle, mapping in enumerate(vectors):
                if name in mapping:
                    current = int(mapping[name])
                    if current not in (FALSE, TRUE):
                        raise SimulationError(
                            f"vector {cycle} drives {name!r} to {current}"
                        )
                values.append(current)
            self._table[pi] = values

    def value(self, gate: int, cycle: int) -> int:
        try:
            return self._table[gate][cycle]
        except (KeyError, IndexError):
            raise SimulationError(
                f"no stimulus for gate {gate} at cycle {cycle}"
            ) from None
