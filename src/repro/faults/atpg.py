"""Random test-pattern generation with fault dropping.

The simplest effective ATPG loop: propose random vector batches,
fault-simulate only the still-undetected faults (fault dropping), keep
batches that detect something new, and stop when the target coverage is
reached or the budget runs out. The returned vector set is then
compacted by a reverse greedy pass (drop any batch whose removal does
not lower coverage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.graph import CircuitGraph
from repro.errors import SimulationError
from repro.faults.model import Fault, FaultUniverse
from repro.faults.simulate import FaultSimulator
from repro.sim.stimulus import RandomStimulus, VectorStimulus
from repro.utils.rng import derive_rng

#: Clock cycles per random vector batch, the unit compaction keeps or
#: drops.
BATCH_CYCLES = 8


@dataclass
class AtpgResult:
    """Outcome of a test-generation run."""

    circuit_name: str
    vectors: list[dict[str, int]]
    detected: list[Fault] = field(default_factory=list)
    undetected: list[Fault] = field(default_factory=list)
    batches_tried: int = 0

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.circuit_name}: {len(self.vectors)} vectors reach "
            f"{self.coverage:.1%} coverage "
            f"({len(self.undetected)} faults escaped, "
            f"{self.batches_tried} batches tried)"
        )


def _vectors_of(circuit: CircuitGraph, stimulus: RandomStimulus) -> list[dict]:
    names = [circuit.gates[pi].name for pi in circuit.primary_inputs]
    return [
        {
            name: stimulus.value(circuit.index_of(name), cycle)
            for name in names
        }
        for cycle in range(stimulus.num_cycles)
    ]


def _detected_by(
    circuit: CircuitGraph,
    vectors: list[dict],
    faults: list[Fault],
    period: int,
) -> list[Fault]:
    if not vectors or not faults:
        return []
    stimulus = VectorStimulus(circuit, vectors, period=period)
    simulator = FaultSimulator(circuit, stimulus)
    coverage = simulator.run(FaultUniverse(circuit, list(faults)))
    return coverage.detected


def generate_tests(
    circuit: CircuitGraph,
    universe: FaultUniverse,
    *,
    target_coverage: float = 0.95,
    max_batches: int = 24,
    period: int = 50,
    seed: int | None = None,
    compact: bool = True,
) -> AtpgResult:
    """Generate a vector set for *universe* by random search + dropping."""
    if universe.circuit is not circuit:
        raise SimulationError("fault universe is for a different circuit")
    if not 0.0 < target_coverage <= 1.0:
        raise SimulationError("target_coverage must be in (0, 1]")
    rng = derive_rng(seed, "atpg", circuit.name)

    remaining: list[Fault] = list(universe)
    total = len(remaining)
    detected: list[Fault] = []
    batches: list[list[dict]] = []
    tried = 0

    while remaining and tried < max_batches:
        if total and len(detected) / total >= target_coverage:
            break
        tried += 1
        stimulus = RandomStimulus(
            circuit,
            num_cycles=BATCH_CYCLES,
            period=period,
            activity=float(rng.uniform(0.3, 0.9)),
            seed=int(rng.integers(0, 2**31)),
        )
        vectors = _vectors_of(circuit, stimulus)
        newly = _detected_by(circuit, vectors, remaining, period)
        if newly:
            batches.append(vectors)
            detected.extend(newly)
            newly_set = set(newly)
            remaining = [f for f in remaining if f not in newly_set]

    if compact and len(batches) > 1:
        # Reverse greedy: drop batches whose removal keeps coverage.
        essential = list(batches)
        for index in range(len(batches) - 1, -1, -1):
            candidate = essential[:index] + essential[index + 1 :]
            flat = [v for batch in candidate for v in batch]
            covered = _detected_by(circuit, flat, detected, period)
            if len(covered) == len(detected):
                essential = candidate
        batches = essential

    flat = [vector for batch in batches for vector in batch]
    return AtpgResult(
        circuit_name=circuit.name,
        vectors=flat,
        detected=detected,
        undetected=remaining,
        batches_tried=tried,
    )
