"""The circuit graph: vertices are gates, edges are signals.

This is the directed graph ``G = (V, E)`` of Section 3 of the paper. The
representation is index-based (gates are dense integers ``0..n-1``) with
adjacency stored as Python lists — the partitioners and both simulators
iterate fanin/fanout constantly, and list-of-list adjacency benchmarks
faster than a graph library's views for these access patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.circuit.gate import GateType
from repro.errors import CircuitError


@dataclass
class Gate:
    """One vertex of the circuit graph.

    ``fanin`` is ordered (inputs of asymmetric gates keep their position);
    ``fanout`` order is insertion order. ``delay`` is the gate's inertial
    propagation delay in integer time units.
    """

    index: int
    name: str
    gate_type: GateType
    fanin: list[int] = field(default_factory=list)
    fanout: list[int] = field(default_factory=list)
    delay: int = 1
    is_output: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Gate({self.index}, {self.name!r}, {self.gate_type.value}, "
            f"fanin={self.fanin}, fanout={self.fanout})"
        )


class CircuitGraph:
    """A gate-level netlist as a directed graph.

    Construction is incremental (:meth:`add_gate` + :meth:`connect`) and
    finished with :meth:`freeze`, after which the structure is immutable
    and derived indexes (primary inputs/outputs, DFF list) are cached.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.gates: list[Gate] = []
        self._by_name: dict[str, int] = {}
        self._frozen = False
        self._primary_inputs: list[int] = []
        self._primary_outputs: list[int] = []
        self._dffs: list[int] = []
        self._num_edges = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_gate(
        self,
        name: str,
        gate_type: GateType,
        *,
        delay: int = 1,
        is_output: bool = False,
    ) -> int:
        """Add a gate and return its index."""
        self._check_mutable()
        if name in self._by_name:
            raise CircuitError(f"duplicate gate name {name!r}")
        if delay < 0:
            raise CircuitError(f"gate {name!r}: negative delay {delay}")
        index = len(self.gates)
        self.gates.append(
            Gate(index, name, gate_type, delay=delay, is_output=is_output)
        )
        self._by_name[name] = index
        return index

    def connect(self, driver: int, sink: int) -> None:
        """Add the signal edge ``driver -> sink``.

        Parallel edges are legal (a gate may feed two inputs of the same
        sink, e.g. ``XOR(a, a)`` after optimisation); self-loops are not —
        ISCAS'89 feedback always goes through a DFF, and a combinational
        self-loop would make the netlist unsimulatable.
        """
        self._check_mutable()
        self._check_index(driver)
        self._check_index(sink)
        if driver == sink:
            raise CircuitError(
                f"self-loop on gate {self.gates[driver].name!r} is not allowed"
            )
        if self.gates[sink].gate_type is GateType.INPUT:
            raise CircuitError(
                f"primary input {self.gates[sink].name!r} cannot have fanin"
            )
        self.gates[driver].fanout.append(sink)
        self.gates[sink].fanin.append(driver)
        self._num_edges += 1

    def mark_output(self, index: int) -> None:
        """Flag a gate as a primary output."""
        self._check_mutable()
        self._check_index(index)
        self.gates[index].is_output = True

    def freeze(self) -> "CircuitGraph":
        """Validate arities, cache derived indexes, and lock the graph."""
        if self._frozen:
            return self
        for gate in self.gates:
            lo = gate.gate_type.min_fanin
            hi = gate.gate_type.max_fanin
            n = len(gate.fanin)
            if n < lo or (hi is not None and n > hi):
                raise CircuitError(
                    f"gate {gate.name!r} ({gate.gate_type.value}) has {n} "
                    f"inputs, legal range is {lo}..{hi if hi is not None else 'inf'}"
                )
        self._primary_inputs = [
            g.index for g in self.gates if g.gate_type is GateType.INPUT
        ]
        self._primary_outputs = [g.index for g in self.gates if g.is_output]
        self._dffs = [g.index for g in self.gates if g.gate_type is GateType.DFF]
        self._frozen = True
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def primary_inputs(self) -> list[int]:
        """Indices of primary-input vertices (requires :meth:`freeze`)."""
        self._check_frozen()
        return self._primary_inputs

    @property
    def primary_outputs(self) -> list[int]:
        self._check_frozen()
        return self._primary_outputs

    @property
    def dffs(self) -> list[int]:
        """Indices of flip-flop vertices."""
        self._check_frozen()
        return self._dffs

    def index_of(self, name: str) -> int:
        """Gate index for *name* (raises :class:`CircuitError` if absent)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CircuitError(f"no gate named {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def fanin(self, index: int) -> list[int]:
        """Ordered driver indices of gate *index*."""
        return self.gates[index].fanin

    def fanout(self, index: int) -> list[int]:
        """Sink indices of gate *index*."""
        return self.gates[index].fanout

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield every signal edge as ``(driver, sink)``."""
        for gate in self.gates:
            for sink in gate.fanout:
                yield gate.index, sink

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def copy(self) -> "CircuitGraph":
        """Deep copy (unfrozen copies stay unfrozen)."""
        dup = CircuitGraph(self.name)
        for gate in self.gates:
            dup.add_gate(
                gate.name, gate.gate_type, delay=gate.delay, is_output=gate.is_output
            )
        for u, v in self.edges():
            dup.connect(u, v)
        if self._frozen:
            dup.freeze()
        return dup

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._frozen:
            raise CircuitError("circuit is frozen; copy() it to modify")

    def _check_frozen(self) -> None:
        if not self._frozen:
            raise CircuitError("call freeze() before structural queries")

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.gates):
            raise CircuitError(f"gate index {index} out of range")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitGraph({self.name!r}, gates={self.num_gates}, "
            f"edges={self.num_edges}, frozen={self._frozen})"
        )

