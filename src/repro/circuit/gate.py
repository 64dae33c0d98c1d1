"""Gate types and three-valued logic evaluation.

Signals carry one of three values: ``FALSE`` (0), ``TRUE`` (1) or
``UNKNOWN`` (X, encoded 2). X models uninitialised state; evaluation
follows the usual ternary Kleene semantics (e.g. ``AND(0, X) = 0`` but
``AND(1, X) = X``), matching VHDL std_logic resolution for the 0/1/X
subset the simulator needs.
"""

from __future__ import annotations

from enum import Enum
from collections.abc import Callable, Sequence

FALSE = 0
TRUE = 1
UNKNOWN = 2


class GateType(Enum):
    """Kinds of vertices in the circuit graph.

    ``INPUT`` vertices are the primary inputs the coarsening phase grows
    from; ``DFF`` vertices are edge-triggered flip-flops, the only
    sequential element ISCAS'89 circuits use.
    """

    INPUT = "INPUT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    DFF = "DFF"

    @property
    def is_sequential(self) -> bool:
        """True for state-holding elements (flip-flops)."""
        return self is GateType.DFF

    @property
    def is_source(self) -> bool:
        """True for vertices with no circuit-graph fanin."""
        return self is GateType.INPUT

    @property
    def min_fanin(self) -> int:
        """Smallest legal number of inputs for this gate type."""
        return _MIN_FANIN[self]

    @property
    def max_fanin(self) -> int | None:
        """Largest legal number of inputs, or ``None`` if unbounded."""
        return _MAX_FANIN[self]


_MIN_FANIN = {
    GateType.INPUT: 0,
    GateType.AND: 2,
    GateType.NAND: 2,
    GateType.OR: 2,
    GateType.NOR: 2,
    GateType.XOR: 2,
    GateType.XNOR: 2,
    GateType.NOT: 1,
    GateType.BUF: 1,
    GateType.DFF: 1,
}

_MAX_FANIN: dict[GateType, int | None] = {
    GateType.INPUT: 0,
    GateType.AND: None,
    GateType.NAND: None,
    GateType.OR: None,
    GateType.NOR: None,
    GateType.XOR: None,
    GateType.XNOR: None,
    GateType.NOT: 1,
    GateType.BUF: 1,
    GateType.DFF: 1,
}


def logic_not(value: int) -> int:
    """Ternary NOT."""
    if value == UNKNOWN:
        return UNKNOWN
    return TRUE - value


def _and_all(values: Sequence[int]) -> int:
    saw_x = False
    for v in values:
        if v == FALSE:
            return FALSE
        if v == UNKNOWN:
            saw_x = True
    return UNKNOWN if saw_x else TRUE


def _or_all(values: Sequence[int]) -> int:
    saw_x = False
    for v in values:
        if v == TRUE:
            return TRUE
        if v == UNKNOWN:
            saw_x = True
    return UNKNOWN if saw_x else FALSE


def _xor_all(values: Sequence[int]) -> int:
    acc = FALSE
    for v in values:
        if v == UNKNOWN:
            return UNKNOWN
        acc ^= v
    return acc


def evaluate_gate(gate_type: GateType, inputs: Sequence[int]) -> int:
    """Evaluate a combinational gate over ternary *inputs*.

    ``DFF`` is handled here as a transparent BUF of its data input — the
    *clocked* behaviour (capture on clock edge) is owned by the
    simulators, which call this only at capture time. ``INPUT`` vertices
    have no inputs and cannot be evaluated.
    """
    if gate_type is GateType.INPUT:
        raise ValueError("primary inputs are driven by stimulus, not evaluated")
    n = len(inputs)
    lo = gate_type.min_fanin
    hi = gate_type.max_fanin
    if n < lo or (hi is not None and n > hi):
        arity = str(lo) if hi == lo else f"{lo}..{hi if hi is not None else 'inf'}"
        raise ValueError(f"{gate_type.value} gate takes {arity} inputs, got {n}")
    if gate_type is GateType.AND:
        return _and_all(inputs)
    if gate_type is GateType.NAND:
        return logic_not(_and_all(inputs))
    if gate_type is GateType.OR:
        return _or_all(inputs)
    if gate_type is GateType.NOR:
        return logic_not(_or_all(inputs))
    if gate_type is GateType.XOR:
        return _xor_all(inputs)
    if gate_type is GateType.XNOR:
        return logic_not(_xor_all(inputs))
    if gate_type is GateType.NOT:
        return logic_not(inputs[0])
    # BUF and (transparent) DFF
    return inputs[0]


def _nand_all(values: Sequence[int]) -> int:
    # Flattened NOT(AND(...)): one frame instead of three on a path the
    # simulators hit per evaluated event.
    saw_x = False
    for v in values:
        if v == FALSE:
            return TRUE
        if v == UNKNOWN:
            saw_x = True
    return UNKNOWN if saw_x else FALSE


def _nor_all(values: Sequence[int]) -> int:
    saw_x = False
    for v in values:
        if v == TRUE:
            return FALSE
        if v == UNKNOWN:
            saw_x = True
    return UNKNOWN if saw_x else TRUE


def _xnor_all(values: Sequence[int]) -> int:
    acc = FALSE
    for v in values:
        if v == UNKNOWN:
            return UNKNOWN
        acc ^= v
    return TRUE - acc


def _first(values: Sequence[int]) -> int:
    return values[0]


def _not_first(values: Sequence[int]) -> int:
    return logic_not(values[0])


#: Validation-free evaluators, one per combinational gate type. The
#: simulators run millions of evaluations over circuits whose arity was
#: checked once at freeze time; this dispatch skips ``evaluate_gate``'s
#: per-call arity checks and enum property lookups. Callers must not
#: pass INPUT and must pass a fanin-ordered value sequence (which the
#: evaluator never mutates).
EVAL_FUNCS: dict[GateType, "Callable[[Sequence[int]], int]"] = {
    GateType.AND: _and_all,
    GateType.NAND: _nand_all,
    GateType.OR: _or_all,
    GateType.NOR: _nor_all,
    GateType.XOR: _xor_all,
    GateType.XNOR: _xnor_all,
    GateType.NOT: _not_first,
    GateType.BUF: _first,
    GateType.DFF: _first,
}


def _and2(values: Sequence[int]) -> int:
    a = values[0]
    b = values[1]
    if a == FALSE or b == FALSE:
        return FALSE
    if a == UNKNOWN or b == UNKNOWN:
        return UNKNOWN
    return TRUE


def _nand2(values: Sequence[int]) -> int:
    a = values[0]
    b = values[1]
    if a == FALSE or b == FALSE:
        return TRUE
    if a == UNKNOWN or b == UNKNOWN:
        return UNKNOWN
    return FALSE


def _or2(values: Sequence[int]) -> int:
    a = values[0]
    b = values[1]
    if a == TRUE or b == TRUE:
        return TRUE
    if a == UNKNOWN or b == UNKNOWN:
        return UNKNOWN
    return FALSE


def _nor2(values: Sequence[int]) -> int:
    a = values[0]
    b = values[1]
    if a == TRUE or b == TRUE:
        return FALSE
    if a == UNKNOWN or b == UNKNOWN:
        return UNKNOWN
    return TRUE


def _xor2(values: Sequence[int]) -> int:
    a = values[0]
    b = values[1]
    if a == UNKNOWN or b == UNKNOWN:
        return UNKNOWN
    return a ^ b


def _xnor2(values: Sequence[int]) -> int:
    a = values[0]
    b = values[1]
    if a == UNKNOWN or b == UNKNOWN:
        return UNKNOWN
    return TRUE - (a ^ b)


def _and3(values: Sequence[int]) -> int:
    a = values[0]
    b = values[1]
    c = values[2]
    if a == FALSE or b == FALSE or c == FALSE:
        return FALSE
    if a == UNKNOWN or b == UNKNOWN or c == UNKNOWN:
        return UNKNOWN
    return TRUE


def _nand3(values: Sequence[int]) -> int:
    a = values[0]
    b = values[1]
    c = values[2]
    if a == FALSE or b == FALSE or c == FALSE:
        return TRUE
    if a == UNKNOWN or b == UNKNOWN or c == UNKNOWN:
        return UNKNOWN
    return FALSE


def _or3(values: Sequence[int]) -> int:
    a = values[0]
    b = values[1]
    c = values[2]
    if a == TRUE or b == TRUE or c == TRUE:
        return TRUE
    if a == UNKNOWN or b == UNKNOWN or c == UNKNOWN:
        return UNKNOWN
    return FALSE


def _nor3(values: Sequence[int]) -> int:
    a = values[0]
    b = values[1]
    c = values[2]
    if a == TRUE or b == TRUE or c == TRUE:
        return FALSE
    if a == UNKNOWN or b == UNKNOWN or c == UNKNOWN:
        return UNKNOWN
    return TRUE


#: Straight-line fixed-arity specialisations of :data:`EVAL_FUNCS`,
#: keyed by (gate type, fanin arity). Two- and three-input gates
#: dominate ISCAS'89 netlists; the generic loops above pay per-call
#: iterator setup that a fixed-arity body avoids. Same ternary truth
#: tables, bit for bit.
EVAL_FUNCS_BY_ARITY: dict[tuple[GateType, int], "Callable[[Sequence[int]], int]"] = {
    (GateType.AND, 2): _and2,
    (GateType.NAND, 2): _nand2,
    (GateType.OR, 2): _or2,
    (GateType.NOR, 2): _nor2,
    (GateType.XOR, 2): _xor2,
    (GateType.XNOR, 2): _xnor2,
    (GateType.AND, 3): _and3,
    (GateType.NAND, 3): _nand3,
    (GateType.OR, 3): _or3,
    (GateType.NOR, 3): _nor3,
}


def eval_func(gate_type: GateType, arity: int) -> "Callable[[Sequence[int]], int] | None":
    """Fastest evaluator for *gate_type* at *arity* (``None`` for INPUT)."""
    f = EVAL_FUNCS_BY_ARITY.get((gate_type, arity))
    return f if f is not None else EVAL_FUNCS.get(gate_type)
