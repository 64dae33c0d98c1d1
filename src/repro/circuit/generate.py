"""Parametric synthetic sequential-circuit generator.

The ISCAS'89 netlists themselves are not redistributable in this
offline environment, so the benchmarks are stood in for by synthetic
circuits that reproduce the *structural statistics* the partitioning
study depends on: gate/PI/PO/DFF counts, a layered combinational DAG
with locality-biased wiring (long chains and fanout cones, as real
netlists have), skewed fanout with a few high-fanout control nets, and
sequential feedback through the flip-flops. Real ``.bench`` files load
through :mod:`repro.circuit.bench_parser` and drop in unchanged.

Generation is deterministic in the spec's seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.circuit.gate import GateType
from repro.circuit.graph import CircuitGraph
from repro.errors import ConfigError
from repro.utils.rng import derive_rng

#: Combinational gate types chosen for 2+-input gates, with weights that
#: roughly match ISCAS'89 type frequencies (NAND/AND heavy).
_WIDE_TYPES = (
    (GateType.NAND, 0.30),
    (GateType.AND, 0.25),
    (GateType.NOR, 0.15),
    (GateType.OR, 0.15),
    (GateType.XOR, 0.10),
    (GateType.XNOR, 0.05),
)
_UNARY_TYPES = ((GateType.NOT, 0.7), (GateType.BUF, 0.3))
#: Fanin counts of a wide gate, drawn uniformly: biased to 2 (ISCAS
#: gates are mostly 2-input), up to 4.
_WIDE_FANINS = (2, 2, 2, 3, 3, 4)

#: Per-type inertial delays for the "typed" delay model, loosely scaled
#: like a standard-cell library (XOR trees are slow, inverters fast).
TYPED_DELAYS = {
    GateType.NOT: 1,
    GateType.BUF: 1,
    GateType.NAND: 2,
    GateType.NOR: 2,
    GateType.AND: 2,
    GateType.OR: 2,
    GateType.XOR: 3,
    GateType.XNOR: 3,
    GateType.DFF: 2,
    GateType.INPUT: 1,
}


def _gate_delay(spec: "GeneratorSpec", gate_type: GateType, rng) -> int:
    if spec.delay_model == "typed":
        return TYPED_DELAYS[gate_type]
    if spec.delay_model == "random":
        return int(rng.integers(1, 4))
    return 1


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one synthetic circuit.

    ``num_gates`` counts logic elements (combinational gates + DFFs),
    excluding the primary-input vertices — the convention of the paper's
    Table 1. ``depth`` is the target combinational depth (levels).
    """

    name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    num_dffs: int
    depth: int = 24
    unary_fraction: float = 0.25
    locality: float = 0.90
    hub_fraction: float = 0.004
    seed: int = 2000
    #: Gate-delay assignment: "unit" (all 1), "typed" (per gate type —
    #: XOR/XNOR slowest, inverters fastest, as in standard-cell
    #: libraries), or "random" (uniform 1..3).
    delay_model: str = "unit"

    def __post_init__(self) -> None:
        if self.num_inputs < 1:
            raise ConfigError("need at least one primary input")
        if self.num_outputs < 1:
            raise ConfigError("need at least one primary output")
        if self.num_dffs < 0 or self.num_dffs >= self.num_gates:
            raise ConfigError("num_dffs must be in [0, num_gates)")
        if self.num_gates < self.num_outputs:
            raise ConfigError("need at least num_outputs logic gates")
        if self.depth < 2:
            raise ConfigError("depth must be >= 2")
        if not 0.0 <= self.locality <= 1.0:
            raise ConfigError("locality must be in [0, 1]")
        if self.delay_model not in ("unit", "typed", "random"):
            raise ConfigError(
                f"delay_model must be unit/typed/random, got {self.delay_model!r}"
            )

    def scaled(self, scale: float, name: str | None = None) -> "GeneratorSpec":
        """A proportionally smaller (or larger) spec.

        Used by the benchmark harness to run faithfully-structured scaled
        workloads by default (see DESIGN.md §5). Counts never drop below
        the minima required for a well-formed circuit.
        """
        if scale <= 0:
            raise ConfigError("scale must be positive")

        def s(value: int, minimum: int) -> int:
            return max(minimum, round(value * scale))

        gates = s(self.num_gates, 8)
        dffs = min(s(self.num_dffs, 1 if self.num_dffs else 0), gates - 4)
        return GeneratorSpec(
            name=name or f"{self.name}@{scale:g}",
            num_inputs=s(self.num_inputs, 2),
            num_outputs=min(s(self.num_outputs, 1), gates),
            num_gates=gates,
            num_dffs=dffs,
            depth=max(3, round(self.depth * min(1.0, scale**0.5))),
            unary_fraction=self.unary_fraction,
            locality=self.locality,
            hub_fraction=self.hub_fraction,
            seed=self.seed,
            delay_model=self.delay_model,
        )


def generate_circuit(spec: GeneratorSpec) -> CircuitGraph:
    """Build a frozen :class:`CircuitGraph` from *spec*."""
    rng = derive_rng(spec.seed, "generate", spec.name)
    circuit = CircuitGraph(spec.name)

    pis = [circuit.add_gate(f"I{i}", GateType.INPUT) for i in range(spec.num_inputs)]
    n_comb = spec.num_gates - spec.num_dffs

    # --- DFFs are declared first so they can serve as level-0 sources for
    # the combinational fabric; their data inputs are wired at the end
    # (feedback from deep levels).
    dffs = [
        circuit.add_gate(
            f"FF{i}", GateType.DFF, delay=_gate_delay(spec, GateType.DFF, rng)
        )
        for i in range(spec.num_dffs)
    ]

    # --- Distribute the combinational gates over levels 1..depth with a
    # bulge in the early-middle levels (ISCAS-like: wide decode fabric,
    # narrowing toward the outputs).
    depth = min(spec.depth, max(2, n_comb // 2))
    weights = np.array(
        [1.0 + 2.0 * np.exp(-(((lvl - depth / 3.0) / (depth / 2.5)) ** 2))
         for lvl in range(1, depth + 1)]
    )
    counts = _apportion(n_comb, weights)
    # Every level needs at least one gate; steal from the largest levels.
    for lvl in range(depth):
        while counts[lvl] == 0:
            donor = int(np.argmax(counts))
            counts[donor] -= 1
            counts[lvl] += 1

    level_pool: list[list[int]] = [list(pis) + list(dffs)]  # level-0 sources
    # A small set of "hub" drivers (control nets) that any level may tap,
    # giving the skewed fanout distribution real netlists show.
    hubs: list[int] = list(
        rng.choice(level_pool[0], size=max(1, round(len(level_pool[0]) * 0.2)),
                   replace=False)
    )
    hub_budget = max(1, round(spec.num_gates * spec.hub_fraction))

    wide_types = [t for t, _ in _WIDE_TYPES]
    wide_cdf = _choice_cdf([w for _, w in _WIDE_TYPES])
    unary_types = [t for t, _ in _UNARY_TYPES]
    unary_cdf = _choice_cdf([w for _, w in _UNARY_TYPES])

    gate_counter = 0
    older: list[int] = []  # every level before ``prev``
    for lvl in range(1, depth + 1):
        this_level: list[int] = []
        prev = level_pool[lvl - 1]
        for _ in range(counts[lvl - 1]):
            unary = rng.random() < spec.unary_fraction
            if unary:
                gate_type = unary_types[bisect_right(unary_cdf, rng.random())]
                fanin_count = 1
            else:
                gate_type = wide_types[bisect_right(wide_cdf, rng.random())]
                fanin_count = _WIDE_FANINS[int(rng.integers(0, len(_WIDE_FANINS)))]
            idx = circuit.add_gate(
                f"G{gate_counter}",
                gate_type,
                delay=_gate_delay(spec, gate_type, rng),
            )
            gate_counter += 1
            drivers = _pick_drivers(
                rng, fanin_count, prev, older, hubs, spec.locality
            )
            for d in drivers:
                circuit.connect(d, idx)
            if len(hubs) < hub_budget + len(pis) and rng.random() < 0.02:
                hubs.append(idx)
            this_level.append(idx)
        level_pool.append(this_level)
        older.extend(prev)

    # --- DFF data inputs: feedback from the deeper half of the fabric.
    deep = [g for pool in level_pool[1 + depth // 2 :] for g in pool]
    if not deep:
        deep = [g for pool in level_pool[1:] for g in pool]
    for ff in dffs:
        src = int(rng.choice(deep))
        circuit.connect(src, ff)

    # --- Wire dead-end gates into deeper logic first, THEN pick primary
    # outputs: doing it in this order keeps the output count exactly at
    # spec (a pre-marked output would otherwise shield a dangler).
    forced_outputs = _absorb_danglers(circuit, rng, level_pool)
    for idx in forced_outputs:
        circuit.mark_output(idx)

    remaining = spec.num_outputs - len(forced_outputs)
    if remaining > 0:
        candidates: list[int] = []
        for pool in reversed(level_pool[1:]):
            candidates.extend(g for g in pool if not circuit.gates[g].is_output)
            if len(candidates) >= remaining * 3:
                break
        if len(candidates) < remaining:  # tiny fabric: widen the pool
            candidates = [
                g.index
                for g in circuit.gates
                if not g.is_output and g.gate_type is not GateType.INPUT
            ]
        for idx in rng.choice(candidates, size=remaining, replace=False):
            circuit.mark_output(int(idx))
    return circuit.freeze()


def _choice_cdf(weights: list[float]) -> list[float]:
    """The cumulative distribution ``Generator.choice(n, p=...)`` searches.

    Computed as numpy does it (normalise, ``cumsum``, divide by the last
    element), so ``bisect_right(cdf, rng.random())`` draws the same index
    from the same single ``random()`` as ``rng.choice(len(weights), p=p)``
    — without that call's per-draw argument checks.
    """
    p = np.array(weights)
    p = p / p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _pick_drivers(
    rng: np.random.Generator,
    count: int,
    prev: list[int],
    older: list[int],
    hubs: list[int],
    locality: float,
) -> list[int]:
    """Choose *count* distinct drivers with locality bias.

    With probability ``locality`` a driver comes from the immediately
    preceding level (yielding long chains/cones); otherwise from any
    earlier level; a small slice taps the hub set.
    """
    drivers: list[int] = []
    attempts = 0
    while len(drivers) < count and attempts < count * 12:
        attempts += 1
        r = rng.random()
        if r < 0.06 and hubs:
            cand = int(hubs[int(rng.integers(0, len(hubs)))])
        elif r < 0.06 + locality or not older:
            cand = int(prev[int(rng.integers(0, len(prev)))])
        else:
            cand = int(older[int(rng.integers(0, len(older)))])
        if cand not in drivers:
            drivers.append(cand)
    # Fall back to duplicates-allowed if the pools were too small to find
    # distinct drivers (legal: parallel edges are permitted).
    while len(drivers) < count:
        pool = prev or older or hubs
        drivers.append(int(pool[int(rng.integers(0, len(pool)))]))
    return drivers


def _absorb_danglers(
    circuit: CircuitGraph,
    rng: np.random.Generator,
    level_pool: list[list[int]],
) -> list[int]:
    """Give every gate at least one fanout; return gates that cannot get one.

    Dangling gates are wired as extra inputs into a variable-arity gate
    at a strictly deeper level or, failing that, a same-level gate with a
    higher index (intra-level edges only ever point index-upward, so this
    stays acyclic). Gates with no legal target — essentially the last
    gate of the deepest level — are returned so the caller can promote
    them to primary outputs (real netlists have no dead logic either).
    """
    level_of: dict[int, int] = {}
    for lvl, pool in enumerate(level_pool):
        for g in pool:
            level_of[g] = lvl
    variable_arity = {
        GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
        GateType.XOR, GateType.XNOR,
    }
    by_level_targets: list[list[int]] = [[] for _ in range(len(level_pool))]
    for g in circuit.gates:
        if g.gate_type in variable_arity:
            by_level_targets[level_of[g.index]].append(g.index)
    deeper_targets: list[list[int]] = [[] for _ in range(len(level_pool))]
    acc: list[int] = []
    for lvl in range(len(level_pool) - 1, -1, -1):
        deeper_targets[lvl] = list(acc)
        acc.extend(by_level_targets[lvl])
    forced: list[int] = []
    for gate in circuit.gates:
        if gate.fanout:
            continue
        lvl = level_of[gate.index]
        targets = deeper_targets[lvl]
        if not targets:
            targets = [t for t in by_level_targets[lvl] if t > gate.index]
        if targets:
            sink = int(targets[int(rng.integers(0, len(targets)))])
            circuit.connect(gate.index, sink)
        else:
            forced.append(gate.index)
    return forced


def _apportion(total: int, weights: np.ndarray) -> list[int]:
    """Split *total* into ``len(weights)`` integer parts ∝ weights.

    Largest-remainder method so the parts sum exactly to *total*.
    """
    raw = weights / weights.sum() * total
    parts = np.floor(raw).astype(int)
    remainder = total - int(parts.sum())
    order = np.argsort(-(raw - parts))
    for i in range(remainder):
        parts[order[i % len(parts)]] += 1
    return [int(p) for p in parts]
