"""Synthetic stand-ins for the ISCAS'89 benchmarks of the paper.

Table 1 of the paper characterises the three circuits used in the study;
the specs below reproduce those published counts (plus the flip-flop
counts from the ISCAS'89 suite documentation):

=========  =======  ======  ========  =====
circuit    inputs   gates   outputs   DFFs
=========  =======  ======  ========  =====
s5378      35       2779    49        179
s9234      36       5597    39        211
s15850     77       10383   150       534
=========  =======  ======  ========  =====

``load_benchmark("s9234", scale=0.1)`` yields a structurally faithful
one-tenth-size circuit for fast runs; ``scale=1.0`` matches Table 1
exactly. A real ``.bench`` file, when available, can be loaded with
:func:`repro.circuit.bench_parser.parse_bench_file` instead and used
everywhere a generated circuit is.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.circuit.graph import CircuitGraph
from repro.errors import ConfigError


@dataclass(frozen=True)
class BenchmarkSpec:
    """Published characteristics of one ISCAS'89 benchmark."""

    name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    num_dffs: int
    depth: int

    def generator_spec(self, scale: float = 1.0, seed: int = 2000) -> GeneratorSpec:
        """The :class:`GeneratorSpec` for this benchmark at *scale*."""
        spec = GeneratorSpec(
            name=self.name,
            num_inputs=self.num_inputs,
            num_outputs=self.num_outputs,
            num_gates=self.num_gates,
            num_dffs=self.num_dffs,
            depth=self.depth,
            seed=seed,
        )
        if scale == 1.0:
            return spec
        return spec.scaled(scale)


#: The three benchmarks of the paper's Table 1. Depth values are the
#: documented ISCAS'89 logic depths (s5378: 25, s9234: 58, s15850: 82).
BENCHMARKS: dict[str, BenchmarkSpec] = {
    "s5378": BenchmarkSpec("s5378", 35, 49, 2779, 179, 25),
    "s9234": BenchmarkSpec("s9234", 36, 39, 5597, 211, 58),
    "s15850": BenchmarkSpec("s15850", 77, 150, 10383, 534, 82),
}

#: The rest of the ISCAS'89 sequential suite (published PI/PO/gate/DFF
#: counts; depths approximated from the documented logic levels). The
#: paper only evaluates the three circuits above, but a downstream user
#: gets the whole family. Gate counts follow the Table 1 convention of
#: this repository: logic elements including flip-flops.
EXTENDED_BENCHMARKS: dict[str, BenchmarkSpec] = {
    "s298": BenchmarkSpec("s298", 3, 6, 133, 14, 9),
    "s344": BenchmarkSpec("s344", 9, 11, 175, 15, 20),
    "s349": BenchmarkSpec("s349", 9, 11, 176, 15, 20),
    "s386": BenchmarkSpec("s386", 7, 7, 165, 6, 11),
    "s400": BenchmarkSpec("s400", 3, 6, 183, 21, 9),
    "s420": BenchmarkSpec("s420", 18, 1, 234, 16, 13),
    "s444": BenchmarkSpec("s444", 3, 6, 202, 21, 11),
    "s510": BenchmarkSpec("s510", 19, 7, 217, 6, 12),
    "s526": BenchmarkSpec("s526", 3, 6, 214, 21, 9),
    "s641": BenchmarkSpec("s641", 35, 24, 398, 19, 74),
    "s713": BenchmarkSpec("s713", 35, 23, 412, 19, 74),
    "s820": BenchmarkSpec("s820", 18, 19, 294, 5, 10),
    "s832": BenchmarkSpec("s832", 18, 19, 292, 5, 10),
    "s838": BenchmarkSpec("s838", 34, 1, 478, 32, 25),
    "s953": BenchmarkSpec("s953", 16, 23, 424, 29, 16),
    "s1196": BenchmarkSpec("s1196", 14, 14, 547, 18, 24),
    "s1238": BenchmarkSpec("s1238", 14, 14, 526, 18, 22),
    "s1423": BenchmarkSpec("s1423", 17, 5, 731, 74, 59),
    "s1488": BenchmarkSpec("s1488", 8, 19, 659, 6, 17),
    "s1494": BenchmarkSpec("s1494", 8, 19, 653, 6, 17),
    "s13207": BenchmarkSpec("s13207", 62, 152, 8589, 638, 59),
    "s35932": BenchmarkSpec("s35932", 35, 320, 17793, 1728, 29),
    "s38417": BenchmarkSpec("s38417", 28, 106, 23815, 1636, 47),
    "s38584": BenchmarkSpec("s38584", 38, 304, 20679, 1426, 56),
}


def all_benchmarks() -> dict[str, BenchmarkSpec]:
    """The paper's three circuits plus the extended ISCAS'89 family."""
    return {**BENCHMARKS, **EXTENDED_BENCHMARKS}


def benchmark_spec(
    name: str, *, scale: float = 1.0, seed: int = 2000
) -> GeneratorSpec | None:
    """The spec :func:`load_benchmark` generates *name* from.

    ``None`` for ``"s27"``, the embedded real netlist.  Raises
    :class:`ConfigError` for an unknown name or a scale the circuit
    cannot take, without building anything.
    """
    if name == "s27":
        if scale != 1.0:
            raise ConfigError("s27 is a real netlist; scale must be 1.0")
        return None
    spec = all_benchmarks().get(name)
    if spec is None:
        raise ConfigError(
            f"unknown benchmark {name!r}; available: "
            f"{['s27', *sorted(all_benchmarks())]}"
        )
    return spec.generator_spec(scale=scale, seed=seed)


def load_benchmark(
    name: str, *, scale: float = 1.0, seed: int = 2000
) -> CircuitGraph:
    """Load ISCAS'89 circuit *name*.

    ``"s27"`` returns the embedded *real* netlist
    (:mod:`repro.circuit.netlists`); every other name generates the
    synthetic equivalent at *scale*.
    """
    spec = benchmark_spec(name, scale=scale, seed=seed)
    if spec is None:
        from repro.circuit.netlists import load_s27

        return load_s27()
    return generate_circuit(spec)
