#!/usr/bin/env python3
"""Netlist utilities end-to-end: optimize, verify, dump.

Shows the supporting toolbox around the partitioning study:

1. build a known-function circuit (ripple-carry adder);
2. run the optimization pipeline (buffer sweep, structural hashing,
   dead-logic removal) and PROVE the result equivalent by
   random-vector equivalence checking;
3. dump a waveform of the carry chain, driven by a walking-ones
   vector set, as standard VCD.

Run:  python examples/testability_flow.py
"""

from repro.circuit import ripple_carry_adder
from repro.circuit.transform import optimize
from repro.sim import (
    SequentialSimulator,
    Trace,
    VectorStimulus,
    write_vcd,
)
from repro.sim.equivalence import check_equivalence


def main() -> None:
    width = 4
    adder = ripple_carry_adder(width)
    print(f"built {adder.name}: {adder.num_gates} gates, "
          f"{adder.num_edges} signals")

    # --- optimize + verify
    optimized = optimize(adder)
    report = check_equivalence(adder, optimized, runs=8, cycles=10)
    print(f"optimized to {optimized.num_gates} gates; equivalence over "
          f"{report.vectors_tried} vectors: "
          f"{'PASS' if report else 'FAIL'}")
    assert report

    # --- a vector set: walking ones plus corner cases
    vectors = []
    for bit in range(width):
        vectors.append({f"a{i}": int(i == bit) for i in range(width)}
                       | {f"b{i}": 0 for i in range(width)} | {"cin": 0})
        vectors.append({f"a{i}": 1 for i in range(width)}
                       | {f"b{i}": int(i == bit) for i in range(width)}
                       | {"cin": 1})
    vectors.append({f"a{i}": 1 for i in range(width)}
                   | {f"b{i}": 1 for i in range(width)} | {"cin": 1})
    vectors.append({f"a{i}": 0 for i in range(width)}
                   | {f"b{i}": 0 for i in range(width)} | {"cin": 0})
    stimulus = VectorStimulus(adder, vectors, period=50)

    # --- waveform dump of the carry chain
    watch = [adder.index_of(f"c{i + 1}") for i in range(width)]
    trace = Trace(adder, watch=watch)
    SequentialSimulator(adder, stimulus, trace=trace).run()
    vcd = write_vcd(trace, module="carry_chain")
    import pathlib
    import tempfile

    out_path = pathlib.Path(tempfile.gettempdir()) / "carry_chain.vcd"
    out_path.write_text(vcd)
    print(f"VCD dump: {len(vcd.splitlines())} lines "
          f"({sum(1 for line in vcd.splitlines() if line.startswith('#'))} "
          f"timestamps) — written to {out_path} (GTKWave-compatible)")


if __name__ == "__main__":
    main()
