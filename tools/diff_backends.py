#!/usr/bin/env python3
"""Differential backend comparison: virtual vs. process vs. sequential.

Runs the same circuit / partition / stimulus through the sequential
oracle, the deterministic virtual-machine Time Warp kernel, and the
real multiprocess backend, then reports whether the committed results
agree and how the backends' dynamics compare:

    python tools/diff_backends.py --circuit s27 -k 4
    python tools/diff_backends.py --circuit s5378 --scale 0.08 -k 6
    python tools/diff_backends.py --gates 150 --dffs 12 --seed 7 -k 4 \
        --algorithm Random --window 50

Exit status is non-zero on any disagreement, so the tool doubles as a
scriptable differential check (it is the long-form companion of
``tests/test_differential_backends.py``).
"""

from __future__ import annotations

import argparse
import sys

import _checkout  # noqa: F401
from repro.circuit import GeneratorSpec, generate_circuit
from repro.circuit.netlists import load_s27
from repro.harness.config import ALGORITHMS, ExperimentConfig
from repro.harness.experiment import ExperimentRunner
from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.warped import ProcessTimeWarpSimulator, TimeWarpSimulator, VirtualMachine


def build_world(args):
    """(circuit, stimulus) from either a benchmark name or a generator."""
    if args.circuit == "s27":
        circuit = load_s27()
    elif args.circuit is not None:
        runner = ExperimentRunner(
            ExperimentConfig.from_env(scale=args.scale)
            if args.scale
            else ExperimentConfig.from_env()
        )
        return runner.circuit(args.circuit), runner.stimulus(args.circuit)
    else:
        circuit = generate_circuit(
            GeneratorSpec(
                name="diff",
                num_inputs=6,
                num_outputs=6,
                num_gates=args.gates,
                num_dffs=args.dffs,
                depth=8,
                seed=args.seed,
            )
        )
    stimulus = RandomStimulus(
        circuit, num_cycles=args.cycles, period=30, seed=args.seed
    )
    return circuit, stimulus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--circuit", default=None,
                        choices=["s27", "s5378", "s9234", "s15850"],
                        help="benchmark circuit (default: generated)")
    parser.add_argument("--scale", type=float, default=None,
                        help="scale for the big benchmark circuits")
    parser.add_argument("--gates", type=int, default=120)
    parser.add_argument("--dffs", type=int, default=10)
    parser.add_argument("--cycles", type=int, default=15)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("-k", "--nodes", type=int, default=4, dest="k")
    parser.add_argument("--algorithm", default="Multilevel", choices=ALGORITHMS)
    parser.add_argument("--window", type=int, default=None,
                        help="optimism window (default: unbounded)")
    parser.add_argument("--gvt-interval", type=int, default=64)
    args = parser.parse_args(argv)

    circuit, stimulus = build_world(args)
    print(f"circuit: {circuit.name} ({circuit.num_gates} gates), "
          f"k={args.k}, {args.algorithm}")

    sequential = SequentialSimulator(circuit, stimulus).run()
    assignment = get_partitioner(args.algorithm, seed=3).partition(
        circuit, args.k
    )
    machine = VirtualMachine(
        num_nodes=args.k,
        optimism_window=args.window,
        gvt_interval=args.gvt_interval,
    )
    virtual = TimeWarpSimulator(circuit, assignment, stimulus, machine).run()
    process = ProcessTimeWarpSimulator(
        circuit, assignment, stimulus, machine
    ).run()

    # Each row: None when it holds, else what went wrong.
    checks = {
        "virtual == sequential": sequential.disagreement(virtual),
        "process == sequential": sequential.disagreement(process),
        "events_committed identical": (
            None if process.events_committed == virtual.events_committed
            else f"virtual {virtual.events_committed}, "
            f"process {process.events_committed}"
        ),
    }
    for label, why in checks.items():
        print(f"  [{'ok' if why is None else 'FAIL'}] {label}"
              + ("" if why is None else f": {why}"))

    print(f"\n{'':20s}{'virtual':>12s}{'process':>12s}")
    for field in ("events_processed", "events_rolled_back", "rollbacks",
                  "app_messages", "anti_messages", "gvt_rounds"):
        print(f"{field:20s}{getattr(virtual, field):>12d}"
              f"{getattr(process, field):>12d}")
    print(f"{'wall-clock (s)':20s}{'(modelled)':>12s}"
          f"{process.execution_time:>12.3f}")
    return 0 if all(why is None for why in checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
