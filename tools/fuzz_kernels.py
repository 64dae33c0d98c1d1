#!/usr/bin/env python3
"""Long-running kernel fuzz: all engines, all policies, random circuits.

Not part of the test suite (hypothesis covers the same invariants with
bounded examples); run this for release-grade confidence:

    python tools/fuzz_kernels.py [seconds] [seed] [--corpus DIR]
                                 [--process-fraction F]

Every iteration builds one serialisable *case* — a random sequential
circuit, a random partitioner, and a random Time Warp policy mix
(window / cancellation / checkpointing / migration) — and replays it
through ``repro.harness.regression.run_case``, which checks every
engine against the sequential oracle.  A quarter of the iterations add
the conservative kernel; a slice (``--process-fraction``, default 5%)
runs the real multiprocess backend instead, half of it with adaptive
migration.  Time Warp cases draw the clock period log-uniformly up to
the schedule bound (virtual times near 2**62); cases with the
conservative kernel keep periods of 10-119.

With ``--corpus DIR``, every failing case is written there as JSON in
the exact format ``tests/test_regression_corpus.py`` replays — promote
findings by committing the file under ``tests/corpus/``.
"""

import argparse
import time
import traceback

import _checkout  # noqa: F401
from repro.harness.regression import run_case, write_case
from repro.partition.registry import all_partitioners
from repro.sim.event import T_END
from repro.utils.rng import make_rng


def random_case(rng, names, *, process: bool) -> dict:
    """Draw one fuzz case. Process-backend cases stick to the policies
    that backend supports (aggressive cancellation, incremental state
    saving); half of them migrate."""
    num_gates = int(rng.integers(25, 220))
    case = {
        "description": "fuzz-generated",
        "spec": {
            "name": "fuzz",
            "num_inputs": int(rng.integers(2, 8)),
            "num_outputs": int(rng.integers(1, 6)),
            "num_gates": num_gates,
            "num_dffs": int(rng.integers(0, 16)),
            "depth": int(rng.integers(3, 12)),
            "unary_fraction": float(rng.uniform(0, 0.5)),
            "locality": float(rng.uniform(0.5, 1.0)),
            "seed": int(rng.integers(0, 2**31)),
            "delay_model": ["unit", "typed", "random"][int(rng.integers(0, 3))],
        },
        "stimulus": {
            "num_cycles": int(rng.integers(6, 30)),
            "period": int(rng.integers(10, 120)),
            "seed": int(rng.integers(0, 2**31)),
        },
        "partitioner": names[int(rng.integers(0, len(names)))],
        "partitioner_seed": int(rng.integers(0, 1000)),
        "k": int(rng.integers(2, min(7, num_gates))),
        "machine": {
            "optimism_window": (
                None if rng.random() < 0.4 else int(rng.integers(5, 200))
            ),
            "gvt_interval": int(rng.integers(32, 1024)),
        },
        "engines": ["timewarp"],
    }
    if process:
        # Smaller worlds: each case forks k OS processes — and runs
        # them on BOTH wire transports, so every fuzzed configuration
        # doubles as a queue-vs-shm differential (final values and
        # captures against sequential, committed counts against each
        # other; see check_engines).
        case["spec"]["num_gates"] = int(rng.integers(25, 90))
        case["stimulus"]["num_cycles"] = int(rng.integers(4, 12))
        case["k"] = int(rng.integers(2, 5))
        case["engines"] = ["process", "process-shm"]
        # Half the process cases also run on a warm worker ring (the
        # job server's execution path), holding warm-pool results to
        # the cold engines' exact committed output.
        if rng.random() < 0.5:
            case["engines"].append(
                "served-shm" if rng.random() < 0.5 else "served"
            )
        if rng.random() < 0.5:
            case["machine"]["migration_threshold"] = float(
                rng.uniform(1.2, 3.0)
            )
    else:
        case["machine"].update(
            cancellation="lazy" if rng.random() < 0.4 else "aggressive",
            checkpoint_interval=(
                None if rng.random() < 0.5 else int(rng.integers(1, 32))
            ),
            migration_threshold=(
                None if rng.random() < 0.5 else float(rng.uniform(1.2, 3.0))
            ),
        )
        if rng.random() < 0.25:
            case["engines"].append("conservative")
    if "conservative" not in case["engines"]:
        # Time Warp reaches large virtual times too: the period is
        # scaled by 2**s, s uniform up to the schedule bound (cycles x
        # period <= T_END // 2), so periods spread log-uniformly.  The
        # conservative kernel keeps the small ones: its null messages
        # grow with the period.
        stimulus = case["stimulus"]
        room = T_END // 2 // (stimulus["num_cycles"] * stimulus["period"])
        stimulus["period"] <<= int(rng.integers(0, room.bit_length()))
    return case


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("seconds", nargs="?", type=float, default=120.0)
    parser.add_argument("seed", nargs="?", type=int, default=99)
    parser.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="write each failing case as replayable JSON under DIR",
    )
    parser.add_argument(
        "--process-fraction", type=float, default=0.05,
        help="fraction of iterations run on the multiprocess backend",
    )
    args = parser.parse_args()

    rng = make_rng(args.seed)
    names = sorted(all_partitioners())
    failures = 0
    runs = 0
    start = time.time()
    while time.time() - start < args.seconds:
        case = random_case(
            rng, names, process=rng.random() < args.process_fraction
        )
        try:
            mismatches = run_case(case)
        except Exception:
            mismatches = [f"crash:\n{traceback.format_exc()}"]
        runs += len(case["engines"])
        if mismatches:
            failures += 1
            case["description"] = "; ".join(
                m.splitlines()[0] for m in mismatches
            )
            print(f"FAIL {case['engines']}: {mismatches}", flush=True)
            if args.corpus:
                path = write_case(
                    case, args.corpus, f"fuzz-{args.seed}-{runs}"
                )
                print(f"  wrote {path}", flush=True)
        if runs % 200 == 0:
            print(
                f"... {runs} runs, {failures} failures, "
                f"{time.time() - start:.0f}s",
                flush=True,
            )
    print(f"done: {runs} runs, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
