#!/usr/bin/env python3
"""Soak the process backend for stalls and wrong results.

Runs many small jobs on one warm :class:`WorkerRing` (the served shape:
s5378 at scale 0.2, 40 cycles, k = ``--nodes``, optimism window 100) and
a few cold paper-scale :class:`ProcessTimeWarpSimulator` runs (s9234, 60
cycles, same k, alternately windowed and unbounded), each on its own
stimulus, each checked against the sequential oracle, each on a short
leash so a stall costs seconds and is counted instead of waited out:

    python tools/soak_ring.py --jobs 2000 --cold 100 --transport queue
    python tools/soak_ring.py --jobs 200 --cold 10 --transport shm
    python tools/soak_ring.py --jobs 500 --cold 20 --nodes 4   # nodes > cores
    python tools/soak_ring.py --jobs 500 --cold 0 --worlds 24  # residency churn

With ``--worlds N`` every warm job draws (seeded) one of N partitions of
the circuit, so the ring's resident-world table sees hits, ships and —
once N served-shape worlds exceed the ring's gate budget (24 do) —
evictions, interleaved; the last line reports the ships and hits.

A job *fails* when it times out, errors, or disagrees with the oracle;
a failed warm job costs its ring (a fresh one takes over).  The last
line is ``soak <transport>: <failed>/<attempted> failed (...)`` and the
exit status is non-zero when anything failed — so the tool is both the
instrument for hunting a transport's stall rate and a CI smoke.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.circuit.iscas89 import load_benchmark
from repro.errors import ReproError
from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.warped import ProcessTimeWarpSimulator, VirtualMachine
from repro.warped.parallel.ring import WorkerRing
from repro.warped.parallel.transport import TRANSPORT_NAMES

#: Leashes: several times a job's normal wall (≈0.1 s warm, ≈2 s cold).
WARM_TIMEOUT_S = 8.0
COLD_TIMEOUT_S = 20.0


def world(circuit_name: str, scale: float, seed: int, nodes: int):
    circuit = load_benchmark(circuit_name, scale=scale, seed=seed)
    assignment = get_partitioner("Multilevel", seed=seed).partition(circuit, nodes)
    return circuit, assignment


def verdict(run, oracle) -> str | None:
    """Run one job; the reason it failed, or None."""
    try:
        result = run()
    except ReproError as exc:
        return str(exc).splitlines()[0]
    return oracle.disagreement(result)


def soak_warm(
    jobs: int, transport: str, seed: int, nodes: int, worlds: int,
    failures: list[str],
) -> dict[str, int]:
    """Returns the residency counters summed over every ring used."""
    circuit, assignment = world("s5378", 0.2, seed, nodes)
    assignments = [assignment] + [
        get_partitioner("Multilevel", seed=seed + extra).partition(circuit, nodes)
        for extra in range(1, worlds)
    ]
    draw = random.Random(seed)
    machine = VirtualMachine(
        num_nodes=nodes, gvt_interval=512, optimism_window=100
    )
    residency = {"ships": 0, "hits": 0, "evictions": 0}

    def retire(ring: WorkerRing) -> None:
        for name, count in ring.world_stats.items():
            residency[name] += count
        ring.close()

    ring = WorkerRing(nodes, transport=transport).start()
    try:
        for job in range(jobs):
            assignment = assignments[draw.randrange(worlds)]
            stimulus = RandomStimulus(
                circuit, num_cycles=40, period=100, activity=0.5, seed=seed + job
            )
            oracle = SequentialSimulator(circuit, stimulus).run()
            why = verdict(
                lambda: ring.run_job(
                    circuit, assignment, stimulus, machine, timeout=WARM_TIMEOUT_S
                ),
                oracle,
            )
            if why is not None:
                failures.append(f"warm job {job}: {why}")
                print(failures[-1], flush=True)
            if not ring.alive:
                retire(ring)
                ring = WorkerRing(nodes, transport=transport).start()
    finally:
        retire(ring)
    return residency


def soak_cold(
    runs: int, transport: str, seed: int, nodes: int, failures: list[str]
) -> None:
    circuit, assignment = world("s9234", 1.0, seed, nodes)
    for run in range(runs):
        machine = VirtualMachine(
            num_nodes=nodes, gvt_interval=512,
            optimism_window=100 if run % 2 == 0 else None,
        )
        stimulus = RandomStimulus(
            circuit, num_cycles=60, period=100, activity=0.5, seed=seed + run
        )
        oracle = SequentialSimulator(circuit, stimulus).run()
        why = verdict(
            ProcessTimeWarpSimulator(
                circuit, assignment, stimulus, machine,
                transport=transport, timeout=COLD_TIMEOUT_S,
            ).run,
            oracle,
        )
        if why is not None:
            failures.append(f"cold run {run}: {why}")
            print(failures[-1], flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--jobs", type=int, default=200,
                        help="warm-ring jobs of the served shape")
    parser.add_argument("--cold", type=int, default=10,
                        help="cold paper-scale runs")
    parser.add_argument("--nodes", type=int, default=2,
                        help="ring width k (world, machine and ring)")
    parser.add_argument("--worlds", type=int, default=1,
                        help="partitions the warm jobs draw from (24 "
                             "served-shape worlds exceed a ring's budget)")
    parser.add_argument("--transport", default="queue", choices=TRANSPORT_NAMES)
    parser.add_argument("--seed", type=int, default=2000)
    args = parser.parse_args(argv)

    failures: list[str] = []
    start = time.monotonic()
    if args.worlds < 1:
        parser.error("--worlds must be >= 1")
    residency = soak_warm(
        args.jobs, args.transport, args.seed, args.nodes, args.worlds, failures
    )
    soak_cold(args.cold, args.transport, args.seed, args.nodes, failures)
    print(
        f"soak {args.transport}: {len(failures)}/{args.jobs + args.cold} failed "
        f"({args.jobs} warm + {args.cold} cold, k = {args.nodes}, "
        f"{args.worlds} worlds: {residency['ships']} ships / "
        f"{residency['hits']} hits / {residency['evictions']} evictions, "
        f"{time.monotonic() - start:.0f} s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
