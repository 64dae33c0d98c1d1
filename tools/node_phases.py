#!/usr/bin/env python3
"""Where a process-backend node's wall clock goes, phase by phase.

Wraps the node loop's phases with timers *before the workers fork* — no
hook lives under ``src/`` — runs a few jobs of one shape and prints, per
node, the median seconds inside each phase and the counts that explain
them (laps of the main loop, wire frames, fossil sweeps and the records
they freed, and what the pending-event queue's buckets saw):

    python tools/node_phases.py --shape cold-s9234 --jobs 5
    python tools/node_phases.py --shape warm-served --jobs 25
    PYTHONPATH=/path/to/other/checkout/src python tools/node_phases.py ...

``cold-s9234`` is the benchmark's ``process-queue-s9234`` job (paper-scale
s9234, Multilevel k = 2, 60 cycles, window 100, a cold
``ProcessTimeWarpSimulator`` per job); ``warm-served`` is the served
shape (s5378 at scale 0.2, 40 cycles, one warm ``WorkerRing``).  Every
job has its own stimulus and is checked against the sequential oracle.

Times are inclusive (``poll`` contains ``handle`` contains ``apply_gvt``
contains ``fossil_collect``; ``work_batch`` contains ``run_batch`` and its
``flush_wire``), and the timers themselves cost about 0.3 µs a call — so
read the table for proportions and before/after differences, and claim
speed with ``benchmarks/e2e/run.py``, which runs unpatched code.  The
loop and its wire puts live in ``repro.warped.parallel.loop`` since the
process backend was split by concern (``backend`` before), the queue's
wrapped names (``NodeQueue._advance``, ``NodeQueue.push``) exist since
the bucket queue — for a before/after table across either change run
each checkout's own copy of this tool.

The queue rows are counts, not times: how often a bucket became the
open one and how many entries it held then (what each sort paid for),
how many pushes took the two slow paths (an insert into the open
bucket; a push *earlier* than it, which shelves it), and the most
buckets a node held at once.  The common push — an append to a later
bucket — is inlined in ``run_batch`` and is not counted.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
import tempfile
import time
from collections import defaultdict

import _checkout  # noqa: F401
from soak_ring import verdict, world

from repro.sim import RandomStimulus, SequentialSimulator
from repro.warped import ProcessTimeWarpSimulator, VirtualMachine
from repro.warped.parallel import loop
from repro.warped.parallel.loop import NodeLoop
from repro.warped.parallel.node import NodeEngine
from repro.warped.parallel.ring import WorkerRing
from repro.warped.queues import NodeQueue
from repro.warped.parallel.transport import TRANSPORT_NAMES

#: Timed methods (``NodeLoop.run`` is timed where the timers are dumped).
LOOP_PHASES = (
    "poll", "work_batch", "handle", "apply_gvt", "maybe_initiate", "flush_wire",
)
ENGINE_PHASES = ("__init__", "schedule_initial", "run_batch", "fossil_collect")
#: Phases whose calls that found nothing to do (returned 0 / False) are
#: also kept apart, as ``empty <phase>``.
SPLIT_EMPTY = ("poll", "work_batch")

#: Netlist and partition are the benchmark's fixed ones; ``--seed`` only
#: draws the stimuli.
WORLD_SEED = 2000

#: The table: phases reported in seconds, then ``(label, counter)`` rows.
SECONDS_ROWS = (
    "run", "__init__", "schedule_initial", "work_batch", "empty work_batch",
    "run_batch", "flush_wire", "poll", "empty poll", "handle", "apply_gvt",
    "fossil_collect", "maybe_initiate",
)
COUNT_ROWS = (
    ("laps", "work_batch"), ("empty laps", "empty work_batch"),
    ("empty polls", "empty poll"), ("frames", "frames"),
    ("framed messages", "framed messages"),
    ("GVT applications", "apply_gvt"), ("sweeps", "fossil_collect"),
    ("records freed", "records freed"),
    ("bucket opens", "bucket opens"),
    ("pushes into open", "pushes into open"),
    ("pushes before open", "pushes before open"),
    ("peak live buckets", "peak live buckets"),
)

#: This process's timers: seconds and calls per phase since the last dump.
_seconds: dict[str, float] = defaultdict(float)
_calls: dict[str, int] = defaultdict(int)


def _timed(name: str, fn):
    empty = f"empty {name}" if name in SPLIT_EMPTY else None

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        did = fn(*args, **kwargs)
        spent = time.perf_counter() - t0
        _seconds[name] += spent
        _calls[name] += 1
        if empty is not None and not did:
            _seconds[empty] += spent
            _calls[empty] += 1
        return did

    return wrapper


def install(out_dir: str) -> None:
    """Wrap the phases; every ``NodeLoop.run`` that returns writes the
    worker's timers to *out_dir* and zeroes them for the next job."""
    for name in ENGINE_PHASES:
        setattr(NodeEngine, name, _timed(name, getattr(NodeEngine, name)))
    for name in LOOP_PHASES:
        setattr(NodeLoop, name, _timed(name, getattr(NodeLoop, name)))

    sweep = NodeEngine.fossil_collect

    def count_freed(engine, gvt):
        held = engine.history
        sweep(engine, gvt)
        _calls["records freed"] += held - engine.history

    NodeEngine.fossil_collect = count_freed

    put_wire_batch = loop._put_wire_batch

    def count_frames(chan, items, own=None):
        _calls["frames"] += 1
        _calls["framed messages"] += len(items)
        put_wire_batch(chan, items, own)

    loop._put_wire_batch = count_frames

    advance, push = NodeQueue._advance, NodeQueue.push

    def saw_buckets(queue):
        live = len(queue._buckets) + 1
        if live > _calls["peak live buckets"]:
            _calls["peak live buckets"] = live

    def count_open(queue):
        advance(queue)
        if queue.min_time is not None:
            _calls["bucket opens"] += 1
            _calls["entries at open"] += len(queue._open)
            saw_buckets(queue)

    def count_push(queue, msg):
        open_time = queue.min_time
        if open_time is not None and msg.time <= open_time:
            side = "into" if msg.time == open_time else "before"
            _calls[f"pushes {side} open"] += 1
        push(queue, msg)
        saw_buckets(queue)

    NodeQueue._advance = count_open
    NodeQueue.push = count_push

    run = NodeLoop.run

    def run_and_dump(self):
        t0 = time.perf_counter()
        run(self)
        _seconds["run"] += time.perf_counter() - t0
        counters = self.engine.counters
        record = {
            "node": self.node,
            "seconds": dict(_seconds),
            "calls": dict(_calls),
            "events": counters["events"],
            "rolled_back": counters["rolled_back"],
        }
        _seconds.clear()
        _calls.clear()
        path = os.path.join(
            out_dir, f"{time.monotonic_ns()}-{os.getpid()}.json"
        )
        with open(path, "w") as fh:
            json.dump(record, fh)

    NodeLoop.run = run_and_dump


def collect(out_dir: str) -> dict[int, dict]:
    """The records of the job that just ran, by node (files consumed)."""
    records = {}
    for path in glob.glob(os.path.join(out_dir, "*.json")):
        with open(path) as fh:
            record = json.load(fh)
        os.unlink(path)
        records[record["node"]] = record
    return records


def run_cold(jobs: int, transport: str, seed: int, out_dir: str):
    circuit, assignment = world("s9234", 1.0, WORLD_SEED, 2)
    machine = VirtualMachine(num_nodes=2, gvt_interval=512, optimism_window=100)
    for job in range(jobs):
        stimulus = RandomStimulus(
            circuit, num_cycles=60, period=100, activity=0.5, seed=seed + job
        )
        yield one_job(
            circuit, stimulus, out_dir,
            ProcessTimeWarpSimulator(
                circuit, assignment, stimulus, machine,
                transport=transport, timeout=60.0,
            ).run,
        )


def run_warm(jobs: int, transport: str, seed: int, out_dir: str):
    circuit, assignment = world("s5378", 0.2, WORLD_SEED, 2)
    machine = VirtualMachine(num_nodes=2, gvt_interval=512, optimism_window=100)
    ring = WorkerRing(2, transport=transport).start()
    try:
        for job in range(jobs + 1):
            stimulus = RandomStimulus(
                circuit, num_cycles=40, period=100, activity=0.5, seed=seed + job
            )
            row = one_job(
                circuit, stimulus, out_dir,
                lambda: ring.run_job(
                    circuit, assignment, stimulus, machine, timeout=30.0
                ),
            )
            if job:  # the first job ships the world: not a warm one
                yield row
    finally:
        ring.close()


def one_job(circuit, stimulus, out_dir: str, run):
    """Run one oracle-checked job; returns ``(job seconds, sequential
    seconds, sequential events, per-node records)``."""
    t0 = time.perf_counter()
    oracle = SequentialSimulator(circuit, stimulus).run()
    sequential = time.perf_counter() - t0
    t0 = time.perf_counter()
    why = verdict(run, oracle)
    wall = time.perf_counter() - t0
    if why is not None:
        raise SystemExit(f"job failed: {why}")
    return wall, sequential, oracle.events_processed, collect(out_dir)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def render(rows: list) -> str:
    walls = [row[0] for row in rows]
    lines = [
        f"{len(rows)} jobs: job wall median {median(walls) * 1e3:.1f} ms, "
        f"sequential {median(row[1] for row in rows) * 1e3:.1f} ms, "
        f"{median(row[0] / row[2] for row in rows) * 1e6:.2f} µs per "
        "sequential event",
    ]
    nodes = sorted({node for row in rows for node in row[3]})
    header = f"{'median per job':<22s}" + "".join(
        f"{f'node {node}':>14s}" for node in nodes
    )
    lines.append(header)

    def row(label: str, pick, fmt: str) -> None:
        cells = [
            median([pick(r[3][node]) for r in rows if node in r[3]])
            for node in nodes
        ]
        lines.append(f"{label:<22s}" + "".join(f"{c:>14{fmt}}" for c in cells))

    for name in SECONDS_ROWS:
        row(f"{name} s", lambda rec, n=name: rec["seconds"].get(n, 0.0), ".4f")
    for label, name in COUNT_ROWS:
        row(label, lambda rec, n=name: rec["calls"].get(n, 0), ".0f")
    row(
        "mean entries at open",
        lambda rec: rec["calls"].get("entries at open", 0)
        / max(1, rec["calls"].get("bucket opens", 0)),
        ".1f",
    )
    row("events", lambda rec: rec["events"], ".0f")
    row("rolled back", lambda rec: rec["rolled_back"], ".0f")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--shape", default="cold-s9234",
                        choices=("cold-s9234", "warm-served"))
    parser.add_argument("--jobs", type=int, default=5)
    parser.add_argument("--transport", default="queue", choices=TRANSPORT_NAMES)
    parser.add_argument("--seed", type=int, default=2000,
                        help="stimulus seed of the first job")
    args = parser.parse_args(argv)
    shape = run_cold if args.shape == "cold-s9234" else run_warm
    with tempfile.TemporaryDirectory(prefix="node-phases-") as out_dir:
        install(out_dir)
        rows = list(shape(args.jobs, args.transport, args.seed, out_dir))
    print(f"{args.shape} on {args.transport}, seed {args.seed}")
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
