"""The three engine workloads: the virtual kernel used two ways, and
real processes.

All three simulate the same paper-scale circuit under the same family
of stimuli, so their numbers can be read side by side:

- ``table2-virtual-s9234``   Multilevel, 8 nodes, bounded optimism —
  the forward path of ``warped.kernel``.
- ``rollback-storm-virtual`` DFS, 8 nodes, unbounded optimism — the
  same kernel spending its time in rollback and cancellation.
- ``process-queue-s9234``    Multilevel, 2 real processes, a cold
  ``ProcessTimeWarpSimulator`` per job — ``warped.parallel``.

Each layer is measured from outside, by timing calls into its public
functions and reading the counters they return.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import queue as queue_mod
import time
from collections import defaultdict
from dataclasses import dataclass

from repro.circuit.iscas89 import load_benchmark
from repro.errors import ReproError
from repro.obs.metrics import percentile
from repro.obs.tracer import TraceWriter
from repro.partition.metrics import partition_quality
from repro.partition.registry import get_partitioner
from repro.sim.kernel import SequentialSimulator
from repro.sim.stimulus import RandomStimulus
from repro.warped.kernel import TimeWarpSimulator
from repro.warped.machine import VirtualMachine
from repro.warped.messages import Message
from repro.warped.parallel.backend import ProcessTimeWarpSimulator
from repro.warped.parallel.protocol import MSG
from repro.warped.parallel.ring import WorkerRing
from repro.warped.parallel.transport import make_transport

from common import (
    CIRCUIT_SEED,
    PARTITION_SEED,
    HostProbe,
    Tally,
    digest,
    matches_oracle,
    median,
    peak_rss_mb,
    sub_seed,
)
from spans import Tracer, layer_self_seconds, reconcile


@dataclass(frozen=True)
class EngineWorkload:
    name: str
    partitioner: str
    k: int
    optimism_window: int | None
    backend: str  # "virtual" | "process"
    #: Seconds one engine job costs on the 2-core reference host.  With
    #: ``SEQUENTIAL_COST_S`` it turns ``--seconds`` into a repeat count
    #: *before* anything runs, so the same arguments always do the same
    #: work and every deterministic counter repeats exactly.
    job_cost_s: float
    circuit: str = "s9234"
    scale: float = 1.0
    cycles: int = 60
    period: int = 100
    activity: float = 0.5
    gvt_interval: int = 512


ENGINE_WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload("table2-virtual-s9234", "Multilevel", 8, 100, "virtual", 1.9),
        EngineWorkload("rollback-storm-virtual", "DFS", 8, None, "virtual", 2.5),
        EngineWorkload("process-queue-s9234", "Multilevel", 2, 100, "process", 1.95),
    )
}

SEQUENTIAL_COST_S = 0.56
SETUP_REPEATS = 5
MIN_REPEATS = 7
#: The traced run spends this share of ``--seconds`` on repeats; the
#: rest pays for the layer probes that only it makes.
TRACED_REPEAT_SHARE = 0.6
#: A host slower than the reference stops repeating here (never below
#: three repeats) instead of running into the driver's time limit.
OVERRUN = 1.25
SMOKE_SCALE = 0.12
SMOKE_REPEATS = 3
#: Records pushed through each channel by the transport probe.
TRANSPORT_RECORDS = 20_000
#: The process workload runs on the queue transport because jobs on shm
#: stall (README, known issues) and a workload's operations must not
#: fail; shm is measured by the transport probe.
PROCESS_TRANSPORT = "queue"
#: Leash of one process or ring job: several times its normal wall, so
#: a stall costs seconds and is told from slowness.
PROCESS_TIMEOUT_S = 20.0
RING_TIMEOUT_S = 8.0

KERNEL_COUNTERS = (
    "events_processed",
    "events_rolled_back",
    "rollbacks",
    "app_messages",
    "anti_messages",
    "gvt_rounds",
    "peak_history",
)
#: Race-dependent counters of a process result: sampled per job,
#: reported as medians, never gated.
PROCESS_COUNTERS = KERNEL_COUNTERS[:6] + ("efficiency", "restarts")


def repeat_count(w: EngineWorkload, seconds: float, traced: bool) -> int:
    """How many (sequential, engine) repeats ``--seconds`` buys."""
    if traced:
        # A traced repeat runs the engine twice: spans kept, spans dropped.
        cost = SEQUENTIAL_COST_S + 2 * w.job_cost_s
        return max(3, int(seconds * TRACED_REPEAT_SHARE / cost))
    return max(MIN_REPEATS, round(seconds / (SEQUENTIAL_COST_S + w.job_cost_s)))


def kernel_layers(kernel) -> dict[str, float]:
    """The virtual kernel's counters: simulated statistics, exact."""
    layers = {f"kernel.{name}": getattr(kernel, name) for name in KERNEL_COUNTERS}
    layers["kernel.efficiency"] = kernel.efficiency
    layers["kernel.modelled_s"] = kernel.execution_time
    layers["kernel.modelled_utilization_min"] = min(
        node.utilization for node in kernel.node_stats
    )
    return layers


def span_residual(tracer: Tracer, tally: Tally) -> float:
    """The share by which the layers of a job miss its wall, 90th
    percentile over the traced jobs; above 2 % the run is wrong.

    The 90th percentile, not the worst job: a job pre-empted between
    the two clock reads that bracket its root span says nothing about
    the spans, while a span that is missing or mis-nested shows in
    every job of its kind.
    """
    shares = sorted(share for _, share in reconcile(tracer.spans))
    share = percentile(shares, 0.9) if shares else 0.0
    if share > 0.02:
        tally.wrong(
            f"spans do not reconcile: the layers of a job miss its wall by {share:.1%}"
        )
    return share


class EngineRun:
    """One run of one engine workload: world, samples, verdict."""

    def __init__(self, w: EngineWorkload, seed: int, scale: float, workdir: str):
        self.w = w
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.virtual = w.backend == "virtual"
        self.tracer = Tracer()
        self.probe = HostProbe()
        self.tally = Tally()
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: modelled sequential seconds / modelled Time Warp seconds, per stimulus
        self.modelled: list[float] = []
        #: the virtual kernel's result on stimulus 0 (exact counters)
        self.kernel = None
        #: events the engine committed on stimulus 0
        self.committed0: int | None = None
        self.repeats = 0

    # -- set-up --------------------------------------------------------
    def build_world(self) -> None:
        """Everything before the timed region, one layer per span."""
        w, tracer, samples = self.w, self.tracer, self.samples
        t0 = time.perf_counter()
        with tracer.span("setup", job=f"{w.name}/setup") as root:
            with tracer.span("circuit.load") as sp:
                self.circuit = load_benchmark(
                    w.circuit, scale=self.scale, seed=CIRCUIT_SEED
                )
            samples["circuit.load_s"].append(sp.seconds)
            with tracer.span("sim.stimulus") as sp:
                self.stimulus0 = self.stimulus(0)
            samples["sim.stimulus_s"].append(sp.seconds)
            with tracer.span("partition.partition") as sp:
                self.assignment = get_partitioner(
                    w.partitioner, seed=PARTITION_SEED
                ).partition(self.circuit, w.k)
            samples["partition.partition_s"].append(sp.seconds)
            with tracer.span("sim.construct"):
                self.machine = VirtualMachine(
                    num_nodes=w.k,
                    gvt_interval=w.gvt_interval,
                    optimism_window=w.optimism_window,
                )
                SequentialSimulator(self.circuit, self.stimulus0)
                if self.virtual:
                    TimeWarpSimulator(
                        self.circuit, self.assignment, self.stimulus0, self.machine
                    )
        root.wall = time.perf_counter() - t0
        samples["setup_s"].append(root.wall)

    def stimulus(self, index, *, cycles: int | None = None) -> RandomStimulus:
        w = self.w
        return RandomStimulus(
            self.circuit,
            num_cycles=cycles or w.cycles,
            period=w.period,
            activity=w.activity,
            seed=sub_seed(self.seed, f"stimulus/{index}"),
        )

    # -- one job -------------------------------------------------------
    def sequential(self, stimulus, job: str):
        with self.tracer.span("sim.sequential", job=job) as sp:
            result = SequentialSimulator(self.circuit, stimulus).run()
        return result, sp.seconds

    def _virtual_job(self, stimulus, job: str, *, tracer=None):
        t0 = time.perf_counter()
        with self.tracer.span("job", job=job) as root:
            with self.tracer.span("kernel.construct"):
                simulator = TimeWarpSimulator(
                    self.circuit, self.assignment, stimulus, self.machine,
                    tracer=tracer,
                )
            with self.tracer.span("kernel.run"):
                result = simulator.run()
        root.wall = time.perf_counter() - t0
        return result, root.wall

    def _process_job(self, stimulus, job: str, *, trace_path=None):
        """Cold: spawn, arm, run, tear down, assemble."""
        t0 = time.perf_counter()
        with self.tracer.span("job", job=job) as root:
            with self.tracer.span("parallel.construct"):
                simulator = ProcessTimeWarpSimulator(
                    self.circuit, self.assignment, stimulus, self.machine,
                    transport=PROCESS_TRANSPORT, timeout=PROCESS_TIMEOUT_S,
                    trace_path=trace_path,
                )
            with self.tracer.span("parallel.run"):
                result = simulator.run()
        root.wall = time.perf_counter() - t0
        return result, root.wall

    def engine(self, stimulus, job: str, oracle, **program_trace):
        """One verified engine job -> (result, wall); ``None`` when it
        failed or its committed result was wrong."""
        run = self._virtual_job if self.virtual else self._process_job
        try:
            result, wall = run(stimulus, job, **program_trace)
        except ReproError as exc:
            self.tally.fail(f"{job}: {type(exc).__name__}: {exc}")
            return None
        if not matches_oracle(result.final_values, result.committed_captures, oracle):
            self.tally.wrong(f"{job}: committed result differs from oracle")
            return None
        self.tally.ok()
        return result, wall

    # -- the timed region ----------------------------------------------
    def measure(self, repeats: int, seconds: float, trace: bool) -> None:
        """Warm-up, then *repeats* × (sequential, engine) interleaved,
        each repeat on its own stimulus."""
        w, tracer, samples = self.w, self.tracer, self.samples
        # One untimed warm-up per engine: it is the oracle of stimulus 0,
        # fills caches, pays the first (slow) spawn, and its counters are
        # what the first timed repeat must reproduce.
        tracer.enabled = False
        self.oracle0, _ = self.sequential(self.stimulus0, "warmup/seq")
        warm = self.engine(self.stimulus0, "warmup", self.oracle0)
        if warm is not None and self.virtual:
            self.kernel = warm[0]

        deadline = time.perf_counter() + OVERRUN * seconds
        for i in range(repeats):
            if i >= 3 and time.perf_counter() > deadline:
                self.tally.notes.append(f"host too slow: stopped after {i} repeats")
                break
            stimulus = self.stimulus0 if i == 0 else self.stimulus(i)
            gc.collect()
            self.probe.spin()
            tracer.enabled = trace
            seq, seq_s = self.sequential(stimulus, f"{w.name}/{self.seed}/{i}/seq")
            samples["sim.sequential_s"].append(seq_s)
            samples["sim.sequential_events_per_s"].append(seq.events_processed / seq_s)
            walls = {}
            for kept in (True, False) if trace else (False,):
                tracer.enabled = kept
                gc.collect()
                job = self.engine(
                    stimulus,
                    f"{w.name}/{self.seed}/{i}/{'traced' if kept else 'untraced'}",
                    seq,
                )
                if job is None:
                    continue
                result, walls[kept] = job
                self._sample(i, seq, seq_s, result, walls[kept], kept)
            if len(walls) == 2:
                samples["trace_ratio"].append(walls[True] / walls[False])
            self.repeats += 1
        tracer.enabled = trace

    def _sample(self, i, seq, seq_s, result, wall, kept) -> None:
        samples = self.samples
        samples["job_s"].append(wall)
        samples["job_us_per_event"].append(wall / seq.events_processed * 1e6)
        samples["speedup"].append(seq_s / wall)
        samples["engine.events_per_s"].append(result.events_processed / wall)
        if self.virtual:
            self.modelled.append(seq.execution_time / result.execution_time)
        else:
            for name in PROCESS_COUNTERS:
                samples[f"parallel.{name}"].append(getattr(result, name))
            nodes = result.node_stats
            samples["parallel.node_wall_max_s"].append(max(n.wall_time for n in nodes))
            samples["parallel.node_busy_max_s"].append(max(n.busy_time for n in nodes))
            samples["parallel.utilization_min"].append(min(n.utilization for n in nodes))
        if i == 0:
            if not kept:
                samples["untraced0_s"].append(wall)
            self._check_pinned(seq, result)

    def _check_pinned(self, seq, result) -> None:
        """Stimulus 0 again: the deterministic engines must repeat the
        warm-up's counters."""
        oracle0 = self.oracle0
        pinned = (seq.events_processed, seq.emissions) == (
            oracle0.events_processed, oracle0.emissions,
        )
        if self.virtual and self.kernel is not None:
            pinned = pinned and kernel_layers(result) == kernel_layers(self.kernel)
        if not pinned:
            self.tally.wrong("workload not pinned: counters changed between repeats")
        self.committed0 = result.events_committed

    def model_process_world(self) -> None:
        """The modelled number beside the measured one.

        The process backend measures real time, so its modelled speed-up
        comes from the virtual kernel on the same (circuit, partition,
        machine) — which also gives the committed-event count every
        process result must reproduce, whatever its interleaving.
        """
        self.kernel, wall = self._virtual_job(self.stimulus0, f"{self.w.name}/model")
        self.samples["kernel.run_s"].append(wall)
        self.modelled.append(self.oracle0.execution_time / self.kernel.execution_time)
        if self.committed0 not in (None, self.kernel.events_committed):
            self.tally.wrong(
                f"process backend committed {self.committed0} events on "
                f"stimulus 0, virtual kernel {self.kernel.events_committed}"
            )

    # -- results -------------------------------------------------------
    def end_to_end(self) -> dict[str, float]:
        samples = self.samples
        return {
            "setup_s": median(samples["setup_s"]),
            "job_us_per_event": median(samples["job_us_per_event"]),
            "speedup_vs_sequential": median(samples["speedup"]),
            "modelled_speedup": median(self.modelled),
        }

    def layers(self, smoke: bool) -> dict[str, float]:
        """Per-layer metrics of the traced run, probes included."""
        samples, tracer, tally = self.samples, self.tracer, self.tally
        quality = partition_quality(self.assignment)
        layers = {
            "circuit.load_s": median(samples["circuit.load_s"]),
            "circuit.gates": self.circuit.num_gates,
            "sim.stimulus_s": median(samples["sim.stimulus_s"]),
            "sim.sequential_s": median(samples["sim.sequential_s"]),
            "sim.sequential_events": self.oracle0.events_processed,
            "sim.sequential_events_per_s": median(samples["sim.sequential_events_per_s"]),
            "partition.partition_s": median(samples["partition.partition_s"]),
            "partition.edge_cut": quality.edge_cut,
            "partition.load_imbalance": quality.load_imbalance,
            "partition.concurrency": quality.concurrency,
            "bench.job_p50_s": median(samples["job_s"]),
            "bench.trace_overhead_ratio": median(samples["trace_ratio"]),
        }
        if self.virtual:
            run_s = median(samples["job_s"])
            events_per_s = median(samples["engine.events_per_s"])
        else:
            run_s = median(samples["kernel.run_s"])
            events_per_s = self.kernel.events_processed / run_s
            layers["parallel.cold_run_s"] = median(samples["job_s"])
            layers["parallel.events_per_s"] = median(samples["engine.events_per_s"])
            for name in (
                *PROCESS_COUNTERS, "node_wall_max_s", "node_busy_max_s", "utilization_min",
            ):
                layers[f"parallel.{name}"] = median(samples[f"parallel.{name}"])
            layers["parallel.spawn_floor_s"] = self._probe_spawn_floor(smoke)
            layers["parallel.steady_s"] = (
                layers["parallel.cold_run_s"] - layers["parallel.spawn_floor_s"]
            )
            layers.update(
                probe_ring(
                    tracer, tally,
                    (self.circuit, self.assignment, self.stimulus0, self.machine),
                    self.oracle0, transport=PROCESS_TRANSPORT, jobs=2,
                )
            )
            layers.update(probe_transport(TRANSPORT_RECORDS // (10 if smoke else 1)))
        layers["kernel.run_s"] = run_s
        layers["kernel.events_per_s"] = events_per_s
        layers["kernel.host_us_per_event"] = 1e6 / events_per_s
        if self.kernel is not None:
            layers.update(kernel_layers(self.kernel))
        if samples["untraced0_s"]:
            layers["obs.trace_on_ratio"] = self._probe_program_trace(
                median(samples["untraced0_s"])
            )
        return layers

    # -- probes of the traced run --------------------------------------
    def _probe_spawn_floor(self, smoke: bool) -> float:
        """The cold path with (almost) nothing to simulate: spawn, arming,
        teardown and assembly — what ``parallel.steady_s`` excludes."""
        stimulus = self.stimulus("floor", cycles=2)
        oracle = SequentialSimulator(self.circuit, stimulus).run()
        walls = []
        for i in range(2 if smoke else 3):
            gc.collect()
            job = self.engine(stimulus, f"floor/{i}", oracle)
            if job is not None:
                walls.append(job[1])
        return median(walls)

    def _probe_program_trace(self, untraced_s: float) -> float:
        """One more job on stimulus 0 with the program's own tracing on,
        over the same job with it off."""
        path = os.path.join(self.workdir, "program.trace.jsonl")
        gc.collect()
        if self.virtual:
            with TraceWriter(path) as writer:
                job = self.engine(
                    self.stimulus0, "program-trace", self.oracle0, tracer=writer
                )
        else:
            job = self.engine(
                self.stimulus0, "program-trace", self.oracle0, trace_path=path
            )
        return job[1] / untraced_s if job else 0.0


def run_engine_workload(
    name: str, *, seed: int, seconds: float, trace: bool, smoke: bool, workdir: str
) -> dict:
    w = ENGINE_WORKLOADS[name]
    run = EngineRun(w, seed, SMOKE_SCALE if smoke else w.scale, workdir)
    run.tracer.enabled = trace
    wall_start = time.perf_counter()
    for _ in range(2 if smoke else SETUP_REPEATS):
        gc.collect()
        run.build_world()
    run.measure(
        SMOKE_REPEATS if smoke else repeat_count(w, seconds, trace), seconds, trace
    )
    if not run.virtual:
        run.model_process_world()

    samples = run.samples
    detail = {
        key: digest(samples[key])
        for key in ("setup_s", "job_s", "job_us_per_event", "speedup", "sim.sequential_s")
    }
    detail["modelled_speedup"] = digest(run.modelled)
    detail["repeats"] = run.repeats
    return result_document(
        run.tracer, run.tally, run.probe, wall_start,
        end_to_end=run.end_to_end(),
        layers=run.layers(smoke) if trace else {},
        detail=detail,
    )


def result_document(
    tracer: Tracer, tally: Tally, probe: HostProbe, wall_start: float,
    *, end_to_end: dict, layers: dict, detail: dict,
) -> dict:
    """What a workload run hands back to ``child.py``.

    Called last: the span check can still turn the run incorrect, and
    the memory high-water mark is read when everything has run.
    """
    if tracer.enabled:
        layers["bench.span_residual_share"] = span_residual(tracer, tally)
        detail["layer_self_s"] = layer_self_seconds(tracer.spans)
    layers.update(probe.metrics())
    layers["bench.failed_share"] = tally.failed_share
    end_to_end["peak_rss_mb"] = peak_rss_mb()
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "detail": detail,
        "notes": tally.notes,
        "wall_s": time.perf_counter() - wall_start,
        "spans": [span.to_dict() for span in tracer.spans],
    }


# ----------------------------------------------------------------------
# probes shared with the served mix
# ----------------------------------------------------------------------
def probe_ring(
    tracer: Tracer, tally: Tally, world: tuple, oracle, *, transport: str, jobs: int
) -> dict[str, float]:
    """One warm ring on *world* = (circuit, assignment, stimulus,
    machine): what spawning once buys over the cold path."""
    circuit, assignment, stimulus, machine = world
    with tracer.span("parallel.ring_spawn", job="ring") as sp:
        ring = WorkerRing(machine.num_nodes, transport=transport).start()
    spawn_s = sp.seconds
    walls = []
    timeouts = 0
    try:
        for i in range(jobs + 1):
            gc.collect()
            try:
                with tracer.span("parallel.warm_job", job=f"ring/{i}") as sp:
                    result = ring.run_job(
                        circuit, assignment, stimulus, machine,
                        timeout=RING_TIMEOUT_S,
                    )
            except ReproError as exc:
                # A probe, not an operation of the workload: a stall is
                # reported by its own counter (README, known issues).
                timeouts += 1
                tally.notes.append(f"ring/{i}: {exc}")
                break  # the ring is poisoned
            if not matches_oracle(
                result.final_values, result.committed_captures, oracle
            ):
                tally.wrong(f"ring/{i}: committed result differs from oracle")
                continue
            tally.ok()
            if i:  # job 0 pays first-use costs a warm ring is meant to hide
                walls.append(sp.seconds)
    finally:
        ring.close()
    return {
        "parallel.ring_spawn_s": spawn_s,
        "parallel.warm_job_s": median(walls),
        "parallel.ring_timeouts": timeouts,
    }


def probe_transport(records: int) -> dict[str, float]:
    """µs per record, put -> get, one process, each transport.

    Times ``parallel.app_messages`` this bounds the transport's share of
    ``parallel.steady_s`` from below (no contention, no wake-ups).
    """
    ctx = multiprocessing.get_context("fork")
    items = [
        (MSG, 1, Message(100 + i, 0, i % 97, i, i & 1, i % 89, i))
        for i in range(256)
    ]
    out = {}
    for name in ("shm", "queue"):
        transport = make_transport(name)
        (channel,) = transport.make_inboxes(ctx, 1, None)
        try:
            gc.collect()
            moved = 0
            t0 = time.perf_counter()
            while moved < records:
                if name == "shm":
                    sent = channel.put_batch(items)
                else:
                    for item in items:
                        channel.put(item)
                    sent = len(items)
                for _ in range(sent):
                    channel.get(timeout=10.0)
                moved += sent
            out[f"transport.{name}_record_us"] = (
                (time.perf_counter() - t0) / moved * 1e6
            )
        except queue_mod.Empty:  # a lost record: report, do not hang
            out[f"transport.{name}_record_us"] = 0.0
        finally:
            channel.close()
            if hasattr(channel, "join_thread"):
                channel.join_thread()
            transport.cleanup()
    return out
