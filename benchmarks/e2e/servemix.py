"""``serve-http-mix``: the job server driven over its real socket.

``python -m repro serve`` runs as a subprocess; one closed-loop client
(the next job is sent only when the previous reply is in hand) submits a
seeded mix of small jobs — exact repeats, new stimuli on a known
partition, new partitions — and checks, for every reply, the committed
result against the sequential oracle and the ``cache`` field against
the class the mix generator intended.  The serving layer (HTTP, keys,
caches, pool) and the *warm* ring lifetime do the work here; a big cold
run does not.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from collections import defaultdict, deque
from dataclasses import dataclass

from repro.circuit.iscas89 import load_benchmark
from repro.obs.metrics import percentile
from repro.partition.metrics import partition_quality
from repro.partition.registry import get_partitioner
from repro.sim.kernel import SequentialSimulator
from repro.sim.stimulus import RandomStimulus
from repro.warped.kernel import TimeWarpSimulator
from repro.warped.machine import VirtualMachine

from common import (
    CIRCUIT_SEED,
    PARTITION_SEED,
    SRC,
    HostProbe,
    Tally,
    digest,
    matches_oracle,
    median,
    sub_seed,
)
from engines import (
    TRANSPORT_RECORDS,
    kernel_layers,
    probe_ring,
    probe_transport,
    result_document,
)
from spans import Tracer

#: The job shape: small enough that per-job overhead, not simulation,
#: is what a change to the serving layer moves.
SHAPE = {
    "circuit": "s5378",
    "scale": 0.2,
    "circuit_seed": CIRCUIT_SEED,
    "algorithm": "Multilevel",
    "nodes": 2,
    "num_cycles": 40,
    "period": 100,
    "activity": 0.5,
    "gvt_interval": 512,
    "optimism_window": 100,
}
#: Mix: share of exact repeats (result-cache hit) and of new partition
#: seeds (partition-cache miss); the rest are new stimuli on a partition
#: the server has seen (partition hit, runs on the warm ring).
HIT_SHARE = 0.2
COLD_SHARE = 0.2
#: Repeats are drawn from this many most recent distinct jobs, well
#: inside the server's default 128-entry result LRU.
REPEAT_WINDOW = 32
PARTITION_WINDOW = 8
#: Every served job is submitted with this timeout, so a stalled ring
#: costs seconds, not the server's 120 s default.
JOB_TIMEOUT_S = 5.0
TRANSPORT = "queue"
SETUP_REPEATS = 5
SMOKE_JOBS = 24
MIN_JOBS = 30
BOOT_TIMEOUT_S = 30.0
#: Distinct stimuli of the mix the virtual kernel is also run on.
MODELLED_STIMULI = 25

CLASSES = {
    "hit": {"result": "hit"},
    "warm": {"result": "miss", "partition": "hit"},
    "cold": {"result": "miss", "partition": "miss"},
}


@dataclass(frozen=True)
class MixJob:
    cls: str
    stimulus_seed: int
    partition_seed: int

    def body(self) -> bytes:
        return json.dumps(
            {
                **SHAPE,
                "stimulus_seed": self.stimulus_seed,
                "partition_seed": self.partition_seed,
                "timeout": JOB_TIMEOUT_S,
            }
        ).encode()


class Mix:
    """Seeded job stream; the same seed gives the same stream.

    The caller reports each job that completed (``done``): only those
    are in the server's caches, so only those can be repeated.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(sub_seed(seed, "mix"))
        self._recent: deque[MixJob] = deque(maxlen=REPEAT_WINDOW)
        self._partitions: deque[int] = deque(maxlen=PARTITION_WINDOW)

    def first(self) -> MixJob:
        """The job that warms a fresh server: everything misses.  It
        runs on the service's base partition, the one the modelled
        number is computed on."""
        return MixJob("cold", self._rng.randrange(2**31), PARTITION_SEED)

    def next(self) -> MixJob:
        draw = self._rng.random()
        if draw < HIT_SHARE and self._recent:
            earlier = self._rng.choice(self._recent)
            return MixJob("hit", earlier.stimulus_seed, earlier.partition_seed)
        if draw < 1.0 - COLD_SHARE and self._partitions:
            return MixJob(
                "warm",
                self._rng.randrange(2**31),
                self._rng.choice(self._partitions),
            )
        return MixJob("cold", self._rng.randrange(2**31), self._rng.randrange(2**31))

    def done(self, job: MixJob) -> None:
        if job.cls != "hit":
            self._recent.append(job)
        if job.partition_seed not in self._partitions:
            self._partitions.append(job.partition_seed)


# ----------------------------------------------------------------------
# the server process and the client
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve`` as a subprocess of this interpreter."""

    def __init__(self, workdir: str, index: int) -> None:
        self.workdir = workdir
        self.index = index
        self.process: subprocess.Popen | None = None
        self.port = 0

    def boot(self) -> float:
        """Start the server; seconds from exec to the first 200."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        t0 = time.perf_counter()
        # The server gets its own copy of the log's descriptor.
        with open(os.path.join(self.workdir, f"serve{self.index}.log"), "wb") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", str(self.port),
                    "--transport", TRANSPORT,
                    "--max-jobs", "1",
                    "--status-dir", os.path.join(self.workdir, f"status{self.index}"),
                ],
                env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        while True:
            try:
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    return time.perf_counter() - t0
            except OSError:
                pass
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}")
            if time.perf_counter() - t0 > BOOT_TIMEOUT_S:
                raise RuntimeError("server did not answer /healthz")
            time.sleep(0.01)

    def request(self, method: str, path: str, body: bytes | None = None):
        """(status, body bytes); one connection per request, as the
        server closes after every reply."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=body)
            reply = conn.getresponse()
            return reply.status, reply.read()
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGINT (the server's clean path: rings closed, segments
        unlinked), then the whole session if it does not go."""
        process, self.process = self.process, None
        if process is None:
            return
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGINT)
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()


class _Client:
    """The closed-loop client: submit, wait, verify, classify."""

    def __init__(self, tracer: Tracer, tally: Tally, circuit):
        self.server: Server | None = None
        self.tracer = tracer
        self.tally = tally
        self.circuit = circuit
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: stimulus seed -> (sequential result, its host wall)
        self.oracles: dict[int, tuple] = {}
        #: stimulus seed -> committed events of the served result
        self.committed: dict[int, int] = {}
        self.timeouts = 0

    def oracle(self, stimulus_seed: int) -> tuple:
        """Sequential result and wall for one stimulus (partition-
        independent); computed before the job is sent, outside its
        service time."""
        if stimulus_seed not in self.oracles:
            job = f"oracle/{stimulus_seed}"
            with self.tracer.span("sim.stimulus", job=job) as sp:
                stimulus = _stimulus(self.circuit, stimulus_seed)
            self.samples["sim.stimulus_s"].append(sp.seconds)
            with self.tracer.span("sim.sequential", job=job) as sp:
                result = SequentialSimulator(self.circuit, stimulus).run()
            self.samples["sim.sequential_s"].append(sp.seconds)
            self.samples["sim.sequential_events_per_s"].append(
                result.events_processed / sp.seconds
            )
            self.oracles[stimulus_seed] = (result, sp.seconds)
        return self.oracles[stimulus_seed]

    def job(self, job: MixJob, job_id: str) -> float | None:
        """Service time of one verified job, or ``None`` if it failed."""
        oracle, sequential_s = self.oracle(job.stimulus_seed)
        tracer, tally, samples = self.tracer, self.tally, self.samples
        gc.collect()
        t0 = time.perf_counter()
        with tracer.span("job", job=job_id) as root:
            with tracer.span("serve.submit") as submit:
                status, raw = self.server.request("POST", "/jobs", job.body())
            if status != 202:
                tally.fail(f"{job_id}: POST /jobs -> {status}")
                return None
            server_id = json.loads(raw)["id"]
            with tracer.span("serve.wait"):
                status, raw = self.server.request(
                    "GET", f"/jobs/{server_id}?wait={2 * JOB_TIMEOUT_S:g}"
                )
            with tracer.span("client.decode"):
                reply = json.loads(raw) if status == 200 else {}
        root.wall = time.perf_counter() - t0
        if reply.get("state") != "done":
            error = str(reply.get("error"))
            if "timed out" in error:
                self.timeouts += 1
            tally.fail(f"{job_id}: {status} {reply.get('state')}: {error[:120]}")
            return None
        result = reply["result"]
        if not matches_oracle(
            result["final_values"], result["committed_captures"], oracle
        ):
            tally.wrong(f"{job_id}: committed result differs from oracle")
            return None
        if reply["cache"] != CLASSES[job.cls]:
            tally.wrong(
                f"{job_id}: expected cache {CLASSES[job.cls]}, got {reply['cache']}"
            )
            return None
        tally.ok()
        self.committed[job.stimulus_seed] = (
            result["events_processed"] - result["events_rolled_back"]
        )
        samples["job_s"].append(root.wall)
        samples["job_us_per_event"].append(root.wall / oracle.events_processed * 1e6)
        samples["speedup"].append(sequential_s / root.wall)
        samples["submit_ms"].append(submit.seconds * 1e3)
        samples["result_bytes"].append(len(raw))
        samples[f"{job.cls}_ms"].append(root.wall * 1e3)
        if job.cls == "warm":
            kept = "traced" if tracer.enabled else "untraced"
            samples[f"warm_ms/{kept}"].append(root.wall * 1e3)
        return root.wall


def _stimulus(circuit, seed: int) -> RandomStimulus:
    return RandomStimulus(
        circuit,
        num_cycles=SHAPE["num_cycles"],
        period=SHAPE["period"],
        activity=SHAPE["activity"],
        seed=seed,
    )


def run_serve_workload(
    name: str, *, seed: int, seconds: float, trace: bool, smoke: bool, workdir: str
) -> dict:
    tracer = Tracer(enabled=trace)
    tally = Tally()
    probe = HostProbe()
    wall_start = time.perf_counter()
    with tracer.span("circuit.load") as load:
        circuit = load_benchmark(
            SHAPE["circuit"], scale=SHAPE["scale"], seed=SHAPE["circuit_seed"]
        )
    mix = Mix(seed)
    first = mix.first()
    client = _Client(tracer, tally, circuit)
    client.oracle(first.stimulus_seed)
    setup, boots, first_jobs, floor = [], [], [], []
    server = None
    try:
        # Set-up, several times over: boot to the first 200, then the first
        # job, which spawns the ring and misses every cache.  The last
        # server stays up for the mix.
        for index in range(2 if smoke else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = client.server = Server(workdir, index)
            t0 = time.perf_counter()
            with tracer.span("serve.boot", job=f"boot/{index}"):
                boots.append(server.boot())
            wall = client.job(first, f"{name}/{seed}/first/{index}")
            if wall is None:
                raise RuntimeError(f"first job failed: {tally.notes[-1]}")
            first_jobs.append(wall)
            setup.append(time.perf_counter() - t0)
        mix.done(first)
        # The first jobs are set-up, not the mix: keep only the oracles' samples.
        client.samples = defaultdict(
            list, {k: v for k, v in client.samples.items() if k.startswith("sim.")}
        )

        for _ in range(20):
            t0 = time.perf_counter()
            server.request("GET", "/healthz")
            floor.append((time.perf_counter() - t0) * 1e3)

        jobs = 0
        deadline = time.perf_counter() + seconds
        while (
            jobs < SMOKE_JOBS
            if smoke
            else (time.perf_counter() < deadline or jobs < MIN_JOBS)
        ):
            if jobs % 20 == 0:
                probe.spin()
            job = mix.next()
            # Every other job of the traced run drops its spans: the two
            # halves give the cost of the benchmark's own tracing.
            tracer.enabled = trace and jobs % 2 == 0
            if client.job(job, f"{name}/{seed}/{jobs}") is not None:
                mix.done(job)
            jobs += 1
        tracer.enabled = trace
        _, raw = server.request("GET", "/metrics")
        served = json.loads(raw)
    finally:
        if server is not None:
            server.stop()

    # The modelled number beside the measured one: the virtual kernel on
    # the service's base partition, over the first distinct stimuli of
    # the mix — which also gives the committed-event count each of those
    # served results must reproduce.
    samples = client.samples
    with tracer.span("partition.partition") as partition:
        assignment = get_partitioner(
            SHAPE["algorithm"], seed=first.partition_seed
        ).partition(circuit, SHAPE["nodes"])
    machine = VirtualMachine(
        num_nodes=SHAPE["nodes"],
        gvt_interval=SHAPE["gvt_interval"],
        optimism_window=SHAPE["optimism_window"],
    )
    modelled, kernel = [], None
    for stimulus_seed in list(client.oracles)[: 9 if smoke else MODELLED_STIMULI]:
        with tracer.span("kernel.run", job=f"model/{stimulus_seed}") as sp:
            reference = TimeWarpSimulator(
                circuit, assignment, _stimulus(circuit, stimulus_seed), machine
            ).run()
        samples["kernel.run_s"].append(sp.seconds)
        samples["kernel.events_per_s"].append(reference.events_processed / sp.seconds)
        kernel = kernel or reference
        modelled.append(
            client.oracles[stimulus_seed][0].execution_time / reference.execution_time
        )
        served_committed = client.committed.get(stimulus_seed)
        if served_committed not in (None, reference.events_committed):
            tally.wrong(
                f"stimulus {stimulus_seed}: served job committed "
                f"{served_committed} events, virtual kernel "
                f"{reference.events_committed}"
            )

    # All-jobs medians: a fifth of the jobs (hits) is faster and a fifth
    # (partition misses) slower than the warm-ring class, so the median
    # sits inside that class whatever the draw.
    end_to_end = {
        "setup_s": median(setup),
        "job_us_per_event": median(samples["job_us_per_event"]),
        "speedup_vs_sequential": median(samples["speedup"]),
        "modelled_speedup": median(modelled),
    }
    detail = {
        "setup_s": digest(setup),
        "modelled_speedup": digest(modelled),
        "jobs": jobs,
        "classes": {cls: len(samples[f"{cls}_ms"]) for cls in CLASSES},
    }
    for key in ("job_s", "job_us_per_event", "speedup", "sim.sequential_s"):
        detail[key] = digest(samples[key])

    layers: dict[str, float] = {}
    if trace:
        completed, service = len(samples["job_s"]), sum(samples["job_s"])
        counters = served["counters"]["counters"]
        run_hist = served["counters"]["histograms"].get("job_run_seconds", {})
        quality = partition_quality(assignment)
        first_oracle = client.oracles[first.stimulus_seed][0]
        events_per_s = median(samples["kernel.events_per_s"])
        layers = {
            "circuit.load_s": load.seconds,
            "circuit.gates": circuit.num_gates,
            "sim.stimulus_s": median(samples["sim.stimulus_s"]),
            "sim.sequential_s": median(samples["sim.sequential_s"]),
            "sim.sequential_events": first_oracle.events_processed,
            "sim.sequential_events_per_s": median(samples["sim.sequential_events_per_s"]),
            "partition.partition_s": partition.seconds,
            "partition.edge_cut": quality.edge_cut,
            "partition.load_imbalance": quality.load_imbalance,
            "partition.concurrency": quality.concurrency,
            "kernel.run_s": median(samples["kernel.run_s"]),
            "kernel.events_per_s": events_per_s,
            "kernel.host_us_per_event": 1e6 / events_per_s,
            **kernel_layers(kernel),
            "serve.boot_s": median(boots),
            "serve.first_job_s": median(first_jobs),
            "serve.http_floor_ms": median(floor),
            "serve.submit_ms": median(samples["submit_ms"]),
            "serve.result_bytes": median(samples["result_bytes"]),
            "serve.hit_p50_ms": median(samples["hit_ms"]),
            "serve.warm_p50_ms": median(samples["warm_ms"]),
            "serve.cold_p50_ms": median(samples["cold_ms"]),
            "serve.job_p90_ms": (
                percentile(sorted(samples["job_s"]), 0.9) * 1e3 if completed else 0.0
            ),
            "serve.jobs_per_s": completed / service if service else 0.0,
            "serve.run_p50_ms": (run_hist.get("p50") or 0.0) * 1e3,
            "serve.result_cache_hit_ratio": _hit_ratio(served["result_cache"]),
            "serve.partition_cache_hit_ratio": _hit_ratio(served["partition_cache"]),
            "serve.ring_spawns": counters.get("ring_spawns", 0),
            "serve.ring_reuses": counters.get("ring_reuses", 0),
            "serve.ring_retired": counters.get("ring_retires", 0),
            "serve.timeouts": client.timeouts,
            "bench.job_p50_s": median(samples["job_s"]),
        }
        layers["serve.overhead_p50_ms"] = (
            layers["serve.warm_p50_ms"] - layers["serve.run_p50_ms"]
        )
        untraced = median(samples["warm_ms/untraced"])
        layers["bench.trace_overhead_ratio"] = (
            median(samples["warm_ms/traced"]) / untraced if untraced else 0.0
        )
        # The warm ring and the transports under the server, on their own.
        layers.update(
            probe_ring(
                tracer, tally,
                (circuit, assignment, _stimulus(circuit, first.stimulus_seed), machine),
                first_oracle, transport=TRANSPORT, jobs=2 if smoke else 8,
            )
        )
        layers.update(probe_transport(TRANSPORT_RECORDS // (10 if smoke else 1)))

    return result_document(
        tracer, tally, probe, wall_start,
        end_to_end=end_to_end, layers=layers, detail=detail,
    )


def _hit_ratio(cache: dict) -> float:
    lookups = cache["hits"] + cache["misses"]
    return cache["hits"] / lookups if lookups else 0.0
