"""The job server: caches, warm pool, job lifecycle, HTTP surface.

The acceptance property threaded through these tests: a result served
out of the cache is **bit-identical** to the cold run that populated
it — every counter of the :class:`TimeWarpResult`, not just the final
values.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.circuit.bench_parser import parse_bench
from repro.circuit.netlists import S27_BENCH
from repro.errors import ConfigError
from repro.serve import jobs as jobs_mod
from repro.serve.app import _MAX_HEADERS, ServeApp
from repro.serve.cache import LruCache
from repro.serve.jobs import JobManager, JobRequest, JobState
from repro.serve.pool import RingPool
from repro.sim.event import T_END
from repro.sim.kernel import SequentialSimulator
from repro.sim.stimulus import RandomStimulus

S27_JOB = {
    "circuit": "s27",
    "nodes": 2,
    "num_cycles": 12,
    "gvt_interval": 128,
    "optimism_window": 100,
}


def _reversed_s27() -> str:
    """s27 with its gate lines in reverse order: the same gates under
    the same names, but numbered differently by the parser."""
    lines = S27_BENCH.splitlines()
    gates = [line for line in lines if "=" in line]
    return "\n".join([line for line in lines if "=" not in line] + gates[::-1])


# ----------------------------------------------------------------------
# LruCache
# ----------------------------------------------------------------------
def test_lru_cache_hit_miss_and_eviction_metrics():
    cache = LruCache(2)
    assert cache.get("a") is None
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"
    cache.put("c", 3)  # evicts "b" (least recently used)
    assert cache.get("b") is None
    assert cache.get("c") == 3
    assert len(cache) == 2
    stats = cache.stats()
    assert stats == {
        "size": 2, "capacity": 2, "hits": 2, "misses": 2, "evictions": 1,
    }


def test_lru_cache_rejects_nonpositive_capacity():
    with pytest.raises(ConfigError):
        LruCache(0)


# ----------------------------------------------------------------------
# RingPool
# ----------------------------------------------------------------------
def test_pool_reuses_rings_and_respects_bound():
    pool = RingPool(max_idle=1)
    try:
        with pool.lease(2) as first:
            first_pids = dict(first.worker_pids)
        with pool.lease(2) as again:
            assert dict(again.worker_pids) == first_pids  # warm reuse
        assert pool.reused == 1 and pool.spawned == 1
        # Two concurrent leases of different sizes; the shelf holds 1.
        with pool.lease(2), pool.lease(1):
            pass
        assert pool.stats()["idle"] == 1
        assert pool.retired >= 1
    finally:
        pool.close()
    assert pool.stats()["idle"] == 0


def test_pool_discards_poisoned_rings():
    pool = RingPool(max_idle=2)
    try:
        with pool.lease(2) as ring:
            pids = dict(ring.worker_pids)
            ring.kill()
        assert pool.stats()["idle"] == 0 and pool.retired == 1
        with pool.lease(2) as replacement:
            assert dict(replacement.worker_pids) != pids
        assert pool.spawned == 2
    finally:
        pool.close()


# ----------------------------------------------------------------------
# JobRequest validation
# ----------------------------------------------------------------------
def test_job_request_validation():
    with pytest.raises(ConfigError, match="exactly one netlist"):
        JobRequest()
    with pytest.raises(ConfigError, match="exactly one netlist"):
        JobRequest(circuit="s27", bench="INPUT(A)")
    with pytest.raises(ConfigError, match="unknown job field"):
        JobRequest.from_dict({"circuit": "s27", "bogus": 1})
    with pytest.raises(ConfigError, match="timeout"):
        JobRequest(circuit="s27", timeout=10**9)
    request = JobRequest.from_dict(S27_JOB)
    assert request.machine().num_nodes == 2
    assert "<" in JobRequest(bench=S27_BENCH).describe()["bench"]


def test_result_key_is_every_field_but_timeout():
    """A job is its request: changing any field but ``timeout`` is
    another result-cache key, and changing ``timeout`` is not.  A field
    added to :class:`JobRequest` fails here until it is listed."""
    named = {"circuit": "s5378", "scale": 0.2}
    changed = {
        "circuit": "s9234",
        "bench": _reversed_s27(),
        "scale": 0.3,
        "circuit_seed": 2001,
        "algorithm": "Random",
        "partition_seed": 4,
        "nodes": 4,
        "num_cycles": 41,
        "period": 101,
        "activity": 0.25,
        "stimulus_seed": 8,
        "gvt_interval": 256,
        "optimism_window": None,
        "migration_threshold": 1.5,
        "migration_fraction": 0.1,
        "max_events": 10**6,
        "timeout": 5.0,
    }
    assert set(changed) == {f.name for f in dataclasses.fields(JobRequest)}
    for name, value in changed.items():
        base = JobRequest.from_dict(
            {"bench": S27_BENCH} if name == "bench" else named
        )
        variant = dataclasses.replace(base, **{name: value})
        same = variant.result_key() == base.result_key()
        assert same == (name == "timeout"), name


def test_machine_fields_round_trip_through_request():
    """The machine knobs of a request reach the machine it runs on, and
    each one is part of the result key."""
    knobs = {
        "nodes": 4,
        "gvt_interval": 256,
        "optimism_window": 50,
        "migration_threshold": None,
        "migration_fraction": 0.05,
    }
    request = JobRequest.from_dict({"circuit": "s27", **knobs})
    machine = request.machine()
    assert machine.num_nodes == 4
    assert machine.gvt_interval == 256
    assert machine.optimism_window == 50
    assert machine.migration_threshold is None
    assert machine.migration_fraction == 0.05
    twin = JobRequest.from_dict({"circuit": "s27", **knobs})
    assert twin.machine() == machine
    assert twin.result_key() == request.result_key()
    for name, value in (
        ("nodes", 2),
        ("gvt_interval", 128),
        ("optimism_window", None),
        ("migration_threshold", 1.5),
    ):
        other = JobRequest.from_dict({"circuit": "s27", **knobs, name: value})
        assert other.machine() != machine, name
        assert other.result_key() != request.result_key(), name


# ----------------------------------------------------------------------
# JobManager
# ----------------------------------------------------------------------
@pytest.fixture()
def manager(tmp_path):
    manager = JobManager(
        max_concurrency=2, status_dir=str(tmp_path / "status")
    )
    yield manager
    manager.close()


def test_result_cache_hit_is_bit_identical(manager):
    request = JobRequest.from_dict(S27_JOB)
    cold = manager.wait(manager.submit(request).id, timeout=60)
    assert cold.state is JobState.DONE, cold.error
    assert cold.cache == {"result": "miss", "partition": "miss"}
    warm = manager.wait(manager.submit(request).id, timeout=60)
    assert warm.state is JobState.DONE, warm.error
    assert warm.cache == {"result": "hit"}
    # Bit-identical across every field of the result record.
    assert dataclasses.asdict(warm.result) == dataclasses.asdict(cold.result)
    assert manager.result_cache.stats()["hits"] == 1


def test_reordered_netlist_is_its_own_job(manager):
    """Committed results are indexed by gate number, and gate numbers
    follow line order: a reordered netlist shares no cache entry with
    the original, and every tier answers it with its own results."""
    bench = _reversed_s27()
    circuit = parse_bench(bench, name="inline")
    inline_job = dict(S27_JOB, bench=bench)
    del inline_job["circuit"]

    def run(payload):
        job = manager.wait(
            manager.submit(JobRequest.from_dict(payload)).id, timeout=60
        )
        assert job.state is JobState.DONE, job.error
        request = job.request
        stimulus = RandomStimulus(
            circuit,
            num_cycles=request.num_cycles,
            period=request.period,
            activity=request.activity,
            seed=request.stimulus_seed,
        )
        oracle = SequentialSimulator(circuit, stimulus).run()
        assert job.result.final_values == oracle.final_values
        assert job.result.committed_captures == oracle.committed_captures
        return job.cache

    named = manager.submit(JobRequest.from_dict(S27_JOB))
    assert manager.wait(named.id, timeout=60).state is JobState.DONE
    assert run(dict(inline_job, stimulus_seed=7)) == {
        "result": "miss", "partition": "miss",
    }
    assert run(dict(inline_job, stimulus_seed=8)) == {
        "result": "miss", "partition": "hit",
    }
    assert run(dict(inline_job, stimulus_seed=7)) == {"result": "hit"}


def test_period_up_to_the_schedule_bound_is_served(manager):
    """A served job may reach virtual times near 2**62: with integer
    GVT the optimism window still opens past every cycle."""
    payload = dict(S27_JOB, num_cycles=4, period=T_END // 2 // 4)
    job = manager.wait(manager.submit(JobRequest.from_dict(payload)).id, 60)
    assert job.state is JobState.DONE, job.error
    circuit = parse_bench(S27_BENCH, name="s27")
    stimulus = RandomStimulus(
        circuit, num_cycles=4, period=payload["period"],
        activity=job.request.activity, seed=job.request.stimulus_seed,
    )
    oracle = SequentialSimulator(circuit, stimulus).run()
    assert job.result.final_values == oracle.final_values
    assert job.result.committed_captures == oracle.committed_captures


def test_partition_cache_hit_on_stimulus_change(manager):
    first = manager.wait(manager.submit(JobRequest.from_dict(S27_JOB)).id, 60)
    assert first.state is JobState.DONE, first.error
    changed = dict(S27_JOB, stimulus_seed=99)
    second = manager.wait(
        manager.submit(JobRequest.from_dict(changed)).id, timeout=60
    )
    assert second.state is JobState.DONE, second.error
    # Different stimulus -> result miss, but the partition is reusable.
    assert second.cache == {"result": "miss", "partition": "hit"}
    # A partition hit is a world hit: the cached world is the one the
    # ring's workers kept, so the second job shipped no circuit.
    pool = manager.stats()["pool"]
    assert (pool["world_ships"], pool["world_hits"]) == (1, 1)
    counters = manager.stats()["counters"]["counters"]
    assert counters["ring_world_ships"] == 1
    assert counters["ring_world_hits"] == 1
    assert counters["ring_world_evictions"] == 0


def test_job_failure_is_reported_not_fatal(manager):
    # More nodes than s27 has gates: valid at construction (the gate
    # count is unknown until the netlist loads), so it fails in the run.
    bad = manager.wait(
        manager.submit(JobRequest.from_dict(dict(S27_JOB, nodes=64))).id,
        timeout=60,
    )
    assert bad.state is JobState.FAILED
    assert "64 partitions" in bad.error
    # The manager survives and still serves jobs.
    ok = manager.wait(manager.submit(JobRequest.from_dict(S27_JOB)).id, 60)
    assert ok.state is JobState.DONE, ok.error


def test_cancel_queued_job():
    manager = JobManager(max_concurrency=1)
    try:
        slow = manager.submit(
            JobRequest.from_dict(dict(S27_JOB, num_cycles=40))
        )
        queued = manager.submit(JobRequest.from_dict(S27_JOB))
        assert manager.cancel(queued.id)
        done = manager.wait(queued.id, timeout=30)
        assert done.state is JobState.CANCELLED
        finished = manager.wait(slow.id, timeout=60)
        assert finished.state is JobState.DONE, finished.error
        assert not manager.cancel(queued.id)  # already terminal
    finally:
        manager.close()



def test_close_does_not_finish_a_cancelled_queued_job_twice():
    """A job cancelled while queued is terminal: shutting the manager
    down must neither count it again nor overwrite its error."""
    manager = JobManager(max_concurrency=1)
    gate = threading.Event()
    manager._execute = lambda job: gate.wait(30)  # holds the one slot
    held = manager.submit(JobRequest.from_dict(S27_JOB))
    queued = manager.submit(JobRequest.from_dict(dict(S27_JOB, num_cycles=9)))
    assert manager.cancel(queued.id)
    gate.set()
    manager.close()
    assert manager.stats()["counters"]["counters"]["jobs_cancelled"] == 1
    assert list(manager._finished) == [queued.id]
    assert queued.state is JobState.CANCELLED
    assert queued.error == "cancelled while queued"
    assert held.id not in manager._finished


def test_job_counts_survive_concurrent_finishes(monkeypatch):
    """Jobs finishing on more threads than cores lose no count."""
    import sys

    manager = JobManager(max_concurrency=8)
    monkeypatch.setattr(
        manager, "_execute", lambda job: manager._finish(job, JobState.DONE)
    )
    request = JobRequest.from_dict(S27_JOB)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        jobs = [manager.submit(request) for _ in range(2000)]
        for job in jobs:
            job._future.result(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        manager.close()
    counters = manager.stats()["counters"]["counters"]
    assert counters["jobs_submitted"] == counters["jobs_done"] == 2000


def test_accepted_cancel_always_ends_cancelled():
    """A cancel that returned True ends the job CANCELLED wherever it
    lands: before the ring is leased, while it is being leased (no ring
    to kill yet), or mid-run (the killed ring's pipe raises OSError)."""
    manager = JobManager(max_concurrency=1)
    try:
        for delay_ms in range(6):
            job = manager.submit(
                JobRequest.from_dict(
                    {"circuit": "s9234", "scale": 0.12, "nodes": 2,
                     "num_cycles": 60, "stimulus_seed": delay_ms}
                )
            )
            time.sleep(delay_ms / 500)
            assert manager.cancel(job.id)
            done = manager.wait(job.id, timeout=60)
            assert done.state is JobState.CANCELLED, (delay_ms, done.error)
    finally:
        manager.close()


def test_evicted_jobs_take_their_status_files(manager, monkeypatch):
    """A job evicted from the table past ``MAX_TERMINAL_JOBS`` leaves no
    live-status files behind."""
    monkeypatch.setattr(jobs_mod, "MAX_TERMINAL_JOBS", 2)
    ids = []
    for seed in range(5):
        request = JobRequest.from_dict(dict(S27_JOB, stimulus_seed=seed))
        job = manager.wait(manager.submit(request).id, timeout=60)
        assert job.state is JobState.DONE, job.error
        ids.append(job.id)
    # Eviction runs at submit: the 5th found 4 finished and kept 2.
    assert [i for i in ids if manager.get(i) is None] == ids[:2]
    owners = {name.split(".")[0] for name in os.listdir(manager.status_dir)}
    assert owners == set(ids[2:])


def test_serve_removes_only_the_status_dir_it_made(monkeypatch, tmp_path):
    import tempfile

    from repro import cli
    from repro.serve import app

    made = []
    mkdtemp = tempfile.mkdtemp

    def recording_mkdtemp(**kwargs):
        made.append(mkdtemp(dir=tmp_path, **kwargs))
        return made[-1]

    async def no_server(manager, **_):
        assert os.path.isdir(manager.status_dir)

    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    monkeypatch.setattr(app, "run_server", no_server)
    assert cli.main(["serve", "--port", "0"]) == 0
    assert len(made) == 1 and not os.path.exists(made[0])
    given = tmp_path / "given"
    assert cli.main(["serve", "--port", "0", "--status-dir", str(given)]) == 0
    assert given.is_dir()


def test_live_status_snapshots_carry_run_id(manager):
    job = manager.submit(JobRequest.from_dict(dict(S27_JOB, num_cycles=60)))
    deadline = time.monotonic() + 60
    saw_snapshot = False
    while time.monotonic() < deadline:
        snapshots = manager.status_snapshots(job.id)
        if snapshots:
            saw_snapshot = True
            assert all(s["run"] == job.id for s in snapshots.values())
        if manager.get(job.id).state.terminal:
            break
        time.sleep(0.01)
    assert manager.wait(job.id, timeout=1).state is JobState.DONE
    # The final (done) snapshots are stamped too.
    assert saw_snapshot or manager.status_snapshots(job.id)


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
class _Server:
    """ServeApp on an ephemeral port, driven from a background loop."""

    def __init__(self, manager: JobManager) -> None:
        self.manager = manager
        self.loop = asyncio.new_event_loop()
        self.app = ServeApp(manager, host="127.0.0.1", port=0)
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        deadline = time.monotonic() + 10
        while self.app._server is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert self.app._server is not None, "server failed to start"
        self.base = f"http://127.0.0.1:{self.app.port}"

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.app.start())
        self.loop.run_forever()

    def request(self, method: str, path: str, payload=None):
        data = json.dumps(payload).encode() if payload is not None else None
        req = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self.app.stop(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)


@pytest.fixture()
def server(tmp_path):
    manager = JobManager(
        max_concurrency=2, status_dir=str(tmp_path / "status")
    )
    server = _Server(manager)
    yield server
    server.close()
    manager.close()


def test_http_submit_wait_and_cache_hit(server):
    status, health = server.request("GET", "/healthz")
    assert (status, health) == (200, {"ok": True})
    status, job = server.request("POST", "/jobs", S27_JOB)
    assert status == 202 and job["state"] in ("queued", "running")
    status, done = server.request("GET", f"/jobs/{job['id']}?wait=60")
    assert done["state"] == "done", done["error"]
    assert done["result"]["final_values"]
    status, again = server.request("POST", "/jobs", S27_JOB)
    status, hit = server.request("GET", f"/jobs/{again['id']}?wait=60")
    assert hit["state"] == "done" and hit["cache"] == {"result": "hit"}
    assert hit["result"] == done["result"]
    status, metrics = server.request("GET", "/metrics")
    assert metrics["result_cache"]["hits"] >= 1
    assert metrics["pool"]["spawned"] >= 1
    assert metrics["pool"]["world_ships"] == 1
    assert metrics["counters"]["counters"]["ring_world_ships"] == 1
    status, listing = server.request("GET", "/jobs")
    assert {j["id"] for j in listing["jobs"]} >= {job["id"], again["id"]}
    assert all("result" not in j for j in listing["jobs"])


def _run_jobs(server, payloads):
    """Submit each payload and wait for it to finish, one at a time."""
    for payload in payloads:
        _, job = server.request("POST", "/jobs", payload)
        _, done = server.request("GET", f"/jobs/{job['id']}?wait=60")
        assert done["state"] == "done", done["error"]


def test_metrics_payload_holds_what_its_readers_read(server):
    """``GET /metrics`` after a fixed s27 sequence — a miss, its repeat,
    a new stimulus — pins every key the served-mix benchmark
    (``benchmarks/e2e/servemix.py``) and the CI serve smoke read."""
    _run_jobs(server, [S27_JOB, S27_JOB, dict(S27_JOB, stimulus_seed=99)])
    _, metrics = server.request("GET", "/metrics")
    hits_misses = {
        cache: (metrics[cache]["hits"], metrics[cache]["misses"])
        for cache in ("result_cache", "partition_cache")
    }
    assert hits_misses == {"result_cache": (1, 2), "partition_cache": (1, 1)}
    assert metrics["pool"]["spawned"] == 1
    counters = metrics["counters"]["counters"]
    # Read as the benchmark reads them: a counter still at 0 may be
    # absent.
    ring = {
        name: counters.get(name, 0)
        for name in (
            "ring_spawns", "ring_reuses", "ring_retires", "ring_world_ships",
        )
    }
    assert ring == {
        "ring_spawns": 1, "ring_reuses": 1, "ring_retires": 0,
        "ring_world_ships": 1,
    }
    assert counters["result_cache_hits"] == 1
    assert counters["jobs_result_cache_hits"] == 1
    # Two jobs ran on a ring (the repeat was a result-cache hit).
    run = metrics["counters"]["histograms"]["job_run_seconds"]
    assert run["count"] == 2 and run["p50"] > 0


def test_metrics_keeps_only_the_newest_run_times(monkeypatch):
    """The run times ``/metrics`` digests are bounded like the job
    table: past ``MAX_TERMINAL_JOBS`` the oldest go."""
    monkeypatch.setattr(jobs_mod, "MAX_TERMINAL_JOBS", 2)
    manager = JobManager(max_concurrency=1)
    server = _Server(manager)
    try:
        _run_jobs(
            server, [dict(S27_JOB, stimulus_seed=seed) for seed in range(4)]
        )
        _, metrics = server.request("GET", "/metrics")
    finally:
        server.close()
        manager.close()
    assert metrics["counters"]["histograms"]["job_run_seconds"]["count"] == 2


def test_http_rejects_bad_requests(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        server.request("POST", "/jobs", {"circuit": "s27", "bogus": True})
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        server.request("GET", "/jobs/job-999999")
    assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        server.request("GET", "/nope")
    assert excinfo.value.code == 404


@pytest.mark.parametrize(
    "field, value",
    [
        ("gvt_interval", 0),
        ("optimism_window", 0),
        ("migration_threshold", 0.5),
        ("migration_fraction", 2.0),
        ("algorithm", "Bogus"),
        ("scale", -1),
        ("circuit", "s99"),
        # Ceilings: asking is all these cases do; no ring is leased.
        ("nodes", jobs_mod.MAX_NODES + 1),
        ("num_cycles", jobs_mod.MAX_CYCLES + 1),
        # The stimulus' own schedule check: no virtual time may come
        # near the end of time (and a clock period is >= 2, below).
        ("period", T_END // 2 // S27_JOB["num_cycles"] + 1),
        # Field types: the request is the cache key.
        ("nodes", 2.5),
        ("nodes", True),
        ("num_cycles", 40.5),
        ("stimulus_seed", 1.5),
        ("partition_seed", "x"),
        ("activity", "0.5"),
        ("optimism_window", 1e9),
        ("circuit", ["s27"]),
        ("scale", float("nan")),
        ("period", 1),
    ],
)
def test_invalid_job_is_rejected_at_submission(server, field, value):
    payload = dict(S27_JOB, **{field: value})
    with pytest.raises(ConfigError):
        JobRequest.from_dict(payload)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        server.request("POST", "/jobs", payload)
    assert excinfo.value.code == 400


def test_job_table_keeps_only_the_newest_terminal_jobs(server, monkeypatch):
    """Finished jobs (each holding its whole result) are evicted
    oldest-first past ``MAX_TERMINAL_JOBS``; a live job never is, an
    evicted id is a 404, and the result cache does not notice."""
    monkeypatch.setattr(jobs_mod, "MAX_TERMINAL_JOBS", 8)
    manager = server.manager
    request = JobRequest.from_dict(S27_JOB)
    # The oldest job of all is held short of its terminal state.
    gate = threading.Event()
    execute = manager._execute

    def held(job):
        if job.id == "job-000001":
            gate.wait(60)
        execute(job)

    monkeypatch.setattr(manager, "_execute", held)
    live = manager.submit(request)
    ids = []
    for _ in range(12):
        job = manager.wait(manager.submit(request).id, timeout=60)
        assert job.state is JobState.DONE, job.error
        ids.append(job.id)
    assert job.cache == {"result": "hit"}
    # Eviction runs at submit: the 12th found 11 finished and kept 8.
    assert [i for i in ids if manager.get(i) is None] == ids[:3]
    assert manager.get(live.id) is live
    assert len(manager.jobs()) == 1 + 9
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        server.request("GET", f"/jobs/{ids[0]}")
    assert excinfo.value.code == 404
    status, kept = server.request("GET", f"/jobs/{ids[-1]}")
    assert status == 200 and kept["state"] == "done"
    gate.set()
    done = manager.wait(live.id, timeout=60)
    assert done.state is JobState.DONE, done.error
    assert done.cache == {"result": "hit"}



def test_parked_long_polls_do_not_delay_a_submission(server, monkeypatch):
    """A parked ``?wait=`` long-poll holds no thread: with as many polls
    parked as the loop's default executor has threads, a POST still
    answers at once."""
    manager = server.manager
    gate = threading.Event()
    execute = manager._execute

    def held(job):
        if job.id == "job-000001":
            gate.wait(30)
        execute(job)

    monkeypatch.setattr(manager, "_execute", held)
    _, job = server.request("POST", "/jobs", S27_JOB)
    # ThreadPoolExecutor's default size: 6 threads on a 2-core host.
    parked = min(32, (os.cpu_count() or 1) + 4)
    polls = [
        threading.Thread(
            target=server.request,
            args=("GET", f"/jobs/{job['id']}?wait=10"),
        )
        for _ in range(parked)
    ]
    for poll in polls:
        poll.start()
    time.sleep(0.5)  # let every poll park
    start = time.monotonic()
    status, _ = server.request(
        "POST", "/jobs", dict(S27_JOB, stimulus_seed=11)
    )
    elapsed = time.monotonic() - start
    gate.set()
    for poll in polls:
        poll.join(timeout=30)
        assert not poll.is_alive()
    assert status == 202
    assert elapsed < 0.5, f"POST took {elapsed:.2f} s behind parked polls"


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_http_bad_content_length_is_400(server, length):
    """A Content-Length that is not a non-negative integer is the
    client's error, answered before any body is read."""
    with socket.create_connection(("127.0.0.1", server.app.port), 10) as sock:
        sock.sendall(
            f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n".encode()
        )
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split()[1] == b"400"
    assert length in json.loads(body)["error"]

@pytest.mark.parametrize("extra, status", [(0, b"200"), (1, b"400")])
def test_http_request_head_is_bounded(server, extra, status):
    """A request may send up to ``_MAX_HEADERS`` header lines; one more
    is the client's error."""
    lines = "".join(
        f"X-Filler-{n}: {n}\r\n" for n in range(_MAX_HEADERS + extra)
    )
    with socket.create_connection(("127.0.0.1", server.app.port), 10) as sock:
        sock.sendall(f"GET /healthz HTTP/1.1\r\n{lines}\r\n".encode())
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    assert reply.split(b"\r\n")[0].split()[1] == status


def test_http_event_stream_ends_with_terminal_state(server):
    _, job = server.request(
        "POST", "/jobs", dict(S27_JOB, num_cycles=40, stimulus_seed=5)
    )
    req = urllib.request.Request(server.base + f"/jobs/{job['id']}/events")
    events = []
    with urllib.request.urlopen(req, timeout=60) as resp:
        buffer = b""
        while True:
            chunk = resp.read(1)
            if not chunk:
                break
            buffer += chunk
            if buffer.endswith(b"\n\n"):
                events.append(buffer.decode())
                buffer = b""
    assert events, "no SSE frames received"
    assert events[-1].startswith("event: state")
    final = json.loads(events[-1].split("data: ", 1)[1])
    assert final["state"] == "done"


def test_http_cancel(server):
    _, job = server.request(
        "POST", "/jobs",
        {"circuit": "s9234", "scale": 0.12, "nodes": 2, "num_cycles": 60},
    )
    status, cancelled = server.request("DELETE", f"/jobs/{job['id']}")
    assert status == 200 and cancelled["cancelled"] is True
    _, detail = server.request("GET", f"/jobs/{job['id']}?wait=60")
    assert detail["state"] == "cancelled"
