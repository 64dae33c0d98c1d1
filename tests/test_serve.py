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
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.circuit.netlists import S27_BENCH
from repro.errors import ConfigError
from repro.obs import Metrics
from repro.serve import jobs as jobs_mod
from repro.serve.app import ServeApp
from repro.serve.cache import LruCache
from repro.serve.jobs import JobManager, JobRequest, JobState
from repro.serve.pool import RingPool

S27_JOB = {
    "circuit": "s27",
    "nodes": 2,
    "num_cycles": 12,
    "gvt_interval": 128,
    "optimism_window": 100,
}


# ----------------------------------------------------------------------
# LruCache
# ----------------------------------------------------------------------
def test_lru_cache_hit_miss_and_eviction_metrics():
    metrics = Metrics(enabled=True)
    cache = LruCache(2, metrics=metrics, name="unit")
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
    counters = metrics.snapshot()["counters"]
    assert counters["unit_hits"] == 2
    assert counters["unit_misses"] == 2
    assert counters["unit_evictions"] == 1


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
        assert pool.idle_count() == 1
        assert pool.retired >= 1
    finally:
        pool.close()
    assert pool.idle_count() == 0


def test_pool_discards_poisoned_rings():
    pool = RingPool(max_idle=2)
    try:
        with pool.lease(2) as ring:
            pids = dict(ring.worker_pids)
            ring.kill()
        assert pool.idle_count() == 0 and pool.retired == 1
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


def test_inline_bench_shares_cache_with_named_benchmark(manager):
    """s27-by-name and s27-by-source canonicalise to the same key."""
    named = manager.wait(
        manager.submit(JobRequest.from_dict(S27_JOB)).id, timeout=60
    )
    assert named.state is JobState.DONE, named.error
    inline_payload = dict(S27_JOB)
    del inline_payload["circuit"]
    inline_payload["bench"] = S27_BENCH
    inline = manager.wait(
        manager.submit(JobRequest.from_dict(inline_payload)).id, timeout=60
    )
    assert inline.state is JobState.DONE, inline.error
    assert inline.cache == {"result": "hit"}
    assert dataclasses.asdict(inline.result) == dataclasses.asdict(named.result)


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
    counters = manager.metrics.snapshot()["counters"]
    assert counters["ring_world_ships"] == 1
    assert counters["ring_world_hits"] == 1
    assert counters["ring_world_evictions"] == 0


def test_job_failure_is_reported_not_fatal(manager):
    bad = manager.wait(
        manager.submit(
            JobRequest.from_dict(dict(S27_JOB, algorithm="NoSuchAlgo"))
        ).id,
        timeout=60,
    )
    assert bad.state is JobState.FAILED
    assert "NoSuchAlgo" in bad.error
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
