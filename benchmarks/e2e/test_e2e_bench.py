"""Tests of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import common
import spans
from common import EXACT, Tally, contract, end_to_end, per_layer

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")


# ----------------------------------------------------------------------
# the contract file
# ----------------------------------------------------------------------
def test_contract_file_obeys_the_drivers_limits():
    doc = contract()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["benchmarks/e2e"]
    assert 1 <= doc["run_seconds"] <= 60 and isinstance(doc["run_seconds"], int)
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names), "a name is used once"
    setup = end_to_end()["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    # 4 + 22 runs per workload, each --seconds plus set-up, inside the cap.
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 12) < 3420


def test_exact_counters_are_per_layer_metrics():
    assert EXACT <= set(per_layer())


# ----------------------------------------------------------------------
# the served mix
# ----------------------------------------------------------------------
def _stream(seed: int, n: int):
    from servemix import Mix

    mix = Mix(seed)
    first = mix.first()
    mix.done(first)
    jobs = []
    for _ in range(n):
        job = mix.next()
        mix.done(job)
        jobs.append(job)
    return first, jobs


def test_mix_has_the_stated_class_proportions_and_is_pinned_by_the_seed():
    from servemix import COLD_SHARE, HIT_SHARE, REPEAT_WINDOW

    first, jobs = _stream(2000, 4000)
    share = {cls: n / len(jobs) for cls, n in Counter(j.cls for j in jobs).items()}
    assert abs(share["hit"] - HIT_SHARE) < 0.03
    assert abs(share["cold"] - COLD_SHARE) < 0.03
    assert abs(share["warm"] - (1 - HIT_SHARE - COLD_SHARE)) < 0.03
    assert _stream(2000, 200) == (first, jobs[:200])
    assert _stream(2001, 200)[1] != jobs[:200]

    # A repeat names one of the last REPEAT_WINDOW distinct jobs; a warm
    # job names a partition seed the server has already seen.
    distinct = [first]
    seen_partitions = {first.partition_seed}
    for job in jobs:
        key = (job.stimulus_seed, job.partition_seed)
        recent = [(j.stimulus_seed, j.partition_seed) for j in distinct[-REPEAT_WINDOW:]]
        if job.cls == "hit":
            assert key in recent
        else:
            assert key not in recent
            distinct.append(job)
        if job.cls == "warm":
            assert job.partition_seed in seen_partitions
        seen_partitions.add(job.partition_seed)


# ----------------------------------------------------------------------
# correctness accounting
# ----------------------------------------------------------------------
def test_oracle_mismatch_counts_as_failed_and_makes_the_run_incorrect(tmp_path):
    from engines import ENGINE_WORKLOADS, SMOKE_SCALE, EngineRun

    run = EngineRun(
        ENGINE_WORKLOADS["table2-virtual-s9234"], 7, SMOKE_SCALE, str(tmp_path)
    )
    run.build_world()
    oracle, _ = run.sequential(run.stimulus0, "oracle")
    assert run.engine(run.stimulus0, "good", oracle) is not None
    assert (run.tally.attempted, run.tally.failed, run.tally.correct) == (1, 0, True)

    oracle.final_values[0] ^= 1
    assert run.engine(run.stimulus0, "bad", oracle) is None
    assert (run.tally.attempted, run.tally.failed, run.tally.correct) == (2, 1, False)
    assert run.tally.failed_share == 0.5


def test_a_timeout_is_failed_but_not_incorrect():
    tally = Tally()
    tally.ok()
    tally.fail("job 2: timed out")
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _busy(seconds: float) -> None:
    import time

    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_layer_self_times_sum_to_the_jobs_wall():
    import time

    tracer = spans.Tracer(enabled=True)
    t0 = time.perf_counter()
    with tracer.span("job", job="j1") as root:
        with tracer.span("layer.a"):
            _busy(0.01)
            with tracer.span("layer.b"):
                _busy(0.02)
        with tracer.span("layer.c"):
            _busy(0.01)
    root.wall = time.perf_counter() - t0
    assert {span.job for span in tracer.spans} == {"j1"}
    ((top, residual),) = spans.reconcile(tracer.spans)
    assert top is root and residual < 0.02
    layers = spans.layer_self_seconds(tracer.spans)
    assert abs(sum(layers.values()) - root.wall) < 0.02 * root.wall
    assert layers["layer.b"] >= 0.02 and layers["layer.a"] < 0.02


def test_a_span_outside_its_job_breaks_reconciliation():
    def span(span_id, name, parent, start, end):
        made = spans.Span(span_id, name, "j", parent)
        made.start, made.end = start, end
        return made

    root = span(1, "job", None, 0.0, 1.0)
    root.wall = 1.0
    inside = span(2, "layer.a", 1, 0.1, 0.6)
    outside = span(3, "layer.b", 1, 1.5, 2.0)  # opened after the job ended
    ((_, residual),) = spans.reconcile([root, inside, outside])
    assert residual > 0.4
    ((_, residual),) = spans.reconcile([root, inside])
    assert residual < 1e-9


def test_untraced_spans_time_but_are_not_kept():
    tracer = spans.Tracer(enabled=False)
    with tracer.span("layer") as sp:
        _busy(0.001)
    assert sp.seconds >= 0.001 and tracer.spans == []


# ----------------------------------------------------------------------
# the command, as the driver runs it
# ----------------------------------------------------------------------
def _run(*args, cwd=common.ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_run_ends_with_the_contract_line():
    for trace, spec in ((0, end_to_end()), (1, per_layer())):
        done = _run(
            "--smoke", "--workload", "table2-virtual-s9234",
            "--seed", "11", "--trace", str(trace),
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == set(spec)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == spec[name]["unit"]
            assert isinstance(metric["value"], float)
        if not trace:
            assert all(m["value"] > 0 for m in line["metrics"].values())
    assert not (HERE / ".work").exists() or not any((HERE / ".work").iterdir())


def test_refuses_to_run_where_the_program_is_missing(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    done = _run("--workload", "serve-http-mix", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
