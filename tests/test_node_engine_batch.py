"""Bit-identity of ``NodeEngine.run_batch`` with the one-event reference.

``run_batch`` runs the per-event path inline, carries the engine's
scalars in locals and frees fossils in place.  The engine it replaced
stepped one event at a time through ``NodeQueue.pop`` →
``LogicalProcess.process`` → ``_insert_positive``/``outbox`` →
``_drain_cancels`` and freed history through
``LogicalProcess.fossil_collect``.  Those two bodies are kept here
verbatim as the *reference*; two worlds of engines — one stepped by the
reference, one by ``run_batch`` — are driven through the same
deterministic shuttle (every remote message held back one round, which
manufactures stragglers and anti-messages) and compared after every
step, at every batch limit.
"""

from __future__ import annotations

import functools
import gc
from pathlib import Path

import pytest

import repro.warped.parallel.backend as backend_mod
from repro.circuit import GeneratorSpec, generate_circuit
from repro.errors import SimulationError
from repro.harness.regression import load_case
from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.sim.event import CAPTURE
from repro.warped.parallel import NodeEngine, NodeLoop
from repro.warped.parallel.backend import JobSpec, _run_node
from repro.warped.parallel.protocol import DONE
from repro.warped.world import World

from tests.test_gvt_ring import BatchQueue

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))
LIMITS = (1, 3, 16, 10**9)
INF = float("inf")


# ----------------------------------------------------------------------
# the reference: the pre-run_batch engine bodies, verbatim
# ----------------------------------------------------------------------
def reference_process_one(self: NodeEngine) -> None:
    msg = self.queue.pop()
    lp = self.lps[msg.dest]
    record = lp.process(msg, self._next_uid)
    self._history += 1
    if self._history > self.peak_history:
        self.peak_history = self._history
    if msg.dest not in self._oldest:
        self._oldest[msg.dest] = msg.time
    self.counters["events"] += 1
    if self.counters["events"] > self.max_events:
        raise SimulationError(
            f"node {self.node} exceeded max_events={self.max_events}; "
            "thrashing rollbacks or workload too large"
        )
    if msg.prio == CAPTURE and record.old_output != lp.output_value:
        self.capture_log[(msg.dest, msg.n)] = lp.output_value
    for em in record.emissions:
        dest_node = self.owner(em.dest)
        if dest_node == self.node:
            self.counters["local_messages"] += 1
            self._insert_positive(em)
        else:
            self.outbox.append((dest_node, em))
            self.counters["app_messages"] += 1
    self._drain_cancels()


def reference_fossil_collect(self: NodeEngine, gvt: float) -> None:
    if gvt == float("inf"):
        return
    floor_t = int(gvt)
    tracer = self.tracer
    oldest_times = self._oldest
    for index, oldest in list(oldest_times.items()):
        if oldest >= floor_t:
            continue
        lp = self.lps[index]
        freed = lp.fossil_collect(floor_t)
        self._history -= freed
        if lp.processed:
            oldest_times[index] = lp.processed[0].msg.time
        else:
            del oldest_times[index]
        if tracer is not None and freed:
            tracer.emit(
                "commit",
                lp=index,
                n=freed,
                t_lo=int(oldest),
                t_hi=floor_t,
            )


def reference_batch(engine: NodeEngine, limit: int, gvt: float) -> int:
    """*limit* reference steps under the worker loop's window test."""
    worked = 0
    while worked < limit and engine.processable(gvt):
        reference_process_one(engine)
        worked += 1
    return worked


# ----------------------------------------------------------------------
# observation
# ----------------------------------------------------------------------
class ListTracer:
    """Collects trace records in memory (rollback and commit streams)."""

    def __init__(self) -> None:
        self.records: list[tuple[str, dict]] = []
        self.compared = 0  # records already held against the other world

    def emit(self, kind: str, *, node: int | None = None, **fields) -> None:
        # ``node`` stamps the record, as TraceWriter's does: not a field.
        self.records.append((kind, fields))

    def fresh(self) -> list[tuple[str, dict]]:
        fresh = self.records[self.compared:]
        self.compared = len(self.records)
        return fresh


def observe(engine: NodeEngine) -> dict:
    """The engine-level state the two worlds must agree on.

    Pending order is the queue's pop order, as full sort keys (they end
    in the uid, so equal key lists are equal uid orders); LPs are walked
    by :func:`assert_same` directly.
    """
    return {
        "counters": engine.counters,
        "capture_log": engine.capture_log,
        "uid_next": engine._uid_next,
        "history": engine._history,
        "peak_history": engine.peak_history,
        "oldest": engine._oldest,
        "pending": [msg.sort_key for msg in engine.queue.pending()],
        "queue_head": engine.queue.min_time,
        "waiting_antis": sorted(engine._waiting_antis),
        "outbox": [(dest, msg.uid, msg.sign) for dest, msg in engine.outbox],
        "trace": engine.tracer.fresh(),
    }


def assert_same(reference: NodeEngine, batched: NodeEngine, where: str) -> None:
    want, got = observe(reference), observe(batched)
    for field, value in want.items():
        assert got[field] == value, f"{where}: {field} diverged"
    assert reference.lps.keys() == batched.lps.keys()
    for index, lp in reference.lps.items():
        other = batched.lps[index]
        assert (
            other.output_value, other.last_key, other.emission_seq
        ) == (lp.output_value, lp.last_key, lp.emission_seq), (
            f"{where}: LP {index} state diverged"
        )
        uids = [record.msg.uid for record in lp.processed]
        assert [r.msg.uid for r in other.processed] == uids, (
            f"{where}: LP {index} history diverged"
        )
        assert all(other.holds(r.msg) for r in other.processed), where


# ----------------------------------------------------------------------
# the shuttle
# ----------------------------------------------------------------------
def make_world(circuit, assignment, k, stimulus, window):
    world = World(circuit, k, assignment)
    engines = [
        NodeEngine(
            world, node, stimulus,
            optimism_window=window, tracer=ListTracer(),
        )
        for node in range(k)
    ]
    for engine in engines:
        engine.schedule_initial()
    return engines


def exact_gvt(engines, delivering) -> float:
    """Min over everything pending or in flight (``delivering`` is all
    of it: a round starts with the wire's whole content in hand)."""
    times = [e.min_pending() for e in engines if e.min_pending() is not None]
    times.extend(msg.time for _, msg in delivering)
    return float(min(times)) if times else INF


def shuttle(circuit, assignment, k, stimulus, window, limit):
    """Drive a reference world and a ``run_batch`` world in lock-step;
    returns the quiescent ``run_batch`` world.

    Each world only ever sees its own messages; every round delivers
    what the previous one sent, fossil-collects at the exact GVT and
    gives every engine one turn of at most *limit* events.
    """
    ref = make_world(circuit, assignment, k, stimulus, window)
    new = make_world(circuit, assignment, k, stimulus, window)
    ref_wire: list = []
    new_wire: list = []
    for round_no in range(200_000):
        ref_delivering, ref_wire = ref_wire, []
        new_delivering, new_wire = new_wire, []
        gvt = exact_gvt(ref, ref_delivering)
        assert exact_gvt(new, new_delivering) == gvt
        if gvt == INF:
            break
        for dest, msg in ref_delivering:
            ref[dest].handle_remote(msg)
        for dest, msg in new_delivering:
            new[dest].handle_remote(msg)
        for node in range(k):
            where = f"round {round_no} node {node} limit {limit}"
            reference_fossil_collect(ref[node], gvt)
            new[node].fossil_collect(gvt)
            worked = reference_batch(ref[node], limit, gvt)
            assert new[node].run_batch(limit, gvt) == worked, where
            assert_same(ref[node], new[node], where)
            ref_wire.extend(ref[node].outbox)
            ref[node].outbox.clear()
            new_wire.extend(new[node].outbox)
            new[node].outbox.clear()
    else:  # pragma: no cover - would be a livelock bug
        raise AssertionError("engines failed to quiesce")
    return new


@functools.lru_cache(maxsize=None)
def corpus_world(path: Path):
    case = load_case(path)
    circuit = generate_circuit(GeneratorSpec(**case["spec"]))
    # The corpus' circuits and stimulus shapes, a few cycles of each:
    # the matrix below runs every world 48 times.
    stimulus = RandomStimulus(
        circuit,
        **{**case["stimulus"], "num_cycles": min(case["stimulus"]["num_cycles"], 8)},
    )
    sequential = SequentialSimulator(circuit, stimulus).run()
    return case, circuit, stimulus, sequential


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_run_batch_bit_identical_to_reference(path, k):
    case, circuit, stimulus, sequential = corpus_world(path)
    assignment = get_partitioner(
        case["partitioner"], seed=case.get("partitioner_seed", 0)
    ).partition(circuit, k).assignment
    rolled_back = 0
    for window in (None, case["stimulus"]["period"]):
        for limit in LIMITS:
            values = {}
            captures = {}
            for engine in shuttle(
                circuit, assignment, k, stimulus, window, limit
            ):
                engine.check_quiescent()
                engine.flush_committed()
                values.update(engine.final_values())
                captures.update(engine.capture_log)
                committed = sum(
                    fields["n"]
                    for kind, fields in engine.tracer.records
                    if kind == "commit"
                )
                counters = engine.counters
                assert committed == counters["events"] - counters["rolled_back"]
                rolled_back += counters["rolled_back"]
            assert [values[i] for i in range(circuit.num_gates)] == (
                sequential.final_values
            )
            assert sorted(
                (g, c, v) for (g, c), v in captures.items()
            ) == sequential.committed_captures
    if k > 1:
        # The held-back wire must really have exercised the slow path.
        assert rolled_back > 0


def test_process_one_is_run_batch_of_one(s27):
    stimulus = RandomStimulus(s27, num_cycles=6, period=20, seed=3)
    engine = NodeEngine(World(s27, 1, [0] * s27.num_gates), 0, stimulus)
    assert engine.process_one() == 0  # nothing scheduled yet: idle, no raise
    engine.schedule_initial()
    steps = 0
    while engine.process_one():
        steps += 1
    assert steps == engine.counters["events"] > 0
    engine.check_quiescent()


# ----------------------------------------------------------------------
# exits: the runaway guard and the injected crash
# ----------------------------------------------------------------------
def test_max_events_trip_leaves_scalars_consistent(s27):
    """The guard fires once per batch; what it leaves behind must be
    exactly the state of an unguarded engine after the same events."""
    stimulus = RandomStimulus(s27, num_cycles=15, period=20, seed=11)
    world = World(s27, 1, [0] * s27.num_gates)
    guarded = NodeEngine(world, 0, stimulus, max_events=50,
                         tracer=ListTracer())
    guarded.schedule_initial()
    initial = len(guarded.queue)
    with pytest.raises(SimulationError, match="max_events=50"):
        while True:
            guarded.run_batch(16, INF)
    events = guarded.counters["events"]
    assert events == 64  # 4 whole batches
    assert guarded._history == sum(
        len(lp.processed) for lp in guarded.lps.values()
    )
    assert guarded.peak_history >= guarded._history
    minted = initial + guarded.counters["local_messages"]
    assert guarded._uid_next == 1 + minted
    free = NodeEngine(world, 0, stimulus, tracer=ListTracer())
    free.schedule_initial()
    assert reference_batch(free, events, INF) == events
    assert_same(free, guarded, "after the guard tripped")


class _Died(Exception):
    pass


def _job_spec(
    circuit, stimulus, *, max_events=50_000_000, fault_spec=""
) -> tuple[JobSpec, dict[str, World]]:
    """A one-node job for driving ``_run_node`` inside this process,
    and the world table that holds its world."""
    spec = JobSpec(
        world="one-node",
        stimulus=stimulus.detached(),
        optimism_window=None,
        gvt_interval=64,
        max_events=max_events,
        fault_spec=fault_spec,
    )
    return spec, {spec.world: World(circuit, 1, [0] * circuit.num_gates)}


@pytest.mark.parametrize("at", [7, 60])
def test_exit_at_fault_fires_at_exactly_n_events(s27, monkeypatch, at):
    """The injected crash the recovery tests build on: the batch is
    clipped so the worker dies *at* N events, not at the batch end."""
    seen = {}
    real_run_batch = NodeEngine.run_batch

    def spying_run_batch(self, limit, gvt):
        seen["engine"] = self
        return real_run_batch(self, limit, gvt)

    def fake_exit(code):
        raise _Died(code)

    monkeypatch.setattr(NodeEngine, "run_batch", spying_run_batch)
    monkeypatch.setattr(backend_mod.os, "_exit", fake_exit)
    stimulus = RandomStimulus(s27, num_cycles=15, period=20, seed=11)
    spec, worlds = _job_spec(s27, stimulus, fault_spec=f"0:exit-at:{at}")
    with pytest.raises(_Died) as died:
        _run_node(0, spec, worlds, [BatchQueue()], BatchQueue())
    assert died.value.args == (13,)
    assert seen["engine"].counters["events"] == at


def test_work_batch_keeps_outbox_empty_between_batches(s27):
    """Per-batch flush: whatever a batch emitted has reached the send
    buffer by the time ``work_batch`` returns."""
    stimulus = RandomStimulus(s27, num_cycles=10, period=20, seed=5)
    k = 2
    assignment = get_partitioner("Random", seed=4).partition(s27, k).assignment
    inboxes = [BatchQueue() for _ in range(k)]
    engine = NodeEngine(World(s27, k, assignment), 0, stimulus)
    engine.schedule_initial()
    loop = NodeLoop(0, k, engine, inboxes)
    while loop.work_batch():
        assert engine.outbox == []
    assert engine.counters["app_messages"] > 0
    assert loop.since_gvt == engine.counters["events"]


# ----------------------------------------------------------------------
# the collector is suspended for the run, and only for the run
# ----------------------------------------------------------------------
@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Put the collector in a known state; restore the suite's after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_run_node_suspends_gc_and_restores_prior_state(
    s27, monkeypatch, collector
):
    during = []
    real_run = NodeLoop.run

    def spying_run(self):
        during.append(gc.isenabled())
        real_run(self)

    monkeypatch.setattr(NodeLoop, "run", spying_run)
    stimulus = RandomStimulus(s27, num_cycles=15, period=20, seed=11)
    results = BatchQueue()
    _run_node(0, *_job_spec(s27, stimulus), [BatchQueue()], results)
    assert during == [False]
    assert gc.isenabled() is collector
    tag, node, payload = results.get_nowait()
    assert (tag, node) == (DONE, 0)
    sequential = SequentialSimulator(s27, stimulus).run()
    assert [
        payload["final_values"][i] for i in range(s27.num_gates)
    ] == sequential.final_values


def test_run_node_restores_gc_when_the_loop_raises(s27, collector):
    stimulus = RandomStimulus(s27, num_cycles=15, period=20, seed=11)
    spec, worlds = _job_spec(s27, stimulus, max_events=10)
    with pytest.raises(SimulationError, match="max_events=10"):
        _run_node(0, spec, worlds, [BatchQueue()], BatchQueue())
    assert gc.isenabled() is collector
