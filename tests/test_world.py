"""Resident worlds: the skeleton schedule, residency, and what a job ships.

A :class:`~repro.warped.world.World` is the (circuit, partition) pair a
warm ring keeps in its workers.  Two things must hold for that to be
invisible: the initial schedule assembled from the resident skeleton is
*the* schedule — same messages, same uids, same order as minting it
from scratch, whose pre-world body is kept here verbatim as the
reference — and residency, decided by the parent alone, never leaves a
worker without the world its job names, dirties a world between jobs,
or grows a worker without bound.
"""

from __future__ import annotations

import functools
import os
import pickle
from pathlib import Path

import pytest

import repro.warped.parallel.ring as ring_mod
import repro.warped.world as world_mod
from repro.circuit import GeneratorSpec, generate_circuit
from repro.circuit.gate import FALSE
from repro.circuit.iscas89 import load_benchmark
from repro.errors import SimulationError
from repro.harness.regression import load_case
from repro.partition import PartitionAssignment
from repro.partition.registry import get_partitioner
from repro.serve.pool import RingPool
from repro.sim import RandomStimulus, SequentialSimulator
from repro.sim.event import CAPTURE, SIG, STIM
from repro.sim.stimulus import VectorStimulus
from repro.warped import ProcessTimeWarpSimulator, VirtualMachine
from repro.warped.messages import Message
from repro.warped.parallel import NodeEngine
from repro.warped.parallel.backend import JobSpec, _run_node
from repro.warped.parallel.ring import WorkerRing
from repro.warped.queues import NodeQueue, bucketed
from repro.warped.world import World

from tests.test_gvt_ring import BatchQueue

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))
#: Two (num_cycles, period) shapes per circuit: asking for the second
#: replaces the node's resident skeleton, asking for the first again
#: rebuilds it.
SHAPES = ((6, 20), (9, 35))


# ----------------------------------------------------------------------
# (a) skeleton + STIMs == the from-scratch schedule
# ----------------------------------------------------------------------
def reference_schedule_initial(self: NodeEngine) -> None:
    """``NodeEngine.schedule_initial`` as it was before worlds."""
    circuit = self.circuit
    stim = self.stimulus
    local = self.lps
    for ff in circuit.dffs:
        for sink in dict.fromkeys(circuit.gates[ff].fanout):
            if sink in local:
                self.queue.push(
                    Message(0, SIG, ff, 0, FALSE, sink, self._next_uid())
                )
    for cycle in range(stim.num_cycles):
        t = stim.cycle_time(cycle)
        if cycle > 0:
            for ff in circuit.dffs:
                if ff in local:
                    self.queue.push(
                        Message(t, CAPTURE, ff, cycle, 0, ff, self._next_uid())
                    )
        for pi in circuit.primary_inputs:
            if pi in local:
                self.queue.push(
                    Message(
                        t, STIM, pi, cycle, stim.value(pi, cycle),
                        pi, self._next_uid(),
                    )
                )


def queue_image(engine: NodeEngine):
    """Everything observable about a node's pending queue."""
    queue = engine.queue
    return (
        [
            (msg.sort_key, msg.value, msg.sign) for msg in queue.pending()
        ],
        len(queue),
        bool(queue),
        queue.min_time,
        engine._uid_next,
    )


@functools.lru_cache(maxsize=None)
def corpus_circuit(path: Path):
    case = load_case(path)
    return case, generate_circuit(GeneratorSpec(**case["spec"]))


def stimuli(circuit, num_cycles: int, period: int):
    yield RandomStimulus(circuit, num_cycles, period=period, seed=num_cycles)
    names = [circuit.gates[pi].name for pi in circuit.primary_inputs]
    yield VectorStimulus(
        circuit,
        [
            # Every third input is left to hold its previous value.
            {
                name: (cycle + position) & 1
                for position, name in enumerate(names)
                if (cycle + position) % 3
            }
            for cycle in range(num_cycles)
        ],
        period=period,
    )


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_skeleton_schedule_is_the_from_scratch_schedule(path, k):
    case, circuit = corpus_circuit(path)
    world = World.of(
        get_partitioner(
            case["partitioner"], seed=case.get("partitioner_seed", 0)
        ).partition(circuit, k)
    )
    # One world for every shape and stimulus, as a ring worker holds
    # it: skeleton built, reused, replaced and rebuilt along the way.
    for num_cycles, period in (*SHAPES, SHAPES[0]):
        for stimulus in stimuli(circuit, num_cycles, period):
            for node in range(k):
                reference = NodeEngine(world, node, stimulus)
                reference_schedule_initial(reference)
                engine = NodeEngine(world, node, stimulus)
                engine.schedule_initial()
                assert queue_image(engine) == queue_image(reference), (
                    f"node {node}, {type(stimulus).__name__}, "
                    f"{num_cycles} cycles of {period}"
                )
                shape, skeleton = world._roster(node).skeleton
                assert shape == (num_cycles, period)
                resident = NodeQueue()
                resident.load({t: list(b) for t, b in skeleton.items()})
                assert all(msg.prio != STIM for msg in resident.pending())
                assert len(resident) + num_cycles * sum(
                    1 for pi in circuit.primary_inputs if pi in engine.lps
                ) == len(engine.queue)


def test_bulk_load_merges_into_a_live_queue(s27):
    """``NodeQueue.load`` is a merge, not a replace: entries already
    pending keep their place and the head is recomputed."""
    stimulus = RandomStimulus(s27, 5, period=20, seed=1)
    world = World(s27, 1, [0] * s27.num_gates)
    whole = NodeEngine(world, 0, stimulus)
    whole.schedule_initial()
    messages = whole.queue.pending()
    one_by_one = NodeEngine(world, 0, stimulus)
    for msg in messages:
        one_by_one.queue.push(msg)
    halves = NodeEngine(world, 0, stimulus)
    # The later half first, so the second load lands before, inside and
    # after what is already pending.
    halves.queue.load(bucketed(messages[1::2]))
    halves.queue.load(bucketed(messages[0::2]))
    assert queue_image(halves)[:4] == queue_image(one_by_one)[:4]
    assert queue_image(halves)[:4] == queue_image(whole)[:4]


def test_jobs_on_one_resident_world_never_share_a_bucket_list(s27):
    """A queue appends to the bucket lists it is handed, so a job gets
    copies: emptying and refilling job 1's queue leaves the skeleton and
    job 2's queue as they were."""
    stimulus = RandomStimulus(s27, 5, period=20, seed=1)
    world = World(s27, 1, [0] * s27.num_gates)
    first = NodeEngine(world, 0, stimulus)
    first.schedule_initial()
    want = queue_image(first)
    _, skeleton = world._roster(0).skeleton
    skeleton_before = {t: list(b) for t, b in skeleton.items()}
    second = NodeEngine(world, 0, stimulus)
    second.schedule_initial()
    # Job 1 runs: pops reorder and drain its lists, pushes grow them.
    drained = [first.queue.pop() for _ in range(len(first.queue))]
    for t in skeleton_before:
        first.queue.push(Message(t, SIG, 0, 99, 1, 0, 10_000 + t))
    assert skeleton == skeleton_before
    assert queue_image(second) == want
    third = NodeEngine(world, 0, stimulus)
    third.schedule_initial()
    assert queue_image(third) == want
    assert [m.uid for m in drained] == [m.uid for m in third.queue.pending()]


# ----------------------------------------------------------------------
# a world is a value; a detached stimulus is a table
# ----------------------------------------------------------------------
def test_world_equality_is_circuit_identity_plus_assignment(s27):
    partition = get_partitioner("Multilevel", seed=3).partition(s27, 2)
    world = World.of(partition)
    assert World.of(world) is world
    assert World.of(partition) == world and hash(World.of(partition)) == hash(world)
    flipped = list(partition.assignment)
    flipped[0] ^= 1
    assert World(s27, 2, flipped) != world
    # An equal netlist that is another object is another world: the
    # stimulus a job brings is checked against the object.
    assert World(s27.copy().freeze(), 2, partition.assignment) != world
    with pytest.raises(SimulationError, match="covers"):
        World(s27, 2, [0])


def test_world_pickles_the_pair_not_what_was_derived(s27):
    stimulus = RandomStimulus(s27, 6, period=20, seed=1)
    world = World.of(get_partitioner("Multilevel", seed=3).partition(s27, 2))
    cold = len(pickle.dumps(world))
    for node in range(2):
        NodeEngine(world, node, stimulus).schedule_initial()
    assert len(pickle.dumps(world)) == cold
    copy = pickle.loads(pickle.dumps(world))
    assert (copy.k, copy.assignment, copy.algorithm) == (
        world.k, world.assignment, world.algorithm
    )
    assert copy.circuit.num_gates == s27.num_gates
    assert copy.circuit not in world_mod._STATICS and not copy._rosters


def test_worlds_over_one_circuit_share_lp_statics(s27):
    """Static LP structure belongs to the circuit, not the partition: a
    partition sweep over one circuit builds each gate's statics once."""
    n = s27.num_gates
    whole = World(s27, 1, [0] * n).roster_lps(0)
    halves = World(s27, 2, [i % 2 for i in range(n)])
    split = {**halves.roster_lps(0), **halves.roster_lps(1, 4)}
    assert whole.keys() == split.keys()
    for index, lp in whole.items():
        assert split[index]._sink_list is lp._sink_list
        assert split[index]._src_slots is lp._src_slots
        assert split[index] is not lp
    assert split[1].checkpoint_interval == 4 and split[0].checkpoint_interval is None


def test_detached_stimulus_carries_no_circuit(s27):
    stimulus = RandomStimulus(s27, 6, period=20, seed=1)
    detached = stimulus.detached()
    assert detached.circuit is None and stimulus.circuit is s27
    assert len(pickle.dumps(detached)) < len(pickle.dumps(stimulus)) / 2
    shipped = pickle.loads(pickle.dumps(detached)).attach(s27)
    assert shipped.circuit is s27
    assert (shipped.num_cycles, shipped.period) == (6, 20)
    assert all(
        shipped.value(pi, cycle) == stimulus.value(pi, cycle)
        for pi in s27.primary_inputs
        for cycle in range(6)
    )


def test_unknown_world_is_an_error_naming_it(s27):
    spec = JobSpec(
        world="s27/Multilevel/k1#7",
        stimulus=RandomStimulus(s27, 4, seed=1).detached(),
        optimism_window=None,
        gvt_interval=64,
        max_events=1000,
    )
    held = {"s27/Multilevel/k1#6": World(s27, 1, [0] * s27.num_gates)}
    with pytest.raises(SimulationError, match="k1#7.*does not hold.*k1#6"):
        _run_node(0, spec, held, [BatchQueue()], BatchQueue())


# ----------------------------------------------------------------------
# residency on a live ring
# ----------------------------------------------------------------------
def _vm_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError(f"no VmRSS for pid {pid}")


def _oracle_equal(result, oracle) -> bool:
    return (
        result.final_values == oracle.final_values
        and result.committed_captures == oracle.committed_captures
    )


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs Linux /proc"
)
def test_more_worlds_than_the_budget_holds(medium_circuit, monkeypatch):
    """(b) Twelve worlds through a ring whose budget holds three, then
    the first again: the parent's LRU tells the workers what to drop,
    no job ever names a world its workers lack, the evicted world is
    shipped again exactly once, and the workers stop growing once the
    budget has filled."""
    circuit = medium_circuit
    held = 3
    monkeypatch.setattr(
        ring_mod, "WORLD_GATE_BUDGET", held * circuit.num_gates
    )
    machine = VirtualMachine(num_nodes=2, gvt_interval=128, optimism_window=100)
    worlds = [
        get_partitioner("Random", seed=seed).partition(circuit, 2)
        for seed in range(12)
    ]
    assert len({tuple(w.assignment) for w in worlds}) == len(worlds)
    stimulus = RandomStimulus(circuit, num_cycles=10, period=100, seed=7)
    oracle = SequentialSimulator(circuit, stimulus).run()
    rss = {}
    with WorkerRing(2, transport="queue") as ring:
        pids = list(ring.worker_pids.values())

        def run(partition) -> None:
            result = ring.run_job(
                circuit, partition, stimulus, machine, timeout=30
            )
            assert _oracle_equal(result, oracle)

        for count, partition in enumerate(worlds, start=1):
            run(partition)
            run(partition)  # the second job on a world is a hit
            if count == held:
                rss["filled"] = [_vm_rss_kb(pid) for pid in pids]
        assert ring.world_stats == {
            "ships": 12, "hits": 12, "evictions": 12 - held,
        }
        assert len(ring._resident) == held
        run(worlds[0])  # evicted long ago: shipped again ...
        run(worlds[0])  # ... exactly once
        assert ring.world_stats == {
            "ships": 13, "hits": 13, "evictions": 13 - held,
        }
        rss["last"] = [_vm_rss_kb(pid) for pid in pids]
    for filled, last in zip(rss["filled"], rss["last"]):
        assert last <= filled * 1.05, rss


def test_newest_world_stays_whatever_its_size(s27, monkeypatch):
    """A world larger than the whole budget is still admitted (and the
    one before it dropped): the budget bounds what is *kept*."""
    monkeypatch.setattr(ring_mod, "WORLD_GATE_BUDGET", 1)
    machine = VirtualMachine(num_nodes=2, gvt_interval=128)
    stimulus = RandomStimulus(s27, num_cycles=8, period=20, seed=2)
    oracle = SequentialSimulator(s27, stimulus).run()
    with WorkerRing(2, transport="queue") as ring:
        for seed in (1, 2, 1):
            partition = get_partitioner("Random", seed=seed).partition(s27, 2)
            for _ in range(2):
                result = ring.run_job(
                    s27, partition, stimulus, machine, timeout=30
                )
                assert _oracle_equal(result, oracle)
        assert ring.world_stats == {"ships": 3, "hits": 3, "evictions": 2}


def test_migration_mutates_the_engine_not_the_world(s27):
    """(c), the deterministic half: shedding LPs rewrites the engine's
    ownership map; the world, and any engine built on it afterwards,
    keeps the static partition."""
    stimulus = RandomStimulus(s27, num_cycles=4, period=20, seed=4)
    partition = get_partitioner("Random", seed=4).partition(s27, 2)
    world = World.of(partition)
    src = NodeEngine(world, 0, stimulus, migration_enabled=True)
    src.schedule_initial()
    payload = src.extract_migrants(1, 0.5, version=1)
    assert payload["gates"] and src.assignment != list(world.assignment)
    assert world.assignment == tuple(partition.assignment)
    again = NodeEngine(world, 0, stimulus, migration_enabled=True)
    assert sorted(again.lps) == [
        g for g, node in enumerate(partition.assignment) if node == 0
    ]
    assert set(payload["gates"]) <= set(again.lps)


@pytest.mark.parametrize("transport", ("queue", "shm"))
def test_static_job_after_a_migrating_job_equals_cold(medium_circuit, transport):
    """(c) on a live ring: a job with adaptive migration on, then a
    static job on the same resident world.  Whether LPs actually move
    is up to the host's scheduler (wall-clock load folds); either way
    the static job must see the static partition — per-node LP counts
    included — and equal its cold run."""
    circuit = medium_circuit
    cut = int(circuit.num_gates * 0.85)
    partition = PartitionAssignment(
        circuit, 2, [0 if i < cut else 1 for i in range(circuit.num_gates)],
        algorithm="skewed",
    )
    stimulus = RandomStimulus(circuit, num_cycles=20, period=100, seed=5)
    oracle = SequentialSimulator(circuit, stimulus).run()
    static = VirtualMachine(num_nodes=2, gvt_interval=64, optimism_window=100)
    migrating = VirtualMachine(
        num_nodes=2, gvt_interval=64, optimism_window=100,
        migration_threshold=1.2, migration_fraction=0.25,
    )
    cold = ProcessTimeWarpSimulator(
        circuit, partition, stimulus, static, transport=transport, timeout=60
    ).run()
    with WorkerRing(2, transport=transport) as ring:
        moved = ring.run_job(circuit, partition, stimulus, migrating, timeout=60)
        assert _oracle_equal(moved, oracle)
        after = ring.run_job(circuit, partition, stimulus, static, timeout=60)
        assert ring.world_stats == {"ships": 1, "hits": 1, "evictions": 0}
    assert _oracle_equal(after, oracle) and _oracle_equal(cold, oracle)
    assert after.events_committed == cold.events_committed
    assert after.migrations == 0
    assert [s.num_lps for s in after.node_stats] == partition.sizes()


def test_replacement_ring_is_shipped_the_world_again(s27):
    """(d) Residency dies with the ring: the pool's replacement for a
    poisoned ring starts empty, ships the world and serves the job."""
    partition = get_partitioner("Multilevel", seed=3).partition(s27, 2)
    machine = VirtualMachine(num_nodes=2, gvt_interval=128)
    stimulus = RandomStimulus(s27, num_cycles=8, period=20, seed=2)
    oracle = SequentialSimulator(s27, stimulus).run()
    pool = RingPool(max_idle=2)
    try:
        with pool.lease(2) as ring:
            ring.run_job(s27, partition, stimulus, machine, timeout=30)
            ring.run_job(s27, partition, stimulus, machine, timeout=30)
            ring.kill()
        with pool.lease(2) as replacement:
            assert replacement is not ring
            result = replacement.run_job(
                s27, partition, stimulus, machine, timeout=30
            )
        assert _oracle_equal(result, oracle)
        assert replacement.world_stats == {
            "ships": 1, "hits": 0, "evictions": 0,
        }
        stats = pool.stats()
        assert (stats["world_ships"], stats["world_hits"]) == (2, 1)
        assert stats["world_evictions"] == 0
    finally:
        pool.close()


def test_a_job_that_cannot_be_sent_poisons_the_ring(s27):
    """The residency table is updated before the job is pickled to the
    workers; if that send fails the table (and the arming barrier) can
    no longer be trusted, so the ring is given up, not reused."""
    partition = get_partitioner("Multilevel", seed=3).partition(s27, 2)
    machine = VirtualMachine(num_nodes=2, gvt_interval=128)
    stimulus = RandomStimulus(s27, num_cycles=8, period=20, seed=2)
    stimulus.hook = lambda: None  # does not pickle
    ring = WorkerRing(2).start()
    try:
        with pytest.raises((pickle.PicklingError, AttributeError)):
            ring.run_job(s27, partition, stimulus, machine, timeout=30)
        assert not ring.alive
    finally:
        ring.close()


class _SizingQueue:
    """A job queue that records the pickled size of what it is sent."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.sizes: list[int] = []

    def put(self, item) -> None:
        self.sizes.append(len(pickle.dumps(item)))
        self.inner.put(item)

    def close(self) -> None:
        self.inner.close()


def test_job_message_on_a_world_hit_is_small():
    """(e) The served shape (s5378 x 0.2, 40 cycles, k = 2): the first
    job ships the world, every later one ships under 4 KB per worker —
    a stimulus that dragged its circuit along would be ten times that."""
    circuit = load_benchmark("s5378", scale=0.2, seed=2000)
    partition = get_partitioner("Multilevel", seed=3).partition(circuit, 2)
    machine = VirtualMachine(num_nodes=2, gvt_interval=512, optimism_window=100)
    with WorkerRing(2, transport="queue") as ring:
        ring._job_queues = [_SizingQueue(q) for q in ring._job_queues]
        for seed in (1, 2):
            stimulus = RandomStimulus(
                circuit, num_cycles=40, period=100, activity=0.5, seed=seed
            )
            result = ring.run_job(
                circuit, partition, stimulus, machine, timeout=30,
                run_id="job-000042",
            )
            assert _oracle_equal(
                result, SequentialSimulator(circuit, stimulus).run()
            )
        for queue in ring._job_queues:
            shipped, hit = queue.sizes
            assert shipped > 20_000 and hit < 4_096, queue.sizes
