"""GVT ring liveness and bookkeeping, driven in-process via NodeLoop.

The loop is transport-agnostic, so these tests run a full node ring on
stdlib ``queue.Queue`` inboxes (plus the channels' ``put_batch`` and
``take``) inside one process — deterministic, no forks — and pin down
the two bookkeeping regressions the multiprocess backend shipped with: non-initiator nodes never resetting their
``since_gvt`` progress counter, and clerk color tables growing without
bound off the initiator (``forget_before`` only ever ran on node 0).
Plus the protocol property the restart path depends on: an
inconclusive round (whites still in flight) must extend the same
computation until the stragglers land, then conclude correctly.  And the
migration protocol under an *injected* load fold, so that whether LPs
move is decided by the test, not by the host's scheduler.  And the two
latency rules of the wire: a batch's sends — a (positive, anti) pair
born in one batch included — are on the wire when ``work_batch``
returns, and an idle ``run()`` polls — the whole loop,
idle-GVT rule included — for ``_IDLE_SPIN`` before it parks in a
blocking receive.  And the loop's pay-by-need cadences: slices sized by
the processable backlog, history swept when it has grown (and always
before a checkpoint or a migration).
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
from collections import deque

import pytest

from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.sim.event import SIG
from repro.warped.messages import Message
from repro.warped.parallel import NodeEngine, NodeLoop
from repro.warped.parallel import backend as backend_mod
from repro.warped.parallel import transport as transport_mod
from repro.warped.parallel.protocol import GVT, MSG, T_INF
from repro.warped.world import World


class BatchQueue(queue.Queue):
    """``queue.Queue`` with the transport channels' ``put_batch`` and
    ``take``."""

    def put_batch(self, items) -> int:
        for item in items:
            self.put_nowait(item)
        return len(items)

    def take(self) -> list:
        items = []
        try:
            while True:
                items.append(self.get_nowait())
        except queue.Empty:
            return items


class IdleEngine:
    """An engine with no events — isolates the GVT machinery."""

    #: No LPs, nothing pending, no history: every sweep is "due".
    lps = ()
    queue = ()
    history = 0

    def __init__(self):
        self.outbox = []
        self.fossil_gvts = []

    def processable(self, gvt):
        return False

    def run_batch(self, limit, gvt):
        return 0

    def min_pending(self):
        return None

    def fossil_collect(self, gvt):
        self.fossil_gvts.append(gvt)


class PendingEngine(IdleEngine):
    """An idle engine still holding one event at virtual time ``t``."""

    t: int | None = 42

    def min_pending(self):
        return self.t


def make_ring(k, engines=None, **kw):
    inboxes = [BatchQueue() for _ in range(k)]
    engines = engines or [IdleEngine() for _ in range(k)]
    return [
        NodeLoop(node, k, engines[node], inboxes, **kw) for node in range(k)
    ]


def make_s27_ring(s27, k, *, cycles=15, loop_cls=NodeLoop, **kw):
    """A scheduled *k*-node ring of real engines on s27 (Random
    partition); returns ``(stimulus, inboxes, engines, loops)``."""
    stimulus = RandomStimulus(s27, num_cycles=cycles, period=20, seed=11)
    assignment = get_partitioner("Random", seed=4).partition(s27, k)
    inboxes = [BatchQueue() for _ in range(k)]
    engines = [
        NodeEngine(World.of(assignment), node, stimulus)
        for node in range(k)
    ]
    for engine in engines:
        engine.schedule_initial()
    loops = [
        loop_cls(node, k, engines[node], inboxes, **kw) for node in range(k)
    ]
    return stimulus, inboxes, engines, loops


def drive(loops, max_iters=500_000):
    """Round-robin the ring cooperatively until every node is done."""
    for _ in range(max_iters):
        if all(loop.done for loop in loops):
            return
        for loop in loops:
            if loop.done:
                continue
            loop.poll()
            if loop.done:
                continue
            loop.work_batch()
            loop.maybe_initiate()
    raise AssertionError("ring failed to quiesce")


class TestRingQuiescence:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_idle_ring_proves_quiescence(self, k):
        loops = make_ring(k)
        drive(loops)
        assert all(loop.done for loop in loops)
        assert loops[0].gvt_computations >= 1
        # +inf skips fossil collection but every node saw the round.
        assert all(loop.gvt_rounds_seen >= 1 for loop in loops)

    def test_real_workload_ring_matches_sequential(self, s27):
        stimulus, _, engines, loops = make_s27_ring(s27, 3, gvt_interval=32)
        sequential = SequentialSimulator(s27, stimulus).run()
        drive(loops)
        for engine in engines:
            engine.check_quiescent()
        values = {}
        for engine in engines:
            values.update(engine.final_values())
        assert [values[i] for i in range(s27.num_gates)] == (
            sequential.final_values
        )


class TestSinceGvtReset:
    def test_every_node_resets_progress_counter(self, s27):
        """Regression: only the initiator ever reset ``since_gvt``.

        Pre-fix, a non-initiator's counter grew monotonically with every
        event it processed, so any logic keyed on "events since the last
        GVT" (and the trace's round bookkeeping) was garbage off node 0.
        Post-fix every GVT application zeroes it, so at quiescence —
        which ends with a final broadcast round — all counters read 0
        while the engines demonstrably processed events.
        """
        _, _, engines, loops = make_s27_ring(s27, 3, gvt_interval=32)
        drive(loops)
        assert all(e.counters["events"] > 0 for e in engines)
        assert all(loop.since_gvt == 0 for loop in loops)
        # And every node (not just the initiator) participated in the
        # same number of applied rounds, bar the in-flight last one.
        seen = [loop.gvt_rounds_seen for loop in loops]
        assert min(seen) >= 1

    def test_clerk_tables_stay_bounded_off_initiator(self, s27):
        """Regression: clerk color tables only compacted on node 0.

        With ``forget_before`` now running at every GVT application,
        every node's sent/received/send_min dicts stay O(1) even after
        many computations (pre-fix they held one entry per color ever
        used on non-initiators).
        """
        # A tiny interval forces many GVT computations.
        _, _, _, loops = make_s27_ring(s27, 3, cycles=30, gvt_interval=4)
        drive(loops)
        assert loops[0].gvt_computations >= 5
        for loop in loops:
            # floor color + at most the two live computations' colors.
            assert len(loop.clerk.sent) <= 3, f"node {loop.node} leaked"
            assert len(loop.clerk.received) <= 3
            assert len(loop.clerk.send_min) <= 3


class TestInconclusiveRound:
    def test_in_flight_white_forces_second_trip(self):
        """A white message in flight must make the round inconclusive,
        and the restarted round of the SAME computation must conclude
        once the message lands — the ring-restart path of
        ``NodeLoop.conclude`` end to end."""
        loops = make_ring(2)
        l0, l1 = loops
        # A phantom application message: sent by node 0, not yet
        # received by node 1 (still "in the network").
        color = l0.clerk.note_send(5)
        assert color == 0  # white for any computation >= 1

        l0.maybe_initiate()           # token -> node 1
        assert l0.active_cid == 1
        l1.poll()                     # fold + forward -> node 0
        l0.poll()                     # round home: count==1, inconclusive
        # The computation must still be open, on a fresh trip.
        assert l0.active_cid == 1
        assert not l0.done
        assert l0.gvt_computations == 0
        assert l0._round_trips == 2

        # Deliver the straggler; the already-circulating retry round now
        # balances and concludes with GVT = +inf.
        l1.clerk.note_receive(color)
        l1.poll()                     # fold trip 2 + forward
        l0.poll()                     # conclusive: broadcast + done
        assert l0.done
        assert l0.gvt_computations == 1
        l1.poll()                     # GVT broadcast lands
        assert l1.done
        assert l0.since_gvt == 0 and l1.since_gvt == 0

    def test_pending_event_bounds_gvt_via_m_clock(self):
        """A pending event's virtual time must cap the concluded GVT."""
        engines = [IdleEngine(), PendingEngine()]
        loops = make_ring(2, engines=engines)
        l0, l1 = loops
        l0.maybe_initiate()
        l1.poll()
        l0.poll()
        assert l0.gvt_computations == 1
        assert l0.gvt == 42 and not l0.done
        l1.poll()
        assert l1.gvt == 42 and not l1.done
        assert l1.engine.fossil_gvts[-1] == 42
        # Once the event is gone, the next computation proves quiescence.
        engines[1].t = None
        drive(loops)
        assert l0.done and l1.done

    def test_round_that_does_not_advance_gvt_skips_the_fossil_sweep(self):
        """Polling idle nodes make no-progress rounds common; such a
        round has nothing new to free, so it must not pay for a sweep —
        however much history the node holds by then."""
        engines = [IdleEngine(), PendingEngine()]
        l0, l1 = make_ring(2, engines=engines)
        for round_no in range(3):
            for engine in engines:
                engine.history = 4 ** round_no  # always past the bar
            l0.last_initiate = 0.0  # waive the idle-round spacing
            l0.maybe_initiate()
            l1.poll()
            l0.poll()
            l1.poll()
        assert l0.gvt_computations == 3
        assert l0.gvt_rounds_seen == l1.gvt_rounds_seen == 3
        assert l0.gvt == l1.gvt == 42
        assert engines[0].fossil_gvts == engines[1].fossil_gvts == [42]

    def test_red_send_bounds_gvt_via_m_send(self):
        """A red in-flight message's timestamp must cap the GVT.

        Node 1 joins computation 1 (turns red), then sends at t=42; the
        message is still in flight when the round concludes, so only the
        token's ``m_send`` fold protects it.
        """
        loops = make_ring(2)
        l0, l1 = loops
        l1.clerk.cur_cid = 1  # already red for the upcoming computation
        sent_color = l1.clerk.note_send(42)
        assert sent_color == 1
        l0.maybe_initiate()
        assert l0.active_cid == 1
        l1.poll()
        l0.poll()
        # Whites balance (none exist); the red send caps the bound.
        assert l0.gvt_computations == 1
        assert l0.gvt == 42 and not l0.done
        l1.poll()
        assert l1.gvt == 42 and not l1.done

    def test_idle_engine_min_is_infinite(self):
        (loop,) = make_ring(1)
        assert loop.local_min() == T_INF


class FixedLoadLoop(NodeLoop):
    """A node whose token load fold reports a fixed (busy µs, events)
    window instead of its measured wall-clock busy time."""

    window = (0, 0)

    def load_window(self):
        return self.window


class TestInjectedLoadMigration:
    @pytest.mark.parametrize("hot", [0, 1])
    def test_hot_node_sheds_lps_and_results_hold(self, s27, hot):
        """With node *hot* reporting 100x the busy window of its peer,
        every finite conclusive round must order a migration — issued
        locally when the initiator itself is hot, via MIGCMD otherwise —
        and the committed results must not notice."""
        stimulus = RandomStimulus(s27, num_cycles=15, period=20, seed=11)
        sequential = SequentialSimulator(s27, stimulus).run()
        k = 2
        assignment = get_partitioner("Random", seed=4).partition(s27, k)
        inboxes = [BatchQueue() for _ in range(k)]
        engines = [
            NodeEngine(
                World.of(assignment), node, stimulus,
                migration_enabled=True,
            )
            for node in range(k)
        ]
        for engine in engines:
            engine.schedule_initial()
        loops = [
            FixedLoadLoop(
                node, k, engines[node], inboxes, gvt_interval=16,
                migration_threshold=1.2, migration_fraction=0.25,
            )
            for node in range(k)
        ]
        for loop in loops:
            loop.window = (10_000, 64) if loop.node == hot else (100, 4)
        drive(loops)
        for engine in engines:
            engine.check_quiescent()
        moved = engines[hot].counters["migrations_out"]
        assert moved >= 1
        assert engines[1 - hot].counters["migrations_in"] == moved
        assert engines[1 - hot].counters["migrations_out"] == 0
        assert sum(len(engine.lps) for engine in engines) == s27.num_gates
        values = {}
        for engine in engines:
            values.update(engine.final_values())
        assert [values[i] for i in range(s27.num_gates)] == (
            sequential.final_values
        )


class SpyLoop(NodeLoop):
    """Records every ``(dest, msg)`` the outbox hands to the wire."""

    def flush_wire(self):
        self.emitted.extend(self.engine.outbox)
        super().flush_wire()


class TestSendsLeaveWithTheBatch:
    def test_send_buffer_is_empty_after_every_batch(self, s27):
        """Whatever a batch sent — and whatever anti-messages the poll
        before it left in the outbox — is in the peer's inbox when
        ``work_batch`` returns: nothing waits for a fuller buffer or for
        the sender to idle, and nothing is dropped on the way."""
        _, inboxes, _, loops = make_s27_ring(
            s27, 2, loop_cls=SpyLoop, gvt_interval=32
        )
        delivered = 0
        for _ in range(100_000):
            if all(loop.done for loop in loops):
                break
            for loop in loops:
                if loop.done:
                    continue
                loop.emitted = []  # antis left by handle() count too
                loop.poll()
                if loop.done:
                    continue
                loop.work_batch()
                assert not loop.engine.outbox
                for dest, msg in loop.emitted:
                    assert any(
                        item[0] == MSG and item[2] is msg
                        for item in inboxes[dest].queue
                    ), f"node {loop.node}: {msg} not on the wire"
                    delivered += 1
                loop.maybe_initiate()
        assert all(loop.done for loop in loops)
        assert delivered > 0, "the ring never sent a remote message"

    def test_a_pair_born_in_one_batch_annihilates_at_the_peer(
        self, s27, tmp_path
    ):
        """A positive and its anti-message in the same outbox both ship,
        positive first, stamped and logged like any other send — and
        cancel in the receiver's pending queue, not on the way."""
        stimulus, inboxes, engines, loops = make_s27_ring(
            s27, 2, ckpt_interval=1000, ckpt_dir=str(tmp_path)
        )
        l0, l1 = loops
        src = next(iter(engines[0].lps))
        dest = next(iter(engines[1].lps))
        beyond = 10 * stimulus.num_cycles * stimulus.period  # no LP's time
        positive = Message(
            beyond, SIG, src, 0, 1, dest, engines[0]._next_uid()
        )
        anti = positive.make_anti()
        engines[0].outbox.extend([(1, positive), (1, anti)])
        l0.work_batch()
        assert not engines[0].outbox
        on_wire = [
            item for item in inboxes[1].queue
            if item[0] == MSG and item[2] in (positive, anti)
        ]
        assert [item[2] for item in on_wire] == [positive, anti]
        assert all(item[3] == 0 for item in on_wire)
        assert on_wire[1][4] == on_wire[0][4] + 1
        logged = {id(msg) for _, _, msg in l0.send_log[1]}
        assert {id(positive), id(anti)} <= logged
        l1.poll()
        pending = engines[1].queue.pending()
        assert not any(msg.uid == positive.uid for msg in pending)
        assert engines[1].counters["rollbacks"] == 0
        assert sum(l0.clerk.sent.values()) == sum(l1.clerk.received.values())
        assert not l1.clerk.sent and not l0.clerk.received


class ScriptedInbox:
    """Inbox stand-in: ``take`` is empty for the first *empty_polls*
    calls, then hands over *items*; blocking ``get`` calls are recorded
    (their timeouts) and serve from the same items."""

    def __init__(self, items=(), empty_polls=0):
        self.items = deque(items)
        self.empty_polls = empty_polls
        self.polls = 0
        self.blocking_gets = []

    def take(self):
        self.polls += 1
        if self.polls <= self.empty_polls:
            return []
        items, self.items = self.items, deque()
        return items

    def get(self, timeout=None):
        self.blocking_gets.append(timeout)
        if not self.items:
            raise queue.Empty
        return self.items.popleft()


class NoParkQueue(BatchQueue):
    """An inbox on which a blocking receive is a test failure."""

    def get(self, block=True, timeout=None):
        if block:  # get_nowait() is get(block=False)
            raise AssertionError("the node parked inside its spin window")
        return super().get(False)


class TestPollBeforePark:
    def idle_follower(self, inbox):
        """Node 1 of a 2-ring with no events: it never initiates, so its
        ``run()`` only ever waits for the wire."""
        return NodeLoop(1, 2, IdleEngine(), [BatchQueue(), inbox])

    def test_arrival_inside_the_spin_window_costs_no_blocking_get(
        self, monkeypatch
    ):
        monkeypatch.setattr(backend_mod, "_IDLE_SPIN", 60.0)
        inbox = ScriptedInbox([(GVT, 1, T_INF)], empty_polls=25)
        loop = self.idle_follower(inbox)
        loop.run()
        assert loop.done
        assert inbox.polls > 25
        assert inbox.blocking_gets == [] and loop.parks == 0

    def test_parks_once_the_window_passes_with_nothing_arriving(self):
        # Nothing is ever polled in; the terminating broadcast is only
        # reachable through the blocking receive.
        inbox = ScriptedInbox([(GVT, 1, T_INF)], empty_polls=10**9)
        loop = self.idle_follower(inbox)
        loop.run()
        assert loop.done
        assert inbox.polls >= 2, "parked without lapping the loop first"
        assert inbox.blocking_gets == [backend_mod._BATCH_IDLE_WAIT]
        assert loop.parks == 1 and loop.park >= 0.0

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_idle_ring_quiesces_through_run_without_parking(
        self, k, monkeypatch
    ):
        """The spin laps the *whole* loop, so the initiator keeps
        initiating idle GVT rounds while it polls: an idle ring proves
        quiescence through ``run()`` without one blocking receive."""
        monkeypatch.setattr(backend_mod, "_IDLE_SPIN", 60.0)
        inboxes = [NoParkQueue() for _ in range(k)]
        loops = [
            NodeLoop(node, k, IdleEngine(), inboxes) for node in range(k)
        ]
        errors = []

        def run(loop):
            try:
                loop.run()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(loop,), daemon=True)
            for loop in loops
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        assert all(loop.done for loop in loops)
        assert loops[0].gvt_computations >= 1
        assert all(loop.parks == 0 for loop in loops)


def test_shm_get_of_a_published_record_skips_the_doorbell_select(monkeypatch):
    """``ShmChannel.get`` has no spin phase of its own, and needs none:
    a record already in the ring is returned before ``select`` is ever
    reached."""
    transport = transport_mod.make_transport("shm")
    (chan,) = transport.make_inboxes(mp.get_context("fork"), 1, 16)
    try:
        chan.put_nowait((GVT, 7, 42.0))

        def no_select(*args, **kwargs):
            raise AssertionError("parked on the doorbell")

        monkeypatch.setattr(transport_mod.select, "select", no_select)
        assert chan.get(timeout=0.5) == (GVT, 7, 42.0)
    finally:
        chan.close()
        transport.cleanup()


# ----------------------------------------------------------------------
# pay by need: slices sized by backlog, history swept when it has grown
# ----------------------------------------------------------------------
def loaded_loop(s27, *, window=None, loop_cls=NodeLoop, **kw):
    """A one-node ring (every message local) whose initial schedule
    alone holds several hundred entries; returns ``(engine, loop)``."""
    _, _, (engine,), (loop,) = make_s27_ring(
        s27, 1, cycles=120, loop_cls=loop_cls, **kw
    )
    engine.window = window
    assert len(engine.queue) >= 4 * backend_mod._BACKLOG_FLOOR
    return engine, loop


class ListTracer:
    """Collects ``emit`` calls as ``(kind, fields)`` (the collector of
    ``tests/test_node_engine_batch.py`` imports this module, so it
    cannot be borrowed)."""

    def __init__(self):
        self.records = []

    def emit(self, kind, **fields):
        self.records.append((kind, fields))


class TestSliceByBacklog:
    def test_little_pending_keeps_the_latency_first_batch(self, s27):
        _, _, engines, loops = make_s27_ring(s27, 2, cycles=2)
        for engine, loop in zip(engines, loops):
            assert 0 < len(engine.queue) < backend_mod._BACKLOG_FLOOR
            assert loop.slice_size() == backend_mod._BATCH

    def test_loaded_queue_takes_its_share_up_to_the_cap(self, s27):
        engine, loop = loaded_loop(s27)
        pending = len(engine.queue)
        assert engine.backlog(0.0) == pending  # unbounded window: all of it
        assert loop.slice_size() == min(
            pending // backend_mod._SLICE_SHARE, backend_mod._SLICE_MAX
        )
        assert backend_mod._BATCH < loop.slice_size() <= backend_mod._SLICE_MAX

    def test_entries_beyond_the_horizon_do_not_count(self, s27):
        engine, loop = loaded_loop(s27, window=45)
        for gvt in (0.0, 20.0, 130.5):
            inside = sum(
                1 for msg in engine.queue.pending() if msg.time <= gvt + 45
            )
            assert 0 < inside < len(engine.queue)
            assert engine.backlog(gvt) == inside
            loop.gvt = gvt
            assert loop.slice_size() == max(
                backend_mod._BATCH,
                min(inside // backend_mod._SLICE_SHARE, backend_mod._SLICE_MAX),
            )

    def test_exit_at_dies_at_exactly_the_injected_event(self, s27, monkeypatch):
        """An armed ``exit-at`` clips whatever slice the backlog asked for."""
        engine, loop = loaded_loop(s27)
        target = loop.slice_size() + 7  # inside the second, large slice
        loop.exit_at = target

        class Died(Exception):
            pass

        def die(code):
            raise Died(code)

        monkeypatch.setattr(backend_mod.os, "_exit", die)
        with pytest.raises(Died, match="13"):
            for _ in range(3):
                loop.work_batch()
        assert engine.counters["events"] == target

    def test_since_gvt_overshoots_the_interval_by_at_most_one_slice(self, s27):
        engine, loop = loaded_loop(s27, gvt_interval=40)
        asked = []
        slice_size = loop.slice_size
        loop.slice_size = lambda: asked.append(slice_size()) or asked[-1]
        peak = 0
        while not loop.done:
            loop.poll()
            worked = loop.work_batch()
            assert worked <= asked[-1]
            assert loop.since_gvt < 40 + asked[-1]
            peak = max(peak, loop.since_gvt)
            loop.maybe_initiate()  # k = 1: concludes and applies at once
            assert loop.since_gvt == 0 or loop.since_gvt < 40
        assert max(asked) > backend_mod._BATCH  # large slices were taken
        assert peak >= 40
        engine.check_quiescent()


class SweepSpy(NodeLoop):
    """Checks the sweep rule's post-condition at every GVT application
    and records what each sweep left behind."""

    def apply_gvt(self, cid, value):
        covered = self._swept
        super().apply_gvt(cid, value)
        if covered < value < T_INF:
            # Either nothing was due, or the sweep ran and doubled the bar.
            assert self.engine.history < self._sweep_at

    def sweep(self, value):
        before = self.sweeps
        super().sweep(value)
        if self.sweeps > before:
            self.left.append(self.engine.history)
            assert self._sweep_at == max(
                len(self.engine.lps), 2 * self.left[-1]
            )


class TestSweepByNeed:
    def test_history_is_swept_when_it_has_doubled_not_every_round(self, s27):
        tracer = ListTracer()
        stimulus, _, (engine,), (loop,) = make_s27_ring(
            s27, 1, cycles=60, loop_cls=SweepSpy, gvt_interval=1
        )
        engine.tracer = tracer
        engine.window = 3  # a few events, then a GVT round, per lap
        assert loop._sweep_at == len(engine.lps) == s27.num_gates
        loop.left = []
        slices = []
        while not loop.done:
            loop.poll()
            slices.append(loop.work_batch())
            # Never more than the bar plus what one slice added to it.
            assert engine.history <= loop._sweep_at + slices[-1]
            loop.maybe_initiate()
        engine.check_quiescent()
        engine.flush_committed()
        assert 3 <= loop.sweeps == len(loop.left) < loop.gvt_rounds_seen / 2
        assert engine.peak_history <= (
            max(len(engine.lps), 2 * max(loop.left)) + max(slices)
        )
        committed = sum(f["n"] for kind, f in tracer.records if kind == "commit")
        counters = engine.counters
        assert committed == counters["events"] - counters["rolled_back"]
        sequential = SequentialSimulator(s27, stimulus).run()
        assert [
            engine.final_values()[i] for i in range(s27.num_gates)
        ] == sequential.final_values

    def test_a_checkpoint_holds_no_record_below_its_gvt(
        self, s27, tmp_path, monkeypatch
    ):
        """The sweep a checkpoint forces runs whatever the history size."""
        written = []

        def capture(path, payload):
            oldest = min(
                (
                    record.msg.time
                    for state in payload["engine"]["lps"].values()
                    for record in state[3]
                ),
                default=None,
            )
            written.append((payload["gvt"], oldest))
            return 0

        monkeypatch.setattr(
            backend_mod.recovery_mod, "write_checkpoint", capture
        )
        class NeverDue(NodeLoop):
            """Need never arises: whatever sweeps, was forced."""

            def sweep(self, value):
                super().sweep(value)
                self._sweep_at = 10**9

        _, _, engines, loops = make_s27_ring(
            s27, 2, cycles=30, gvt_interval=16, loop_cls=NeverDue,
            ckpt_interval=100, ckpt_dir=str(tmp_path),
        )
        for loop in loops:
            loop._sweep_at = 10**9
        drive(loops)
        assert all(1 <= loop.sweeps <= loop.ckpts_written for loop in loops)
        assert len(written) >= 4
        assert any(oldest is not None for _, oldest in written)
        for gvt, oldest in written:
            assert oldest is None or oldest >= gvt

    @pytest.mark.parametrize("hot", [0, 1])
    def test_migrants_travel_without_committed_history(self, s27, hot):
        shipped = []

        class ShipSpy(FixedLoadLoop):
            def put(self, dest, item):
                if item[0] == backend_mod.MIGRATE and "lps" in item[4]:
                    shipped.append((self.gvt, item[4]))
                super().put(dest, item)

        stimulus = RandomStimulus(s27, num_cycles=15, period=20, seed=11)
        assignment = get_partitioner("Random", seed=4).partition(s27, 2)
        inboxes = [BatchQueue() for _ in range(2)]
        engines = [
            NodeEngine(
                World.of(assignment), node, stimulus, migration_enabled=True
            )
            for node in range(2)
        ]
        for engine in engines:
            engine.schedule_initial()
        loops = [
            ShipSpy(
                node, 2, engines[node], inboxes, gvt_interval=16,
                migration_threshold=1.2, migration_fraction=0.25,
            )
            for node in range(2)
        ]
        for loop in loops:
            loop.window = (10_000, 64) if loop.node == hot else (100, 4)
        drive(loops)
        assert shipped
        for gvt, payload in shipped:
            for state in payload["lps"].values():
                assert all(record.msg.time >= gvt for record in state[3])
