"""Unit tests for Time Warp building blocks: LP, queues, GVT, messages."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import GateType, parse_bench
from repro.circuit.gate import FALSE, TRUE, UNKNOWN
from repro.errors import SimulationError
from repro.sim.event import CAPTURE, SIG, STIM, T_END
from repro.warped.gvt import compute_gvt
from repro.warped.lp import MIN_KEY, LogicalProcess
from repro.warped.messages import ANTI, POSITIVE, Message
from repro.warped.queues import NodeQueue


def make_lp(gate_type="AND"):
    c = parse_bench(
        "INPUT(a)\nINPUT(b)\n"
        f"g = {gate_type}(a, b)\n"
        "q = NOT(g)\nOUTPUT(q)\n"
    )
    g = c.index_of("g")
    return c, LogicalProcess(c.gates[g], node=0)


def uid_gen():
    counter = [0]

    def next_uid():
        counter[0] += 1
        return counter[0]

    return next_uid


class TestMessage:
    def test_keys_and_sort(self):
        m = Message(5, SIG, 3, 2, 1, dest=7, uid=42)
        assert m.key == (5, SIG, 3, 2)
        assert m.sort_key == (5, SIG, 3, 2, 7, 42)

    def test_make_anti_mirrors_fields(self):
        m = Message(5, SIG, 3, 2, 1, dest=7, uid=42)
        anti = m.make_anti()
        assert anti.sign == ANTI and m.sign == POSITIVE
        assert anti.key == m.key and anti.uid == m.uid and anti.dest == m.dest

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_is_compact(self, protocol):
        """``__reduce__`` ships the eight constructor ints: every slot
        and the derived ``key`` survive, anti-messages included, in a
        fraction of the slot-state pickle's 155 bytes."""
        for original in (
            Message(5, SIG, 3, 2, 1, dest=7, uid=42),
            Message(1 << 40, CAPTURE, 3, 2, 0, dest=7, uid=1 << 33).make_anti(),
        ):
            data = pickle.dumps(original, protocol)
            clone = pickle.loads(data)
            for slot in Message.__slots__:
                assert getattr(clone, slot) == getattr(original, slot)
            assert clone.key == (original.time, original.prio, original.src, original.n)
            assert len(data) < 90


class TestLogicalProcess:
    def test_process_updates_input_copy_and_emits(self):
        c, lp = make_lp()
        a, b = c.index_of("a"), c.index_of("b")
        nxt = uid_gen()
        lp.process(Message(1, SIG, a, 0, TRUE, lp.gate.index, 1), nxt)
        assert lp.input_copy[a] == TRUE
        # AND(1, X) = X = initial output -> no emission yet
        assert lp.processed[-1].emissions == []
        rec = lp.process(Message(2, SIG, b, 0, TRUE, lp.gate.index, 2), nxt)
        assert lp.output_value == TRUE
        assert len(rec.emissions) == 1
        em = rec.emissions[0]
        assert em.time == 2 + lp.gate.delay
        assert em.value == TRUE

    def test_straggler_raises_at_lp_level(self):
        c, lp = make_lp()
        a = c.index_of("a")
        nxt = uid_gen()
        lp.process(Message(5, SIG, a, 0, TRUE, lp.gate.index, 1), nxt)
        with pytest.raises(SimulationError, match="straggler"):
            lp.process(Message(3, SIG, a, 0, FALSE, lp.gate.index, 2), nxt)

    def test_undo_restores_state(self):
        c, lp = make_lp()
        a, b = c.index_of("a"), c.index_of("b")
        nxt = uid_gen()
        lp.process(Message(1, SIG, a, 0, TRUE, lp.gate.index, 1), nxt)
        lp.process(Message(2, SIG, b, 0, TRUE, lp.gate.index, 2), nxt)
        lp.undo_last()
        assert lp.input_copy[b] == UNKNOWN
        assert lp.output_value == UNKNOWN
        assert lp.last_key == (1, SIG, a, 0)
        lp.undo_last()
        assert lp.input_copy[a] == UNKNOWN
        assert lp.last_key == MIN_KEY

    def test_undo_empty_history_raises(self):
        _, lp = make_lp()
        with pytest.raises(SimulationError, match="nothing to undo"):
            lp.undo_last()

    def test_emission_seq_not_rewound(self):
        c, lp = make_lp()
        a, b = c.index_of("a"), c.index_of("b")
        nxt = uid_gen()
        lp.process(Message(1, SIG, a, 0, TRUE, lp.gate.index, 1), nxt)
        rec = lp.process(Message(2, SIG, b, 0, TRUE, lp.gate.index, 2), nxt)
        n_before = rec.emissions[0].n
        lp.undo_last()
        rec2 = lp.process(Message(2, SIG, b, 0, TRUE, lp.gate.index, 3), nxt)
        assert rec2.emissions[0].n > n_before

    def test_processed_uids_tracking(self):
        c, lp = make_lp()
        a = c.index_of("a")
        nxt = uid_gen()
        msg = Message(1, SIG, a, 0, TRUE, lp.gate.index, 77)
        lp.process(msg, nxt)
        assert lp.holds(msg)
        assert not lp.holds(Message(1, SIG, a, 0, TRUE, lp.gate.index, 78))
        lp.undo_last()
        assert not lp.holds(msg)

    @settings(max_examples=200, deadline=None)
    @given(
        checkpoint_interval=st.sampled_from([None, 1, 3]),
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("process"), st.integers(0, 2), st.booleans(),
                    st.booleans(),
                ),
                st.tuples(st.just("undo")),
                st.tuples(st.just("fossil"), st.integers(0, 30)),
                st.tuples(st.just("rollback"), st.integers(0, 50)),
            ),
            max_size=60,
        ),
    )
    def test_holds_is_history_membership(self, checkpoint_interval, ops):
        """``holds`` answers "is this copy in the history" for every
        message ever processed — undone, fossil-collected, and re-run
        under the same key with a fresh uid (what a re-executed stimulus
        fan-out does) included. The fossil floor plays GVT: it never
        falls, and nothing below it is processed or rolled back to."""
        c, _ = make_lp()
        lp = LogicalProcess(
            c.gates[c.index_of("g")], node=0,
            checkpoint_interval=checkpoint_interval,
        )
        sources = [c.index_of("a"), c.index_of("b")]
        nxt = uid_gen()
        uids = iter(range(1000, 10_000))
        seen: list[Message] = []
        undone_keys: list = []
        floor = 0
        for op in ops:
            if op[0] == "process":
                _, dt, from_b, rerun = op
                later = sorted(
                    k for k in undone_keys if k > lp.last_key and k[0] >= floor
                )
                if rerun and later:
                    t, prio, src, n = later[0]
                else:
                    t = max(lp.last_key[0], floor) + dt
                    src, n = sources[from_b], len(seen)
                    if (t, SIG, src, n) <= lp.last_key:
                        t += 1
                    prio = SIG
                msg = Message(t, prio, src, n, TRUE, lp.gate.index, next(uids))
                lp.process(msg, nxt)
                seen.append(msg)
            elif op[0] == "undo" and lp.processed:
                undone_keys.append(lp.undo_last().msg.key)
            elif op[0] == "fossil":
                floor = max(floor, op[1])
                lp.fossil_collect(floor)
            elif op[0] == "rollback" and lp.processed and checkpoint_interval:
                to_key = lp.processed[op[1] % len(lp.processed)].msg.key
                if to_key[0] < floor:
                    continue
                undone, _ = lp.rollback_to(to_key)
                undone_keys.extend(r.msg.key for r in undone)
            held = {r.msg.uid for r in lp.processed}
            for msg in seen:
                assert lp.holds(msg) == (msg.uid in held), (op, msg)

    def test_dff_capture_semantics(self):
        c = parse_bench("INPUT(a)\nff = DFF(a)\nq = NOT(ff)\nOUTPUT(q)\n")
        ff = c.index_of("ff")
        lp = LogicalProcess(c.gates[ff], node=0)
        a = c.index_of("a")
        nxt = uid_gen()
        assert lp.output_value == FALSE  # flip-flops power up reset
        # data input set to 0 first (the kernels never capture before
        # the reset cycle has initialised the data path)
        lp.process(Message(1, SIG, a, 0, FALSE, ff, 1), nxt)
        assert lp.processed[-1].emissions == []  # DFFs don't eval on data
        rec0 = lp.process(Message(3, SIG, a, 1, TRUE, ff, 2), nxt)
        assert rec0.emissions == []
        rec = lp.process(Message(10, CAPTURE, ff, 1, 0, ff, 3), nxt)
        assert lp.output_value == TRUE
        assert rec.emissions[0].time == 10 + c.gates[ff].delay
        rec2 = lp.process(Message(20, CAPTURE, ff, 2, 0, ff, 4), nxt)
        assert rec2.emissions == []  # data unchanged since last capture

    def test_stim_self_event_fans_out_same_key(self):
        c = parse_bench("INPUT(a)\ng = NOT(a)\nh = BUF(a)\nOUTPUT(g)\nOUTPUT(h)\n")
        a = c.index_of("a")
        lp = LogicalProcess(c.gates[a], node=0)
        nxt = uid_gen()
        rec = lp.process(Message(0, STIM, a, 0, TRUE, a, 1), nxt)
        assert lp.output_value == TRUE
        assert len(rec.emissions) == 2
        for em in rec.emissions:
            assert em.key == (0, STIM, a, 0)

    def test_stim_suppressed_when_value_unchanged(self):
        c = parse_bench("INPUT(a)\ng = NOT(a)\nOUTPUT(g)\n")
        a = c.index_of("a")
        lp = LogicalProcess(c.gates[a], node=0)
        nxt = uid_gen()
        lp.process(Message(0, STIM, a, 0, TRUE, a, 1), nxt)
        rec = lp.process(Message(10, STIM, a, 1, TRUE, a, 2), nxt)
        assert rec.emissions == []

    def test_fossil_collect_drops_old_history(self):
        c, lp = make_lp()
        a = c.index_of("a")
        nxt = uid_gen()
        for t, v in [(1, TRUE), (5, FALSE), (9, TRUE)]:
            lp.process(Message(t, SIG, a, t, v, lp.gate.index, t), nxt)
        first = lp.processed[0].msg
        freed = lp.fossil_collect(5)
        assert freed == 1
        assert [r.msg.time for r in lp.processed] == [5, 9]
        assert not lp.holds(first)

    def test_parallel_edges_deduplicated_in_sinks(self):
        from repro.circuit import CircuitGraph

        c = CircuitGraph()
        a = c.add_gate("a", GateType.INPUT)
        x = c.add_gate("x", GateType.XOR)
        y = c.add_gate("y", GateType.BUF)
        c.connect(a, x)
        c.connect(a, x)
        c.connect(a, y)
        c.mark_output(x)
        c.mark_output(y)
        c.freeze()
        lp = LogicalProcess(c.gates[a], node=0)
        assert lp._sink_list == [x, y]


class TestNodeQueue:
    def entry(self, t, uid, dest=0):
        return Message(t, SIG, 1, 0, TRUE, dest, uid)

    def test_orders_by_key(self):
        q = NodeQueue()
        q.push(self.entry(5, 1))
        q.push(self.entry(2, 2))
        q.push(self.entry(9, 3))
        assert [q.pop().time for _ in range(3)] == [2, 5, 9]

    def test_same_key_ordered_by_dest_then_uid(self):
        q = NodeQueue()
        q.push(Message(3, SIG, 1, 0, TRUE, 9, 5))
        q.push(Message(3, SIG, 1, 0, TRUE, 2, 9))
        q.push(Message(3, SIG, 1, 0, TRUE, 2, 3))
        popped = [q.pop() for _ in range(3)]
        assert [(m.dest, m.uid) for m in popped] == [(2, 3), (2, 9), (9, 5)]

    def test_annihilate_pending(self):
        q = NodeQueue()
        q.push(self.entry(1, 1))
        q.push(self.entry(2, 2))
        assert q.annihilate(self.entry(1, 1).make_anti())
        assert not q.annihilate(self.entry(1, 1))
        assert len(q) == 1
        assert q.pop().uid == 2

    def test_annihilate_missing_raises(self):
        """Since the bucket queue a missing copy is ``False``, not a
        ``KeyError`` — and the queue is as it was."""
        q = NodeQueue()
        assert not q.annihilate(self.entry(1, 77))
        q.push(self.entry(1, 1))
        q.push(self.entry(4, 2))
        for absent in (self.entry(1, 77), self.entry(4, 77), self.entry(9, 1)):
            assert not q.annihilate(absent)
        assert [m.uid for m in q.pending()] == [1, 2]

    def test_min_time_skips_dead(self):
        q = NodeQueue()
        q.push(self.entry(1, 1))
        q.push(self.entry(5, 2))
        assert q.annihilate(self.entry(1, 1))
        assert q.min_time == 5

    @settings(max_examples=200, deadline=None)
    @given(
        fields=st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
                st.integers(0, 2),
            ),
            min_size=1, max_size=12,
        ),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["push", "cancel", "miss"]),
                st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
                st.integers(0, 2), st.integers(0, 1000),
            ),
            max_size=40,
        ),
    )
    def test_open_bucket_push_and_annihilate(self, fields, ops):
        """Pushes into and annihilations in the open (descending) bucket
        keep ``Message.sort_key`` order — messages equal up to their uid
        included — and a cancel whose uid is not pending changes
        nothing."""
        q = NodeQueue()
        uids = iter(range(1, 100_000))
        pending: list[Message] = []

        def push(t, prio, src, n, dest):
            msg = Message(t, prio, src, n, TRUE, dest, next(uids))
            q.push(msg)
            pending.append(msg)

        for prio, src, n, dest in fields:
            push(3, prio, src, n, dest)
        push(7, SIG, 0, 0, 0)  # a later bucket behind the open one
        for kind, prio, src, n, dest, pick in ops:
            t = q.min_time
            if kind == "push":
                push(t, prio, src, n, dest)
            elif len(pending) > 1:  # the queue stays non-empty
                at_min = [m for m in pending if m.time == t]
                victim = at_min[pick % len(at_min)]
                if kind == "cancel":
                    assert q.annihilate(victim.make_anti())
                    pending.remove(victim)
                else:
                    twin = Message(
                        t, victim.prio, victim.src, victim.n, TRUE,
                        victim.dest, next(uids),
                    )
                    assert not q.annihilate(twin.make_anti())
            want = sorted(pending, key=lambda m: m.sort_key)
            assert q.pending() == want
            assert q.min_time == want[0].time
        popped = [q.pop() for _ in range(len(pending))]
        assert popped == sorted(pending, key=lambda m: m.sort_key)
        assert not q

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            NodeQueue().pop()

    def test_bool_and_len(self):
        q = NodeQueue()
        assert not q and len(q) == 0
        q.push(self.entry(1, 1))
        assert q and len(q) == 1


class TestGVT:
    def test_end_when_nothing_outstanding(self):
        assert compute_gvt([NodeQueue()], []) == T_END

    def test_min_over_queues_and_flight(self):
        q1, q2 = NodeQueue(), NodeQueue()
        q1.push(Message(9, SIG, 1, 0, 1, 0, 1))
        q2.push(Message(4, SIG, 1, 0, 1, 0, 2))
        assert compute_gvt([q1, q2], [7]) == 4
        assert compute_gvt([q1, q2], [2]) == 2
