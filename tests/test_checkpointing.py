"""Tests for periodic checkpointing with coast-forward."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import parse_bench
from repro.circuit.netlists import load_s27
from repro.errors import ConfigError, SimulationError
from repro.partition import get_partitioner
from repro.sim import RandomStimulus, SequentialSimulator
from repro.sim.event import CAPTURE, SIG
from repro.warped import TimeWarpSimulator, VirtualMachine
from repro.warped.lp import LogicalProcess, unwind
from repro.warped.messages import Message
from repro.warped.queues import NodeQueue


def uid_gen():
    counter = [0]

    def next_uid():
        counter[0] += 1
        return counter[0]

    return next_uid


_DFF_CIRCUIT = parse_bench(
    "INPUT(a)\nINPUT(b)\ng = AND(a, b)\nq = DFF(g)\nOUTPUT(q)\n"
)


@st.composite
def _histories(draw):
    """(gate index, messages in increasing key order) for the AND gate
    ``g`` (signals from a or b) or the flip-flop ``q`` (signals from g
    and per-cycle CAPTUREs); uids count from 1000."""
    c = _DFF_CIRCUIT
    gate = c.index_of(draw(st.sampled_from(["g", "q"])))
    if gate == c.index_of("g"):
        sources = [c.index_of("a"), c.index_of("b")]
    else:
        sources = [c.index_of("g"), None]  # None: a CAPTURE
    steps = draw(st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from(sources), st.integers(0, 1)),
        min_size=1, max_size=14,
    ))
    messages = []
    t = 0
    for n, (dt, src, value) in enumerate(steps):
        t += dt
        if src is None:
            msg = Message(t, CAPTURE, gate, n, 0, gate, 1000 + n)
        else:
            msg = Message(t, SIG, src, n, value, gate, 1000 + n)
        messages.append(msg)
    return gate, messages


def _feed(lp, messages) -> dict:
    """Process *messages* on *lp*; returns the capture log an executive
    would keep (a capture that changed the output is logged)."""
    capture_log = {}
    nxt = uid_gen()
    for msg in messages:
        record = lp.process(msg, nxt)
        if msg.prio == CAPTURE and record.old_output != lp.output_value:
            capture_log[(msg.dest, msg.n)] = lp.output_value
    return capture_log


@pytest.fixture()
def chain_lp():
    c = parse_bench(
        "INPUT(a)\nINPUT(b)\ng = AND(a, b)\nq = NOT(g)\nOUTPUT(q)\n"
    )
    g = c.index_of("g")
    return c, LogicalProcess(c.gates[g], node=0, checkpoint_interval=2)


class TestLpCheckpointMode:
    def test_snapshots_taken_at_interval(self, chain_lp):
        c, lp = chain_lp
        a, b = c.index_of("a"), c.index_of("b")
        nxt = uid_gen()
        assert len(lp.checkpoints) == 1  # the initial base snapshot
        lp.process(Message(1, SIG, a, 0, 1, lp.gate.index, 1), nxt)
        assert len(lp.checkpoints) == 1
        lp.process(Message(2, SIG, b, 0, 1, lp.gate.index, 2), nxt)
        assert len(lp.checkpoints) == 2  # interval 2 reached

    def test_rollback_restores_through_coast(self, chain_lp):
        c, lp = chain_lp
        a, b = c.index_of("a"), c.index_of("b")
        nxt = uid_gen()
        history = [
            Message(1, SIG, a, 0, 1, lp.gate.index, 1),
            Message(2, SIG, b, 0, 1, lp.gate.index, 2),
            Message(3, SIG, a, 1, 0, lp.gate.index, 3),
            Message(4, SIG, b, 1, 0, lp.gate.index, 4),
            Message(5, SIG, a, 2, 1, lp.gate.index, 5),
        ]
        for msg in history:
            lp.process(msg, nxt)
        state_before = (dict(lp.input_copy), lp.output_value)
        # roll back past the last two, then replay: state must match
        undone, coasted = lp.rollback_to((4, SIG, b, 1))
        assert [r.msg.uid for r in undone] == [4, 5]
        assert coasted >= 0
        for msg in history[3:]:
            lp.process(msg, nxt)
        assert (dict(lp.input_copy), lp.output_value) == state_before

    def test_rollback_to_requires_checkpoint_mode(self):
        circuit = load_s27()
        lp = LogicalProcess(circuit.gates[circuit.index_of("G9")], node=0)
        with pytest.raises(SimulationError, match="checkpoint mode"):
            lp.rollback_to((0, SIG, 0, 0))

    def test_undo_info_not_needed_in_checkpoint_mode(self, chain_lp):
        c, lp = chain_lp
        a = c.index_of("a")
        nxt = uid_gen()
        record = lp.process(Message(1, SIG, a, 0, 1, lp.gate.index, 1), nxt)
        # incremental undo info is still recorded (harmless), but the
        # checkpoint path never consumes it
        undone, _ = lp.rollback_to((1, SIG, a, 0))
        assert undone[0] is record
        assert lp.last_key[0] == -1

    def test_fossil_collect_keeps_base_snapshot(self, chain_lp):
        c, lp = chain_lp
        a, b = c.index_of("a"), c.index_of("b")
        nxt = uid_gen()
        values = [(1, a, 1), (2, b, 1), (3, a, 0), (4, b, 0), (5, a, 1)]
        for t, src, v in values:
            lp.process(Message(t, SIG, src, t, v, lp.gate.index, t), nxt)
        lp.fossil_collect(4)
        assert lp.checkpoints[0][0][0] <= 4
        # rollback to a post-GVT key still works
        undone, _ = lp.rollback_to((5, SIG, a, 5))
        assert len(undone) == 1

    @settings(max_examples=150, deadline=None)
    @given(history=_histories(), interval=st.integers(1, 5), data=st.data())
    def test_unwind_same_for_both_state_savers(self, history, interval, data):
        """:func:`unwind` leaves an incremental LP and a checkpointing
        one in the same state, with the same records, queue and
        capture log — the state of an LP that never saw the undone
        suffix."""
        gate, messages = history
        cut = data.draw(st.integers(0, len(messages) - 1), label="cut")
        cancel_uid = (
            messages[cut].uid if data.draw(st.booleans(), label="cancel")
            else None
        )
        to_key = messages[cut].key
        outcomes = []
        for checkpoint_interval in (None, interval):
            lp = LogicalProcess(
                _DFF_CIRCUIT.gates[gate], node=0,
                checkpoint_interval=checkpoint_interval,
            )
            capture_log = _feed(lp, messages)
            queue = NodeQueue()
            records, _ = unwind(lp, to_key, cancel_uid, queue, capture_log)
            outcomes.append((
                list(lp._fanin_values),
                lp.output_value,
                lp.last_key,
                [r.msg.uid for r in lp.processed],
                {msg.uid for msg in messages if lp.holds(msg)},
                [
                    (r.msg.uid, r.old_input, r.old_output,
                     [(em.uid, em.key, em.value, em.dest) for em in r.emissions])
                    for r in records
                ],
                [msg.uid for msg in queue.pending()],
                capture_log,
            ))
        assert outcomes[0] == outcomes[1]
        fresh = LogicalProcess(_DFF_CIRCUIT.gates[gate], node=0)
        fresh_log = _feed(fresh, messages[:cut])
        fanin, out, last_key, processed, uids, records, pending, log = outcomes[0]
        assert (fanin, out, last_key, log) == (
            fresh._fanin_values, fresh.output_value, fresh.last_key, fresh_log
        )
        assert processed == [msg.uid for msg in messages[:cut]]
        assert uids == set(processed)
        assert [uid for uid, *_ in records] == [
            msg.uid for msg in reversed(messages[cut:])
        ]
        assert pending == [
            msg.uid for msg in messages[cut:] if msg.uid != cancel_uid
        ]


class TestKernelCheckpointMode:
    @pytest.mark.parametrize("interval", [1, 4, 32])
    def test_oracle(self, medium_circuit, interval):
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=7)
        seq = SequentialSimulator(medium_circuit, stim).run()
        assignment = get_partitioner("Cluster", seed=3).partition(
            medium_circuit, 4
        )
        tw = TimeWarpSimulator(
            medium_circuit, assignment, stim,
            VirtualMachine(num_nodes=4, checkpoint_interval=interval),
        ).run()
        assert tw.final_values == seq.final_values

    def test_combined_with_lazy_and_window(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=15, seed=7)
        seq = SequentialSimulator(medium_circuit, stim).run()
        assignment = get_partitioner("Multilevel", seed=3).partition(
            medium_circuit, 4
        )
        tw = TimeWarpSimulator(
            medium_circuit, assignment, stim,
            VirtualMachine(
                num_nodes=4, checkpoint_interval=8,
                cancellation="lazy", optimism_window=50,
            ),
        ).run()
        assert tw.final_values == seq.final_values

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="checkpoint_interval"):
            VirtualMachine(num_nodes=2, checkpoint_interval=0)

    def test_deterministic(self, medium_circuit):
        stim = RandomStimulus(medium_circuit, num_cycles=10, seed=7)
        assignment = get_partitioner("Random", seed=3).partition(
            medium_circuit, 3
        )

        def run():
            return TimeWarpSimulator(
                medium_circuit, assignment, stim,
                VirtualMachine(num_nodes=3, checkpoint_interval=4),
            ).run()

        a, b = run(), run()
        assert a.execution_time == b.execution_time
        assert a.rollbacks == b.rollbacks
