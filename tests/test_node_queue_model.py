"""Model-based tests of the bucket queue (``repro.warped.queues``).

Two references, neither of which knows how the queue stores anything:

- the **model** — the set of live messages; what the queue must hand
  out is ``sorted(live, key=Message.sort_key)``.  Hypothesis drives
  random programs of every public operation against both and compares
  ``pending()``, ``min_time``, ``len`` and ``bool`` after every step.
  Operands are chosen *relative to the queue's state* (earlier than /
  equal to / later than the open time, a time whose bucket was just
  emptied, a copy in the open bucket or in a later unsorted one, a copy
  that is not pending), so the three push cases and both annihilation
  paths are hit in every program, not by luck.
- the **frozen seed queue** (``tests/reference/seed_queues.py``, a lazy-
  deletion heap): the frozen seed kernel drives its queues through
  method calls only, so every regression-corpus case is replayed with
  each seed queue mirrored into a ``NodeQueue`` that must pop the very
  same message at every pop — real Time Warp traffic: stragglers,
  rollback re-enqueues, annihilations, migration.

Mutation check (done by hand when this file was written, repeat it when
touching ``_advance``): sorting a bucket by less than the full key —
``bucket.sort(key=lambda e: e[:4])``, i.e. ignoring the uid — fails
``test_queue_follows_the_model`` on its explicit example (real traffic
never holds two copies for one sink, so the corpus replay cannot see
it); dropping the ``sort`` altogether fails the corpus replay on every
case as well.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tests.reference.seed_kernel as seed_kernel
from repro.circuit import GeneratorSpec, generate_circuit
from repro.harness.regression import load_case
from repro.partition.registry import get_partitioner
from repro.sim import RandomStimulus
from repro.sim.event import T_END
from repro.warped import VirtualMachine
from repro.warped.messages import Message
from repro.warped.queues import NodeQueue, bucketed
from tests.reference.seed_queues import NodeQueue as SeedQueue

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))

# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------
#: Small domains, so keys collide in every prefix and only the full key
#: (uid last) tells two entries of one bucket apart.
small = st.integers(0, 2)
#: A uid is drawn, not counted: buckets must not receive their entries
#: already in uid order.
uids = st.integers(1, 40)

operations = st.one_of(
    st.tuples(
        st.just("push"),
        st.sampled_from(("earlier", "open", "later", "drained")),
        st.integers(1, 3), small, small, small, small, uids,
    ),
    st.tuples(st.just("pop")),
    st.tuples(
        st.just("annihilate"),
        st.sampled_from(("open", "later", "absent")),
        st.integers(0, 50),
        st.booleans(),
    ),
    st.tuples(st.just("extract"), st.sets(small, max_size=2)),
    st.tuples(
        st.just("load"),
        st.lists(st.tuples(st.integers(0, 9), small, small, uids), max_size=6),
    ),
    st.tuples(st.just("count"), st.integers(-1, 12)),
)


class Model:
    """A ``NodeQueue`` and the plain set of messages it should hold."""

    def __init__(self) -> None:
        self.queue = NodeQueue()
        self.live: dict[int, Message] = {}
        self.used: set[int] = set()
        #: The time whose last message left most recently.
        self.drained: int | None = None

    def fresh(self, time, prio, src, n, dest, uid) -> Message:
        """A message whose uid is *uid*, or the next unused one."""
        while uid in self.used:
            uid += 41
        self.used.add(uid)
        return Message(time, prio, src, n, 1, dest, uid)

    def left(self, msg: Message) -> None:
        del self.live[msg.uid]
        if all(other.time != msg.time for other in self.live.values()):
            self.drained = msg.time

    def check(self) -> None:
        queue = self.queue
        want = sorted(self.live.values(), key=lambda m: m.sort_key)
        assert queue.pending() == want
        assert queue.min_time == (want[0].time if want else None)
        assert len(queue) == len(want)
        assert bool(queue) == bool(want)

    # -- one method per operation --------------------------------------
    def push(self, where, delta, prio, src, n, dest, uid) -> None:
        open_time = self.queue.min_time
        if open_time is None:
            time = delta
        elif where == "earlier":
            time = open_time - delta
        elif where == "open":
            time = open_time
        elif where == "later":
            time = open_time + delta
        else:
            time = open_time if self.drained is None else self.drained
        msg = self.fresh(time, prio, src, n, dest, uid)
        self.live[msg.uid] = msg
        self.queue.push(msg)

    def pop(self) -> None:
        if not self.live:
            with pytest.raises(IndexError):
                self.queue.pop()
            return
        msg = self.queue.pop()
        assert msg is min(self.live.values(), key=lambda m: m.sort_key)
        self.left(msg)

    def annihilate(self, where, pick, as_anti) -> None:
        open_time = self.queue.min_time
        if where == "absent":
            # Same time and key as something pending, but a uid that is
            # not; or a message that was never pushed at all.
            twin = next(iter(self.live.values()), None)
            target = (
                self.fresh(pick, 0, 0, 0, 0, 1) if twin is None
                else self.fresh(
                    twin.time, twin.prio, twin.src, twin.n, twin.dest, twin.uid
                )
            )
            assert not self.queue.annihilate(target)
            return
        pool = sorted(
            uid for uid, msg in self.live.items()
            if (msg.time == open_time) == (where == "open")
        )
        if not pool:
            return
        target = self.live[pool[pick % len(pool)]]
        assert self.queue.annihilate(target.make_anti() if as_anti else target)
        self.left(target)
        # The copy is gone: a second anti finds nothing and changes nothing.
        assert not self.queue.annihilate(target)

    def extract(self, dests) -> None:
        moved = self.queue.extract_dests(dests)
        want = [m for m in self.live.values() if m.dest in dests]
        assert sorted(m.uid for m in moved) == sorted(m.uid for m in want)
        for msg in want:
            self.left(msg)

    def load(self, rows) -> None:
        messages = [
            self.fresh(time, prio, 0, 0, dest, uid)
            for time, prio, dest, uid in rows
        ]
        self.live.update((msg.uid, msg) for msg in messages)
        self.queue.load(bucketed(messages))

    def count(self, offset) -> None:
        base = self.queue.min_time or 0
        for through in (base + offset, T_END):
            assert self.queue.count_through(through) == sum(
                1 for msg in self.live.values() if msg.time <= through
            )


#: One program that walks every case the issue names, in order.
EVERY_CASE = [
    # Three entries that differ in the uid alone, pushed in ascending uid
    # order into a later bucket: only a sort on the full key pops uid 3
    # before 7 before 9.
    ("push", "open", 5, 1, 1, 1, 1, 20),
    ("push", "later", 2, 1, 1, 1, 1, 3),
    ("push", "later", 2, 1, 1, 1, 1, 7),
    ("push", "later", 2, 1, 1, 1, 1, 9),
    ("pop",),                               # empties t=5, opens t=7
    ("push", "drained", 1, 0, 0, 0, 0, 4),  # t=5 again: earlier than open
    ("push", "open", 1, 2, 0, 0, 2, 5),     # insert into the open bucket
    ("push", "earlier", 3, 0, 0, 0, 0, 6),  # shelves the open bucket
    ("count", 0), ("count", 3), ("count", -1),
    ("annihilate", "later", 1, True),       # copy in a later bucket
    ("annihilate", "open", 0, False),       # empties the open bucket
    ("annihilate", "absent", 0, False),
    ("load", [(0, 1, 1, 30), (5, 0, 2, 31), (7, 2, 0, 32), (9, 1, 1, 33)]),
    ("extract", {1}),
    ("extract", set()),
    ("annihilate", "open", 0, True),        # the open bucket stays open
    ("annihilate", "later", 0, False),      # empties a later bucket
    ("annihilate", "open", 0, True),        # empties the queue
    ("annihilate", "absent", 3, True),
    ("pop",),
    ("load", [(4, 0, 0, 34)]),              # load onto an empty queue
    ("pop",), ("pop",),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(program=st.lists(operations, max_size=40))
@example(program=EVERY_CASE)
def test_queue_follows_the_model(program):
    model = Model()
    for name, *operands in program:
        getattr(model, name)(*operands)
        model.check()


def test_the_explicit_program_reaches_every_case():
    """``EVERY_CASE`` is only worth its name if it does what its comments
    say: a push on each side of the open time, an annihilation in each
    kind of bucket that leaves it, empties it, and empties the queue."""
    model = Model()
    seen = set()
    for name, *operands in EVERY_CASE:
        opened, times = model.queue.min_time, {m.time for m in model.live.values()}
        size = len(model.queue)
        getattr(model, name)(*operands)
        model.check()
        now = model.queue.min_time
        if name == "push" and None not in (opened, now):
            seen.add(("push", operands[0], now < opened))
        if name == "annihilate" and len(model.queue) < size:
            emptied = times != {m.time for m in model.live.values()}
            seen.add(("annihilate", operands[0], emptied, now is None))
    assert not model.live
    assert seen == {
        ("push", "open", False), ("push", "later", False),
        ("push", "earlier", True), ("push", "drained", True),
        ("annihilate", "later", False, False),
        ("annihilate", "later", True, False),
        ("annihilate", "open", False, False),
        ("annihilate", "open", True, False),
        ("annihilate", "open", True, True),
    }


# ----------------------------------------------------------------------
# the frozen seed queue, on real traffic
# ----------------------------------------------------------------------
class Mirrored(SeedQueue):
    """The frozen queue, every operation repeated on a ``NodeQueue``
    that must answer the same."""

    pops = 0

    def __init__(self) -> None:
        super().__init__()
        self.mirror = NodeQueue()
        #: The seed interface cancels by uid; the bucket queue is handed
        #: the message, as the engines hand it.
        self.by_uid: dict[int, Message] = {}

    def push(self, msg):
        super().push(msg)
        self.mirror.push(msg)
        self.by_uid[msg.uid] = msg

    def pop(self):
        msg = super().pop()
        assert self.mirror.pop() is msg
        Mirrored.pops += 1
        return msg

    def contains_uid(self, uid):
        present = super().contains_uid(uid)
        if not present and uid in self.by_uid:
            assert not self.mirror.annihilate(self.by_uid[uid])
        return present

    def annihilate(self, uid):
        super().annihilate(uid)
        assert self.mirror.annihilate(self.by_uid[uid].make_anti())

    def min_time(self):
        time = super().min_time()
        assert self.mirror.min_time == time
        return time

    def extract_dests(self, dests):
        moved = super().extract_dests(dests)
        mirrored = self.mirror.extract_dests(dests)
        assert sorted(m.uid for m in mirrored) == sorted(m.uid for m in moved)
        return moved

    def __len__(self):
        assert len(self.mirror) == super().__len__()
        return super().__len__()


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_seed_queue_pops_the_same_sequence_on_the_corpus(path, monkeypatch):
    case = load_case(path)
    circuit = generate_circuit(GeneratorSpec(**case["spec"]))
    stimulus = RandomStimulus(circuit, **case["stimulus"])
    assignment = get_partitioner(
        case["partitioner"], seed=case.get("partitioner_seed", 0)
    ).partition(circuit, case["k"])
    machine = VirtualMachine(num_nodes=case["k"], **case.get("machine", {}))
    monkeypatch.setattr(seed_kernel, "NodeQueue", Mirrored)
    monkeypatch.setattr(Mirrored, "pops", 0)
    result = seed_kernel.TimeWarpSimulator(
        circuit, assignment, stimulus, machine
    ).run()
    assert Mirrored.pops == result.events_processed > 0
