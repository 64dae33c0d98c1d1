"""Transport conformance: the contract every wire transport must honour.

The process backend's node loop is transport-agnostic; what makes that
safe is this suite — a single parameterized contract run against BOTH
substrates (``queue`` pipe channels and ``shm`` fixed-width rings):

- every wire tag round-trips the channel intact (MSG with and without
  its recovery tail and at the end of virtual time, anti-messages,
  TOKEN, GVT incl. the ``T_END`` quiescence broadcast, MIGCMD), restart
  replays included;
- delivery is FIFO and recovery sequence numbers arrive monotonic;
- a bounded channel backpressures (``Full``) but never deadlocks once
  the consumer drains;
- a channel nobody drains makes the sender's bounded retry give up with
  a diagnosable ``SimulationError``, not an eternal block;
- records survive a real process boundary, forked or spawned;
- ``take()`` — the node loop's poll — hands over what has arrived as a
  batch, an empty one when nothing has (it never raises), in the order
  ``get`` would have served it, blobs reassembled.

Pipe-specific sections pin what the feeder-free channel adds (frames
from concurrent producers stay intact and per-producer FIFO, a blob
larger than the pipe gets through fragment by fragment, a full pipe
raises ``Full`` instead of blocking, and two nodes waiting out each
other's full inboxes both finish — the mutual-drain rule).  Shm-specific
sections pin the ring's own guarantees (capacity
validation on attach, corrupt-slot rejection, idempotent
close/unlink/cleanup, no leaked ``/dev/shm`` segments) and
property-test the fixed-width codec with hypothesis: round-trip for
every tag, and *any* single-bit corruption or truncation surfaces as
:class:`~repro.errors.ProtocolError` — never a bare ``struct.error`` or
a silently wrong message.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, SimulationError
from repro.sim.event import T_END
from repro.warped.messages import ANTI, POSITIVE, Message
from repro.warped.parallel import loop as loop_mod
from repro.warped.parallel import recovery
from repro.warped.parallel.protocol import (
    GVT,
    MIGCMD,
    MIGRATE,
    MSG,
    TOKEN,
    GvtToken,
)
from repro.warped.parallel.transport import (
    DEFAULT_CAPACITY,
    RECORD_SIZE,
    TRANSPORT_NAMES,
    ShmChannel,
    _READ,
    _fragment,
    _pack,
    decode_record,
    drain_queue,
    encode_migrate,
    encode_record,
    make_transport,
)

_CTX = mp.get_context("fork")


def _msg_fields(msg: Message) -> tuple:
    return (
        msg.time, msg.prio, msg.src, msg.n,
        msg.value, msg.dest, msg.uid, msg.sign,
    )


def _normalize(item: tuple) -> tuple:
    """Wire tuple with embedded Messages flattened for == comparison
    (Message has identity equality on purpose — uid-keyed matching)."""
    return tuple(
        _msg_fields(part) if isinstance(part, Message) else part
        for part in item
    )


def _msg(uid: int, *, sign: int = POSITIVE, value: int = 1) -> Message:
    return Message(100 + uid, 0, 2, uid, value, 5, uid, sign)


# ----------------------------------------------------------------------
# the transport-parameterized contract
# ----------------------------------------------------------------------
@pytest.fixture(params=TRANSPORT_NAMES)
def channels(request):
    """Factory for one attempt's inboxes on the parameterized transport;
    tears every channel and segment down afterwards."""
    made: list = []

    def factory(n: int = 1, maxsize: int | None = None, ctx=_CTX) -> list:
        transport = make_transport(request.param)
        inboxes = transport.make_inboxes(ctx, n, maxsize)
        made.append((transport, inboxes))
        return inboxes

    factory.transport_name = request.param
    yield factory
    for transport, inboxes in made:
        for chan in inboxes:
            try:
                chan.close()
            except (OSError, ValueError):
                pass
        transport.cleanup()


WIRE_SAMPLES = [
    (MSG, 3, _msg(7)),
    (MSG, 4, _msg(8, sign=ANTI)),
    (MSG, 9, _msg(11, value=-1), 2, 41),       # recovery (src, seq) tail
    (MSG, 5, Message(T_END - 1, 2, 3, 4, 0, 5, 6)),  # the last real time
    (TOKEN, GvtToken(cid=5, m_clock=12, m_send=T_END, count=-3)),
    (TOKEN, GvtToken(cid=6, m_clock=T_END, m_send=T_END, count=0)),
    (GVT, 9, 128),
    (GVT, 12, T_END),                           # quiescence broadcast
    (MIGCMD, 7, 144, 2),                        # migrate order to the hot node
    (TOKEN, GvtToken(                           # load fold riding the token
        cid=8, m_clock=64, m_send=T_END, count=0,
        busy_max=125_000, busy_max_node=1, ev_max=4096,
        busy_min=30, busy_min_node=0,
    )),
]


def test_every_wire_tag_round_trips(channels):
    (chan,) = channels()
    for item in WIRE_SAMPLES:
        chan.put_nowait(item)
    got = [chan.get(timeout=10) for _ in WIRE_SAMPLES]
    assert [_normalize(g) for g in got] == [_normalize(s) for s in WIRE_SAMPLES]


def test_fifo_order_and_seq_monotonicity(channels):
    (chan,) = channels()
    for seq in range(1, 301):
        chan.put_nowait((MSG, 1, _msg(seq % 50, value=seq), 0, seq))
    seqs = []
    for expected in range(1, 301):
        tag, color, msg, src, seq = chan.get(timeout=10)
        assert tag == MSG and src == 0
        assert msg.value == expected, "delivery reordered"
        seqs.append(seq)
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    with pytest.raises(queue_mod.Empty):
        chan.get_nowait()


def test_ckpt_resume_round_trip(channels):
    """Restart replays are wire items like any other: what
    ``recovery.compute_replays`` makes of an epoch crosses the channel
    with the ``(src, seq)`` tail, the color and the anti sign that
    replay correctness depends on."""
    payloads = {
        1: {"loop": {
            "send_log": {0: [(98, 11, _msg(20)),
                             (99, 12, _msg(21, sign=ANTI, value=0))]},
            "recv_seq": {},
        }},
        0: {"loop": {"send_log": {}, "recv_seq": {1: 97}}},
    }
    replays = recovery.compute_replays(payloads)[0]
    (chan,) = channels()
    for item in replays:
        chan.put_nowait(item)
    got = [chan.get(timeout=10) for _ in replays]
    assert [_normalize(g) for g in got] == [_normalize(r) for r in replays]
    tag, color, msg, src, seq = got[1]
    assert (tag, color, src, seq) == (MSG, 12, 1, 99)
    assert msg.sign == ANTI and msg.uid == 21


def test_bounded_backpressure_without_deadlock(channels):
    """A capacity-8 channel against 100 sends: the producer must feel
    Full (blocking in put) yet everything arrives in order once the
    consumer drains — bounded never means deadlock or loss."""
    (chan,) = channels(maxsize=8)
    total = 100
    errors: list = []

    def produce() -> None:
        try:
            for i in range(total):
                chan.put((MSG, 1, _msg(i % 40, value=i)), timeout=30)
        except Exception as exc:  # pragma: no cover - failure capture
            errors.append(exc)

    producer = threading.Thread(target=produce, daemon=True)
    producer.start()
    values = [chan.get(timeout=30)[2].value for _ in range(total)]
    producer.join(timeout=30)
    assert not producer.is_alive() and not errors
    assert values == list(range(total))


def test_full_channel_raises_full(channels):
    (chan,) = channels(maxsize=4)
    for i in range(4):
        chan.put((GVT, i, 1), timeout=10)
    with pytest.raises(queue_mod.Full):
        chan.put((GVT, 99, 1), timeout=0.2)


def test_retry_then_dead_single(channels, monkeypatch):
    """_put_wire against a full ring nobody drains: bounded retry, then
    a diagnosable failure — never an eternal block."""
    monkeypatch.setattr(loop_mod, "_PUT_RETRIES", 3)
    monkeypatch.setattr(loop_mod, "_PUT_BACKOFF", 0.001)
    (chan,) = channels(maxsize=2)
    for i in range(2):
        chan.put((GVT, i, 1), timeout=10)
    with pytest.raises(SimulationError, match="transport put failed"):
        loop_mod._put_wire(chan, (GVT, 9, 2))


def test_retry_then_dead_batch(channels, monkeypatch):
    monkeypatch.setattr(loop_mod, "_PUT_RETRIES", 3)
    monkeypatch.setattr(loop_mod, "_PUT_BACKOFF", 0.001)
    (chan,) = channels(maxsize=2)
    for i in range(2):
        chan.put((GVT, i, 1), timeout=10)
    with pytest.raises(SimulationError, match="transport put failed"):
        loop_mod._put_wire_batch(chan, [(GVT, 9, 2), (GVT, 10, 3)])


def test_put_wire_batch_drains_clean(channels):
    """The batched send path delivers everything, in order, on both
    substrates (one frame per write on queue, one locked write on shm)."""
    (chan,) = channels()
    items = [(GVT, i, i) for i in range(64)]
    loop_mod._put_wire_batch(chan, list(items))
    got = [chan.get(timeout=10) for _ in items]
    assert got == items


# ----------------------------------------------------------------------
# take(): the non-raising "what has arrived" receive
# ----------------------------------------------------------------------
def _take_all(chan, total: int, timeout: float = 30.0) -> list:
    """Poll ``take()`` until *total* items arrived."""
    items: list = []
    deadline = time.monotonic() + timeout
    while len(items) < total:
        assert time.monotonic() < deadline, f"{len(items)}/{total} arrived"
        items.extend(chan.take())
    return items


def test_take_is_empty_when_nothing_arrived_and_fifo_when_something_did(
    channels,
):
    (chan,) = channels()
    assert len(chan.take()) == 0  # no queue.Empty, no BlockingIOError
    for item in WIRE_SAMPLES:
        chan.put_nowait(item)
    got = _take_all(chan, len(WIRE_SAMPLES))
    assert [_normalize(g) for g in got] == [_normalize(s) for s in WIRE_SAMPLES]
    assert len(chan.take()) == 0 and chan.qsize() == 0
    with pytest.raises(queue_mod.Empty):
        chan.get_nowait()


def test_take_keeps_per_producer_fifo_across_processes(channels):
    (chan,) = channels()
    producers, batches, size = 3, 40, 25
    procs = [
        _CTX.Process(target=_batch_producer, args=(chan, p, batches, size))
        for p in range(producers)
    ]
    for proc in procs:
        proc.start()
    seen: dict[int, list[int]] = {p: [] for p in range(producers)}
    for tag, producer, msg in _take_all(chan, producers * batches * size):
        assert tag == MSG
        seen[producer].append(msg.value)
    for proc in procs:
        proc.join(timeout=30)
        assert proc.exitcode == 0
    for values in seen.values():
        assert values == list(range(batches * size))
    assert len(chan.take()) == 0


def test_take_reassembles_a_blob_in_its_fifo_place(channels):
    (chan,) = channels()
    payload = _migrate_payload(n_lps=8, n_pending=12)
    chan.put_nowait((GVT, 4, 64))
    chan.put_nowait((MIGRATE, 1, 0, 4, payload))
    chan.put_nowait((MSG, 2, _msg(21)))
    first, blob, last = _take_all(chan, 3)
    assert first == (GVT, 4, 64) and last[0] == MSG
    assert blob[:4] == (MIGRATE, 1, 0, 4)
    _assert_payloads_match(blob[4], payload)


def test_take_shares_one_stream_with_get_and_drain(channels):
    """``take``, ``get``/``get_nowait`` and the re-arm drain consume the
    same stream: whatever one of them took, the others never see."""
    (chan,) = channels()
    for i in range(5):
        chan.put_nowait((GVT, i, i))
    assert chan.get_nowait() == (GVT, 0, 0)
    assert chan.get(timeout=10) == (GVT, 1, 1)
    assert list(_take_all(chan, 3)) == [(GVT, i, i) for i in (2, 3, 4)]
    for i in range(5, 8):
        chan.put_nowait((GVT, i, i))
    assert drain_queue(chan) == 3
    assert len(chan.take()) == 0
    chan.put_nowait((GVT, 8, 8))
    assert list(_take_all(chan, 1)) == [(GVT, 8, 8)]


def _echo_child(inbox, outbox, total: int) -> None:
    for _ in range(total):
        tag, color, msg = inbox.get(timeout=30)
        outbox.put((MSG, color, _msg(msg.uid, value=msg.value + 1)), timeout=30)


def _echo_round_trip(channels, ctx) -> None:
    parent_inbox, child_inbox = channels(n=2, ctx=ctx)
    total = 50
    proc = ctx.Process(
        target=_echo_child, args=(child_inbox, parent_inbox, total)
    )
    proc.start()
    try:
        for i in range(total):
            child_inbox.put((MSG, 2, _msg(i % 30, value=i)), timeout=30)
        echoed = [parent_inbox.get(timeout=30)[2].value for _ in range(total)]
    finally:
        proc.join(timeout=30)
    assert echoed == [i + 1 for i in range(total)]
    assert proc.exitcode == 0


def test_cross_process_delivery(channels):
    """Records survive a real fork() boundary in both directions."""
    _echo_round_trip(channels, _CTX)


def test_spawned_process_delivery(channels):
    """The spawn fallback: channels pickle into a fresh interpreter
    (pipe and doorbell fds shipped as duplicates) and still deliver."""
    _echo_round_trip(channels, mp.get_context("spawn"))


# ----------------------------------------------------------------------
# pipe channel specifics
# ----------------------------------------------------------------------
@pytest.fixture
def pipes():
    """Factory for ``queue``-transport inboxes, closed afterwards."""
    transport = make_transport("queue")
    yield lambda n=1, maxsize=None: transport.make_inboxes(_CTX, n, maxsize)
    transport.cleanup()


def _batch_producer(chan, producer: int, batches: int, size: int) -> None:
    for batch in range(batches):
        loop_mod._put_wire_batch(
            chan,
            [
                (MSG, producer, _msg(i % 40, value=batch * size + i))
                for i in range(size)
            ],
        )


def test_pipe_concurrent_producers_stay_intact_and_fifo(pipes):
    """More producers than cores, each flushing many batches into one
    inbox with no lock between them: every record arrives exactly once
    and each producer's records arrive in the order it sent them."""
    (chan,) = pipes()
    producers, batches, size = 4, 150, 40
    procs = [
        _CTX.Process(target=_batch_producer, args=(chan, p, batches, size))
        for p in range(producers)
    ]
    for proc in procs:
        proc.start()
    seen: dict[int, list[int]] = {p: [] for p in range(producers)}
    for _ in range(producers * batches * size):
        tag, producer, msg = chan.get(timeout=30)
        assert tag == MSG
        seen[producer].append(msg.value)
    for proc in procs:
        proc.join(timeout=30)
        assert proc.exitcode == 0
    for values in seen.values():
        assert values == list(range(batches * size))
    with pytest.raises(queue_mod.Empty):
        chan.get_nowait()


def _blob_producer(chan, payload: dict) -> None:
    loop_mod._put_wire(chan, (MIGRATE, 3, 0, 7, payload))
    loop_mod._put_wire(chan, (GVT, 8, 1))  # FIFO behind the blob


def test_pipe_blob_larger_than_pipe_interleaves_with_msg_frames(pipes):
    """A MIGRATE blob bigger than the whole pipe (so its sender must
    wait out Full and resume mid-blob) crosses intact while another
    producer's MSG frames land between its fragments."""
    (chan,) = pipes()
    payload = _migrate_payload(n_lps=40, n_pending=6000)
    blob = _CTX.Process(target=_blob_producer, args=(chan, payload))
    msgs = _CTX.Process(target=_batch_producer, args=(chan, 1, 60, 40))
    blob.start()
    msgs.start()
    values, got_blob, after_blob = [], None, None
    while len(values) < 60 * 40 or after_blob is None:
        item = chan.get(timeout=30)
        if item[0] == MSG:
            values.append(item[2].value)
        elif item[0] == MIGRATE:
            got_blob = item
        else:
            assert got_blob is not None, "GVT overtook its producer's blob"
            after_blob = item
    for proc in (blob, msgs):
        proc.join(timeout=30)
        assert proc.exitcode == 0
    assert values == list(range(60 * 40))
    assert got_blob[:4] == (MIGRATE, 3, 0, 7)
    _assert_payloads_match(got_blob[4], payload)
    assert after_blob == (GVT, 8, 1)


def test_pipe_full_raises_full_and_never_blocks(pipes):
    (chan,) = pipes()
    sent = 0
    with pytest.raises(queue_mod.Full):
        for sent in range(100_000):
            chan.put_nowait((GVT, sent, 1))
    assert sent > 256, "an unbounded inbox must hold the probe's 256 records"
    start = time.monotonic()
    with pytest.raises(queue_mod.Full):
        chan.put((GVT, -1, 1), timeout=0.2)
    assert time.monotonic() - start < 5
    assert [chan.get(timeout=10)[1] for _ in range(sent)] == list(range(sent))


def test_pipe_256_blocking_puts_then_gets_from_one_process(pipes):
    """What ``benchmarks/e2e``'s transport probe does: one process puts
    256 records, blocking, before it reads the first one back."""
    (chan,) = pipes()
    for i in range(256):
        chan.put((MSG, 1, Message(100 + i, 0, i % 97, i, i & 1, i % 89, i)))
    assert [chan.get(timeout=10)[2].uid for _ in range(256)] == list(range(256))


def _flooder(own, peer, node: int, total: int) -> None:
    """Send everything, only then read: deadlocks unless waiting out
    ``Full`` drains the sender's own inbox."""
    for start in range(0, total, 64):
        loop_mod._put_wire_batch(
            peer,
            [(MSG, node, _msg(i % 40, value=i)) for i in range(start, start + 64)],
            own,
        )
    values = [own.get(timeout=30)[2].value for _ in range(total)]
    assert values == list(range(total))


def test_pipe_mutual_drain_two_flooders_both_finish(pipes):
    """Two nodes each pushing several pipes' worth at the other before
    reading anything: both inboxes fill, both senders wait out Full —
    and both finish, because the wait drains their own inbox."""
    a, b = pipes(n=2)
    total = 64 * 400
    procs = [
        _CTX.Process(target=_flooder, args=(a, b, 0, total)),
        _CTX.Process(target=_flooder, args=(b, a, 1, total)),
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
        assert proc.exitcode == 0


def test_pipe_drain_discards_deque_and_partial_blob(pipes):
    """Re-arming clears everything: the pipe, the local deque and a blob
    whose sender died between fragments — and returns their slots."""
    (chan,) = pipes(maxsize=8)
    for i in range(3):
        chan.put_nowait((GVT, i, 1))
    assert chan.qsize() == 3  # now in the local deque
    chan.put_nowait((GVT, 3, 1))
    blob = (MIGRATE, 1, 0, 3, _migrate_payload(n_lps=8, n_pending=400))
    frames = _fragment(pickle.dumps([blob], pickle.HIGHEST_PROTOCOL))
    assert len(frames) > 1 and chan._take_slots(1) == 1
    os.write(chan._wfd, frames[0])
    assert chan.drain() == 4
    with pytest.raises(queue_mod.Empty):
        chan.get_nowait()
    assert not chan._partial
    for i in range(8):  # every record slot came back
        chan.put_nowait((GVT, i, 1))
    assert chan.qsize() == 8


def test_pipe_close_is_idempotent_and_releases_both_ends(pipes):
    before = len(os.listdir("/proc/self/fd"))
    inboxes = pipes(n=3)
    assert len(os.listdir("/proc/self/fd")) == before + 6
    for chan in inboxes:
        chan.close()
        chan.close()
    assert len(os.listdir("/proc/self/fd")) == before
    with pytest.raises(OSError):
        inboxes[0].get_nowait()


# ----------------------------------------------------------------------
# shm ring specifics
# ----------------------------------------------------------------------
def _shm_channel(capacity: int | None = None):
    transport = make_transport("shm")
    (chan,) = transport.make_inboxes(_CTX, 1, capacity)
    return transport, chan


def test_shm_default_capacity():
    transport, chan = _shm_channel(None)
    try:
        assert chan.capacity == DEFAULT_CAPACITY
    finally:
        chan.close()
        transport.cleanup()


def test_shm_attach_capacity_mismatch():
    transport, chan = _shm_channel(16)
    try:
        chan.put_nowait((GVT, 1, 1))
        impostor = ShmChannel(chan.name, 32, _CTX.Lock())
        with pytest.raises(ProtocolError, match="capacity mismatch"):
            impostor.qsize()
        impostor.close()
    finally:
        chan.close()
        transport.cleanup()


def test_shm_corrupt_slot_rejected(monkeypatch):
    """A byte flipped in a published slot must surface as ProtocolError
    (after the store-ordering retry window), never as a wrong Message."""
    monkeypatch.setattr("repro.warped.parallel.transport._POLL_SLEEP", 0.0001)
    transport, chan = _shm_channel(8)
    try:
        chan.put_nowait((MSG, 1, _msg(3)))
        buf = chan._ensure()
        slot = 32  # header size; first record slot
        buf[slot + 20] ^= 0xFF  # payload byte, checksum now stale
        with pytest.raises(ProtocolError, match="corrupt wire record"):
            chan.get_nowait()
    finally:
        chan.close()
        transport.cleanup()


def test_shm_zeroed_read_cursor_never_drops_a_record():
    """The stall of ROADMAP 1a, in-process.  A producer that reads the
    consumer's cursor as 0 after the channel has carried more than its
    capacity sees *negative* space; it must call that Full — on every
    write path — not take the negative count for a successful write."""
    transport, chan = _shm_channel(8)
    try:
        for i in range(10):  # carry the ring past its capacity
            chan.put_nowait((GVT, i, i))
            assert chan.get_nowait() == (GVT, i, i)
        chan._cur[_READ] = 0  # what a torn cursor read used to look like
        assert chan.qsize() == 10
        with pytest.raises(queue_mod.Full):
            chan.put_nowait((GVT, 99, 2))
        assert chan.put_batch([(GVT, 99, 2), (GVT, 100, 2)]) == 0
        with pytest.raises(queue_mod.Full):
            chan.put_nowait((MIGRATE, 1, 0, 3, {"gates": [4], "owner": 2}))
        assert chan.qsize() == 10  # nothing written, nothing lost
        chan._cur[_READ] = 10  # the consumer's real position
        chan.put_nowait((GVT, 99, 2))
        assert chan.take() == [(GVT, 99, 2)]
    finally:
        chan.close()
        transport.cleanup()


_CURSOR_VALUES = (0xFFFF, 0x10000)  # every byte of the low three differs


def _cursor_flipper(chan, flips: int) -> None:
    cur = chan._cur
    for _ in range(flips):
        cur[_READ] = _CURSOR_VALUES[0]
        cur[_READ] = _CURSOR_VALUES[1]


def test_shm_cursor_reads_only_values_that_were_written():
    """Two processes on one cursor word: the reader must only ever see
    a value the writer stored (``Struct.pack_into`` zero-fills first, and
    its readers saw 0 in ~2 % of loads — the record-dropping 0)."""
    transport, chan = _shm_channel(8)
    try:
        chan._cur[_READ] = _CURSOR_VALUES[0]
        writer = _CTX.Process(target=_cursor_flipper, args=(chan, 400_000))
        writer.start()
        cur = chan._cur
        seen = set()
        while writer.is_alive():
            for _ in range(10_000):
                seen.add(cur[_READ])
        writer.join(timeout=30)
        assert writer.exitcode == 0
        assert seen == set(_CURSOR_VALUES), [hex(v) for v in sorted(seen)]
    finally:
        chan.close()
        transport.cleanup()


def test_shm_close_and_unlink_idempotent():
    transport, chan = _shm_channel(8)
    chan.put_nowait((GVT, 1, 1))
    chan.close()
    chan.close()
    chan.unlink()
    chan.unlink()
    transport.cleanup()
    transport.cleanup()
    with pytest.raises(OSError):
        chan.qsize()  # closed channels refuse to re-attach


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_shm_cleanup_removes_segments():
    transport = make_transport("shm")
    inboxes = transport.make_inboxes(_CTX, 3, None)
    names = {chan.name for chan in inboxes}
    live = set(os.listdir("/dev/shm"))
    assert names <= live, "segments not backed by /dev/shm files"
    for chan in inboxes:
        chan.close()
    transport.cleanup()
    assert not (names & set(os.listdir("/dev/shm"))), "cleanup leaked segments"


# ----------------------------------------------------------------------
# codec properties (hypothesis)
# ----------------------------------------------------------------------
i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_signs = st.sampled_from((POSITIVE, ANTI))
_messages = st.tuples(i64, i64, i64, i64, i64, i64, i64, _signs).map(
    lambda t: Message(*t)
)

wire_items = st.one_of(
    st.tuples(st.just(MSG), i64, _messages),
    st.tuples(st.just(MSG), i64, _messages, i64, i64),
    st.builds(
        GvtToken, cid=i64, m_clock=i64, m_send=i64, count=i64,
        busy_max=i64, busy_max_node=i64, ev_max=i64,
        busy_min=i64, busy_min_node=i64,
    ).map(lambda token: (TOKEN, token)),
    st.tuples(st.just(GVT), i64, i64),
    st.tuples(st.just(MIGCMD), i64, i64, i64),
)


@settings(max_examples=200, deadline=None)
@given(item=wire_items)
def test_codec_round_trips_every_tag(item):
    record = encode_record(item)
    assert len(record) == RECORD_SIZE
    assert _normalize(decode_record(record)) == _normalize(item)


@settings(max_examples=200, deadline=None)
@given(
    item=wire_items,
    index=st.integers(0, RECORD_SIZE - 1),
    bit=st.integers(0, 7),
)
def test_codec_rejects_any_single_bit_corruption(item, index, bit):
    record = bytearray(encode_record(item))
    record[index] ^= 1 << bit
    with pytest.raises(ProtocolError):
        decode_record(bytes(record))


@settings(max_examples=60, deadline=None)
@given(item=wire_items, cut=st.integers(0, RECORD_SIZE - 1))
def test_codec_rejects_truncation(item, cut):
    record = encode_record(item)
    with pytest.raises(ProtocolError, match="truncated"):
        decode_record(record[:cut])
    with pytest.raises(ProtocolError, match="truncated"):
        decode_record(record + b"\x00")


def test_codec_rejects_unknown_tag():
    with pytest.raises(ProtocolError, match="cannot encode"):
        encode_record(("nonsense", 1, 2))
    # A structurally valid record with a tag byte the protocol never
    # assigns (checksum intact, so the tag check is what fires).
    with pytest.raises(ProtocolError, match="unknown wire record tag"):
        decode_record(_pack(250, 0, (1, 2)))


def test_codec_field_overflow_is_protocol_error():
    too_big = Message(T_END + 1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ProtocolError, match="out of range"):
        encode_record((MSG, 0, too_big))
    # Virtual time is an int on the wire: past int64, or a float, is
    # refused rather than rounded.
    for value in (T_END + 1, 128.0):
        with pytest.raises(ProtocolError, match="out of range"):
            encode_record((GVT, 1, value))


# ----------------------------------------------------------------------
# MIGRATE blobs: variable-length LP freight over both transports
# ----------------------------------------------------------------------
def _migrate_payload(n_lps: int = 3, n_pending: int = 4) -> dict:
    return {
        "gates": list(range(n_lps)),
        "lps": {
            i: ([1, 0], 1, (100 + i, 0, 0, i), [], i) for i in range(n_lps)
        },
        "queue": [_msg(50 + i) for i in range(n_pending)],
        "waiting_antis": {99: _msg(99, sign=ANTI)},
        "capture_log": {(0, 2): 1},
    }


def _assert_payloads_match(got: dict, sent: dict) -> None:
    assert got["gates"] == sent["gates"]
    assert got["lps"].keys() == sent["lps"].keys()
    for key in sent["lps"]:
        assert got["lps"][key][:3] == sent["lps"][key][:3]
    assert [_msg_fields(m) for m in got["queue"]] == [
        _msg_fields(m) for m in sent["queue"]
    ]
    assert {
        uid: _msg_fields(m) for uid, m in got["waiting_antis"].items()
    } == {uid: _msg_fields(m) for uid, m in sent["waiting_antis"].items()}
    assert got["capture_log"] == sent["capture_log"]


def test_migrate_blob_round_trips(channels):
    (chan,) = channels()
    payload = _migrate_payload()
    chan.put_nowait((MIGRATE, 3, 0, 7, payload))
    tag, color, src, cid, got = chan.get(timeout=10)
    assert (tag, color, src, cid) == (MIGRATE, 3, 0, 7)
    _assert_payloads_match(got, payload)


def test_migrate_interleaves_fifo_with_fixed_records(channels):
    """A chunked blob between fixed records must not reorder the
    channel: FIFO is what the GVT-before-MIGCMD ordering relies on."""
    (chan,) = channels()
    chan.put_nowait((GVT, 4, 64))
    chan.put_nowait((MIGRATE, 1, 0, 4, _migrate_payload(n_lps=8)))
    chan.put_nowait((MSG, 2, _msg(21)))
    assert chan.get(timeout=10)[0] == GVT
    assert chan.get(timeout=10)[0] == MIGRATE
    assert chan.get(timeout=10)[0] == MSG


def test_migrate_announcement_round_trips(channels):
    """Ownership announcements (no 'lps' key) ride the same tag."""
    (chan,) = channels()
    ann = {"gates": [4, 9], "owner": 2}
    chan.put_nowait((MIGRATE, 5, 2, 9, ann))
    tag, color, src, cid, got = chan.get(timeout=10)
    assert (tag, color, src, cid, got) == (MIGRATE, 5, 2, 9, ann)


def test_shm_migrate_blob_is_all_or_nothing():
    """A blob that does not fit leaves the ring untouched (Full), and
    succeeds verbatim once space frees up — no partial chunk runs."""
    transport, chan = _shm_channel(64)
    try:
        payload = _migrate_payload(n_lps=6, n_pending=12)
        nchunks = len(encode_migrate((MIGRATE, 1, 0, 3, payload)))
        assert 4 < nchunks <= 64  # spans many slots, fits an empty ring
        backlog = 64 - nchunks + 1  # one slot short of fitting the blob
        for i in range(backlog):
            chan.put_nowait((GVT, i, i))
        with pytest.raises(queue_mod.Full):
            chan.put_nowait((MIGRATE, 1, 0, 3, payload))
        # Nothing was written: the backlog drains clean...
        for i in range(backlog):
            assert chan.get_nowait() == (GVT, i, i)
        # ... and the retry lands intact.
        chan.put_nowait((MIGRATE, 1, 0, 3, payload))
        tag, _, _, _, got = chan.get_nowait()
        assert tag == MIGRATE
        _assert_payloads_match(got, payload)
    finally:
        chan.close()
        transport.cleanup()


def test_shm_migrate_blob_larger_than_ring_rejected():
    transport, chan = _shm_channel(4)
    try:
        with pytest.raises(ProtocolError, match="capacity"):
            chan.put_nowait(
                (MIGRATE, 1, 0, 3, _migrate_payload(n_lps=40, n_pending=80))
            )
    finally:
        chan.close()
        transport.cleanup()


def test_shm_put_batch_rejects_migrate():
    transport, chan = _shm_channel(8)
    try:
        with pytest.raises(ProtocolError, match="batch"):
            chan.put_batch([(MIGRATE, 1, 0, 3, _migrate_payload())])
    finally:
        chan.close()
        transport.cleanup()
