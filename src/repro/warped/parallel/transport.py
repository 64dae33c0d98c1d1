"""Pluggable wire transports for the multiprocess Time Warp backend.

The :class:`~repro.warped.parallel.loop.NodeLoop` is transport-agnostic
— it only ever calls ``put_nowait`` / ``put_batch`` / ``take`` /
``get`` / ``qsize`` on its inboxes.  This module makes the substrate an
explicit, selectable :class:`Transport`:

- ``queue`` — one OS pipe per node (:class:`PipeChannel`): every flush
  is one length-prefixed pickle of a *list* of wire items, written with
  a single non-blocking ``os.write`` from the sending node's own thread
  (no feeder thread anywhere) and read back many items per ``os.read``.
  Portable, and the transport both process workloads of the benchmark
  run on.

- ``shm`` — one ``multiprocessing.shared_memory`` ring buffer per node,
  carrying **struct-packed fixed-width records** (no pickling) of the
  five tags that cross an inbox (``MIGRATE`` as a run of chunk
  records).  Producers batch under a per-ring lock; the single
  consumer (the owning node) is lock-free; a blocked reader parks on a
  pipe doorbell.

Ring layout (one segment per node, created by the parent)::

    offset 0   u64  write cursor   (monotonic record count, producer-owned)
    offset 8   u64  read cursor    (monotonic record count, consumer-owned)
    offset 16  u64  capacity       (records; for attach-time validation)
    offset 24  u64  reserved
    offset 32  capacity x RECORD_SIZE record slots (cursor % capacity)

Cursors are monotonic, so ``write - read`` is the queue depth and
``capacity - (write - read)`` the free space; both cursors live in their
own 8-byte slots and are only ever stored by their owning side (the
producer lock serialises writers against each other, never against the
reader).  Every cursor load and store goes through one aligned
``memoryview.cast("Q")`` view of the header — a single 8-byte item
access.  (``Struct.pack_into`` zero-fills its target before packing, so
publishing a cursor with it shows a racing process a transient 0 —
a value never written; a producer that caught the consumer's cursor at
0 computed negative space and dropped its record without an error.)  A
producer copies its record bytes first and publishes the new write
cursor last, so the consumer can never observe a slot before its bytes
are complete; the checksum-retry on the read side additionally absorbs
any store-reordering window on weakly ordered hardware.

Every record is :data:`RECORD_SIZE` bytes::

    <BB2xI  u8 tag, u8 flags, 2 pad, u32 crc
    12q     twelve int64 fields (meaning depends on the tag; virtual
            times, GVT values and token minima are ints, quiescence
            is ``T_END``, the largest int64)

The crc is CRC-32 over the record with its own crc field zeroed, so
*any* error burst up to 32 bits — in particular any single corrupt
byte, including inside the crc itself — is detected and surfaced as a
:class:`~repro.errors.ProtocolError` — never a bare ``struct.error`` or
a silently wrong ``Message``.

Pipe frame layout (``queue`` transport)::

    <HBxI   u16 payload length, u8 flags (FIRST=1, LAST=2), pad, u32 pid
    ...     payload: pickle of a list of wire items (or a fragment of one)

``MSG`` items travel inside the list as flat int tuples ``(color, time,
prio, src, n, value, dest, uid, sign[, src_node, chan_seq])`` and are
rebuilt into :class:`Message` on receive.  A frame never exceeds
``PIPE_BUF`` bytes, so POSIX makes its non-blocking write
all-or-``EAGAIN`` and concurrent producers cannot interleave bytes —
per-producer FIFO needs no lock.  A pickle too large for one frame (a
``MIGRATE`` blob) is cut into FIRST…LAST fragments which the consumer
reassembles per producer pid and delivers only when complete.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import queue as queue_mod
import select
import struct
import time
import uuid
import zlib
from collections import deque
from multiprocessing import reduction, shared_memory

from repro.errors import ConfigError, ProtocolError
from repro.warped.messages import ANTI, POSITIVE, Message
from repro.warped.parallel.protocol import (
    GVT,
    MIGCMD,
    MIGRATE,
    MSG,
    TOKEN,
    GvtToken,
)

# ----------------------------------------------------------------------
# fixed-width record codec
# ----------------------------------------------------------------------
_INTS = 12
_RECORD = struct.Struct(f"<BB2xI{_INTS}q")
#: Bytes per wire record (104: 8 header + 12 int64).
RECORD_SIZE = _RECORD.size
#: CRC field location in the header (u32 at bytes 4-8).
_CRC = struct.Struct("<I")
_CRC_OFF = 4
_CRC_ZERO = b"\x00\x00\x00\x00"

#: Tag byte of each wire tuple kind.
_TAG_MSG = 1
_TAG_TOKEN = 2
_TAG_GVT = 3
_TAG_MIGCMD = 4
_TAG_MIGR = 5
#: Slots a TOKEN record fills: every GvtToken field is an int.
_TOKEN_INTS = len(dataclasses.fields(GvtToken))

#: Payload bytes per MIGRATE chunk record: the 12 i64 slots minus the
#: six header ints (color, src, cid, chunk index, chunk count, chunk
#: length) leave six slots of 8 bytes each.
_MIG_HDR_INTS = 6
_MIG_CHUNK_BYTES = (_INTS - _MIG_HDR_INTS) * 8

#: Record flag bits.
_F_ANTI = 0x01    # the carried Message is an anti-message
_F_SEQ = 0x02     # the MSG carries its recovery (src, chan_seq) tail

_HEADER_SIZE = 32
#: Header words, as indexes into the channel's ``cast("Q")`` cursor view
#: (byte offsets 0, 8, 16).
_WRITE = 0
_READ = 1
_CAP = 2

#: Internal tag of a decoded MIGRATE chunk record (never leaves the
#: channel: the read side reassembles chunk runs into full tuples).
_MIGCHUNK = "_migchunk"


def _pack(tag: int, flags: int, ints) -> bytes:
    fields = list(ints) + [0] * (_INTS - len(ints))
    try:
        raw = bytearray(_RECORD.pack(tag, flags, 0, *fields))
    except struct.error as exc:
        raise ProtocolError(
            f"wire field out of range for a fixed-width record: {exc}"
        ) from None
    # CRC-32 over the record with its own crc field zeroed (exactly how
    # _pack just produced it).  A full-width CRC detects every error
    # burst of up to 32 bits — in particular any single corrupt byte,
    # header, payload, or the crc itself — and zlib computes it at C
    # speed, which matters on the per-record hot path.
    _CRC.pack_into(raw, _CRC_OFF, zlib.crc32(raw))
    return bytes(raw)


def encode_record(item: tuple) -> bytes:
    """Pack one wire tuple into its :data:`RECORD_SIZE`-byte record."""
    tag = item[0]
    if tag == MSG:
        if len(item) == 5:
            _, color, msg, src, seq = item
            flags = _F_SEQ
        else:
            _, color, msg = item
            src = seq = 0
            flags = 0
        if msg.sign == ANTI:
            flags |= _F_ANTI
        return _pack(
            _TAG_MSG, flags,
            (color, msg.time, msg.prio, msg.src, msg.n,
             msg.value, msg.dest, msg.uid, src, seq),
        )
    if tag == TOKEN:
        return _pack(_TAG_TOKEN, 0, dataclasses.astuple(item[1]))
    if tag == GVT:
        return _pack(_TAG_GVT, 0, item[1:])
    if tag == MIGCMD:
        return _pack(_TAG_MIGCMD, 0, item[1:])
    raise ProtocolError(f"cannot encode wire item with tag {tag!r}")


def encode_migrate(item: tuple) -> list[bytes]:
    """Pack one ``MIGRATE`` tuple into its chunked record sequence.

    The payload (LP states + pending events, or ``None`` for an
    ownership announcement) has no fixed width, so it is pickled and
    split across :data:`_MIG_CHUNK_BYTES`-byte chunks, each a normal
    CRC-guarded record.  The chunks must land contiguously in a ring —
    :meth:`ShmChannel.put_nowait` writes them all-or-nothing — and the
    consumer reassembles them in :meth:`ShmChannel.get_nowait`.
    """
    _, color, src, cid, payload = item
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    nchunks = max(1, (len(blob) + _MIG_CHUNK_BYTES - 1) // _MIG_CHUNK_BYTES)
    records = []
    for idx in range(nchunks):
        chunk = blob[idx * _MIG_CHUNK_BYTES:(idx + 1) * _MIG_CHUNK_BYTES]
        ints = [color, src, cid, idx, nchunks, len(chunk)]
        for off in range(0, _MIG_CHUNK_BYTES, 8):
            ints.append(
                int.from_bytes(
                    chunk[off:off + 8].ljust(8, b"\x00"),
                    "little", signed=True,
                )
            )
        records.append(_pack(_TAG_MIGR, 0, ints))
    return records


def _decode_migrate_chunk(ints) -> tuple:
    """One MIGRATE chunk record -> (color, src, cid, idx, nchunks, bytes)."""
    color, src, cid, idx, nchunks, length = ints[:_MIG_HDR_INTS]
    if not 0 <= length <= _MIG_CHUNK_BYTES:
        raise ProtocolError(f"migrate chunk length {length} out of range")
    data = b"".join(
        value.to_bytes(8, "little", signed=True)
        for value in ints[_MIG_HDR_INTS:]
    )[:length]
    return color, src, cid, idx, nchunks, data


def decode_record(data: bytes) -> tuple:
    """Unpack one record; the exact tuple :func:`encode_record` packed.

    Raises :class:`ProtocolError` on a truncated buffer, a checksum
    mismatch, or an unknown tag byte.
    """
    if len(data) != RECORD_SIZE:
        raise ProtocolError(
            f"truncated wire record: {len(data)} bytes, "
            f"expected {RECORD_SIZE}"
        )
    want = _CRC.unpack_from(data, _CRC_OFF)[0]
    have = zlib.crc32(
        data[_CRC_OFF + 4:],
        zlib.crc32(_CRC_ZERO, zlib.crc32(data[:_CRC_OFF])),
    )
    if have != want:
        raise ProtocolError(
            f"corrupt wire record: checksum {have:#010x} != {want:#010x}"
        )
    tag = data[0]
    flags = data[1]
    ints = _RECORD.unpack(data)[3:]
    if tag == _TAG_MSG:
        msg = Message(
            ints[1], ints[2], ints[3], ints[4], ints[5], ints[6], ints[7],
            ANTI if flags & _F_ANTI else POSITIVE,
        )
        if flags & _F_SEQ:
            return (MSG, ints[0], msg, ints[8], ints[9])
        return (MSG, ints[0], msg)
    if tag == _TAG_TOKEN:
        return (TOKEN, GvtToken(*ints[:_TOKEN_INTS]))
    if tag == _TAG_GVT:
        return (GVT, ints[0], ints[1])
    if tag == _TAG_MIGCMD:
        return (MIGCMD, ints[0], ints[1], ints[2])
    if tag == _TAG_MIGR:
        # One chunk of a MIGRATE blob; the channel consumer reassembles
        # the contiguous chunk run into the full tuple.
        return (_MIGCHUNK, *_decode_migrate_chunk(ints))
    raise ProtocolError(f"unknown wire record tag {tag}")


# ----------------------------------------------------------------------
# the shared-memory ring channel
# ----------------------------------------------------------------------
#: Default ring capacity in records when the simulator sets no inbox
#: bound (432 KiB per node; deep enough that only a flood fills it).
DEFAULT_CAPACITY = 4096
#: Retry pacing for full-ring producer backoff and decode retries.
_POLL_SLEEP = 0.0002
#: Upper bound on one doorbell park.  The doorbell protocol has no lost
#: wakeups (see :meth:`ShmChannel.get`), so this is pure defence: a bug
#: degrades to 20 Hz polling instead of a deadlock.
_DOORBELL_CAP = 0.05
#: Producer-lock acquisition bound.  A peer that died *holding* the
#: lock would otherwise block every sender forever; timing out turns
#: that into a Full → bounded-retry → diagnosable node failure.
_LOCK_TIMEOUT = 2.0
#: Checksum-retry budget in ``get_nowait`` (absorbs the store-ordering
#: window between a producer's slot write and cursor publish).
_DECODE_RETRIES = 8


class _PollingPut:
    """Blocking ``put`` for channels whose ``put_nowait`` raises Full."""

    def put(self, item: tuple, timeout: float | None = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                self.put_nowait(item)
                return
            except queue_mod.Full:
                if deadline is not None and time.monotonic() >= deadline:
                    raise
                time.sleep(_POLL_SLEEP)


class ShmChannel(_PollingPut):
    """One node's inbox: a fixed-width MPSC ring in shared memory.

    Many producers (serialised by *lock*), exactly one consumer (the
    owning node).  Implements the same ``put_nowait`` / ``get`` /
    ``get_nowait`` / ``qsize`` surface as the stdlib ``queue.Queue`` —
    raising its ``queue.Full`` / ``queue.Empty`` — plus
    ``put_batch`` for one-lock batched sends.

    Blocking receives park on a pipe *doorbell*: a producer that finds
    the ring empty writes one byte after publishing, so a waiting
    consumer sleeps in ``select`` and the kernel wakes it.  The channel
    itself never spins — how long to poll ``get_nowait`` before paying
    for a park is the node loop's one policy for every channel.

    The channel pickles by (name, capacity, lock, duped doorbell fds):
    a spawned worker re-attaches the segment lazily on first use; a
    forked worker inherits the mapping and fds directly.  Only the
    creating parent ever calls ``unlink``.
    """

    def __init__(self, name: str, capacity: int, lock, *, create: bool = False):
        self.name = name
        self.capacity = capacity
        self._lock = lock
        self._shm = None
        self._buf = None
        #: The header's three u64 words (``_WRITE``, ``_READ``, ``_CAP``)
        #: as one aligned item view: the only way a cursor is touched.
        self._cur = None
        self._closed = False
        self._unlinked = False
        self._rfd, self._wfd = os.pipe()
        os.set_blocking(self._rfd, False)
        os.set_blocking(self._wfd, False)
        if create:
            self._map(
                shared_memory.SharedMemory(
                    name=name, create=True,
                    size=_HEADER_SIZE + capacity * RECORD_SIZE,
                )
            )
            self._cur[_CAP] = capacity

    # -- pickling (spawn) / inheritance (fork) -------------------------
    def __getstate__(self) -> dict:
        # DupFd ships the doorbell fds the way multiprocessing ships a
        # Connection: duplicated into the receiving process by the
        # reduction machinery (spawn) or the resource sharer (explicit
        # pickling).
        return {
            "name": self.name,
            "capacity": self.capacity,
            "lock": self._lock,
            "rfd": reduction.DupFd(self._rfd),
            "wfd": reduction.DupFd(self._wfd),
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.capacity = state["capacity"]
        self._lock = state["lock"]
        self._shm = None
        self._buf = None
        self._cur = None
        self._closed = False
        self._unlinked = False
        self._rfd = state["rfd"].detach()
        self._wfd = state["wfd"].detach()

    def _map(self, shm) -> None:
        self._shm = shm
        self._buf = shm.buf
        self._cur = shm.buf[:_HEADER_SIZE].cast("Q")

    def _ensure(self):
        """The segment's buffer, attached on first use (``_cur`` with it)."""
        buf = self._buf
        if buf is None:
            if self._closed:
                raise OSError(f"shm channel {self.name} is closed")
            # NB: attaching re-registers the name with the resource
            # tracker, but the tracker process is shared across the
            # whole multiprocessing tree and keeps a *set* of names —
            # the re-registration is an idempotent no-op, and the one
            # unregister the creator's unlink() sends balances it.
            self._map(shared_memory.SharedMemory(name=self.name))
            buf = self._buf
            if self._cur[_CAP] != self.capacity:
                raise ProtocolError(
                    f"shm channel {self.name}: capacity mismatch on attach"
                )
        return buf

    # -- producer side -------------------------------------------------
    def _write(self, records: list[bytes], *, whole: bool = False) -> int:
        """Append up to ``len(records)`` under the lock; returns count.

        With *whole* the write is all-or-nothing (0 when the ring lacks
        the space): a chunked MIGRATE blob is reassembled from
        consecutive slots, so another producer's records splitting the
        run would corrupt it.
        """
        if whole and len(records) > self.capacity:
            raise ProtocolError(
                f"migrate blob needs {len(records)} records but the ring "
                f"holds only {self.capacity}; raise the inbox capacity"
            )
        buf = self._ensure()
        if not self._lock.acquire(timeout=_LOCK_TIMEOUT):
            raise queue_mod.Full
        try:
            cur = self._cur
            write = cur[_WRITE]
            read = cur[_READ]
            was_empty = write <= read
            # Clamped: whatever the cursors read, a write is a whole
            # number of records or none (0 -> the callers' Full), never
            # a negative count taken for success.
            count = min(max(0, self.capacity - (write - read)), len(records))
            if whole and count < len(records):
                count = 0
            for record in records[:count]:
                slot = _HEADER_SIZE + (write % self.capacity) * RECORD_SIZE
                buf[slot:slot + RECORD_SIZE] = record
                write += 1
            if count:
                # Publish after the slot bytes: the consumer reads the
                # cursor first, so it can never see a half-copied slot.
                cur[_WRITE] = write
                if was_empty and self._wfd is not None:
                    # Ring went empty -> nonempty: ring the doorbell so
                    # a consumer parked in select() wakes immediately.
                    # Nonblocking: a full pipe already holds plenty of
                    # unconsumed wake signals.
                    try:
                        os.write(self._wfd, b"\x01")
                    except OSError:
                        pass
            return count
        finally:
            self._lock.release()

    def put_nowait(self, item: tuple) -> None:
        records = (
            encode_migrate(item) if item[0] == MIGRATE
            else [encode_record(item)]
        )
        if self._write(records, whole=True) <= 0:
            raise queue_mod.Full

    def put_batch(self, items: list[tuple]) -> int:
        """Write as many of *items* as fit, in order, under one lock
        acquisition; returns how many were written.

        MIGRATE tuples are rejected: their chunk runs need the
        all-or-nothing path (``put_nowait``), not partial progress.
        """
        if not items:
            return 0
        if any(item[0] == MIGRATE for item in items):
            raise ProtocolError(
                "MIGRATE must be sent via put_nowait (all-or-nothing), "
                "not batched"
            )
        return self._write([encode_record(item) for item in items])

    # -- consumer side (single reader, lock-free) ----------------------
    def _read_slot(self, buf, read: int) -> tuple:
        slot = _HEADER_SIZE + (read % self.capacity) * RECORD_SIZE
        data = bytes(buf[slot:slot + RECORD_SIZE])
        try:
            return decode_record(data)
        except ProtocolError:
            return self._decode_retry(buf, slot)

    def _read_item(self, buf, read: int) -> tuple[tuple, int]:
        """The wire item starting at record *read*, and the cursor past it."""
        item = self._read_slot(buf, read)
        if item[0] != _MIGCHUNK:
            return item, read + 1
        # A MIGRATE blob: the producer wrote its chunk run
        # all-or-nothing and published the cursor after the last
        # chunk, so once chunk 0 is visible every sibling is too,
        # contiguously.  Reassemble the run into one tuple.
        _, color, src, cid, idx, nchunks, data = item
        if idx != 0:
            raise ProtocolError(
                f"migrate chunk run starts at index {idx}, expected 0"
            )
        parts = [data]
        for offset in range(1, nchunks):
            chunk = self._read_slot(buf, read + offset)
            if (
                chunk[0] != _MIGCHUNK
                or chunk[1:4] != (color, src, cid)
                or chunk[4] != offset
                or chunk[5] != nchunks
            ):
                raise ProtocolError(
                    "migrate chunk run interrupted: record "
                    f"{offset}/{nchunks} is {chunk[0]!r}"
                )
            parts.append(chunk[6])
        payload = pickle.loads(b"".join(parts))
        return (MIGRATE, color, src, cid, payload), read + nchunks

    def get_nowait(self) -> tuple:
        buf = self._ensure()
        cur = self._cur
        read = cur[_READ]
        if cur[_WRITE] <= read:
            raise queue_mod.Empty
        item, cur[_READ] = self._read_item(buf, read)
        return item

    def take(self) -> list[tuple]:
        """Everything published so far, in order — empty when nothing
        has arrived; never raises ``queue.Empty``.  The read cursor is
        published once, behind the last record taken."""
        buf = self._ensure()
        cur = self._cur
        read = cur[_READ]
        write = cur[_WRITE]
        items = []
        while read < write:
            item, read = self._read_item(buf, read)
            items.append(item)
        if items:
            cur[_READ] = read
        return items

    def _decode_retry(self, buf, slot: int) -> tuple:
        # A failed checksum right at the cursor frontier is (on weakly
        # ordered hardware) most likely the producer's slot bytes still
        # in flight; re-read briefly before declaring corruption.
        for _ in range(_DECODE_RETRIES):
            time.sleep(_POLL_SLEEP)
            try:
                return decode_record(bytes(buf[slot:slot + RECORD_SIZE]))
            except ProtocolError:
                continue
        return decode_record(bytes(buf[slot:slot + RECORD_SIZE]))

    def get(self, timeout: float | None = None) -> tuple:
        """Blocking receive: park on the doorbell pipe.

        ``select()`` sleeps with zero CPU until a producer rings the
        doorbell; polling before parking is the caller's policy
        (``NodeLoop.run``), not the channel's.  Lost-wakeup safety: the
        consumer drains pending doorbell bytes *before* re-checking the
        ring and only then blocks, while a producer rings *after*
        publishing its cursor — so any publish that races the final
        check leaves either a visible record or a readable byte.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        rfd = self._rfd
        while True:
            if rfd is not None:
                try:
                    os.read(rfd, 4096)
                except OSError:
                    pass
            try:
                return self.get_nowait()
            except queue_mod.Empty:
                pass
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise queue_mod.Empty
            else:
                remaining = _DOORBELL_CAP
            if rfd is not None:
                select.select([rfd], [], [], min(remaining, _DOORBELL_CAP))
            else:  # pragma: no cover - doorbell closed under the reader
                time.sleep(_POLL_SLEEP)

    def qsize(self) -> int:
        self._ensure()
        cur = self._cur
        return max(0, cur[_WRITE] - cur[_READ])

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping and fds (idempotent; never
        unlinks)."""
        self._closed = True
        self._buf = None
        cur, self._cur = self._cur, None
        if cur is not None:
            cur.release()  # an exported view would keep the mapping open
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - exported views live
                pass
        for attr in ("_rfd", "_wfd"):
            fd = getattr(self, attr)
            if fd is not None:
                setattr(self, attr, None)
                try:
                    os.close(fd)
                except OSError:  # pragma: no cover - already closed
                    pass

    def unlink(self) -> None:
        """Remove the segment from the OS (idempotent; creator only).

        Works even after :meth:`close` — cleanup paths close mappings
        before the transport unlinks — by re-attaching just to unlink.
        """
        if self._unlinked:
            return
        self._unlinked = True
        shm = self._shm
        if shm is None:
            try:
                shm = shared_memory.SharedMemory(name=self.name)
            except FileNotFoundError:
                return
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - raced cleanup
            pass
        if shm is not self._shm:
            shm.close()


# ----------------------------------------------------------------------
# the pipe channel
# ----------------------------------------------------------------------
_FRAME = struct.Struct("<HBxI")
_F_FIRST = 0x01
_F_LAST = 0x02
_F_WHOLE = _F_FIRST | _F_LAST
#: Largest frame payload: header + payload stay within ``PIPE_BUF``, the
#: size up to which POSIX keeps a pipe write atomic — and, on a
#: non-blocking descriptor, all-or-``EAGAIN``.
_PAYLOAD_MAX = select.PIPE_BUF - _FRAME.size
#: Items tried per frame before measuring (a flat MSG pickles to ~30-40
#: bytes); a batch whose pickle overshoots the frame is halved.
_FRAME_ITEMS = 64
#: One read drains a default-sized (64 KiB) pipe completely.
_READ_SIZE = 65536


def _flatten(item: tuple) -> tuple:
    """Wire item -> what is pickled: a MSG loses its ``Message``."""
    if item[0] == MSG:
        msg = item[2]
        flat = (
            item[1], msg.time, msg.prio, msg.src, msg.n,
            msg.value, msg.dest, msg.uid, msg.sign,
        )
        return flat if len(item) == 3 else flat + item[3:]
    return item


def _inflate(flat: tuple) -> tuple:
    """Inverse of :func:`_flatten` (an int in front marks a flat MSG)."""
    head = flat[0]
    if head.__class__ is int:
        msg = Message(*flat[1:9])
        if len(flat) == 9:
            return (MSG, head, msg)
        return (MSG, head, msg, flat[9], flat[10])
    return flat


def _fragment(payload: bytes) -> list[bytes]:
    """Cut an oversized pickle into FIRST…LAST frames of this producer."""
    pid = os.getpid()
    last = (len(payload) - 1) // _PAYLOAD_MAX
    frames = []
    for index in range(last + 1):
        chunk = payload[index * _PAYLOAD_MAX:(index + 1) * _PAYLOAD_MAX]
        flags = (_F_FIRST if index == 0 else 0) | (_F_LAST if index == last else 0)
        frames.append(_FRAME.pack(len(chunk), flags, pid) + chunk)
    return frames


class PipeChannel(_PollingPut):
    """One node's inbox: an OS pipe carrying pickled item batches.

    Many producers, exactly one consumer (the owning node), no thread
    and no lock: every frame is at most ``PIPE_BUF`` bytes, so the
    kernel serialises concurrent writers frame by frame and a full pipe
    refuses a frame whole (``EAGAIN``, surfaced as ``queue.Full``).  The
    consumer moves whole frames into a local deque — one ``os.read``
    for everything the pipe holds — and ``get``/``get_nowait`` serve
    from there.  Same surface as :class:`ShmChannel`, ``put_batch``
    included.

    *maxsize* bounds the records **in the pipe** (a semaphore taken per
    record on send and returned when the consumer reads the frame); the
    local deque is deliberately unbounded, because draining into it is
    how a node that is itself waiting out ``Full`` keeps its peers'
    sends moving (:meth:`pump`).  ``None`` leaves the pipe's own
    capacity (64 KiB on Linux) as the only bound.

    A forked worker inherits the fds; a spawned one receives duplicates
    (``DupFd``), exactly as for :class:`ShmChannel`'s doorbell.
    """

    def __init__(self, ctx, maxsize: int | None = None) -> None:
        self._rfd, self._wfd = os.pipe()
        os.set_blocking(self._rfd, False)
        os.set_blocking(self._wfd, False)
        self._slots = (
            ctx.BoundedSemaphore(maxsize) if maxsize is not None else None
        )
        self._init_local()

    def _init_local(self) -> None:
        #: Consumer side: decoded items, the bytes of a frame the last
        #: read cut short, and blob fragments per producer pid.
        self._ready: deque = deque()
        self._tail = b""
        self._partial: dict[int, list[bytes]] = {}
        #: Producer side: ``(item, unwritten frames)`` of a blob whose
        #: put hit ``Full`` midway; the retry of that item resumes it.
        self._resume: tuple | None = None

    def __getstate__(self) -> dict:
        return {
            "rfd": reduction.DupFd(self._rfd),
            "wfd": reduction.DupFd(self._wfd),
            "slots": self._slots,
        }

    def __setstate__(self, state: dict) -> None:
        self._rfd = state["rfd"].detach()
        self._wfd = state["wfd"].detach()
        self._slots = state["slots"]
        self._init_local()

    # -- producer side -------------------------------------------------
    def _take_slots(self, want: int) -> int:
        slots = self._slots
        if slots is None:
            return want
        got = 0
        while got < want and slots.acquire(False):
            got += 1
        return got

    def _give_slots(self, count: int) -> None:
        if self._slots is not None:
            for _ in range(count):
                self._slots.release()

    def put_batch(self, items) -> int:
        """Write a prefix of *items* as one frame; returns its length
        (0 = the channel is full, nothing was written)."""
        if not items:
            return 0
        if self._resume is not None and self._resume[0] is items[0]:
            return self._write_blob(items[0], self._resume[1])
        count = self._take_slots(min(len(items), _FRAME_ITEMS))
        if not count:
            return 0
        flat = [_flatten(item) for item in items[:count]]
        payload = pickle.dumps(flat, pickle.HIGHEST_PROTOCOL)
        while len(payload) > _PAYLOAD_MAX:
            if count == 1:
                return self._write_blob(items[0], _fragment(payload))
            self._give_slots(count - count // 2)
            count //= 2
            payload = pickle.dumps(flat[:count], pickle.HIGHEST_PROTOCOL)
        try:
            os.write(
                self._wfd, _FRAME.pack(len(payload), _F_WHOLE, 0) + payload
            )
        except BlockingIOError:
            self._give_slots(count)
            return 0
        return count

    def _write_blob(self, item, frames: list[bytes]) -> int:
        """Write the fragments of one oversized item (its record slot is
        already held).  A pipe filling midway parks the unwritten rest
        in ``_resume`` and reports Full; the sender's retry of the same
        item continues where this left off, so a blob larger than the
        pipe still gets through as the consumer drains."""
        self._resume = None
        for index, frame in enumerate(frames):
            try:
                os.write(self._wfd, frame)
            except BlockingIOError:
                self._resume = (item, frames[index:])
                return 0
        return 1

    def put_nowait(self, item: tuple) -> None:
        if not self.put_batch((item,)):
            raise queue_mod.Full

    # -- consumer side -------------------------------------------------
    def _fill(self) -> bool:
        """Move every complete frame in the pipe to the local deque;
        False when the pipe was empty."""
        try:
            data = os.read(self._rfd, _READ_SIZE)
        except BlockingIOError:
            return False
        if self._tail:
            data = self._tail + data
        pos, end = 0, len(data)
        while end - pos >= _FRAME.size:
            length, flags, pid = _FRAME.unpack_from(data, pos)
            stop = pos + _FRAME.size + length
            if stop > end:
                break
            payload = data[pos + _FRAME.size:stop]
            pos = stop
            if flags != _F_WHOLE:
                if flags & _F_FIRST:
                    # A fresh FIRST supersedes whatever run this producer
                    # abandoned (it gave up on a Full and died, say).
                    self._partial[pid] = []
                parts = self._partial.get(pid)
                if parts is None:
                    continue  # orphan of a run discarded by drain()
                parts.append(payload)
                if not flags & _F_LAST:
                    continue
                payload = b"".join(self._partial.pop(pid))
            items = pickle.loads(payload)
            self._ready.extend(map(_inflate, items))
            self._give_slots(len(items))
        self._tail = data[pos:]
        return True

    def get_nowait(self) -> tuple:
        ready = self._ready
        if not ready:
            self._fill()
            if not ready:
                raise queue_mod.Empty
        return ready.popleft()

    def take(self) -> deque:
        """Everything that has arrived, in order — empty when nothing
        has; never raises ``queue.Empty``.  Serves the local deque,
        refilled with one ``os.read`` when it was empty, so calling
        until the batch comes back empty drains the pipe exactly as far
        as a ``get_nowait`` loop would."""
        ready = self._ready
        if not ready:
            self._fill()
        if ready:
            self._ready = deque()
        return ready

    def get(self, timeout: float | None = None) -> tuple:
        ready = self._ready
        if not ready:
            wait = deadline = None
            if timeout is not None:
                wait = max(timeout, 0.0)
                deadline = time.monotonic() + wait
            while True:
                if select.select([self._rfd], [], [], wait)[0]:
                    self._fill()
                    if ready:
                        break
                if deadline is not None:
                    wait = deadline - time.monotonic()
                    if wait <= 0:
                        raise queue_mod.Empty
        return ready.popleft()

    def pump(self, timeout: float) -> None:
        """Sleep *timeout* seconds, moving whatever arrives meanwhile
        into the local deque.

        The mutual-drain rule: a node waiting out a peer's full pipe
        spends the wait here, on its *own* inbox, so the peer — who may
        be waiting out this node's full pipe — always finds room.  Two
        nodes can therefore never sleep on each other's full pipes.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            if select.select([self._rfd], [], [], remaining)[0]:
                self._fill()

    def qsize(self) -> int:
        """Records awaiting ``get`` (consumer-side: drains the pipe)."""
        self._fill()
        return len(self._ready)

    def drain(self) -> int:
        """Discard everything in flight — pipe contents, the local deque
        and half-reassembled blobs; returns the records dropped."""
        while self._fill():
            pass
        dropped = len(self._ready)
        self._ready.clear()
        self._give_slots(len(self._partial))
        self._partial.clear()
        self._tail = b""
        return dropped

    def close(self) -> None:
        """Close this process's two pipe ends (idempotent)."""
        for attr in ("_rfd", "_wfd"):
            fd = getattr(self, attr)
            if fd >= 0:
                setattr(self, attr, -1)
                os.close(fd)


# ----------------------------------------------------------------------
# the Transport interface
# ----------------------------------------------------------------------
class Transport:
    """Factory/owner of one attempt's inter-node channels.

    ``make_inboxes`` builds the n per-node inboxes for one ring attempt;
    ``cleanup`` releases every OS resource any attempt created (required
    on *all* exit paths — success, restart, error, KeyboardInterrupt —
    and idempotent so belt-and-braces calls are free).
    """

    name = "abstract"

    def make_inboxes(self, ctx, n: int, maxsize: int | None) -> list:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Release transport OS resources (idempotent)."""


class QueueTransport(Transport):
    """One :class:`PipeChannel` per node."""

    name = "queue"

    def __init__(self) -> None:
        self._channels: list[PipeChannel] = []

    def make_inboxes(self, ctx, n: int, maxsize: int | None) -> list:
        channels = [PipeChannel(ctx, maxsize) for _ in range(n)]
        self._channels.extend(channels)
        return channels

    def cleanup(self) -> None:
        for channel in self._channels:
            channel.close()
        self._channels.clear()


class ShmTransport(Transport):
    """Shared-memory rings with batched fixed-width records."""

    name = "shm"

    def __init__(self) -> None:
        self._channels: list[ShmChannel] = []

    def make_inboxes(self, ctx, n: int, maxsize: int | None) -> list:
        capacity = maxsize if maxsize is not None else DEFAULT_CAPACITY
        run_tag = uuid.uuid4().hex[:8]
        channels = [
            ShmChannel(
                f"twshm-{os.getpid()}-{run_tag}-n{node}",
                capacity, ctx.Lock(), create=True,
            )
            for node in range(n)
        ]
        self._channels.extend(channels)
        return channels

    def cleanup(self) -> None:
        for channel in self._channels:
            channel.unlink()
        self._channels.clear()


_TRANSPORTS: dict[str, type[Transport]] = {
    "queue": QueueTransport,
    "shm": ShmTransport,
}

#: Valid ``--transport`` values.
TRANSPORT_NAMES: tuple[str, ...] = tuple(sorted(_TRANSPORTS))


def make_transport(name: str) -> Transport:
    """Instantiate the named transport (:class:`ConfigError` if unknown)."""
    try:
        cls = _TRANSPORTS[name]
    except KeyError:
        raise ConfigError(
            f"unknown transport {name!r} (one of {sorted(_TRANSPORTS)})"
        ) from None
    return cls()


def drain_queue(q) -> int:
    """Discard whatever *q* currently holds; returns the count.

    A channel with a ``drain`` of its own (the pipe channel: local
    deque and half-reassembled blobs besides the pipe) is asked to.
    """
    drain = getattr(q, "drain", None)
    drained = 0
    try:
        if drain is not None:
            return drain()
        while True:
            q.get_nowait()
            drained += 1
    except (queue_mod.Empty, OSError, ValueError, ProtocolError):
        # ProtocolError: a just-terminated worker can in principle
        # leave a torn record at the shm ring frontier; shutdown
        # drains must never die over garbage they are discarding.
        return drained
