"""Shared-memory same-host transport: the TCP bypass.

The paper's LAN results put the floor of call latency at the network
stack; on the *same host* (client and server sharing a machine, the
common case for the breakdown experiment and local development) even
loopback TCP pays per-byte kernel copies.  This module carries frames
of the socket's layout (:mod:`repro.protocol.framing`) over a pair of
single-producer/single-consumer ring buffers in
:mod:`multiprocessing.shared_memory`, so payload bytes move
process-to-process through one shared mapping.

A ring frame checks its header, not its payload: the ``crc`` word is
:func:`repro.protocol.framing.header_crc` (type and length words)
folded over the frame's region table, verified before the payload
buffer is allocated, and neither side makes a pass over the payload.
That is the ring's fault model, not an economy: a ring can lose frame
boundaries (a torn counter, a writer dying mid-frame -- caught by magic,
the header CRC and mid-frame EOF) but cannot flip a bit in transit,
since the bytes never leave memory both process heaps are equally
exposed to.  There is one ring format, :data:`RING_FORMAT`, and no
switch.

Bulk arrays move straight between NumPy and ring memory.  A payload
with bulk regions (:class:`repro.xdr.bulk.Payload`, the arrays the
encoder held by reference) goes into the ring as a frame that names
them in a table: header, table, the payload's other bytes, then each
region's big-endian bytes at a 16-byte frame offset, converted from the
sender's array in ring-sized pieces (:meth:`ShmRing.write_array`).  The
reader converts each region out of the ring into one fresh native array
(:meth:`ShmRing.read_array`) and hands the payload on with those arrays
in it; ``XdrDecoder.unpack_ndarray`` takes them as they are.  Bytes and
arrays go through one copy loop per direction (a byte is a one-byte
element; only the per-piece copy differs).  Neither side allocates a
buffer the size of the frame.  Capacities are
multiples of 16 and every frame is padded to one, so each region starts
16-aligned in ring memory and no element straddles the ring's end.  The
frame is a loopback socket's, byte for byte: ``framing._frame_pieces``
lays it out for :meth:`ShmTransport.send_frame` (and
``framing.encode_frame`` joins it, for fault injection), and
:meth:`ShmTransport.recv_frame` reads it back in order.

Negotiation (PROTOCOL.md §"Shared-memory handshake") happens over the
already-established TCP channel, and both halves live here: the client
(:func:`negotiate`, run by ``connect(shm=True)``) sends ``SHM_HELLO``
with a capacity hint and the ring format it speaks, the server
(:func:`serve_hello`, registered by the threaded ``Endpoint``) creates
both rings and answers ``SHM_HELLO_REPLY`` with the segment names and
the format again, and both sides then attach the rings *in place* on
the existing :class:`~repro.transport.channel.Channel` (see
``Channel.attach_io``).
The TCP socket stays open -- it is the liveness signal
(``Channel.healthy`` still selects on it) and the close signal; frames
simply stop flowing over it.  A client offers the ring only when asked
(``shm=True``); a server answers every hello and refuses only for a
reason it can observe.  Any refusal (an ``ERROR`` from a server that
cannot take the hello, or from an older one) means "keep using TCP" --
the fallback is silent and the call path identical.

Fault injection: :class:`~repro.transport.faults.FaultyChannel` frames
with the attached medium's codec (``Channel._encode_frame``) and writes
its truncated/corrupted frames through ``Channel._raw_sendall``, which
routes into the ring once attached -- so every send-applicable
``FaultPlan`` kind (truncate, corrupt, drop) exercises the shm path
with the same observable outcome as TCP (a rejected frame, mid-frame
EOF).  CORRUPT lands its flipped byte where the ring looks -- the
``type`` or ``crc`` word; a flipped ring *payload* byte is outside the
ring's fault model and would not be noticed.
"""

from __future__ import annotations

import os
import time
import zlib
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Iterable, Optional, TYPE_CHECKING, Union

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:  # annotation only -- channel and endpoint import shm
    from repro.transport.channel import Channel
    from repro.transport.endpoint import _SocketConnection

from repro.protocol.errors import (
    ConnectionClosed,
    ProtocolError,
    RemoteError,
    TimeoutError,
)
from repro.protocol import framing
from repro.protocol.framing import ALIGN as RING_ALIGN, HEADER, \
    MAX_REGIONS, BytesLike, _COUNT, _ENTRY, _Piece, _frame_pieces, \
    _joined, _table_regions, header_crc, parse_header, region_count
from repro.protocol.messages import MessageType, pack, unpack
from repro.xdr import XdrError, bulk

__all__ = [
    "DEFAULT_CAPACITY",
    "MAX_REGIONS",
    "RING_ALIGN",
    "RING_FORMAT",
    "ShmRing",
    "ShmTransport",
    "negotiate",
    "serve_hello",
]

#: Per-direction ring capacity (bytes).  Frames larger than the ring
#: still flow -- the writer streams in capacity-sized pieces while the
#: reader drains -- so this bounds memory per connection (a pooled
#: client may hold many shm channels at once, and ``/dev/shm`` is often
#: small in containers), not message size.
DEFAULT_CAPACITY = 1 << 18

#: The ring frame format both peers must name in the handshake.  1 was
#: the socket frame verbatim (``crc`` over type, length and payload) and
#: had no word in ``SHM_HELLO``; 2 was the header-only check; 3 adds the
#: region table and the 16-byte alignment.  A peer speaking another
#: format is refused before any ring carries a frame.
RING_FORMAT = 3

#: A frame without regions whose payload is this size or less is joined
#: and goes into the ring as one write, not three (header and table,
#: payload, pad).  Send plus receive of one frame in one thread, best of
#: five runs of 3,000, medians of five (2 shared vCPUs): 13.1 us joined
#: against 19.3 us in pieces at 4 KiB, 17.2 against 23.1 at 16 KiB, 22.4
#: against 22.2 at 64 KiB, where the copy costs what the writes save.
_INLINE_MAX = 1 << 14

# Ring control block layout (one cache line, at the segment head):
#   u64 write_pos | u64 read_pos | u64 closed
# Positions are monotonic byte counters (never wrapped); the occupied
# span is write_pos - read_pos and offsets into the data area are taken
# mod capacity.  Monotonic counters make empty (==) and full
# (delta == capacity) unambiguous without a spare slot.
#
# The words are accessed ONLY through a memoryview cast to "Q" (native
# u64), never through the struct module: struct's standard-size formats
# assemble multi-byte values one byte at a time, so a counter being
# updated by the peer process could be observed *torn* -- a mix of old
# and new bytes forming a value that was never written, which breaks
# the space/available invariants.  Cast-view item access compiles to a
# single aligned machine load/store, which x86-64 and AArch64 perform
# atomically.  (Both ends of a ring are on the same host by
# construction, so native byte order is consistent.)
_CTRL_SIZE = 64
_WRITE_WORD = 0
_READ_WORD = 1
_CLOSED_WORD = 2

# Polling cadence for a full/empty ring: spin briefly (the common case
# is a peer actively draining), then short sleeps, then back off to a
# slow tick so a long-idle server connection thread does not burn CPU.
_SPIN = 64
_POLL_SECONDS = 0.0002
_IDLE_AFTER = 320          # ~50 ms of short polls before backing off
_IDLE_POLL_SECONDS = 0.002

def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    CPython < 3.13 registers *every* ``SharedMemory`` with the resource
    tracker, so an attacher's tracker would try to unlink the creator's
    segment at exit; unregister immediately to keep unlink an
    owner-only operation.
    """
    seg = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker API drift
        pass
    return seg


class ShmRing:
    """One direction of frame flow: an SPSC byte ring in one segment.

    Exactly one process writes and one reads (the transport pairs two
    rings, one per direction), so no locks are needed: the writer owns
    ``write_pos``, the reader owns ``read_pos``, and each only *reads*
    the other's counter.  Either side may set ``closed``; a reader
    drains buffered bytes first (like TCP FIN), a writer fails fast.
    """

    def __init__(self, segment: shared_memory.SharedMemory,
                 capacity: int, owner: bool) -> None:
        self._segment = segment
        self._buf = segment.buf
        # Single-load/store access to the control words (see the layout
        # comment above _CTRL_SIZE for why struct.unpack_from is unsafe
        # here).
        self._ctrl = segment.buf[:_CTRL_SIZE].cast("Q")
        self.capacity = capacity
        self.owner = owner
        self.name = segment.name

    @classmethod
    def create(cls, capacity: int = DEFAULT_CAPACITY) -> "ShmRing":
        segment = shared_memory.SharedMemory(
            create=True, size=_CTRL_SIZE + capacity)
        segment.buf[:_CTRL_SIZE] = bytes(_CTRL_SIZE)
        return cls(segment, capacity, owner=True)

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ShmRing":
        segment = _attach_segment(name)
        if segment.size < _CTRL_SIZE + capacity:
            segment.close()
            raise ProtocolError(
                f"shm segment {name} is {segment.size} bytes, need "
                f"{_CTRL_SIZE + capacity}")
        return cls(segment, capacity, owner=False)

    # -- control words ------------------------------------------------------
    # Every access goes through _view(): a ring closed concurrently (the
    # memoryview released under a blocked reader/writer) surfaces as
    # ConnectionClosed, the same exception a torn-down socket raises.

    def _view(self) -> memoryview:
        buf = self._buf
        if buf is None:
            raise ConnectionClosed("shm ring detached")
        return buf

    @property
    def _write_pos(self) -> int:
        try:
            return self._ctrl[_WRITE_WORD]
        except ValueError:
            raise ConnectionClosed("shm ring detached") from None

    @property
    def _read_pos(self) -> int:
        try:
            return self._ctrl[_READ_WORD]
        except ValueError:
            raise ConnectionClosed("shm ring detached") from None

    @property
    def closed(self) -> bool:
        try:
            return self._ctrl[_CLOSED_WORD] != 0
        except ValueError:
            raise ConnectionClosed("shm ring detached") from None

    def mark_closed(self) -> None:
        """Signal the peer; buffered bytes remain readable."""
        self._ctrl[_CLOSED_WORD] = 1

    def readable(self) -> int:
        """Bytes currently buffered."""
        return self._write_pos - self._read_pos

    # -- blocking byte I/O --------------------------------------------------

    def _wait(self, deadline: Optional[float], spins: int, what: str) -> int:
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError(f"shm {what} deadline expired")
        if spins > _IDLE_AFTER:
            time.sleep(_IDLE_POLL_SECONDS)
        elif spins > _SPIN:
            time.sleep(_POLL_SECONDS)
        else:
            # sched_yield, not sleep(0): both release the GIL -- vital
            # when the peer is a thread in this process (in-process
            # servers, tests), where a bare busy-spin would hold the
            # GIL for the full switch interval (~5 ms) and starve the
            # very thread being waited on -- but sleep(0) is subject to
            # kernel timer slack (tens of microseconds per call), which
            # would dominate small-message latency.
            os.sched_yield()
        return spins + 1

    # One copy loop per direction, :meth:`write` and :meth:`read_into`.
    # A byte is a one-byte element, copied as it is; with ``wire``, the
    # elements of an array are converted to or from that big-endian
    # dtype.  Each piece is a free (or filled) contiguous span of whole
    # elements, so with a capacity that is a multiple of 16 an element
    # wider than a byte never straddles the ring's end -- provided it
    # starts 16-aligned (:meth:`_check_aligned`), as a ring frame's
    # regions do.

    def write(self, data: Union[BytesLike, NDArray[Any]],
              deadline: Optional[float] = None,
              wire: Optional[str] = None) -> None:
        """Append ``data``, blocking while the ring is full: bytes, or
        with ``wire`` an array converted straight into ring memory.

        Streams arbitrarily large buffers in ring-capacity pieces.
        Raises :class:`ConnectionClosed` if the ring is marked closed
        (any unread bytes on a closed ring are going nowhere).
        """
        if wire is None:
            src: Union[memoryview, NDArray[Any]] = memoryview(data).cast("B")
            itemsize = 1
        else:
            src = np.asarray(data).reshape(-1)
            itemsize = src.itemsize
            self._check_aligned(self._write_pos)
        total = len(src)
        done = spins = 0
        while done < total:
            if self.closed:
                raise ConnectionClosed("shm ring closed by peer")
            write_pos = self._write_pos
            offset = write_pos % self.capacity
            # <= 0, not == 0: insurance against an out-of-invariant
            # counter observation ever producing a negative piece (a
            # negative piece corrupts `done` silently -- the empty-slice
            # assignment succeeds -- and derails the stream much later).
            count = min(self.capacity - (write_pos - self._read_pos),
                        self.capacity - offset) // itemsize
            if count <= 0:
                spins = self._wait(deadline, spins, "send")
                continue
            spins = 0
            count = min(count, total - done)
            start = _CTRL_SIZE + offset
            try:
                if wire is None:
                    self._view()[start:start + count] = src[done:done + count]
                else:
                    np.frombuffer(self._view(), dtype=wire, count=count,
                                  offset=start)[:] = src[done:done + count]
                done += count
                # Publish after the bytes land: the reader never sees a
                # write_pos covering bytes that are not yet in the buffer.
                self._ctrl[_WRITE_WORD] = write_pos + count * itemsize
            except ValueError:
                raise ConnectionClosed("shm ring detached") from None

    def write_array(self, array: NDArray[Any], wire: str,
                    deadline: Optional[float] = None) -> None:
        """Append ``array`` as elements of the big-endian ``wire`` dtype
        (:meth:`write`)."""
        self.write(array, deadline, wire)

    def read_into(self, out: Union[memoryview, NDArray[Any]],
                  deadline: Optional[float] = None,
                  wire: Optional[str] = None,
                  least: Optional[int] = None) -> int:
        """Fill ``out`` from the ring, blocking while it is empty, and
        return the elements read: bytes into a byte view, or with
        ``wire`` big-endian elements converted into a native array.
        With ``least``, return as soon as that many are in and no more
        are readable in one piece.  A closed ring is drained first; EOF
        before then raises :class:`ConnectionClosed` naming the bytes
        still outstanding (of the ``least`` awaited)."""
        itemsize = 1
        if wire is not None:
            itemsize = out.itemsize
            self._check_aligned(self._read_pos)
        total = len(out)
        least = total if least is None else least
        done = spins = 0
        while done < least:
            read_pos = self._read_pos
            offset = read_pos % self.capacity
            count = min(self._write_pos - read_pos,
                        self.capacity - offset) // itemsize
            if count <= 0:  # <= 0: same insurance as write()
                if self.closed:
                    raise ConnectionClosed(
                        f"connection closed with {(least - done) * itemsize}"
                        f" bytes outstanding")
                spins = self._wait(deadline, spins, "recv")
                continue
            spins = 0
            count = min(count, total - done)
            start = _CTRL_SIZE + offset
            try:
                if wire is None:
                    out[done:done + count] = self._view()[start:start + count]
                else:
                    out[done:done + count] = np.frombuffer(
                        self._view(), dtype=wire, count=count, offset=start)
                done += count
                self._ctrl[_READ_WORD] = read_pos + count * itemsize
            except ValueError:
                raise ConnectionClosed("shm ring detached") from None
        return done

    def read_array(self, nbytes: int, wire: str,
                   deadline: Optional[float] = None) -> NDArray[Any]:
        """``nbytes`` of big-endian ``wire`` elements, converted out of
        ring memory into one fresh native 1-D array (:meth:`read_into`)."""
        dtype = np.dtype(wire)
        out = np.empty(nbytes // dtype.itemsize, dtype.newbyteorder("="))
        self.read_into(out, deadline, wire)
        return out

    def read_exact(self, count: int,
                   deadline: Optional[float] = None) -> bytearray:
        """Exactly ``count`` bytes, in a fresh buffer (:meth:`read_into`)."""
        out = bulk.room(count)
        self.read_into(memoryview(out), deadline)
        return out

    @staticmethod
    def _check_aligned(position: int) -> None:
        """The precondition of an element wider than a byte."""
        if position % RING_ALIGN:
            raise ProtocolError("bulk region starts unaligned in the ring")

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Mark closed and detach; the owner also unlinks the segment."""
        try:
            self.mark_closed()
        except (ConnectionClosed, ValueError):
            pass  # buffer already released
        self._buf = None
        self._ctrl.release()  # an exported view would block segment.close()
        try:
            self._segment.close()
        except (OSError, BufferError):
            pass
        if self.owner:
            try:
                # Re-register first: when creator and attacher share a
                # process (tests), the attacher's unregister emptied the
                # tracker's per-name set entry, and unlink's own
                # unregister would make the tracker print a KeyError.
                # Registration is set-idempotent, so this is a no-op in
                # the normal cross-process case.
                resource_tracker.register(self._segment._name,
                                          "shared_memory")
                self._segment.unlink()
            except (OSError, FileNotFoundError):
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self.owner else "peer"
        return f"<ShmRing {self.name} cap={self.capacity} {role}>"


class ShmTransport:
    """Frame I/O over a ring pair; the object ``Channel.attach_io`` takes.

    ``send_ring`` carries this side's outgoing frames, ``recv_ring`` the
    peer's.  A frame in a ring is the frame of a socket: the 16-byte
    ``MAGIC|type|len|crc`` header, the region table, the payload bytes
    outside its bulk regions, then each region, padded to 16 bytes
    apiece (PROTOCOL.md, *Frame format*); the ``crc`` word covers the
    type and length words and the table only.  A desynchronised ring
    (bad magic, a header or table that fails its CRC, a table that does
    not validate, EOF mid-frame) surfaces as the same
    :class:`ProtocolError` TCP framing raises, before any buffer sized
    by the header is allocated; payload bytes are copied or converted,
    never checked.
    """

    def __init__(self, send_ring: ShmRing, recv_ring: ShmRing) -> None:
        for ring in (send_ring, recv_ring):
            if ring.capacity % RING_ALIGN:
                raise ProtocolError(f"shm ring of {ring.capacity} bytes: "
                                    f"not a multiple of {RING_ALIGN}")
        self.send_ring = send_ring
        self.recv_ring = recv_ring
        # What a frame's header, count word and pads are read into.
        self._head = memoryview(bulk.room(HEADER.size + _COUNT.size))
        self._pad = memoryview(bulk.room(RING_ALIGN))

    @staticmethod
    def _deadline(timeout: Optional[float]) -> Optional[float]:
        return None if timeout is None else time.monotonic() + timeout

    def send_frame(self, msg_type: int,
                   payload: Union[BytesLike, bulk.Payload] = b"",
                   timeout: Optional[float] = None) -> None:
        """Write one frame into the send ring, piece by piece
        (``framing._frame_pieces``): each region is converted straight from
        its array, or copied once the payload is flat.  A small frame
        without regions is joined into one write (:data:`_INLINE_MAX`)."""
        deadline = self._deadline(timeout)
        ring = self.send_ring
        pieces: Iterable[_Piece] = _frame_pieces(msg_type, payload)
        if len(payload) <= _INLINE_MAX and \
                not isinstance(payload, bulk.Payload):
            pieces = (_joined(pieces),)
        for piece in pieces:
            if isinstance(piece, tuple):
                ring.write_array(*piece, deadline)
            else:
                ring.write(piece, deadline)

    def sendall(self, data: BytesLike,
                timeout: Optional[float] = None) -> None:
        """Raw pre-framed bytes (the fault-injection seam)."""
        self.send_ring.write(data, self._deadline(timeout))

    def recv_frame(self, timeout: Optional[float] = None
                   ) -> tuple[int, Union[bytearray, bulk.Payload]]:
        """Read one frame from the receive ring, in the order it was
        written: the header and the region count word in one ring read,
        the header checked as soon as it is in; the rest of the region
        table, whose CRC is checked and which is validated before the
        payload buffer exists; the payload bytes outside the regions,
        copied into the private ``bytearray`` that is returned.  A frame
        with bulk regions comes as a received :class:`bulk.Payload`
        around that buffer, each region an array of its own converted
        straight out of the ring."""
        deadline = self._deadline(timeout)
        ring, head = self.recv_ring, self._head
        # Header and count word in one ring read; the header is checked
        # as soon as it is in, even if the count word is not yet.
        got = ring.read_into(head, deadline, least=HEADER.size)
        msg_type, length, crc = parse_header(head[:HEADER.size])
        if got < len(head):
            ring.read_into(head[got:], deadline)
        count = region_count(head)
        check = zlib.crc32(head[HEADER.size:], header_crc(msg_type, length))
        table = bytearray()
        if count:
            table = bulk.room(count * _ENTRY.size)
            ring.read_into(memoryview(table), deadline)
            check = zlib.crc32(table, check)
        if check != crc:
            raise framing.checksum_mismatch(msg_type, length)
        regions = _table_regions(table, length)
        rest = bulk.room(length - sum(nbytes for _, nbytes, _ in regions))
        ring.read_into(memoryview(rest), deadline)
        self._skip_pad(len(head) + len(table) + len(rest), deadline)
        if not regions:
            return msg_type, rest
        arrays: list[bulk.Region] = []
        for offset, nbytes, wire in regions:
            arrays.append(bulk.Region(offset, nbytes, wire,
                                      ring.read_array(nbytes, wire, deadline)))
            self._skip_pad(nbytes, deadline)
        return msg_type, bulk.Payload(rest, arrays, length, received=True)

    def _skip_pad(self, size: int, deadline: Optional[float]) -> None:
        """Read the pad after ``size`` bytes of frame."""
        self.recv_ring.read_into(self._pad[:-size % RING_ALIGN], deadline)

    def healthy(self) -> bool:
        """Whether both rings are still open (peer has not closed)."""
        try:
            return not (self.send_ring.closed or self.recv_ring.closed)
        except ConnectionClosed:
            return False  # rings already detached

    def shutdown(self) -> None:
        """Mark both rings closed without detaching: a thread blocked in
        :meth:`recv_frame`/:meth:`send_frame` sees EOF and closes."""
        for ring in (self.send_ring, self.recv_ring):
            try:
                ring.mark_closed()
            except ValueError:
                pass  # already detached

    def close(self) -> None:
        """Close both rings (marking them for the peer; owner unlinks)."""
        self.send_ring.close()
        self.recv_ring.close()


# Bound the handshake wait: a SHM_HELLO to a peer that never answers
# (not a Ninf endpoint at all) must not stall the dial indefinitely.
NEGOTIATE_TIMEOUT = 2.0


def negotiate(channel: "Channel", capacity: int = DEFAULT_CAPACITY,
              timeout: Optional[float] = NEGOTIATE_TIMEOUT) -> bool:
    """Client side of the shm handshake, on an established channel.

    Sends ``SHM_HELLO`` (capacity hint, :data:`RING_FORMAT`), and on
    ``SHM_HELLO_REPLY`` attaches the advertised ring pair in place via
    ``channel.attach_io``.  Returns ``True`` on upgrade, ``False`` on a
    clean refusal (an ``ERROR`` reply from a server that cannot take
    the hello -- :func:`serve_hello` -- or does not negotiate, or any
    unexpected-but-well-formed reply) -- the channel keeps working over
    TCP either way.

    Raises on a *poisoned* handshake (timeout mid-exchange, connection
    loss, a reply naming segments this process cannot attach, or one
    that does not name this ring format -- a server from before the
    format word upgrades regardless): the server may already be
    listening on the rings, so the caller must discard the channel and
    redial rather than keep using it.
    """
    try:
        _reply_type, reply = channel.request(
            MessageType.SHM_HELLO,
            pack(MessageType.SHM_HELLO, capacity, RING_FORMAT),
            expect=MessageType.SHM_HELLO_REPLY, timeout=timeout)
    except RemoteError:
        return False  # the server said no
    except (TimeoutError, ConnectionClosed):
        raise  # no answer is not a refusal: a late reply may still come
    except ProtocolError:
        return False  # well-formed non-reply; the stream is still framed
    try:
        c2s_name, s2c_name, ring_capacity, ring_format = unpack(
            MessageType.SHM_HELLO_REPLY, reply)
    except XdrError as exc:
        raise ProtocolError(f"malformed SHM_HELLO_REPLY: {exc}") from exc
    if ring_format != RING_FORMAT:
        raise ProtocolError(f"server upgraded to ring format {ring_format}, "
                            f"this side speaks {RING_FORMAT}")
    rings: list[ShmRing] = []
    try:
        for name in (c2s_name, s2c_name):
            rings.append(ShmRing.attach(name, ring_capacity))
        transport = ShmTransport(send_ring=rings[0], recv_ring=rings[1])
    except BaseException:
        for ring in rings:
            ring.close()
        raise
    channel.attach_io(transport)
    return True


def serve_hello(conn: "_SocketConnection", payload: BytesLike
                ) -> Optional[str]:
    """Server side of the shm handshake, for a ``SHM_HELLO`` on ``conn``.

    Creates a ring pair of the hinted capacity (clamped to 4 KiB-16 MiB
    and rounded down to :data:`RING_ALIGN`), advertises it over TCP in
    ``SHM_HELLO_REPLY``, then reroutes the connection's frames onto the
    rings.  Returns ``None`` on upgrade, or why it refused --
    ``already-upgraded``, ``bad-request`` (a malformed hello, one from
    before the format word included), ``ring-format`` or
    ``alloc-failed`` -- after answering the refusal with an ordinary
    ``ErrorReply``: the client falls back to TCP without redialing.
    """
    channel = conn.channel
    if channel.via_shm:
        conn.send_error("bad-request", "connection already upgraded to shm")
        return "already-upgraded"
    try:
        hint, ring_format = unpack(MessageType.SHM_HELLO, payload)
    except XdrError as exc:
        # Refused here, not by dispatch(): a hello from before the
        # format word must count as a fallback like any other.
        conn.send_error("bad-request", f"malformed SHM_HELLO: {exc}")
        return "bad-request"
    if ring_format != RING_FORMAT:
        conn.send_error("shm-ring-format",
                        f"ring format {ring_format} is not spoken here "
                        f"(this side: {RING_FORMAT})")
        return "ring-format"
    # Clamp the client's hint: tiny rings would deadlock-prone-poll,
    # huge ones would exhaust /dev/shm (often small in containers).
    capacity = max(1 << 12, min(hint or DEFAULT_CAPACITY, 1 << 24))
    capacity -= capacity % RING_ALIGN
    rings: list[ShmRing] = []
    try:
        for _ in ("client->server", "server->client"):
            rings.append(ShmRing.create(capacity))
    except OSError as exc:
        for ring in rings:
            ring.close()
        conn.send_error("shm-unavailable", f"cannot allocate shm ring: {exc}")
        return "alloc-failed"
    c2s, s2c = rings
    # Reply over TCP first, then attach: the next frame the client
    # sends after reading the reply already arrives via the ring.  On
    # the channel itself: a failed advertisement must raise and end the
    # connection before anything is attached -- and take both segments
    # with it.
    try:
        channel.send(MessageType.SHM_HELLO_REPLY,
                     pack(MessageType.SHM_HELLO_REPLY, c2s.name, s2c.name,
                          capacity, RING_FORMAT))
    except BaseException:
        c2s.close()
        s2c.close()
        raise
    channel.attach_io(ShmTransport(send_ring=s2c, recv_ring=c2s))
    return None
