"""Framing: one frame layout on every medium.

A frame is a 16-byte header -- 4-byte magic ``b"NINF"``, then the
big-endian message type, payload length and a CRC-32 word -- a region
table, the payload bytes outside its bulk regions, then each region
(PROTOCOL.md, *Frame format*).  The table is a count word and, per
region, its wire offset in the payload, its ``nbytes`` and its wire
dtype's index in :data:`repro.xdr.bulk.WIRE_DTYPES`.  The bytes before
the first region and each region are padded to a multiple of
:data:`ALIGN`, so in a shared-memory ring every region starts 16-aligned.
A payload without regions is the header, a zero count word, the payload
and its pad.  Payload length is bounded by :data:`MAX_FRAME_SIZE`
(1 GiB) and the region count by :data:`MAX_REGIONS`, so a corrupt header
cannot trigger an absurd allocation.

What the ``crc`` word covers is the medium's.  Every receiver starts
from :func:`header_crc`, the CRC-32 of the type and length words, and
folds the region table in:

- On a **linked socket** (a peer at any address but loopback, or an
  ``AF_UNIX`` one) every byte after the table is folded in too, so any
  single corrupted byte on the wire (CRC-32 detects all error bursts
  shorter than 32 bits) is surfaced as
  :class:`~repro.protocol.errors.ProtocolError` instead of being
  decoded as garbage -- the property the chaos and fuzz suites assert.
  The sender folds its converted pieces in a first pass, before the
  header goes out; the receiver folds each piece as it lands.
- On a **loopback socket** and on a **shared-memory ring**
  (:mod:`repro.transport.shm`) the word stops at the table; neither side
  makes a pass over payload bytes.  Loopback bytes are copied by the
  kernel from one socket buffer to another, and ring bytes never leave
  memory both process heaps are equally exposed to: neither medium can
  flip a bit in transit.  Both can lose frame boundaries (a torn ring
  counter, a writer dying mid-frame) -- magic, the header CRC and
  mid-frame EOF catch that.

The sender's choice is made once per connection, from the peer's
address (:func:`crc_covers_payload`).  A socket receiver takes either
form: a ``crc`` word equal to the check of header and table means no
pass over the rest; any other is compared with the rest folded in.

One layout, two writers.  :func:`_frame_pieces` lays a frame out as
bytes and, for a region still held as the sender's array, that array
and its wire dtype.  A ring converts the array straight into ring
memory; a socket (:func:`send_frame`) converts it :data:`PIECE` bytes at
a time into a buffer of the sending thread's own and writes each piece
before it converts the next.  Every socket receiver is one
:class:`FrameReader`, a sans-IO state machine that says where the next
bytes go and is told how many landed: it reads the table, allocates one
native array per region, receives the region's bytes straight into it
and converts each piece in place as it lands.  The blocking socket
(:func:`recv_frame`) and the reactor only move bytes into its buffers.
Neither side of a socket allocates a buffer the size of the frame.
:func:`frame_size` is a frame's length on any medium, pads included.

Both :func:`send_frame` and :func:`recv_frame` accept an optional
``timeout`` (seconds) covering the *whole* frame, not each piece:
a peer that trickles one byte per second cannot stretch a 5-second
deadline indefinitely.  Deadline expiry raises
:class:`repro.protocol.errors.TimeoutError`; the socket's previous
timeout setting is restored afterwards.
"""

from __future__ import annotations

import ipaddress
import math
import select
import socket
import struct
import threading
import time
import zlib
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

import numpy as np
from numpy.typing import NDArray

from repro.protocol.errors import ConnectionClosed, ProtocolError, TimeoutError
from repro.xdr import bulk

#: Anything the framing layer will put on the wire without copying.
BytesLike = Union[bytes, bytearray, memoryview]

#: A received frame: ``(msg_type, payload)``, the payload a private
#: ``bytearray``, or a received :class:`~repro.xdr.bulk.Payload` when the
#: frame carried regions.
Frame = tuple[int, Union[bytearray, bulk.Payload]]

__all__ = ["ALIGN", "Frame", "FrameReader", "MAGIC", "MAX_FRAME_SIZE",
           "MAX_REGIONS", "PIECE", "checksum_mismatch", "crc_covers_payload",
           "encode_frame", "frame_size", "header_crc", "parse_header",
           "recv_frame", "region_count", "send_frame", "table_size"]

MAGIC = b"NINF"
HEADER = struct.Struct(">4sIII")
MAX_FRAME_SIZE = 1 << 30

#: The bytes before the first region and every region are padded to a
#: multiple of this.
ALIGN = 16

#: Most bulk regions one frame may announce.
MAX_REGIONS = 1 << 12

#: A region table: a count word, then per region its wire offset, its
#: ``nbytes`` and its wire dtype's index in ``bulk.WIRE_DTYPES``.
_COUNT = struct.Struct(">I")
_ENTRY = struct.Struct(">III")

#: What the header of a frame and its count word are read as, at once.
_HEAD_SIZE = HEADER.size + _COUNT.size

#: Zeros a frame is padded with up to an :data:`ALIGN` boundary.
_PAD = bytes(ALIGN)

#: The table of a frame without regions: its count word.
_NO_REGIONS = _COUNT.pack(0)

#: A socket converts a region this many bytes at a time, and receives
#: at most this many into a region before it converts them: 8 MB moved
#: through a buffer of this size in 4.2-4.7 ms over loopback, against
#: 5.2-5.8 ms as one 8 MB buffer (2 shared vCPUs).
PIECE = 1 << 18

#: Most buffers one ``sendmsg`` is handed (Linux allows 1024).
_GATHER_MAX = 64

#: What a frame is written from: bytes, or an array and the wire dtype
#: it is converted to.
_Piece = Union[BytesLike, tuple[NDArray[Any], str]]


def header_crc(msg_type: int, length: int) -> int:
    """CRC-32 of the big-endian ``type`` and ``length`` words: the seed
    the region table, and on a linked socket the rest of the frame, is
    folded into.  The one header check every receiver shares."""
    return zlib.crc32(struct.pack(">II", msg_type, length))


def crc_covers_payload(peer: object) -> bool:
    """The sender rule: whether frames to ``peer`` fold their payload
    into the ``crc`` word.

    ``peer`` is the connection's ``getpeername()`` (None when that
    failed).  A loopback peer -- ``127.0.0.0/8``, ``::1``, or an
    IPv4-mapped ``::ffff:127.x`` as a dual-stack listener sees an IPv4
    client -- gets header-only frames; ``AF_UNIX``, any other address or
    no address keeps the payload CRC.  Decided once per connection.
    """
    host = peer[0] if isinstance(peer, tuple) and peer else None
    try:
        address = ipaddress.ip_address(host)
    except ValueError:
        return True
    # Unwrapped by hand: Python 3.11 calls ::ffff:127.0.0.1 not loopback.
    return not (getattr(address, "ipv4_mapped", None) or address).is_loopback


# -- the layout, both media ---------------------------------------------------


def _pad(nbytes: int) -> int:
    """The zeros that follow ``nbytes`` bytes up to an :data:`ALIGN`
    boundary."""
    return -nbytes % ALIGN


def frame_size(payload: Union[BytesLike, bulk.Payload]) -> int:
    """The bytes a frame of ``payload`` takes on its medium, any medium:
    the header and region table with the bytes outside the regions, then
    each region, each part padded."""
    if not isinstance(payload, bulk.Payload):
        return _HEAD_SIZE + len(payload) + _pad(_HEAD_SIZE + len(payload))
    regions = payload.regions
    head = _HEAD_SIZE + _ENTRY.size * len(regions) + len(payload) \
        - sum(region.nbytes for region in regions)
    return head + _pad(head) + sum(region.nbytes + _pad(region.nbytes)
                                   for region in regions)


def _frame_pieces(msg_type: int, payload: Union[BytesLike, bulk.Payload],
                  covers_payload: bool = False) -> list[_Piece]:
    """A frame in the order it is written: the header and region table,
    whose ``crc`` word is the header CRC folded over the table (and with
    ``covers_payload`` over the rest, converted piece by piece in a first
    pass); the payload's bytes outside its regions, padded; then each
    region, padded -- its array and wire dtype, to be converted, or its
    big-endian bytes once the payload is flat."""
    length = len(payload)
    if length > MAX_FRAME_SIZE:
        raise ProtocolError(f"frame payload too large: {length} bytes")
    pieces: list[_Piece] = [b""]        # the header and table, below
    if isinstance(payload, bulk.Payload):
        spans, sources = payload.parts()    # one snapshot of the payload
        table = _COUNT.pack(len(sources))
        for region, _source in sources:
            table += _ENTRY.pack(region.offset, region.nbytes,
                                 bulk.WIRE_DTYPES.index(region.wire))
        pieces += spans
        rest = length - sum(region.nbytes for region, _source in sources)
    else:
        sources, table, rest = [], _NO_REGIONS, length
        pieces.append(payload)
    pieces.append(_PAD[:_pad(HEADER.size + len(table) + rest)])
    for region, source in sources:
        pieces.append((source, region.wire)
                      if isinstance(source, np.ndarray) else source)
        pieces.append(_PAD[:_pad(region.nbytes)])
    crc = zlib.crc32(table, header_crc(msg_type, length))
    if covers_payload:
        for piece in pieces[1:]:
            if isinstance(piece, tuple):
                for chunk in _converted(*piece):
                    crc = zlib.crc32(chunk, crc)
            else:
                crc = zlib.crc32(piece, crc)
    pieces[0] = HEADER.pack(MAGIC, msg_type, length, crc) + table
    return pieces


_windows = threading.local()


def _window() -> bytearray:
    """This thread's conversion buffer, :data:`PIECE` bytes, made by its
    first bulk send and kept."""
    window: Optional[bytearray] = getattr(_windows, "buffer", None)
    if window is None or len(window) < PIECE:
        window = _windows.buffer = bulk.room(PIECE)
    return window


def _converted(array: NDArray[Any], wire: str, fresh: bool = False
               ) -> Iterator[memoryview]:
    """``array`` as ``wire`` elements, converted :data:`PIECE` bytes at a
    time into this thread's buffer, each piece valid until the next is
    drawn -- or, ``fresh``, into a new buffer each."""
    source = array.reshape(-1)
    step = PIECE // source.itemsize
    for start in range(0, source.size, step):
        part = source[start:start + step]
        out = bulk.room(part.nbytes) if fresh else _window()
        yield memoryview(out)[:bulk.pack_array_into(out, 0, part, wire)]


def _gathers(pieces: Iterable[_Piece], fresh: bool = False
             ) -> Iterator[list[BytesLike]]:
    """``pieces`` as the buffer lists a socket writes, one ``sendmsg``
    each; a list holding a converted piece ends with it, and is valid
    until the next list is drawn (``fresh``: for good)."""
    gather: list[BytesLike] = []
    for piece in pieces:
        if isinstance(piece, tuple):
            for chunk in _converted(*piece, fresh):
                gather.append(chunk)
                yield gather
                gather = []
        elif len(piece):
            gather.append(piece)
            if len(gather) == _GATHER_MAX:
                yield gather
                gather = []
    if gather:
        yield gather


def unsent(gather: Sequence[BytesLike], sent: int) -> list[memoryview]:
    """What of ``gather`` a write of ``sent`` bytes left, as views."""
    rest = []
    for buffer in gather:
        if sent < len(buffer):
            rest.append(memoryview(buffer)[sent:])
        sent = max(0, sent - len(buffer))
    return rest


def _joined(pieces: Sequence[_Piece]) -> bytearray:
    """The bytes of ``pieces`` in one buffer, each array converted in
    place."""
    frame = bulk.room(sum(piece[0].nbytes if isinstance(piece, tuple)
                          else len(piece) for piece in pieces))
    at = 0
    for piece in pieces:
        if isinstance(piece, tuple):
            at += bulk.pack_array_into(frame, at, *piece)
        else:
            frame[at:at + len(piece)] = piece
            at += len(piece)
    return frame


def _table_regions(table: BytesLike, length: int
                   ) -> list[tuple[int, int, str]]:
    """A region table's ``(offset, nbytes, wire)`` entries, each checked
    before anything is sized by it: a known wire dtype, a 4-aligned
    offset past the region before, a whole number of elements, inside
    the ``length``-byte payload."""
    regions: list[tuple[int, int, str]] = []
    end = 0
    for offset, nbytes, code in _ENTRY.iter_unpack(table):
        if code >= len(bulk.WIRE_DTYPES):
            raise ProtocolError(f"bulk region of unknown dtype code {code}")
        wire = bulk.WIRE_DTYPES[code]
        if offset % 4:
            raise ProtocolError(f"bulk region at unaligned offset {offset}")
        if offset < end:
            raise ProtocolError(f"bulk region at offset {offset} is out of "
                                f"order or overlapping (the one before "
                                f"ends at {end})")
        if nbytes == 0 or nbytes % np.dtype(wire).itemsize:
            raise ProtocolError(f"bulk region of {nbytes} bytes is no whole "
                                f"number of {wire} elements")
        end = offset + nbytes
        if end > length:
            raise ProtocolError(f"bulk region ends at {end}, past the "
                                f"{length}-byte payload")
        regions.append((offset, nbytes, wire))
    return regions


def encode_frame(msg_type: int,
                 payload: Union[BytesLike, bulk.Payload] = b"", *,
                 covers_payload: bool = True) -> bytearray:
    """The exact bytes :func:`send_frame` puts on a socket -- or, with
    ``covers_payload`` False, a loopback socket or a ring -- in one
    buffer.

    Exposed so fault injection (:mod:`repro.transport.faults`) and the
    framing property tests can truncate or corrupt real frames without
    re-implementing the layout.  This *does* join the frame -- the hot
    paths write it piece by piece instead.
    """
    return _joined(_frame_pieces(msg_type, payload, covers_payload))


# -- the blocking socket -----------------------------------------------------


class _DeadlineSocket:
    """Applies a monotonic deadline to every operation on ``sock``.

    The socket stays in blocking mode: with a deadline, each operation
    is tried without waiting (``MSG_DONTWAIT``), and only when the
    socket is not ready is it waited on (``poll``) for what is left of
    the deadline -- no timeout is set per operation and no mode switched
    back and forth.  A socket with a timeout of its own (on which every
    operation would first wait that long) runs blocking meanwhile and
    gets its timeout back on exit.  Without a deadline every operation
    simply blocks, as the socket would.
    """

    def __init__(self, sock: socket.socket,
                 timeout: Optional[float]) -> None:
        self.sock = sock
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self._saved: Optional[float] = None

    def __enter__(self) -> "_DeadlineSocket":
        if self.deadline is not None:
            saved = self.sock.gettimeout()
            if saved:
                self._saved = saved
                self.sock.settimeout(None)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._saved is not None:
            try:
                self.sock.settimeout(self._saved)
            except OSError:
                pass  # socket already closed; nothing to restore

    def _wait(self, event: int, what: str) -> None:
        """Until the socket is ready for ``event``; past the deadline a
        :class:`~repro.protocol.errors.TimeoutError`."""
        assert self.deadline is not None
        poller = select.poll()
        poller.register(self.sock, event)
        while (remaining := self.deadline - time.monotonic()) > 0:
            # poll takes a C int of milliseconds: a day at a time.
            if poller.poll(math.ceil(min(remaining, 86400.0) * 1000)):
                return
        raise TimeoutError(f"frame {what} timed out")

    def recv_into(self, view: memoryview, what: str) -> int:
        if self.deadline is None:
            try:
                return self.sock.recv_into(view)
            except socket.timeout:  # the socket's own timeout
                raise TimeoutError(f"frame {what} timed out") from None
        while True:
            try:
                return self.sock.recv_into(view, 0, socket.MSG_DONTWAIT)
            except BlockingIOError:
                self._wait(select.POLLIN, what)

    def send_gathers(self, gathers: Iterator[list[BytesLike]],
                     what: str) -> None:
        """Write each buffer list with ``sendmsg``, resending what a
        short write left, before the next list is drawn."""
        flags = 0 if self.deadline is None else socket.MSG_DONTWAIT
        for gather in gathers:
            total = sum(map(len, gather))
            while True:
                try:
                    sent = self.sock.sendmsg(gather, (), flags)
                except BlockingIOError:
                    sent = 0
                except socket.timeout:  # the socket's own timeout
                    raise TimeoutError(f"frame {what} timed out") from None
                if sent == total:
                    break
                # A short write filled the socket's buffer: wait for room.
                gather, total = unsent(gather, sent), total - sent
                if flags:
                    self._wait(select.POLLOUT, what)


def send_frame(sock: socket.socket, msg_type: int,
               payload: Union[BytesLike, bulk.Payload] = b"",
               timeout: Optional[float] = None, *,
               covers_payload: bool = True) -> None:
    """Write one frame; raises ProtocolError on oversize payloads.

    ``payload`` may be any bytes-like object, or a
    :class:`~repro.xdr.bulk.Payload`, whose regions are converted from
    their arrays :data:`PIECE` bytes at a time into this thread's buffer,
    each piece written before the next is converted; the bytes around
    them go out as they are, gathered (``sendmsg``), so the frame is
    never joined in user space.  ``timeout`` bounds the whole write;
    expiry raises :class:`~repro.protocol.errors.TimeoutError`.
    ``covers_payload`` is the connection's :func:`crc_covers_payload`.
    """
    pieces = _frame_pieces(msg_type, payload, covers_payload)
    # Without regions the frame is three buffers: one gather.
    gathers = _gathers(pieces) if isinstance(payload, bulk.Payload) \
        else iter((pieces,))
    # A socket with its own ``send_gathers`` (the server's reply socket,
    # which never waits for its peer) is handed the lists and draws
    # them itself.
    own = getattr(sock, "send_gathers", None)
    if own is not None:
        own(gathers)
        return
    with _DeadlineSocket(sock, timeout) as guarded:
        guarded.send_gathers(gathers, "send")


def checksum_mismatch(msg_type: int, length: int) -> ProtocolError:
    """The error every receiver raises for a frame that fails its CRC."""
    return ProtocolError(f"frame checksum mismatch for message {msg_type} "
                         f"({length}-byte payload)")


def parse_header(header: BytesLike) -> tuple[int, int, int]:
    """``(msg_type, length, crc)`` of the 16-byte header at the start of
    ``header``, whose magic and length every receiver checks before
    anything is sized by it."""
    magic, msg_type, length, crc = HEADER.unpack_from(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_SIZE:
        raise ProtocolError(f"implausible frame length {length}")
    return msg_type, length, crc


def region_count(head: BytesLike) -> int:
    """The count word after a frame's header, checked against
    :data:`MAX_REGIONS` before a table is sized by it."""
    (count,) = _COUNT.unpack_from(head, HEADER.size)
    if count > MAX_REGIONS:
        raise ProtocolError(f"frame announces {count} bulk regions, at "
                            f"most {MAX_REGIONS}")
    return count


def table_size(head: BytesLike) -> int:
    """The size of the region table after a frame's header, count word
    included (:func:`region_count`)."""
    return _COUNT.size + _ENTRY.size * region_count(head)


# The parts of a frame a FrameReader receives in turn.
_HEAD, _TABLE, _REST, _REGION, _DESYNC = range(5)


class FrameReader:
    """The receive side of the socket frame format, without I/O.

    :meth:`buffer` is where the next bytes go: the header and count word
    (one receive), the region table, the payload bytes outside the
    regions with their pad (one ``bytearray``, handed on once full),
    then each region -- a native array allocated for it, into which its
    big-endian bytes land at most :data:`PIECE` at a time and are
    converted in place as they land.  :meth:`advance` is told how many
    landed and returns ``(msg_type, payload)`` once a frame is complete:
    the ``bytearray``, or a received :class:`~repro.xdr.bulk.Payload`
    around it holding the region arrays.  Magic, length, count and every
    table entry are checked before anything sized by them is allocated.
    Either ``crc`` form is taken, a payload-covering frame's bytes folded
    in as they land; every pad must be zeros, which a header-only ``crc``
    does not cover.  A checksum mismatch or a pad that is not zeros
    raises after the reader has reset, so the next frame is readable; a
    desync -- bad magic, an
    implausible length or table -- raises mid-frame (:attr:`at_boundary`
    False), and nothing after it can be parsed.

    A view :meth:`buffer` hands out is filled, then reported, before the
    next is asked for; the one that fills the payload buffer is released
    when the frame completes, so the pad can be trimmed in place.
    """

    __slots__ = ("_head", "_part", "_target", "_got", "_tail", "_view",
                 "_dirty", "_msg_type", "_length", "_crc_want", "_crc", "_rest",
                 "_regions", "_arrays", "_array", "_swap", "_swapped")

    def __init__(self) -> None:
        self._head = bulk.room(_HEAD_SIZE)
        self._view: Optional[memoryview] = None
        self._msg_type = self._length = self._crc_want = 0
        # The running CRC of the rest; None for a header-only frame.
        self._crc: Optional[int] = None
        self._regions: list[tuple[int, int, str]] = []
        self._begin()

    def _begin(self) -> None:
        """Await the next frame's header and count word."""
        self._part, self._target, self._got = _HEAD, self._head, 0
        # Bytes at the end of the target that are not the part's own: the
        # count word after a header, the pad after the payload or a region.
        self._tail = _COUNT.size
        # Whether a pad of this frame held anything but zeros.
        self._dirty = False

    @property
    def receiving(self) -> str:
        """``"header"`` or ``"payload"``, for the timeout messages."""
        return "payload" if self._part in (_REST, _REGION) else "header"

    @property
    def outstanding(self) -> int:
        """Bytes owed to the part being received, for the EOF message."""
        owed = len(self._target) - self._got
        return owed - self._tail if owed > self._tail else owed

    @property
    def at_boundary(self) -> bool:
        """Whether no byte of a next frame has landed."""
        return self._part == _HEAD and self._got == 0

    def buffer(self) -> memoryview:
        """Where the next bytes go (empty only after a desync)."""
        got = self._got
        if self._part == _REGION:
            return self._target[got:got + PIECE]
        view = self._view = memoryview(self._target)[got:]
        return view

    def advance(self, nbytes: int) -> Optional[Frame]:
        """``nbytes`` landed where :meth:`buffer` pointed: the completed
        frame, or None while one is still owed."""
        start = self._got
        self._got = end = start + nbytes
        part = self._part
        try:
            if part == _HEAD:
                if start < HEADER.size <= end:
                    self._msg_type, self._length, self._crc_want = \
                        parse_header(self._head)
            elif part != _TABLE:
                if self._crc is not None:
                    self._crc = zlib.crc32(
                        memoryview(self._target)[start:end], self._crc)
                if part == _REGION and self._swap:
                    done = end // self._array.itemsize
                    self._array[self._swapped:done].byteswap(inplace=True)
                    self._swapped = done
            if end < len(self._target):
                return None
            if part == _HEAD:
                return self._table()
            if part == _TABLE:
                assert self._crc is not None
                return self._body(self._target,
                                  zlib.crc32(self._target, self._crc))
            if part == _REST:
                return self._payload()
            return self._region_done()
        except ProtocolError:
            if not self.at_boundary:    # not a checksum: a desync
                self._part, self._target, self._got = _DESYNC, b"", 0
            raise

    def _table(self) -> Optional[Frame]:
        """Header and count word are in: make room for the table, or on
        to the payload."""
        head = self._head
        count = region_count(head)
        # The type and length words as they landed: header_crc's bytes.
        check = zlib.crc32(head[HEADER.size:], zlib.crc32(head[4:12]))
        if not count:
            return self._body(b"", check)
        self._crc = check               # held here until the table is in
        self._receive(_TABLE, bulk.room(count * _ENTRY.size), 0)
        return None

    def _body(self, table: BytesLike, check: int) -> Optional[Frame]:
        """Header and table are in: check them, then make room for the
        bytes outside the regions and their pad."""
        self._crc = None if check == self._crc_want else check
        size = self._length
        if table:
            self._regions = _table_regions(table, size)
            size -= sum(nbytes for _, nbytes, _ in self._regions)
        elif self._regions:
            self._regions = []
        pad = _pad(_HEAD_SIZE + len(table) + size)
        self._receive(_REST, bulk.room(size + pad), pad)
        return None if size + pad else self._payload()

    def _payload(self) -> Optional[Frame]:
        """The bytes outside the regions are in: trim their pad (the view
        :meth:`buffer` handed out is released first), then the regions."""
        rest = self._rest = self._target
        if self._tail:
            view, self._view = self._view, None
            if view is not None:
                view.release()
            self._dirty = not rest.endswith(_PAD[:self._tail])
            del rest[-self._tail:]
        if not self._regions:
            return self._finish(rest)
        self._arrays: list[bulk.Region] = []
        return self._region()

    def _region(self) -> None:
        """Receive the next region into a native array of its own."""
        _offset, nbytes, wire = self._regions[len(self._arrays)]
        dtype = np.dtype(wire)
        # The pad is a whole number of elements, received with them.
        pad = _pad(nbytes)
        self._array = np.empty((nbytes + pad) // dtype.itemsize,
                               dtype.newbyteorder("="))
        self._swap, self._swapped = not dtype.isnative, 0
        self._receive(_REGION, memoryview(self._array.view(np.uint8)), pad)

    def _region_done(self) -> Optional[Frame]:
        array, (offset, nbytes, wire) = \
            self._array, self._regions[len(self._arrays)]
        if self._tail:
            self._dirty |= bool(array.view(np.uint8)[nbytes:].any())
            array = array[:nbytes // array.itemsize]
        self._arrays.append(bulk.Region(offset, nbytes, wire, array))
        if len(self._arrays) < len(self._regions):
            return self._region()
        return self._finish(bulk.Payload(self._rest, self._arrays,
                                         self._length, received=True))

    def _finish(self, payload: Union[bytearray, bulk.Payload]) -> Frame:
        msg_type, crc, dirty = self._msg_type, self._crc, self._dirty
        self._begin()
        if crc is not None and crc != self._crc_want:
            raise checksum_mismatch(msg_type, self._length)
        if dirty:
            raise ProtocolError(f"frame pad is not zeros for message "
                                f"{msg_type} ({self._length}-byte payload)")
        return msg_type, payload

    def _receive(self, part: int, target: Union[bytearray, memoryview],
                 tail: int) -> None:
        self._part, self._target, self._got, self._tail = part, target, 0, tail


def recv_frame(sock: socket.socket,
               timeout: Optional[float] = None,
               reader: Optional[FrameReader] = None) -> Frame:
    """Read one frame; returns ``(msg_type, payload)``.

    The payload is a private, mutable ``bytearray`` the bytes were
    received into directly (``recv_into``), or for a frame with bulk
    regions a received :class:`~repro.xdr.bulk.Payload` holding one
    native array per region (:class:`FrameReader`); the caller owns it.

    Raises :class:`ConnectionClosed` on clean EOF before a header,
    :class:`ProtocolError` on bad magic, implausible length or region
    table, or a checksum mismatch (a corrupted type, length, table or
    ``crc`` word, or a payload byte of a payload-covering frame) or a
    pad that is not zeros, and
    :class:`~repro.protocol.errors.TimeoutError` when ``timeout``
    seconds elapse before the full frame arrives.

    ``reader`` is the connection's own :class:`FrameReader`, kept from
    frame to frame (a fresh one without); a frame cut short by a timeout
    is then still owed to it and completes on the next call.
    """
    if reader is None:
        reader = FrameReader()
    with _DeadlineSocket(sock, timeout) as guarded:
        while True:
            nbytes = guarded.recv_into(reader.buffer(), reader.receiving)
            if not nbytes:
                raise ConnectionClosed(
                    f"connection closed with {reader.outstanding} bytes "
                    f"outstanding")
            frame = reader.advance(nbytes)
            if frame is not None:
                return frame
