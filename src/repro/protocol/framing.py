"""Framing: ``MAGIC | type | length | crc | payload``.

The header is 16 bytes on every medium: 4-byte magic ``b"NINF"``,
4-byte big-endian message type, 4-byte big-endian payload length, and
a CRC-32 word.  Payload length is bounded by :data:`MAX_FRAME_SIZE`
(1 GiB) so a corrupt header cannot trigger an absurd allocation.

What the ``crc`` word covers is the medium's (PROTOCOL.md, *Frame
format*).  Every receiver starts from :func:`header_crc`, the CRC-32 of
the type and length words:

- On a **linked socket** (a peer at any address but loopback, or an
  ``AF_UNIX`` one) the payload bytes are folded in after it, so any
  single corrupted byte on the wire (CRC-32 detects all error bursts
  shorter than 32 bits) is surfaced as
  :class:`~repro.protocol.errors.ProtocolError` instead of being
  decoded as garbage -- the property the chaos and fuzz suites assert.
- On a **loopback socket** and on a **shared-memory ring**
  (:mod:`repro.transport.shm`) the word is :func:`header_crc` itself,
  and the sender makes no pass over payload bytes.  Loopback bytes are
  copied by the kernel from one socket buffer to another, and ring
  bytes never leave memory both process heaps are equally exposed to:
  neither medium can flip a bit in transit.  Both can lose frame
  boundaries (a torn ring counter, a writer dying mid-frame) -- magic,
  the header CRC and mid-frame EOF catch that.

The sender's choice is made once per connection, from the peer's
address (:func:`crc_covers_payload`).  A socket receiver takes either
form and tells them apart from the header alone
(:func:`payload_seed`): a ``crc`` word equal to the header CRC means no
pass over the payload; any other is compared with the payload folded
in.  A ring receiver takes the header-only form alone, checked before
the payload buffer is allocated.

Every receiver is one :class:`FrameReader`, a sans-IO state machine
that says where the next bytes go and is told how many landed; the
blocking socket (:func:`recv_frame`), the event loop
(:class:`~repro.protocol.aframing.FrameStream`) and the shared-memory
ring (``ShmTransport.recv_frame``) only move bytes into its buffers.

Both :func:`send_frame` and :func:`recv_frame` accept an optional
``timeout`` (seconds) covering the *whole* frame, not each ``recv``:
a peer that trickles one byte per second cannot stretch a 5-second
deadline indefinitely.  Deadline expiry raises
:class:`repro.protocol.errors.TimeoutError`; the socket's previous
timeout setting is restored afterwards.
"""

from __future__ import annotations

import ipaddress
import socket
import struct
import time
import zlib
from typing import Optional, Union

from repro.protocol.errors import ConnectionClosed, ProtocolError, TimeoutError
from repro.xdr import bulk

#: Anything the framing layer will put on the wire without copying.
BytesLike = Union[bytes, bytearray, memoryview]

__all__ = ["FrameReader", "MAGIC", "MAX_FRAME_SIZE", "checksum_mismatch",
           "crc_covers_payload", "encode_frame", "encode_header",
           "header_crc", "payload_seed", "recv_frame", "send_frame"]

MAGIC = b"NINF"
HEADER = struct.Struct(">4sIII")
MAX_FRAME_SIZE = 1 << 30


def header_crc(msg_type: int, length: int) -> int:
    """CRC-32 of the big-endian ``type`` and ``length`` words: the whole
    of a header-only frame's check, and the seed a payload-covering
    frame's payload is folded into.  The one header check every
    receiver shares."""
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


def payload_seed(msg_type: int, length: int, crc: int) -> Optional[int]:
    """The receiver's per-frame test: None when ``crc`` is the header
    CRC -- a header-only frame, whose payload is not read -- else that
    header CRC, the seed the payload is folded into before comparing
    with ``crc``.  A payload-covering ``crc`` equals the header CRC with
    probability 2**-32, CRC-32's own miss rate."""
    seed = header_crc(msg_type, length)
    return None if crc == seed else seed


def encode_header(msg_type: int, payload: BytesLike, *,
                  covers_payload: bool = True) -> bytes:
    """The 16-byte header for ``payload`` (not yet on the wire), its
    ``crc`` word folding in the payload or (``covers_payload`` False)
    covering the type and length words only, without reading a payload
    byte.

    The zero-copy seam: callers that can scatter-gather (``sendmsg``,
    ``StreamWriter.write`` twice) send header and payload separately and
    never materialise the concatenated frame.
    """
    length = len(payload)
    if length > MAX_FRAME_SIZE:
        raise ProtocolError(f"frame payload too large: {length} bytes")
    crc = header_crc(msg_type, length)
    if covers_payload:
        # Incremental CRC over the payload buffer itself -- no
        # header+payload concatenation, any bytes-like (memoryview too).
        crc = zlib.crc32(payload, crc)
    return HEADER.pack(MAGIC, msg_type, length, crc)


def encode_frame(msg_type: int, payload: BytesLike = b"", *,
                 covers_payload: bool = True) -> bytes:
    """The exact bytes :func:`send_frame` puts on a socket.

    Exposed so fault injection (:mod:`repro.transport.faults`) and the
    framing property tests can truncate or corrupt real frames without
    re-implementing the header layout (a ring's are
    ``ShmTransport.encode_frame``).  This *does* concatenate -- the
    hot paths use :func:`encode_header` plus scatter-gather instead.
    """
    return encode_header(msg_type, payload,
                         covers_payload=covers_payload) + payload


class _DeadlineSocket:
    """Applies a monotonic deadline to every operation on ``sock``.

    Entering the context records the socket's current timeout and
    restores it on exit, so framing calls do not perturb whatever
    blocking mode the caller runs the socket in.
    """

    def __init__(self, sock: socket.socket,
                 timeout: Optional[float]) -> None:
        self.sock = sock
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self._saved: Optional[float] = None

    def __enter__(self) -> "_DeadlineSocket":
        if self.deadline is not None:
            self._saved = self.sock.gettimeout()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.deadline is not None:
            try:
                self.sock.settimeout(self._saved)
            except OSError:
                pass  # socket already closed; nothing to restore

    def _arm(self, what: str) -> None:
        if self.deadline is None:
            return
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"frame {what} deadline expired")
        self.sock.settimeout(remaining)

    def recv_into(self, view: memoryview, what: str) -> int:
        self._arm(what)
        try:
            return self.sock.recv_into(view)
        except socket.timeout:
            raise TimeoutError(f"frame {what} timed out") from None

    def sendall(self, data: BytesLike, what: str) -> None:
        self._arm(what)
        try:
            self.sock.sendall(data)
        except socket.timeout:
            raise TimeoutError(f"frame {what} timed out") from None

    def send_vectored(self, header: bytes, payload: BytesLike,
                      what: str) -> None:
        """Scatter-gather write of header + payload without joining them.

        ``sendmsg`` may write fewer bytes than offered; the remainder is
        resent via plain ``sendall`` on a sliced view -- still no copy
        of the full frame.
        """
        self._arm(what)
        try:
            sent = self.sock.sendmsg((header, payload))
        except socket.timeout:
            raise TimeoutError(f"frame {what} timed out") from None
        total = len(header) + len(payload)
        if sent >= total:
            return
        if sent < len(header):
            self.sendall(memoryview(header)[sent:], what)
            sent = len(header)
        self.sendall(memoryview(payload)[sent - len(header):], what)


def send_frame(sock: socket.socket, msg_type: int, payload: BytesLike = b"",
               timeout: Optional[float] = None, *,
               covers_payload: bool = True) -> None:
    """Write one frame; raises ProtocolError on oversize payloads.

    ``payload`` may be any bytes-like object; header and payload go out
    as one scatter-gather write (``sendmsg``), so the frame is never
    concatenated in user space.  ``timeout`` bounds the whole write;
    expiry raises :class:`~repro.protocol.errors.TimeoutError`.
    ``covers_payload`` is the connection's :func:`crc_covers_payload`.
    """
    header = encode_header(msg_type, payload, covers_payload=covers_payload)
    with _DeadlineSocket(sock, timeout) as guarded:
        if not len(payload):
            guarded.sendall(header, "send")
        elif hasattr(sock, "sendmsg"):
            guarded.send_vectored(header, payload, "send")
        else:  # pragma: no cover - all supported platforms have sendmsg
            guarded.sendall(header + bytes(payload), "send")


def checksum_mismatch(msg_type: int, length: int) -> ProtocolError:
    """The error every receiver raises for a frame that fails its CRC."""
    return ProtocolError(f"frame checksum mismatch for message {msg_type} "
                         f"({length}-byte payload)")


class FrameReader:
    """The receive side of the frame format, without I/O.

    :meth:`buffer` is where the next bytes go -- the rest of the 16-byte
    header, then the rest of the frame's own payload buffer
    (``bulk.room``, handed to the caller once full); :meth:`advance` is
    told how many landed and returns ``(msg_type, payload)`` once a
    frame is complete.  Magic and length are checked before anything
    sized by the peer is allocated.  ``payload_checked`` is the
    medium's: a socket (True) takes either ``crc`` form
    (:func:`payload_seed`), folding a payload-covering frame's payload
    in chunk by chunk as it lands; a ring (False) takes the header-only
    form alone, refusing any other before the payload buffer exists.
    A checksum mismatch raises after the reader has reset, so the next
    frame is readable; a desync -- bad magic, an implausible length, a
    refused ring header -- raises mid-frame (:attr:`at_boundary`
    False), and nothing after it can be parsed.
    """

    __slots__ = ("payload_checked", "_header", "_target", "_got",
                 "_msg_type", "_crc_want", "_crc")

    def __init__(self, payload_checked: bool = True) -> None:
        self.payload_checked = payload_checked
        # Bytes land in _header, then in the frame's own payload buffer:
        # _target is the one being filled, _got counts into it.
        self._target = self._header = bulk.room(HEADER.size)
        self._got = self._msg_type = self._crc_want = 0
        # The running CRC of the payload; None for a header-only frame.
        self._crc: Optional[int] = None

    @property
    def receiving(self) -> str:
        """``"header"`` or ``"payload"``, for the timeout messages."""
        return "header" if self._target is self._header else "payload"

    @property
    def outstanding(self) -> int:
        """Bytes owed to the part being received, for the EOF message."""
        return len(self._target) - self._got

    @property
    def at_boundary(self) -> bool:
        """Whether no byte of a next frame has landed."""
        return self._target is self._header and self._got == 0

    def buffer(self) -> memoryview:
        """Where the next bytes go (empty only after a desync)."""
        return memoryview(self._target)[self._got:]

    def advance(self, nbytes: int) -> Optional[tuple[int, bytearray]]:
        """``nbytes`` landed where :meth:`buffer` pointed: the completed
        frame, or None while one is still owed."""
        start = self._got
        self._got = end = start + nbytes
        payload = self._target
        if payload is self._header:
            if end < HEADER.size:
                return None
            magic, msg_type, length, crc = HEADER.unpack(payload)
            if magic != MAGIC:
                raise ProtocolError(f"bad frame magic {magic!r}")
            if length > MAX_FRAME_SIZE:
                raise ProtocolError(f"implausible frame length {length}")
            seed = payload_seed(msg_type, length, crc)
            if seed is not None and not self.payload_checked:
                raise checksum_mismatch(msg_type, length)
            self._msg_type, self._crc_want, self._crc = msg_type, crc, seed
            self._target = payload = bulk.room(length)
            self._got = end = 0
        elif self._crc is not None:
            self._crc = zlib.crc32(memoryview(payload)[start:end], self._crc)
        if end < len(payload):
            return None
        self._target, self._got = self._header, 0
        if self._crc is not None and self._crc != self._crc_want:
            raise checksum_mismatch(self._msg_type, len(payload))
        return self._msg_type, payload


def recv_frame(sock: socket.socket,
               timeout: Optional[float] = None) -> tuple[int, bytearray]:
    """Read one frame; returns ``(msg_type, payload)``.

    The payload is a private, mutable ``bytearray`` the bytes were
    received into directly (``recv_into``); the caller owns it.

    Raises :class:`ConnectionClosed` on clean EOF before a header,
    :class:`ProtocolError` on bad magic, implausible length, or a
    checksum mismatch (a corrupted type, length or ``crc`` word, or a
    payload byte of a payload-covering frame), and
    :class:`~repro.protocol.errors.TimeoutError` when ``timeout``
    seconds elapse before the full frame arrives.
    """
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
