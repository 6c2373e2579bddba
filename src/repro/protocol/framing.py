"""Framing: ``MAGIC | type | length | crc | payload``.

The header is 16 bytes on every medium: 4-byte magic ``b"NINF"``,
4-byte big-endian message type, 4-byte big-endian payload length, and
a CRC-32 word.  Payload length is bounded by :data:`MAX_FRAME_SIZE`
(1 GiB) so a corrupt header cannot trigger an absurd allocation.

What the ``crc`` word covers is the medium's (PROTOCOL.md, *Frame
format*).  Every receiver starts from :func:`header_crc`, the CRC-32 of
the type and length words:

- On a **socket** the payload bytes are folded in after it, so any
  single corrupted byte on the wire (CRC-32 detects all error bursts
  shorter than 32 bits) is surfaced as
  :class:`~repro.protocol.errors.ProtocolError` instead of being
  decoded as garbage -- the property the chaos and fuzz suites assert.
- On a **shared-memory ring** (:mod:`repro.transport.shm`) the word is
  :func:`header_crc` itself, verified before the payload buffer is
  allocated, and no pass is made over payload bytes on either side.  A
  ring can lose frame boundaries (a torn counter, a writer dying
  mid-frame) -- magic, the header CRC and mid-frame EOF catch that --
  but it cannot flip a bit in transit: the bytes never leave memory the
  two process heaps are equally exposed to.

Both :func:`send_frame` and :func:`recv_frame` accept an optional
``timeout`` (seconds) covering the *whole* frame, not each ``recv``:
a peer that trickles one byte per second cannot stretch a 5-second
deadline indefinitely.  Deadline expiry raises
:class:`repro.protocol.errors.TimeoutError`; the socket's previous
timeout setting is restored afterwards.
"""

from __future__ import annotations

import functools
import socket
import struct
import time
import zlib
from typing import Callable, Optional, Union

from repro.protocol.errors import ConnectionClosed, ProtocolError, TimeoutError

#: Anything the framing layer will put on the wire without copying.
BytesLike = Union[bytes, bytearray, memoryview]

__all__ = ["MAGIC", "MAX_FRAME_SIZE", "checksum_mismatch", "decode_header",
           "encode_frame", "encode_header", "encode_ring_header",
           "header_crc", "recv_frame", "recv_frame_from", "send_frame"]

MAGIC = b"NINF"
HEADER = struct.Struct(">4sIII")
MAX_FRAME_SIZE = 1 << 30


def header_crc(msg_type: int, length: int) -> int:
    """CRC-32 of the big-endian ``type`` and ``length`` words: the whole
    of a ring frame's check, and the seed a socket frame's payload is
    folded into.  The one header check every receiver shares."""
    return zlib.crc32(struct.pack(">II", msg_type, length))


def _pack_header(msg_type: int, length: int, crc: int) -> bytes:
    if length > MAX_FRAME_SIZE:
        raise ProtocolError(f"frame payload too large: {length} bytes")
    return HEADER.pack(MAGIC, msg_type, length, crc)


def encode_header(msg_type: int, payload: BytesLike) -> bytes:
    """The 16-byte socket header for ``payload`` (not yet on the wire).

    The zero-copy seam: callers that can scatter-gather (``sendmsg``,
    ``StreamWriter.write`` twice) send header and payload separately and
    never materialise the concatenated frame.
    """
    # Incremental CRC: seed with the header fields, then feed the payload
    # buffer directly -- no header+payload concatenation, and ``payload``
    # may be any bytes-like object (memoryview included).
    length = len(payload)
    return _pack_header(msg_type, length,
                        zlib.crc32(payload, header_crc(msg_type, length)))


def encode_ring_header(msg_type: int, length: int) -> bytes:
    """The 16-byte header of a shared-memory ring frame: same layout,
    its ``crc`` word covering the type and length words only -- the
    payload is never read to build it."""
    return _pack_header(msg_type, length, header_crc(msg_type, length))


def encode_frame(msg_type: int, payload: BytesLike = b"") -> bytes:
    """The exact bytes :func:`send_frame` puts on a socket.

    Exposed so fault injection (:mod:`repro.transport.faults`) and the
    framing property tests can truncate or corrupt real frames without
    re-implementing the header layout (a ring's are
    ``ShmTransport.encode_frame``).  This *does* concatenate -- the
    hot paths use :func:`encode_header` plus scatter-gather instead.
    """
    return encode_header(msg_type, payload) + payload


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
        self._touched = False

    def __enter__(self) -> "_DeadlineSocket":
        if self.deadline is not None:
            self._saved = self.sock.gettimeout()
            self._touched = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._touched:
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
               timeout: Optional[float] = None) -> None:
    """Write one frame; raises ProtocolError on oversize payloads.

    ``payload`` may be any bytes-like object; header and payload go out
    as one scatter-gather write (``sendmsg``), so the frame is never
    concatenated in user space.  ``timeout`` bounds the whole write;
    expiry raises :class:`~repro.protocol.errors.TimeoutError`.
    """
    header = encode_header(msg_type, payload)
    with _DeadlineSocket(sock, timeout) as guarded:
        if not len(payload):
            guarded.sendall(header, "send")
        elif hasattr(sock, "sendmsg"):
            guarded.send_vectored(header, payload, "send")
        else:  # pragma: no cover - all supported platforms have sendmsg
            guarded.sendall(encode_frame(msg_type, payload), "send")


def _recv_exact(guarded: _DeadlineSocket, count: int,
                what: str) -> bytearray:
    """``count`` bytes received straight into their final buffer: one
    fresh ``bytearray`` the caller owns, no chunk list, no join."""
    out = bytearray(count)
    view = memoryview(out)
    got = 0
    while got < count:
        nbytes = guarded.recv_into(view[got:], what)
        if not nbytes:
            raise ConnectionClosed(
                f"connection closed with {count - got} bytes outstanding"
            )
        got += nbytes
    return out


def checksum_mismatch(msg_type: int, length: int) -> ProtocolError:
    """The error every receiver raises for a frame that fails its CRC."""
    return ProtocolError(f"frame checksum mismatch for message {msg_type} "
                         f"({length}-byte payload)")


def decode_header(header: BytesLike) -> tuple[int, int, int]:
    """``(msg_type, length, crc)`` of a 16-byte header; bad magic or an
    implausible length raises :class:`ProtocolError` -- before a caller
    allocates anything sized by the peer."""
    magic, msg_type, length, crc = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_SIZE:
        raise ProtocolError(f"implausible frame length {length}")
    return msg_type, length, crc


def recv_frame_from(read_exact: Callable[[int, str], bytearray],
                    payload_checked: bool) -> tuple[int, bytearray]:
    """One verified frame from ``read_exact(count, what)`` -- the
    blocking receive shared by the socket and the shm ring.

    ``payload_checked`` is the medium's: a socket folds the payload into
    the header CRC and compares once it has all arrived; a ring compares
    the header CRC alone, before the payload buffer is allocated, and
    never reads the payload bytes it hands back.
    """
    msg_type, length, crc = decode_header(read_exact(HEADER.size, "header"))
    seed = header_crc(msg_type, length)
    if not payload_checked:
        if crc != seed:
            raise checksum_mismatch(msg_type, length)
        return msg_type, read_exact(length, "payload")
    payload = read_exact(length, "payload")
    if crc != zlib.crc32(payload, seed):
        raise checksum_mismatch(msg_type, length)
    return msg_type, payload


def recv_frame(sock: socket.socket,
               timeout: Optional[float] = None) -> tuple[int, bytearray]:
    """Read one frame; returns ``(msg_type, payload)``.

    The payload is a private, mutable ``bytearray`` the bytes were
    received into directly (``recv_into``); the caller owns it.

    Raises :class:`ConnectionClosed` on clean EOF before a header,
    :class:`ProtocolError` on bad magic, implausible length, or a
    checksum mismatch (a corrupted type, length, or payload byte), and
    :class:`~repro.protocol.errors.TimeoutError` when ``timeout``
    seconds elapse before the full frame arrives.
    """
    with _DeadlineSocket(sock, timeout) as guarded:
        return recv_frame_from(functools.partial(_recv_exact, guarded),
                               payload_checked=True)
