"""A framed, thread-safe request/reply connection.

:class:`Channel` is the only place in the reproduction that owns a raw
``socket.socket``.  Client code checks channels out of a
:class:`~repro.transport.pool.ConnectionPool`; server code receives one
per accepted connection from :class:`~repro.transport.endpoint.Endpoint`.
Every operation takes an optional per-call deadline (seconds) that
overrides the channel default and surfaces expiry as
:class:`repro.protocol.errors.TimeoutError`.
"""

from __future__ import annotations

import select
import socket
import threading
from typing import Optional, TYPE_CHECKING, Union

from repro.protocol.framing import BytesLike, HEADER, crc_covers_payload, \
    encode_frame, recv_frame, send_frame

if TYPE_CHECKING:  # annotation only
    from repro.obs import MetricsRegistry
    from repro.transport.shm import ShmTransport
from repro.protocol.messages import (ErrorReply, MessageType,
                                     checked_reply, pack)
from repro.transport import shm as shm_mod

__all__ = ["Channel", "connect"]


class _Unset:
    """Sentinel distinguishing "no timeout" from "use the default"."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<use channel default>"


_DEFAULT = _Unset()


def _note_io(registry: Optional["MetricsRegistry"], direction: str,
             payload_len: int) -> None:
    """Record one framed exchange into a channel's attached registry
    (shared by the sync and asyncio channels)."""
    if registry is None:
        return
    from repro.obs import names

    nbytes = HEADER.size + payload_len
    if direction == "sent":
        registry.counter(names.TRANSPORT_BYTES_SENT,
                         "Framed bytes written, header included"
                         ).inc(nbytes)
        registry.counter(names.TRANSPORT_FRAMES_SENT,
                         "Frames written").inc()
    else:
        registry.counter(names.TRANSPORT_BYTES_RECEIVED,
                         "Framed bytes read, header included"
                         ).inc(nbytes)
        registry.counter(names.TRANSPORT_FRAMES_RECEIVED,
                         "Frames read").inc()


class Channel:
    """One framed TCP connection with per-operation deadlines.

    Parameters
    ----------
    sock:
        A connected socket; the channel takes ownership (``close`` is
        the channel's job from here on).  ``TCP_NODELAY`` is set so the
        small CALL/RESULT headers are not Nagle-delayed.
    timeout:
        Default deadline (seconds) applied to every send/recv unless a
        call passes its own; ``None`` blocks forever (the accepted
        server side of a connection, which must idle between requests).
    remote:
        The ``(host, port)`` this channel dials, recorded so a
        :class:`~repro.transport.pool.ConnectionPool` can route
        ``checkin`` back to the right bucket.

    :attr:`covers_payload` is the sender rule of
    :func:`~repro.protocol.framing.crc_covers_payload`, applied once to
    the socket's peer: a loopback peer gets header-only frames, any
    other the payload CRC (PROTOCOL.md, *Frame format*).

    The :attr:`metrics` attribute (a
    :class:`~repro.obs.MetricsRegistry`, default ``None`` = no
    recording) is set by whoever owns the channel -- the pool on
    checkout, the endpoint on accept -- and receives per-frame
    byte/frame counters (``ninf_transport_*``; see OBSERVABILITY.md).
    """

    def __init__(self, sock: socket.socket,
                 timeout: Optional[float] = None,
                 remote: Optional[tuple[str, int]] = None) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (socketpair in tests) -- fine
        try:
            peer = sock.getpeername()
        except OSError:
            peer = None  # not connected: keep the payload CRC
        self.covers_payload = crc_covers_payload(peer)
        self.sock = sock
        self.timeout = timeout
        self.remote = remote
        self.metrics = None
        self._send_lock = threading.Lock()
        self._recv_lock = threading.Lock()
        self._rpc_lock = threading.RLock()
        self._closed = False
        # Alternate frame medium (repro.transport.shm.ShmTransport),
        # attached in place by the SHM_HELLO negotiation.  The TCP
        # socket stays open for liveness/close but carries no frames
        # once this is set.
        self._io = None

    # -- lifecycle ----------------------------------------------------------

    def attach_io(self, io: "ShmTransport") -> None:
        """Reroute this channel's frames onto ``io`` (an object with
        ``send_frame``/``recv_frame``/``encode_frame``/``sendall``/
        ``healthy``/``shutdown``/``close``,
        e.g. :class:`repro.transport.shm.ShmTransport`).  Existing locks
        and deadline semantics keep applying; the socket remains owned
        and becomes pure liveness signal."""
        with self._send_lock, self._recv_lock:
            self._io = io

    @property
    def via_shm(self) -> bool:
        """Whether frames currently flow over an attached shm medium."""
        return self._io is not None

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the underlying socket and any attached medium
        (idempotent)."""
        self._closed = True
        io = self._io
        if io is not None:
            io.close()
        try:
            self.sock.close()
        except OSError:
            pass

    def shutdown(self) -> None:
        """From another thread: make a blocked :meth:`recv` read EOF, so
        the owning thread closes the channel (and any attached medium)
        itself -- never torn down under it."""
        io = self._io
        if io is not None:
            io.shutdown()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed or never connected

    def __enter__(self) -> "Channel":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def fileno(self) -> int:
        """The underlying socket's file descriptor (for select/poll)."""
        return self.sock.fileno()

    def healthy(self) -> bool:
        """Whether an *idle* channel is still usable for a request.

        A request/reply channel sitting in a pool owes us nothing, so
        any readable byte means the peer closed (EOF pending) or broke
        protocol -- either way the next exchange would fail.  The check
        is a zero-timeout ``select``, cheap enough to run on every
        checkout so the pool never hands out a dead connection.
        """
        if self._closed:
            return False
        io = self._io
        if io is not None and not io.healthy():
            return False
        try:
            readable, _, _ = select.select([self.sock], [], [], 0)
        except (OSError, ValueError):
            return False  # fd already torn down
        return not readable

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<Channel {self.remote or ''} {state}>"

    # -- framed I/O ---------------------------------------------------------

    def _resolve(self, timeout: Union[None, float, _Unset]) -> Optional[float]:
        return self.timeout if isinstance(timeout, _Unset) else timeout

    def send(self, msg_type: int, payload: BytesLike = b"",
             timeout: Union[None, float, _Unset] = _DEFAULT) -> None:
        """Write one frame; safe to call from multiple threads.

        ``payload`` may be any bytes-like object (the encoder's
        ``getbuffer()`` view included) -- it is consumed before return.
        """
        with self._send_lock:
            if self._io is not None:
                self._io.send_frame(msg_type, payload,
                                    timeout=self._resolve(timeout))
            else:
                send_frame(self.sock, msg_type, payload,
                           timeout=self._resolve(timeout),
                           covers_payload=self.covers_payload)
        _note_io(self.metrics, "sent", len(payload))

    def _encode_frame(self, msg_type: int, payload: BytesLike) -> bytes:
        """The bytes :meth:`send` would put on the medium frames flow
        over, framed by that medium's codec (a ring's or a loopback
        socket's ``crc`` word does not cover the payload) -- what fault
        injection cuts and flips."""
        io = self._io
        if io is not None:
            return io.encode_frame(msg_type, payload)
        return encode_frame(msg_type, payload,
                            covers_payload=self.covers_payload)

    def _raw_sendall(self, data: BytesLike,
                     timeout: Optional[float] = None) -> None:
        """Pre-framed bytes onto whatever medium frames flow over.

        The fault-injection seam: :class:`~repro.transport.faults
        .FaultyChannel` writes its truncated/corrupted frames here
        (built by :meth:`_encode_frame`), so every send-applicable fault
        kind hits shm channels like TCP ones.  Callers hold no locks;
        this takes the send lock.
        """
        with self._send_lock:
            if self._io is not None:
                self._io.sendall(data, timeout=timeout)
            else:
                self.sock.sendall(data)

    def recv(self, timeout: Union[None, float, _Unset] = _DEFAULT
             ) -> tuple[int, bytearray]:
        """Read one frame as ``(msg_type, payload)``; the payload is a
        private, mutable buffer the caller owns."""
        with self._recv_lock:
            if self._io is not None:
                msg_type, payload = self._io.recv_frame(
                    timeout=self._resolve(timeout))
            else:
                msg_type, payload = recv_frame(self.sock,
                                               timeout=self._resolve(timeout))
        _note_io(self.metrics, "received", len(payload))
        return msg_type, payload

    def received(self, msg_type: int, payload: bytearray
                 ) -> tuple[int, bytearray]:
        """Take one frame that the endpoint's reactor read off
        :attr:`sock` (its own :class:`~repro.protocol.framing
        .FrameReader`), accounted as :meth:`recv` accounts its own."""
        _note_io(self.metrics, "received", len(payload))
        return msg_type, payload

    def request(self, msg_type: int, payload: BytesLike = b"",
                expect: Optional[int] = None,
                timeout: Union[None, float, _Unset] = _DEFAULT
                ) -> tuple[int, bytearray]:
        """One send + one recv, atomically with respect to other callers.

        An ``ERROR`` reply is decoded and re-raised as
        :class:`~repro.protocol.errors.RemoteError`, a ``BUSY`` reply
        as :class:`~repro.protocol.errors.ServerBusy` (carrying the
        server's retry-after hint); when ``expect`` is given, any other
        reply type raises
        :class:`~repro.protocol.errors.ProtocolError`.
        """
        with self._rpc_lock:
            self.send(msg_type, payload, timeout=timeout)
            reply_type, reply = self.recv(timeout=timeout)
        checked_reply(reply_type, reply, expect)
        return reply_type, reply

    def send_error(self, code: str, message: str) -> None:
        """Reply with a well-formed ``ErrorReply`` frame (server side)."""
        self.send(MessageType.ERROR, pack(
            MessageType.ERROR, ErrorReply(code=code, message=message)))


def connect(host: str, port: int, timeout: Optional[float] = None,
            connect_timeout: Optional[float] = None,
            shm: bool = False) -> Channel:
    """Dial ``host:port`` and wrap the socket in a :class:`Channel`.

    ``connect_timeout`` bounds the TCP handshake only (defaulting to
    ``timeout``); ``timeout`` becomes the channel's per-operation
    default.  This is the single client-side socket factory of the
    whole reproduction.

    ``shm=True`` offers the shared-memory upgrade (PROTOCOL.md
    §"Shared-memory handshake"); the default never does -- a bare dial
    makes no assumption that the peer speaks the Ninf protocol at all.
    A refusal falls back to TCP silently; a handshake that dies
    half-way (no answer in time, connection lost, a reply in another
    ring format) discards the connection and redials plain TCP, so the
    caller always gets a working channel.
    """
    sock = socket.create_connection(
        (host, port),
        timeout=timeout if connect_timeout is None else connect_timeout,
    )
    try:
        sock.settimeout(None)  # per-operation deadlines are framing's job
        channel = Channel(sock, timeout=timeout, remote=(host, port))
    except BaseException:
        # Nothing owns the socket until Channel construction succeeds.
        sock.close()
        raise
    if shm:
        negotiate_timeout = shm_mod.NEGOTIATE_TIMEOUT
        if timeout is not None:
            negotiate_timeout = min(timeout, negotiate_timeout)
        try:
            shm_mod.negotiate(channel, timeout=negotiate_timeout)
        except Exception:
            # Poisoned handshake: the server may already be listening
            # on the rings.  Burn the connection, redial plain TCP.
            channel.close()
            return connect(host, port, timeout=timeout,
                           connect_timeout=connect_timeout)
    return channel
