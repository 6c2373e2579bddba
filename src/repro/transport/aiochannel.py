"""The asyncio twin of :class:`~repro.transport.channel.Channel`.

:class:`AsyncChannel` speaks the identical wire protocol (via
:class:`repro.protocol.aframing.FrameStream`, which receives each
payload straight into its final buffer) with the identical deadline and error
semantics, but multiplexes thousands of connections on one event loop
instead of parking a thread per socket.  Within a loop, coroutine
interleaving replaces thread preemption, so the channel's send/recv/rpc
critical sections are :class:`asyncio.Lock` instances -- never
``threading`` locks, which would deadlock the loop (ninf-lint's
``await-under-lock`` rule enforces this project-wide).

:class:`AsyncFaultyChannel` applies the
:class:`~repro.transport.faults.FaultStep` that
:meth:`FaultPlan.step <repro.transport.faults.FaultPlan.step>` computes
-- the partition check, the draw, the outcome -- exactly as
:class:`~repro.transport.faults.FaultyChannel` does, sleeping and
writing with ``await``; a chaos seed and a partition map fault either
driver alike.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Union

from repro.protocol.aframing import FrameStream
from repro.protocol.errors import TimeoutError
from repro.protocol.framing import BytesLike, encode_frame
from repro.protocol.messages import checked_reply
from repro.transport.channel import _DEFAULT, _Metered, _Unset
from repro.transport.faults import FaultPlan

__all__ = ["AsyncChannel", "AsyncFaultyChannel", "aconnect",
           "aconnect_with_faults"]


class AsyncChannel(_Metered):
    """One framed connection on an event loop, Channel-equivalent.

    Owns a connected :class:`~repro.protocol.aframing.FrameStream`
    (which sets ``TCP_NODELAY``) and applies the channel-default
    ``timeout`` to every operation unless a call passes its own (the
    same ``_DEFAULT`` sentinel protocol as the sync
    :class:`~repro.transport.channel.Channel`).  All methods must run
    on the loop that created the stream; other threads reach a served
    connection through its endpoint ``Connection`` (DESIGN.md §3.6).

    Buffer ownership (DESIGN.md §3.1): :meth:`recv` returns a private,
    mutable ``bytearray``; a payload passed to :meth:`send` must not be
    mutated until ``send`` returns.
    """

    def __init__(self, stream: FrameStream,
                 timeout: Optional[float] = None,
                 remote: Optional[tuple[str, int]] = None) -> None:
        self.stream = stream
        self.timeout = timeout
        self.remote = remote
        self._send_lock = asyncio.Lock()
        self._recv_lock = asyncio.Lock()
        self._rpc_lock = asyncio.Lock()
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drop the transport (idempotent, synchronous, loop-affine)."""
        self._closed = True
        try:
            self.stream.transport.close()
        except (OSError, RuntimeError):
            pass

    async def __aenter__(self) -> "AsyncChannel":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self.close()

    def fileno(self) -> int:
        """The underlying socket's file descriptor (for diagnostics)."""
        sock = self.stream.transport.get_extra_info("socket")
        if sock is None:
            raise OSError("transport has no socket")
        return sock.fileno()

    def healthy(self) -> bool:
        """Whether an *idle* channel is still usable for a request.

        The loop eagerly drains readable bytes into the frame stream,
        so the sync channel's zero-timeout ``select`` probe translates
        to: not closed, no EOF seen, and nothing received (an idle
        request/reply channel owes us no bytes; anything pending means
        the peer closed or broke protocol).
        """
        return not self._closed and self.stream.idle()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<AsyncChannel {self.remote or ''} {state}>"

    # -- framed I/O ---------------------------------------------------------

    def _resolve(self, timeout: Union[None, float, _Unset]) -> Optional[float]:
        return self.timeout if isinstance(timeout, _Unset) else timeout

    def _check_open(self) -> None:
        # Same observable as the sync channel, where I/O on a locally
        # closed socket raises EBADF: local close -> OSError, only a
        # *peer* close reads as ConnectionClosed.
        if self._closed:
            raise OSError("I/O operation on closed channel")

    async def send(self, msg_type: int, payload: BytesLike = b"",
                   timeout: Union[None, float, _Unset] = _DEFAULT) -> None:
        """Write one frame; safe to call from multiple tasks."""
        self._check_open()
        async with self._send_lock:
            await self.stream.write_frame(msg_type, payload,
                                          timeout=self._resolve(timeout))
        self._note_io(self._sent, len(payload))

    async def recv(self, timeout: Union[None, float, _Unset] = _DEFAULT
                   ) -> tuple[int, bytearray]:
        """Read one frame as ``(msg_type, payload)``."""
        self._check_open()
        async with self._recv_lock:
            msg_type, payload = await self.stream.read_frame(
                timeout=self._resolve(timeout))
        self._note_io(self._received, len(payload))
        return msg_type, payload

    async def request(self, msg_type: int, payload: BytesLike = b"",
                      expect: Optional[int] = None,
                      timeout: Union[None, float, _Unset] = _DEFAULT
                      ) -> tuple[int, bytearray]:
        """One send + one recv, atomically with respect to other tasks.

        Reply decoding matches :meth:`Channel.request`: ``ERROR`` ->
        :class:`RemoteError`, ``BUSY`` -> :class:`ServerBusy`, and an
        ``expect`` mismatch -> :class:`ProtocolError`.
        """
        async with self._rpc_lock:
            await self.send(msg_type, payload, timeout=timeout)
            reply_type, reply = await self.recv(timeout=timeout)
        checked_reply(reply_type, reply, expect)
        return reply_type, reply


async def aconnect(host: str, port: int, timeout: Optional[float] = None,
                   connect_timeout: Optional[float] = None) -> AsyncChannel:
    """Dial ``host:port`` on the running loop; the async ``connect``.

    ``connect_timeout`` bounds the TCP handshake only (defaulting to
    ``timeout``); ``timeout`` becomes the channel's per-operation
    default.  Handshake expiry raises the repro
    :class:`~repro.protocol.errors.TimeoutError`, never a bare
    ``asyncio.TimeoutError``.
    """
    return AsyncChannel(await _dial(host, port, timeout, connect_timeout),
                        timeout=timeout, remote=(host, port))


async def _dial(host: str, port: int, timeout: Optional[float],
                connect_timeout: Optional[float]) -> FrameStream:
    budget = timeout if connect_timeout is None else connect_timeout
    try:
        _transport, stream = await asyncio.wait_for(
            asyncio.get_running_loop().create_connection(
                FrameStream, host, port), budget)
    except asyncio.TimeoutError:
        raise TimeoutError(
            f"connect to {host}:{port} timed out after {budget}s") from None
    return stream


class AsyncFaultyChannel(AsyncChannel):
    """An :class:`AsyncChannel` whose I/O applies a fault plan's steps.

    Observable semantics are those of the sync
    :class:`~repro.transport.faults.FaultyChannel`, kind for kind and
    partition for partition: both apply the steps of
    :meth:`FaultPlan.step <repro.transport.faults.FaultPlan.step>`, so
    chaos seeds replay the same schedule on either transport.
    """

    def __init__(self, stream: FrameStream, plan: FaultPlan,
                 timeout: Optional[float] = None,
                 remote: Optional[tuple[str, int]] = None) -> None:
        super().__init__(stream, timeout=timeout, remote=remote)
        self.plan = plan

    async def send(self, msg_type: int, payload: BytesLike = b"",
                   timeout: Union[None, float, _Unset] = _DEFAULT) -> None:
        """Send one frame, subject to the plan's send-applicable faults."""
        # Framed as the stream frames (header-only on loopback), so
        # CORRUPT flips a byte where the peer's check looks.
        step = self.plan.step("send", self.remote, lambda: encode_frame(
            msg_type, payload, covers_payload=self.stream.covers_payload))
        if step.delay:
            await asyncio.sleep(step.delay)
        if step.clean:
            await super().send(msg_type, payload, timeout=timeout)
        elif step.data is not None:
            await self._write_raw(step.data)
        step.settle(self.close)

    async def _write_raw(self, data: bytes) -> None:
        async with self._send_lock:
            self.stream.transport.write(data)
            try:
                await self.stream.drain()
            except OSError:
                pass  # injected writes are best-effort, like raw sendall

    async def recv(self, timeout: Union[None, float, _Unset] = _DEFAULT
                   ) -> tuple[int, bytearray]:
        """Receive one frame, subject to delay/drop faults."""
        step = self.plan.step("recv", self.remote)
        if step.delay:
            await asyncio.sleep(step.delay)
        step.settle(self.close)
        return await super().recv(timeout=timeout)


async def aconnect_with_faults(plan: FaultPlan, host: str, port: int,
                               timeout: Optional[float] = None,
                               connect_timeout: Optional[float] = None
                               ) -> AsyncFaultyChannel:
    """The async :meth:`FaultPlan.connector`: dial faults + faulty channel."""
    step = plan.step("dial", (host, port))
    if step.delay:
        await asyncio.sleep(step.delay)
    step.settle()
    return AsyncFaultyChannel(
        await _dial(host, port, timeout, connect_timeout), plan,
        timeout=timeout, remote=(host, port))
