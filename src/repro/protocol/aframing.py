"""Asyncio framing: the :mod:`repro.protocol.framing` wire format as one
:class:`asyncio.BufferedProtocol` per connection.

Byte-for-byte the same protocol (header, region table, payload, regions;
laid out by the sync layer's ``_frame_pieces``), so a sync client speaks
to an async server and vice versa.  :class:`FrameStream` drives the sync
layer's :class:`~repro.protocol.framing.FrameReader`: ``get_buffer``
hands the event loop the reader's buffer -- the header and count word,
the table, the frame's own ``bytearray``, then each region's native
array -- so the kernel's ``recv_into`` puts payload bytes straight into
what ``read_frame`` returns, and ``buffer_updated`` tells the reader how
many landed.  The
stream adds what an event loop needs: delivery to the waiting reader,
at most one complete frame parked ahead of it (the transport is paused
until it is taken), and deadlines.

The ``crc`` word follows the sync layer's rules (PROTOCOL.md, *Frame
format*): ``connection_made`` applies the sender rule
(``framing.crc_covers_payload``) to the peer's address once, so a
loopback connection writes header-only frames and any other folds the
payload in.  Either form is read, as the reader reads it.

Deadlines match the sync layer: ``timeout`` covers the *whole* frame (a
trickling peer cannot stretch it) and expiry raises the repro
:class:`~repro.protocol.errors.TimeoutError` on every Python version.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Callable, Optional, TypeVar, Union, cast

from repro.protocol.errors import ConnectionClosed, ProtocolError, TimeoutError
from repro.protocol.framing import BytesLike, Frame, FrameReader, \
    _frame_pieces, _gathers, crc_covers_payload
from repro.xdr import bulk

__all__ = ["FrameStream"]

_T = TypeVar("_T")


class FrameStream(asyncio.BufferedProtocol):
    """One framed connection on an event loop: frames in, frames out.

    Pass the class (or a factory closing over ``on_connect``, which
    ``connection_made`` calls with the stream -- how a server learns of
    an accepted connection) to ``loop.create_connection`` /
    ``create_server``.  Loop-affine.  A payload returned by
    :meth:`read_frame` is a private ``bytearray``; one given to
    :meth:`write_frame` must not be mutated until that call returns
    (the transport may still reference it while it drains).
    """

    #: Set by :meth:`connection_made`, before anyone is handed the stream.
    transport: asyncio.Transport

    def __init__(self, on_connect: Optional[
            Callable[["FrameStream"], None]] = None) -> None:
        self._on_connect = on_connect
        self._loop = asyncio.get_running_loop()
        self._frames = FrameReader()
        #: Whether this stream's frames fold their payload into the crc
        #: word: the sender rule, applied in connection_made.
        self.covers_payload = True
        # Delivery: a complete frame (or the checksum error it turned out
        # to be) goes to the waiting reader, else parks in _ready with
        # reading paused.  _failure is terminal: EOF, loss, desync.
        self._ready: Union[None, Frame, ProtocolError] = None
        self._reader: Optional[asyncio.Future[Frame]] = None
        self._failure: Optional[BaseException] = None
        # Send: write-buffer backpressure, and what drain raises once lost.
        self._write_paused = False
        self._drainer: Optional[asyncio.Future[None]] = None
        self._lost: Optional[Exception] = None

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        """Adopt the transport, set ``TCP_NODELAY``, decide what the
        ``crc`` word covers from the peer's address, tell
        ``on_connect``."""
        self.transport = cast(asyncio.Transport, transport)
        self.covers_payload = crc_covers_payload(
            transport.get_extra_info("peername"))
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # not a TCP socket -- fine
        if self._on_connect is not None:
            self._on_connect(self)

    def eof_received(self) -> bool:
        """Peer closed its side: readers fail once a parked frame is taken."""
        self._fail(None)
        return True  # stay open for writing; the owner closes

    def connection_lost(self, exc: Optional[Exception]) -> None:
        """Connection gone: fail the reader and the writer in :meth:`drain`."""
        self._fail(exc)
        self._lost = exc or ConnectionResetError("Connection lost")
        if self._drainer is not None and not self._drainer.done():
            self._drainer.set_exception(self._lost)

    def pause_writing(self) -> None:
        """Write buffer over its high-water mark: :meth:`drain` now waits."""
        self._write_paused = True

    def resume_writing(self) -> None:
        """Write buffer drained: release the writer in :meth:`drain`."""
        self._write_paused = False
        if self._drainer is not None and not self._drainer.done():
            self._drainer.set_result(None)

    def get_buffer(self, sizehint: int) -> memoryview:
        """Where the next bytes go: the reader's buffer."""
        return self._frames.buffer()

    def buffer_updated(self, nbytes: int) -> None:
        """``nbytes`` landed where :meth:`get_buffer` pointed: hand a
        completed frame, or the checksum error it turned out to be, to
        the reader; a desync ends the stream."""
        item: Union[None, Frame, ProtocolError]
        try:
            item = self._frames.advance(nbytes)
        except ProtocolError as error:
            if not self._frames.at_boundary:
                # Frame boundaries are lost: nothing after it is read.
                self.transport.pause_reading()
                self._fail(error)
                return
            item = error
        if item is None:
            return
        reader = self._reader
        if reader is None or reader.done():
            self._ready = item
            self.transport.pause_reading()
        elif isinstance(item, ProtocolError):
            reader.set_exception(item)
        else:
            reader.set_result(item)

    def _fail(self, error: Optional[BaseException]) -> None:
        """Terminal: ``error``, or (None) EOF with what was outstanding."""
        if self._failure is None:
            self._failure = error or ConnectionClosed(
                f"connection closed with {self._frames.outstanding} bytes "
                f"outstanding")
        if self._reader is not None and not self._reader.done():
            self._reader.set_exception(self._failure)

    # -- the frame API -------------------------------------------------------

    def idle(self) -> bool:
        """Whether the connection is intact and owes the reader nothing:
        no EOF or error seen, no parked frame, no partial one (between
        request/reply exchanges anything else means the peer closed or
        broke protocol)."""
        return (self._failure is None and self._ready is None
                and self._frames.at_boundary)

    async def read_frame(self, timeout: Optional[float] = None) -> Frame:
        """Read one frame; returns ``(msg_type, payload)``.

        Raises :class:`ConnectionClosed` on EOF (naming the bytes still
        outstanding), :class:`ProtocolError` on bad magic, implausible
        length, or a checksum mismatch, and
        :class:`~repro.protocol.errors.TimeoutError` when ``timeout``
        seconds elapse before the full frame arrives -- the exact
        contract of the sync :func:`repro.protocol.framing.recv_frame`.
        One reader at a time.
        """
        if timeout is not None and timeout <= 0:
            raise TimeoutError(
                f"frame {self._frames.receiving} deadline expired")
        item = self._ready
        if item is not None:
            self._ready = None
            if self._failure is None:
                self.transport.resume_reading()
            if isinstance(item, ProtocolError):
                raise item
            return item
        if self._failure is not None:
            raise self._failure
        self._reader = reader = self._loop.create_future()
        try:
            return await self._bounded(reader, timeout, None)
        finally:
            self._reader = None

    async def write_frame(self, msg_type: int,
                          payload: Union[BytesLike, bulk.Payload] = b"",
                          timeout: Optional[float] = None) -> None:
        """Write one frame; raises ProtocolError on oversize payloads.

        ``payload`` may be any bytes-like object, or a
        :class:`~repro.xdr.bulk.Payload`, whose regions are converted
        :data:`~repro.protocol.framing.PIECE` bytes at a time, each piece
        into a buffer of its own (the transport may hold what it is
        given until it is written); the bytes around them are handed to
        the transport as they are, never joined.
        ``timeout`` bounds the whole write, the wait for transport
        backpressure to clear included; expiry raises
        :class:`~repro.protocol.errors.TimeoutError`.
        """
        pieces = _frame_pieces(msg_type, payload, self.covers_payload)
        if timeout is not None and timeout <= 0:
            raise TimeoutError("frame send deadline expired")
        for gather in _gathers(pieces, fresh=True):
            for buffer in gather:
                self.transport.write(buffer)
        await self.drain(timeout)

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Wait until the transport's write buffer is below its
        high-water mark; raises the connection's error if it was lost.
        One writer at a time (the channel's send lock)."""
        if self._lost is not None:
            raise self._lost
        if self._write_paused:
            self._drainer = drainer = self._loop.create_future()
            try:
                await self._bounded(drainer, timeout, "send")
            finally:
                self._drainer = None

    # -- deadlines -----------------------------------------------------------

    async def _bounded(self, waiter: "asyncio.Future[_T]",
                       timeout: Optional[float], what: Optional[str]) -> _T:
        """Await ``waiter`` with one timer; ``what`` None = whichever part
        of a frame is being received when the timer fires."""
        if timeout is None:
            return await waiter

        def expire() -> None:
            if not waiter.done():
                waiter.set_exception(TimeoutError(
                    f"frame {what or self._frames.receiving} timed out"))
        timer = self._loop.call_later(timeout, expire)
        try:
            return await waiter
        finally:
            timer.cancel()
