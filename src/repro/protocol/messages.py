"""Typed protocol messages and their XDR encodings."""

from __future__ import annotations

import enum
import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import Optional

from repro.protocol.errors import ProtocolError, RemoteError, ServerBusy
from repro.protocol.framing import BytesLike
from repro.xdr import XdrDecoder, XdrEncoder, XdrError

__all__ = [
    "BusyReply",
    "CallHeader",
    "DirectoryDelta",
    "ErrorReply",
    "JobTimestamps",
    "LoadReply",
    "LoadReport",
    "MAX_PICK_ITEMS",
    "MessageType",
    "PickRequest",
    "ServerInfo",
    "SyncMessage",
    "checked_reply",
]


#: ``CallHeader.attempt`` + ``CallHeader.budget`` as they sit on the wire.
_ATTEMPT_TAIL = struct.Struct(">Id")


class MessageType(enum.IntEnum):
    """Frame type codes.  Values are wire-stable; do not renumber."""

    HELLO = 1
    HELLO_REPLY = 2
    INTERFACE_REQUEST = 3
    INTERFACE_REPLY = 4
    CALL = 5
    RESULT = 6
    ERROR = 7
    PING = 8
    PONG = 9
    LIST_REQUEST = 10
    LIST_REPLY = 11
    LOAD_QUERY = 12
    LOAD_REPLY = 13
    # Two-phase RPC (§5.1): upload arguments, disconnect, fetch later.
    CALL_DETACHED = 14
    CALL_ACCEPTED = 15
    FETCH_RESULT = 16
    RESULT_PENDING = 17
    # Server -> client progress callback during a held-open CALL (§2.3's
    # optional "client callback functions").
    CALLBACK = 18
    # Observability (OBSERVABILITY.md): fetch a remote metrics snapshot
    # from any Endpoint (server or metaserver).  The STATS payload is an
    # optional XDR string naming the exposition format ("json" default,
    # or "prom"); STATS_REPLY is format-string + rendered-snapshot
    # string.  Pre-registered on every Endpoint, like PING.
    STATS = 19
    # Metaserver messages.
    MS_REGISTER = 20
    MS_UNREGISTER = 21
    MS_LOOKUP = 22
    MS_LOOKUP_REPLY = 23
    MS_PICK = 24
    MS_PICK_REPLY = 25
    MS_REPORT = 26
    MS_LIST = 27
    MS_LIST_REPLY = 28
    MS_OK = 29
    STATS_REPLY = 30
    # Resilience (DESIGN.md §3.5): a server that sheds an over-budget or
    # over-capacity call answers BUSY (retry-after hint) instead of
    # queueing it; a client whose deadline expires on a detached call
    # sends CANCEL so the server can drop the still-queued job.
    BUSY = 31
    CANCEL = 32
    CANCEL_REPLY = 33
    # Shared-memory same-host transport (PROTOCOL.md §"Shared-memory
    # handshake"): a client that believes it shares a host with the
    # server sends SHM_HELLO over TCP; a server with shm enabled
    # allocates a ring pair and answers SHM_HELLO_REPLY with the
    # segment names, after which both sides carry frames over the rings
    # (same MAGIC|type|len|crc format).  Any other reply -- ERROR from
    # an older or shm-disabled server -- means "keep using TCP".
    SHM_HELLO = 34
    SHM_HELLO_REPLY = 35
    # Partition-tolerant directory (DESIGN.md §3.7): servers *push*
    # signed load reports with a lease TTL to every configured
    # metaserver replica (MS_HEARTBEAT), replacing poll-per-interval as
    # the primary liveness signal; replicas anti-entropy their
    # directories with versioned deltas (MS_SYNC / MS_SYNC_REPLY,
    # last-writer-wins on per-server sequence numbers) so any replica
    # answers MS_PICK and a restarted replica converges from its peers.
    MS_HEARTBEAT = 36
    MS_SYNC = 37
    MS_SYNC_REPLY = 38


PROTOCOL_VERSION = 3


@dataclass(frozen=True)
class CallHeader:
    """Prefix of a CALL / CALL_DETACHED payload.

    ``call_id`` is the client-chosen numeric id echoed in the RESULT;
    the resilience fields (protocol v3, DESIGN.md §3.5) ride after it:

    - ``logical_id`` identifies the *logical* call across retries (a
      UUID hex string; empty = client opted out of dedup);
    - ``attempt`` is the 1-based attempt number for this logical call;
    - ``budget`` is the client's remaining deadline budget in seconds,
      *relative* so clock skew cannot corrupt it (0 = no deadline).
      The server converts it to an absolute deadline on its own
      monotonic clock at receipt.
    """

    function: str
    call_id: int
    logical_id: str = ""
    attempt: int = 1
    budget: float = 0.0

    def encode(self, enc: XdrEncoder) -> None:
        """Append the wire form to an encoder."""
        enc.pack_string(self.function)
        enc.pack_uhyper(self.call_id)
        enc.pack_string(self.logical_id)
        enc.pack_uint(self.attempt)
        enc.pack_double(self.budget)

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "CallHeader":
        """Read the wire form from a decoder."""
        return cls(
            function=dec.unpack_string(),
            call_id=dec.unpack_uhyper(),
            logical_id=dec.unpack_string(),
            attempt=dec.unpack_uint(),
            budget=dec.unpack_double(),
        )

    @staticmethod
    def restamp(enc: XdrEncoder, end: int, attempt: int,
                budget: float) -> None:
        """Rewrite ``attempt`` and ``budget`` of a header already encoded
        into ``enc`` and ending at offset ``end``: the fixed-size tail of
        the wire form and the only bytes that differ between attempts of
        one logical call, so a retry re-sends the payload it already
        marshalled instead of encoding the arguments again."""
        _ATTEMPT_TAIL.pack_into(enc.getbuffer(), end - _ATTEMPT_TAIL.size,
                                attempt, budget)


@dataclass(frozen=True)
class JobTimestamps:
    """Server-side times of one call, in the server's clock (seconds).

    These are the paper's measured quantities: ``T_enqueue`` (accepted at
    the server), ``T_dequeue`` (executable invoked), ``T_complete``.
    The response and wait times of the tables derive from them.
    """

    enqueue: float
    dequeue: float
    complete: float

    @property
    def wait(self) -> float:
        """The paper's ``T_wait = T_dequeue - T_enqueue``."""
        return self.dequeue - self.enqueue

    @property
    def service(self) -> float:
        return self.complete - self.dequeue

    def encode(self, enc: XdrEncoder) -> None:
        """Append the wire form to an encoder."""
        enc.pack_double(self.enqueue)
        enc.pack_double(self.dequeue)
        enc.pack_double(self.complete)

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "JobTimestamps":
        """Read the wire form from a decoder."""
        return cls(enqueue=dec.unpack_double(), dequeue=dec.unpack_double(),
                   complete=dec.unpack_double())


@dataclass(frozen=True)
class ErrorReply:
    """ERROR payload: machine-readable code plus human message."""

    code: str
    message: str

    def encode(self, enc: XdrEncoder) -> None:
        """Append the wire form to an encoder."""
        enc.pack_string(self.code)
        enc.pack_string(self.message)

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "ErrorReply":
        """Read the wire form from a decoder."""
        return cls(code=dec.unpack_string(), message=dec.unpack_string())


@dataclass(frozen=True)
class BusyReply:
    """BUSY payload: the server shed this call instead of queueing it.

    ``retry_after`` is the server's estimate (seconds) of when capacity
    frees up — clients should wait at least this long before retrying
    here; ``reason`` is a short slug (``"queue-full"``,
    ``"deadline-unmeetable"``, ``"deadline-expired"``).
    """

    retry_after: float
    reason: str

    def encode(self, enc: XdrEncoder) -> None:
        """Append the wire form to an encoder."""
        enc.pack_double(self.retry_after)
        enc.pack_string(self.reason)

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "BusyReply":
        """Read the wire form from a decoder."""
        return cls(retry_after=dec.unpack_double(), reason=dec.unpack_string())


@dataclass(frozen=True)
class LoadReply:
    """LOAD_REPLY payload: the server-state snapshot the metaserver polls.

    The paper's metaserver "keeps track of server load/availability,
    network bandwidth, etc."; this message is the load half.
    """

    num_pes: int
    running: int
    queued: int
    load_average: float
    completed: int

    def encode(self, enc: XdrEncoder) -> None:
        """Append the wire form to an encoder."""
        enc.pack_uint(self.num_pes)
        enc.pack_uint(self.running)
        enc.pack_uint(self.queued)
        enc.pack_double(self.load_average)
        enc.pack_uhyper(self.completed)

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "LoadReply":
        """Read the wire form from a decoder."""
        return cls(
            num_pes=dec.unpack_uint(),
            running=dec.unpack_uint(),
            queued=dec.unpack_uint(),
            load_average=dec.unpack_double(),
            completed=dec.unpack_uhyper(),
        )


@dataclass(frozen=True)
class ServerInfo:
    """A computational server as known to the metaserver."""

    name: str
    host: str
    port: int
    num_pes: int
    functions: tuple[str, ...]

    def encode(self, enc: XdrEncoder) -> None:
        """Append the wire form to an encoder."""
        enc.pack_string(self.name)
        enc.pack_string(self.host)
        enc.pack_uint(self.port)
        enc.pack_uint(self.num_pes)
        enc.pack_array(self.functions, enc.pack_string)

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "ServerInfo":
        """Read the wire form from a decoder."""
        return cls(
            name=dec.unpack_string(),
            host=dec.unpack_string(),
            port=dec.unpack_uint(),
            num_pes=dec.unpack_uint(),
            functions=tuple(dec.unpack_array(dec.unpack_string)),
        )


#: Most excluded servers, and most piggybacked observations, one MS_PICK
#: may carry: the metaserver refuses a larger count before decoding an
#: element, and ``MetaClient`` queues no more unsent observations.
MAX_PICK_ITEMS = 64


def _pick_items(dec: XdrDecoder, unpack_item) -> tuple:
    count = dec.unpack_uint() if dec.remaining else 0   # absent: old picker
    if count > MAX_PICK_ITEMS:
        raise XdrError(f"MS_PICK list of {count} items, at most "
                       f"{MAX_PICK_ITEMS} allowed")
    return tuple(dec.unpack_farray(count, unpack_item))


@dataclass(frozen=True)
class PickRequest:
    """MS_PICK payload: a call estimate, the ``(host, port)`` servers
    the placement must avoid (failover re-pick, DESIGN.md §3.5), and
    the bandwidths ``(host, port, site, bytes_per_second)`` the caller's
    earlier calls achieved -- each what one MS_REPORT carries -- which
    the metaserver folds in *before* it places this call.  Both lists
    trail the fixed fields and an older picker sends neither, or one.
    """

    function: str
    comm_bytes: float = 0.0
    flops: Optional[float] = None
    site: str = "default"
    exclude: tuple[tuple[str, int], ...] = ()
    observations: tuple[tuple[str, int, str, float], ...] = ()

    def encode(self, enc: XdrEncoder) -> None:
        """Append the wire form to an encoder."""
        enc.pack_string(self.function)
        enc.pack_double(self.comm_bytes)
        enc.pack_bool(self.flops is not None)
        if self.flops is not None:
            enc.pack_double(self.flops)
        enc.pack_string(self.site)
        enc.pack_uint(len(self.exclude))
        for host, port in self.exclude:
            enc.pack_string(host)
            enc.pack_uint(port)
        enc.pack_uint(len(self.observations))
        for host, port, site, bandwidth in self.observations:
            enc.pack_string(host)
            enc.pack_uint(port)
            enc.pack_string(site)
            enc.pack_double(bandwidth)

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "PickRequest":
        """Read the wire form from a decoder."""
        function = dec.unpack_string()
        comm_bytes = dec.unpack_double()
        has_flops = dec.unpack_bool()
        flops = dec.unpack_double() if has_flops else None
        site = dec.unpack_string()
        exclude = _pick_items(
            dec, lambda: (dec.unpack_string(), dec.unpack_uint()))
        observations = _pick_items(
            dec, lambda: (dec.unpack_string(), dec.unpack_uint(),
                          dec.unpack_string(), dec.unpack_double()))
        return cls(function, comm_bytes, flops, site, exclude, observations)


@dataclass(frozen=True)
class LoadReport:
    """MS_HEARTBEAT payload: a server's pushed, leased load report.

    The push replaces the metaserver's poll-per-interval as the primary
    liveness signal (DESIGN.md §3.7).  ``seq`` orders reports from the
    same server across replicas and restarts (last-writer-wins: the
    reporter derives it from a wall-clock epoch so a restarted server
    supersedes its pre-restart reports); ``lease`` is the TTL in
    seconds -- *relative*, so clock skew cannot corrupt it -- after
    which the receiving replica falls back to polling this server.
    ``signature`` is an HMAC-SHA256 of the body under the deployment's
    shared secret (empty = unsigned; a metaserver configured with a
    secret rejects unsigned or mis-signed reports).
    """

    info: ServerInfo
    load: LoadReply
    seq: int
    lease: float
    signature: bytes = b""

    def body_bytes(self) -> bytes:
        """The signed portion of the wire form (everything but the
        signature), used on both sides of HMAC verification."""
        enc = XdrEncoder()
        self.info.encode(enc)
        self.load.encode(enc)
        enc.pack_uhyper(self.seq)
        enc.pack_double(self.lease)
        return enc.getvalue()

    def encode(self, enc: XdrEncoder) -> None:
        """Append the wire form to an encoder."""
        self.info.encode(enc)
        self.load.encode(enc)
        enc.pack_uhyper(self.seq)
        enc.pack_double(self.lease)
        enc.pack_opaque(self.signature)

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "LoadReport":
        """Read the wire form from a decoder."""
        return cls(
            info=ServerInfo.decode(dec),
            load=LoadReply.decode(dec),
            seq=dec.unpack_uhyper(),
            lease=dec.unpack_double(),
            signature=dec.unpack_opaque(),
        )

    def signed(self, secret: bytes) -> "LoadReport":
        """A copy of this report carrying a fresh HMAC-SHA256 signature."""
        digest = hmac.new(secret, self.body_bytes(), hashlib.sha256).digest()
        return LoadReport(info=self.info, load=self.load, seq=self.seq,
                          lease=self.lease, signature=digest)

    def verify(self, secret: Optional[bytes]) -> bool:
        """Whether the signature matches under ``secret``.

        ``secret=None`` (an unsecured deployment) accepts everything;
        a configured secret requires a matching HMAC -- comparison is
        constant-time (``hmac.compare_digest``).
        """
        if secret is None:
            return True
        expected = hmac.new(secret, self.body_bytes(),
                            hashlib.sha256).digest()
        return hmac.compare_digest(expected, self.signature)


@dataclass(frozen=True)
class DirectoryDelta:
    """One server's directory state as gossiped between replicas.

    ``lease_remaining`` is relative (seconds of lease left as seen by
    the sending replica; ``<= 0`` means expired or never leased) so the
    receiver can re-anchor it on its own clock.  ``seq`` carries the
    last-writer-wins version; a receiver keeps whichever record of a
    server has the higher ``seq``.
    """

    info: ServerInfo
    seq: int
    lease_remaining: float
    alive: bool
    load: Optional[LoadReply] = None

    def encode(self, enc: XdrEncoder) -> None:
        """Append the wire form to an encoder."""
        self.info.encode(enc)
        enc.pack_uhyper(self.seq)
        enc.pack_double(self.lease_remaining)
        enc.pack_bool(self.alive)
        enc.pack_bool(self.load is not None)
        if self.load is not None:
            self.load.encode(enc)

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "DirectoryDelta":
        """Read the wire form from a decoder."""
        info = ServerInfo.decode(dec)
        seq = dec.unpack_uhyper()
        lease_remaining = dec.unpack_double()
        alive = dec.unpack_bool()
        load = LoadReply.decode(dec) if dec.unpack_bool() else None
        return cls(info=info, seq=seq, lease_remaining=lease_remaining,
                   alive=alive, load=load)


@dataclass(frozen=True)
class SyncMessage:
    """MS_SYNC / MS_SYNC_REPLY payload: one replica's directory deltas.

    Gossip is symmetric anti-entropy: the caller sends its full delta
    set, the callee merges it (last-writer-wins on ``seq``) and answers
    with its own, so one round trip converges both directions.
    ``origin`` names the sending replica (loop suppression + metrics).
    """

    origin: str
    deltas: tuple[DirectoryDelta, ...]

    def encode(self, enc: XdrEncoder) -> None:
        """Append the wire form to an encoder."""
        enc.pack_string(self.origin)
        enc.pack_uint(len(self.deltas))
        for delta in self.deltas:
            delta.encode(enc)

    @classmethod
    def decode(cls, dec: XdrDecoder) -> "SyncMessage":
        """Read the wire form from a decoder."""
        origin = dec.unpack_string()
        count = dec.unpack_uint()
        return cls(origin=origin,
                   deltas=tuple(DirectoryDelta.decode(dec)
                                for _ in range(count)))


def checked_reply(reply_type: int, reply: BytesLike,
                  expect: Optional[int] = None) -> BytesLike:
    """The reply convention of every requester: an ``ERROR`` reply is
    raised as :class:`RemoteError`, a ``BUSY`` reply as
    :class:`ServerBusy` (carrying the server's retry-after hint), any
    other type than ``expect`` (when given) as :class:`ProtocolError`;
    otherwise the payload is handed back."""
    if reply_type == MessageType.ERROR:
        err = ErrorReply.decode(XdrDecoder(reply))
        raise RemoteError(err.code, err.message)
    if reply_type == MessageType.BUSY:
        busy = BusyReply.decode(XdrDecoder(reply))
        raise ServerBusy(busy.reason, retry_after=busy.retry_after)
    if expect is not None and reply_type != expect:
        raise ProtocolError(f"expected message {expect}, got {reply_type}")
    return reply
