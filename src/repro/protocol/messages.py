"""Typed protocol messages, each wire layout declared once.

Every record has one :class:`~repro.xdr.record.Struct` beside its
dataclass and every :class:`MessageType` one entry in :data:`WIRE`;
:func:`pack` and :func:`unpack` are the only codec the rest of the tree
uses for a control-message payload, and PROTOCOL.md's op table and the
property tests are rendered from the same declarations
(:func:`describe`).
"""

from __future__ import annotations

import enum
import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.idl.signature import SIGNATURE
from repro.protocol.errors import ProtocolError, RemoteError, ServerBusy
from repro.protocol.framing import BytesLike
from repro.xdr import XdrDecoder, XdrEncoder
from repro.xdr.bulk import Payload
from repro.xdr.record import (Array, Option, Struct, body, bool_, double,
                              double_above, opaque, string, uhyper, uint)

__all__ = [
    "BusyReply",
    "CallHeader",
    "DirectoryDelta",
    "ErrorReply",
    "JobTimestamps",
    "LoadReply",
    "LoadReport",
    "MAX_DIRECTORY_ITEMS",
    "MAX_PICK_ITEMS",
    "MessageType",
    "PickRequest",
    "ServerInfo",
    "SyncMessage",
    "WIRE",
    "checked_reply",
    "describe",
    "pack",
    "unpack",
]


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
    # from any Endpoint (server or metaserver), in the named exposition
    # format.  Pre-registered on every Endpoint, like PING.
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
    # handshake"): a client that shares a host with the server sends
    # SHM_HELLO over TCP; the threaded server allocates a ring pair and
    # answers SHM_HELLO_REPLY with the segment names, after which both
    # sides carry frames over the rings (same MAGIC|type|len|crc
    # header).  Any other reply -- ERROR from a server that cannot take
    # the hello or does not negotiate -- means "keep using TCP".
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


PROTOCOL_VERSION = 4


@dataclass(frozen=True)
class CallHeader:
    """Prefix of a CALL / CALL_DETACHED payload.

    ``call_id`` is the client-chosen numeric id echoed in the RESULT;
    the resilience fields (protocol v3, DESIGN.md §3.5) ride after it:

    - ``logical_id`` identifies the *logical* call across retries (a
      128-bit random hex string; empty = client opted out of dedup);
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


#: Its trailing fixed run (``CALL_HEADER.tail``: ``attempt`` + ``budget``)
#: is all that differs between attempts of one logical call, so a retry
#: rewrites those bytes in the payload it already marshalled.
CALL_HEADER = Struct(string("function"), uhyper("call_id"),
                     string("logical_id"), uint("attempt"), double("budget"),
                     make=CallHeader)


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


JOB_TIMESTAMPS = Struct(double("enqueue"), double("dequeue"),
                        double("complete"), make=JobTimestamps)


@dataclass(frozen=True)
class ErrorReply:
    """ERROR payload: machine-readable code plus human message."""

    code: str
    message: str


ERROR_REPLY = Struct(string("code"), string("message"), make=ErrorReply)


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


BUSY_REPLY = Struct(double("retry_after"), string("reason"), make=BusyReply)


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


LOAD_REPLY = Struct(uint("num_pes"), uint("running"), uint("queued"),
                    double("load_average"), uhyper("completed"),
                    make=LoadReply)

#: Most functions one server, servers one directory reply, and deltas
#: one gossip message may list.
MAX_DIRECTORY_ITEMS = 4096


@dataclass(frozen=True)
class ServerInfo:
    """A computational server as known to the metaserver."""

    name: str
    host: str
    port: int
    num_pes: int
    functions: tuple[str, ...]


SERVER_INFO = Struct(string("name"), string("host"), uint("port"),
                     uint("num_pes"),
                     Array(string, MAX_DIRECTORY_ITEMS)("functions"),
                     make=ServerInfo)

#: Most excluded servers, and most piggybacked observations, one MS_PICK
#: may carry: the declaration below refuses a larger count before
#: decoding an element, and ``MetaClient`` queues no more unsent
#: observations.  (Either count above it is answered ``bad-request``.)
MAX_PICK_ITEMS = 64

#: A server as a directory key: what MS_UNREGISTER names and what an
#: MS_PICK excludes.
SERVER_KEY = Struct(string("host"), uint("port"))

#: One achieved-bandwidth observation: what one MS_REPORT carries, and
#: each item an MS_PICK piggybacks.  A bandwidth that is not a finite
#: positive number would poison the site's EWMA (NaN) or divide by zero
#: in the bandwidth-aware scheduler, so it never decodes.
OBSERVATION = Struct(string("host"), uint("port"), string("site"),
                     double_above(0.0)("bandwidth"))


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


PICK_REQUEST = Struct(
    string("function"), double("comm_bytes"), Option(double)("flops"),
    string("site"), Array(SERVER_KEY, MAX_PICK_ITEMS)("exclude", ()),
    Array(OBSERVATION, MAX_PICK_ITEMS)("observations", ()),
    make=PickRequest)


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
        _LOAD_REPORT_BODY.pack(enc, self)
        return enc.getvalue()

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


LOAD_REPORT = Struct(SERVER_INFO("info"), LOAD_REPLY("load"), uhyper("seq"),
                     double("lease"), opaque("signature"), make=LoadReport)
_LOAD_REPORT_BODY = Struct(*LOAD_REPORT.fields[:-1], make=LoadReport)


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


DIRECTORY_DELTA = Struct(SERVER_INFO("info"), uhyper("seq"),
                         double("lease_remaining"), bool_("alive"),
                         Option(LOAD_REPLY)("load"), make=DirectoryDelta)


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


SYNC_MESSAGE = Struct(string("origin"),
                      Array(DIRECTORY_DELTA, MAX_DIRECTORY_ITEMS)("deltas"),
                      make=SyncMessage)


# -- the op table -------------------------------------------------------------

_EMPTY = Struct(strict=True)
_CALL = Struct(CALL_HEADER("header"), body("args"), strict=True)
_TICKET = Struct(uhyper("ticket"), strict=True)
_SERVERS = Struct(Array(SERVER_INFO, MAX_DIRECTORY_ITEMS)("servers"))
_SYNC = Struct(SYNC_MESSAGE("message"))

#: The payload of every op: what :func:`pack` takes (one value per
#: field) and :func:`unpack` returns (a tuple of them).  ``strict`` is
#: the op's trailing-byte policy: bytes after the last field are refused
#: there and ignored elsewhere (so a newer peer may append a field).
WIRE: dict[int, Struct] = {
    MessageType.HELLO: _EMPTY,
    MessageType.HELLO_REPLY: Struct(uint("protocol_version"),
                                    string("server_name"), strict=True),
    MessageType.INTERFACE_REQUEST: Struct(string("function")),
    MessageType.INTERFACE_REPLY: Struct(SIGNATURE("signature"), strict=True),
    MessageType.CALL: _CALL,
    MessageType.RESULT: Struct(uhyper("call_id"), JOB_TIMESTAMPS("timestamps"),
                               body("results"), strict=True),
    MessageType.ERROR: Struct(ERROR_REPLY("error")),
    MessageType.PING: Struct(),
    MessageType.PONG: Struct(),
    MessageType.LIST_REQUEST: _EMPTY,
    MessageType.LIST_REPLY: Struct(
        Array(string, MAX_DIRECTORY_ITEMS)("functions")),
    MessageType.LOAD_QUERY: _EMPTY,
    MessageType.LOAD_REPLY: Struct(LOAD_REPLY("load")),
    MessageType.CALL_DETACHED: _CALL,
    MessageType.CALL_ACCEPTED: Struct(uhyper("call_id"), uhyper("ticket"),
                                      strict=True),
    MessageType.FETCH_RESULT: _TICKET,
    MessageType.RESULT_PENDING: _TICKET,
    MessageType.CALLBACK: Struct(uhyper("call_id"), double("progress"),
                                 string("message"), strict=True),
    MessageType.STATS: Struct(string("format", "json")),
    MessageType.MS_REGISTER: Struct(SERVER_INFO("info")),
    MessageType.MS_UNREGISTER: SERVER_KEY,
    MessageType.MS_LOOKUP: Struct(string("function")),
    MessageType.MS_LOOKUP_REPLY: _SERVERS,
    MessageType.MS_PICK: Struct(PICK_REQUEST("request")),
    MessageType.MS_PICK_REPLY: Struct(SERVER_INFO("chosen")),
    MessageType.MS_REPORT: OBSERVATION,
    MessageType.MS_LIST: _EMPTY,
    MessageType.MS_LIST_REPLY: _SERVERS,
    MessageType.MS_OK: _EMPTY,
    MessageType.STATS_REPLY: Struct(string("format"), string("text"),
                                    strict=True),
    MessageType.BUSY: Struct(BUSY_REPLY("busy")),
    MessageType.CANCEL: _TICKET,
    MessageType.CANCEL_REPLY: Struct(uhyper("ticket"), bool_("dropped"),
                                     strict=True),
    MessageType.SHM_HELLO: Struct(uint("capacity_hint"), uint("ring_format"),
                                  strict=True),
    MessageType.SHM_HELLO_REPLY: Struct(
        string("c2s_segment"), string("s2c_segment"), uint("capacity"),
        uint("ring_format"), strict=True),
    MessageType.MS_HEARTBEAT: Struct(LOAD_REPORT("report")),
    MessageType.MS_SYNC: _SYNC,
    MessageType.MS_SYNC_REPLY: _SYNC,
}


def pack(op: int, *values: Any) -> Union[memoryview, Payload]:
    """The payload of one ``op`` frame from one value per declared
    field, as a view of a private buffer (nothing else holds it) -- or,
    when it carries bulk regions, as a :class:`~repro.xdr.bulk.Payload`
    holding their arrays by reference (``XdrEncoder.payload``)."""
    enc = XdrEncoder()
    WIRE[op].pack(enc, values)
    return enc.payload()


def unpack(op: int, payload: BytesLike) -> tuple[Any, ...]:
    """The declared fields of one ``op`` payload; malformed, truncated
    or out-of-range data raises :exc:`~repro.xdr.XdrError`."""
    declaration = WIRE[op]
    dec = XdrDecoder(payload)
    values: tuple[Any, ...] = declaration.unpack(dec)
    dec.done(strict=declaration.strict)
    return values


def describe(op: int) -> str:
    """One line for PROTOCOL.md's payload column: the declared fields,
    then ``...`` where trailing bytes are ignored."""
    layout = WIRE[op].layout()
    if not WIRE[op].strict:
        layout = f"{layout}, ..." if layout else "..."
    return layout or "empty"


def checked_reply(reply_type: int, reply: BytesLike,
                  expect: Optional[int] = None) -> BytesLike:
    """The reply convention of every requester: an ``ERROR`` reply is
    raised as :class:`RemoteError`, a ``BUSY`` reply as
    :class:`ServerBusy` (carrying the server's retry-after hint), any
    other type than ``expect`` (when given) as :class:`ProtocolError`;
    otherwise the payload is handed back."""
    if reply_type == MessageType.ERROR:
        (err,) = unpack(reply_type, reply)
        raise RemoteError(err.code, err.message)
    if reply_type == MessageType.BUSY:
        (busy,) = unpack(reply_type, reply)
        raise ServerBusy(busy.reason, retry_after=busy.retry_after)
    if expect is not None and reply_type != expect:
        raise ProtocolError(f"expected message {expect}, got {reply_type}")
    return reply
