"""Ninf RPC wire protocol.

Frames are length-prefixed XDR payloads on TCP (the underlying transfer
protocol of Ninf is "Sun XDR on TCP/IP").  The protocol is the paper's
two-stage RPC:

1. The client connects and sends ``INTERFACE_REQUEST("dmmul")``; the
   server replies ``INTERFACE_REPLY`` carrying the compiled
   :class:`~repro.idl.Signature` ("it returns the compiled IDL
   information as interpretable code to the client").
2. The client stub interprets the signature, marshals the ``mode_in``
   arguments, and sends ``CALL``; the server executes the registered
   executable and replies ``RESULT`` with the ``mode_out`` data and the
   job's server-side timestamps (enqueue/dequeue/complete -- the
   quantities the paper's tables report).

Modules:

- :mod:`repro.protocol.framing` -- the frame layout of every medium,
  the blocking socket's send and receive, and :class:`FrameReader`, the
  one socket receive state machine (the reactor's too).
- :mod:`repro.protocol.messages` -- typed message encode/decode.
- :mod:`repro.protocol.marshal` -- signature-driven argument and result
  marshalling.
"""

from repro.protocol.errors import (
    ConnectionClosed,
    ProtocolError,
    RemoteError,
    ServerBusy,
    ServerShutdown,
    TimeoutError,
)
from repro.protocol.framing import MAX_FRAME_SIZE, recv_frame, send_frame
from repro.protocol.messages import (
    BusyReply,
    CallHeader,
    ErrorReply,
    JobTimestamps,
    LoadReply,
    MessageType,
)
from repro.protocol.marshal import (
    marshal_inputs,
    marshal_outputs,
    unmarshal_inputs,
    unmarshal_outputs,
)

__all__ = [
    "BusyReply",
    "CallHeader",
    "ConnectionClosed",
    "ErrorReply",
    "JobTimestamps",
    "LoadReply",
    "MAX_FRAME_SIZE",
    "MessageType",
    "ProtocolError",
    "RemoteError",
    "ServerBusy",
    "ServerShutdown",
    "TimeoutError",
    "marshal_inputs",
    "marshal_outputs",
    "recv_frame",
    "send_frame",
    "unmarshal_inputs",
    "unmarshal_outputs",
]
