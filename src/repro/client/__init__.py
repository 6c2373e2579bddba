"""Ninf client API.

"Ninf_call is a representative API used for invoking a named remote
library on the server as if it were on a local machine via Ninf RPC"
(paper §2.2).  The Python binding keeps the call-by-reference feel of
the C API: ``mode_out``/``mode_inout`` NumPy arrays passed by the caller
are filled in place, and results are also returned.

- :class:`NinfClient` -- connection to one computational server:
  :meth:`~NinfClient.call` (synchronous), :meth:`~NinfClient.call_async`
  (returns a :class:`NinfFuture`), signature cache, ping/load queries.
  Blocking sockets, on the calling thread; ``call_async`` is the same
  call on a thread of its own, as the paper's ``Ninf_call_async`` is.
  It drives the operations of the sans-IO core,
  :mod:`repro.client.core` (DESIGN.md §3.6).
- :func:`ninf_call` / :func:`ninf_call_async` -- the paper's free-form
  API: ``ninf_call("ninf://host:port/dmmul", n, A, B, C)``.
- :class:`Transaction` -- ``Ninf_transaction_begin``/``end``: records
  calls, builds the argument dependency DAG, and executes independent
  calls in parallel across one or more servers (§2.4).
"""

from repro.client.api import (
    DetachedCall,
    NinfClient,
    NinfFuture,
    ninf_call,
    ninf_call_async,
)
from repro.client.transaction import Transaction

__all__ = [
    "DetachedCall",
    "NinfClient",
    "NinfFuture",
    "Transaction",
    "ninf_call",
    "ninf_call_async",
]
