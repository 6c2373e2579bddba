"""Tracing from outside the program: timing wrappers around public
entry points of ``repro``, installed by the benchmark in the parent and
in ``perf/serverproc.py``; spans inside the program are a later issue.

``install()`` replaces each entry point in ``TARGETS`` -- a method on
its class, a function in every ``repro.*`` module namespace that holds a
reference to it -- with a wrapper that appends one span to an in-memory
list.  Three seams take callables through a public API and wrap those
too: handlers passed to ``register_handler``, the ``on_complete`` passed
to ``Executor.submit``, and (through ``NinfExecutable.invoke``) the
registered routine itself.

A span is ``(id, parent, name, layer, start_ns, end_ns, cpu_start_ns,
cpu_end_ns, thread, call_id, value)``.  The current span lives in a
``ContextVar``, so nesting is right per thread *and* per asyncio task; a
root span (the client's ``call_with_record`` / ``BrokeredClient.call``)
gives its id to its descendants as ``call_id``.  Wall clocks are
``perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so parent and child spans
share a timeline); CPU clocks are the calling thread's own
(``thread_time_ns``).

Self time (``layer_self_ns``) is *busy* time: the CPU time the thread
spent inside the span minus the CPU time of every other span that ran on
that thread meanwhile.  A thread blocked in a receive, parked on the
client loop thread or waiting for the scheduler consumes none, so
waiting is never counted as a layer's work; and a coroutine's span is
not charged for the tasks that ran while it was suspended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from contextvars import ContextVar
from typing import Callable, Iterable, Optional

LAYERS = ("xdr", "protocol", "transport", "server", "client", "metaserver",
          "libs")
FRAME_HEADER_BYTES = 16

_current: ContextVar[Optional[tuple[int, int]]] = ContextVar(
    "perf_span", default=None)


class SpanLog:
    """The in-memory span list of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.rows: list[tuple] = []
        self.missing: list[str] = []   # entry points that no longer exist
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _thread_number(self) -> int:
        """A number for the calling thread that is never reused: the OS
        recycles thread idents, and every new thread's CPU clock starts
        at zero, so spans of two short-lived PE workers would otherwise
        look nested on one CPU axis."""
        try:
            return self._local.number
        except AttributeError:
            self._local.number = next(self._ids)
            return self._local.number

    def wrap(self, fn: Callable, name: str, layer: str,
             root: bool = False, value: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call.  ``value(args, result)``
        may attach one number to the span (wire bytes, server time)."""
        rows, ids, ident = self.rows, self._ids, self._thread_number
        clock, cpu_clock = time.perf_counter_ns, time.thread_time_ns

        def open_span():
            parent = _current.get()
            span_id = next(ids)
            call_id = span_id if root else (parent[1] if parent else 0)
            return parent, span_id, call_id, _current.set((span_id, call_id))

        def close_span(parent, span_id, call_id, token, start, cpu, amount):
            cpu_end, end = cpu_clock(), clock()
            _current.reset(token)
            rows.append((span_id, parent[0] if parent else 0, name, layer,
                         start, end, cpu, cpu_end, ident(), call_id, amount))

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                parent, span_id, call_id, token = open_span()
                start, cpu, amount = clock(), cpu_clock(), 0
                try:
                    result = await fn(*args, **kwargs)
                    if value is not None:
                        amount = value(args, result)
                    return result
                finally:
                    close_span(parent, span_id, call_id, token, start, cpu,
                               amount)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent, span_id, call_id, token = open_span()
                start, cpu, amount = clock(), cpu_clock(), 0
                try:
                    result = fn(*args, **kwargs)
                    if value is not None:
                        amount = value(args, result)
                    return result
                finally:
                    close_span(parent, span_id, call_id, token, start, cpu,
                               amount)
        return wrapper

    def dump(self) -> list[list]:
        """Rows as JSON-able lists, with this process's pid prepended."""
        return [[self.pid, *row] for row in list(self.rows)]


# -- what gets wrapped ------------------------------------------------------

def _sent_bytes(args, _result) -> int:
    payload = args[2] if len(args) > 2 else b""
    return FRAME_HEADER_BYTES + len(payload)


def _received_bytes(_args, result) -> int:
    return FRAME_HEADER_BYTES + len(result[1])


def _server_busy_ns(_args, result) -> int:
    stamps = result[1].server   # CallRecord.server: enqueue..complete
    return int((stamps.complete - stamps.enqueue) * 1e9)


# (module, "Class.method" or "function", layer, extras)
TARGETS = (
    # Only bulk XDR is wrapped: a scalar pack costs less than a wrapper.
    ("repro.xdr.encoder", "XdrEncoder.pack_double_array", "xdr", {}),
    ("repro.xdr.encoder", "XdrEncoder.pack_int_array", "xdr", {}),
    ("repro.xdr.encoder", "XdrEncoder.pack_ndarray", "xdr", {}),
    ("repro.xdr.decoder", "XdrDecoder.unpack_double_array", "xdr", {}),
    ("repro.xdr.decoder", "XdrDecoder.unpack_int_array", "xdr", {}),
    ("repro.xdr.decoder", "XdrDecoder.unpack_ndarray", "xdr", {}),
    ("repro.protocol.marshal", "marshal_inputs", "protocol", {}),
    ("repro.protocol.marshal", "unmarshal_inputs", "protocol", {}),
    ("repro.protocol.marshal", "marshal_outputs", "protocol", {}),
    ("repro.protocol.marshal", "unmarshal_outputs", "protocol", {}),
    ("repro.protocol.framing", "encode_frame", "protocol", {}),
    ("repro.protocol.framing", "send_frame", "protocol", {}),
    ("repro.protocol.framing", "recv_frame", "protocol", {}),
    # aframing's coroutines are not wrapped: while one is suspended the
    # event loop's own CPU would be charged to it.  On the asyncio stacks
    # framing is part of the AsyncChannel spans (layer transport).
    ("repro.transport.shm", "ShmTransport.send_frame", "transport", {}),
    ("repro.transport.shm", "ShmTransport.recv_frame", "transport", {}),
    ("repro.transport.channel", "Channel.send", "transport",
     {"value": _sent_bytes}),
    ("repro.transport.channel", "Channel.recv", "transport",
     {"value": _received_bytes}),
    ("repro.transport.channel", "Channel.request", "transport", {}),
    ("repro.transport.channel", "connect", "transport", {}),
    ("repro.transport.loopbridge", "FacadeChannel.send", "transport",
     {"value": _sent_bytes}),
    ("repro.transport.loopbridge", "FacadeChannel.recv", "transport",
     {"value": _received_bytes}),
    ("repro.transport.loopbridge", "FacadeChannel.request", "transport", {}),
    ("repro.transport.loopbridge", "facade_connect", "transport", {}),
    ("repro.transport.aiochannel", "AsyncChannel.send", "transport", {}),
    ("repro.transport.aiochannel", "AsyncChannel.recv", "transport", {}),
    ("repro.transport.aiochannel", "AsyncChannel.request", "transport", {}),
    ("repro.transport.pool", "ConnectionPool.checkout", "transport", {}),
    ("repro.transport.pool", "ConnectionPool.checkin", "transport", {}),
    ("repro.server.executor", "Executor.submit", "server", {}),
    ("repro.server.dedup", "DedupCache.begin", "server", {}),
    ("repro.server.dedup", "DedupCache.complete", "server", {}),
    ("repro.server.registry", "NinfExecutable.invoke", "libs", {}),
    ("repro.client.api", "NinfClient.call_with_record", "client",
     {"root": True, "value": _server_busy_ns}),
    ("repro.metaserver.metaserver", "BrokeredClient.call", "client",
     {"root": True}),
    ("repro.metaserver.metaserver", "MetaClient.lookup", "metaserver", {}),
    ("repro.metaserver.metaserver", "MetaClient.pick", "metaserver", {}),
    ("repro.metaserver.metaserver", "MetaClient.report", "metaserver", {}),
    ("repro.metaserver.directory", "Directory.providers", "metaserver", {}),
    ("repro.metaserver.schedulers", "LoadScheduler.choose", "metaserver", {}),
)

# Imported before wrapping, so every namespace that will hold a
# reference to a wrapped function already exists.
_PACKAGES = ("repro.xdr", "repro.protocol", "repro.transport", "repro.server",
             "repro.client", "repro.metaserver")


def _wrap_submit(log: SpanLog, submit: Callable) -> Callable:
    """``Executor.submit`` hands ``on_complete`` to a PE worker thread:
    wrap that callback so the reply path (marshal, dedup, send) is seen."""
    @functools.wraps(submit)
    def wrapper(self, executable, values, on_complete=None, *args, **kwargs):
        if on_complete is not None:
            on_complete = log.wrap(on_complete, "server.on_complete", "server")
        return submit(self, executable, values, on_complete, *args, **kwargs)
    return wrapper


def _wrap_register_handler(log: SpanLog, register: Callable) -> Callable:
    """Handlers reach an endpoint through ``register_handler``: wrap each
    one, in the layer of the endpoint's own package."""
    from repro.protocol.messages import MessageType

    @functools.wraps(register)
    def wrapper(self, msg_type, handler):
        package = type(self).__module__.split(".")[1]
        layer = package if package in LAYERS else "transport"
        try:
            label = MessageType(msg_type).name
        except ValueError:
            label = str(int(msg_type))
        return register(self, msg_type,
                        log.wrap(handler, f"{layer}.handle.{label}", layer))
    return wrapper


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, held in list(vars(module).items()):
            if held is original:
                setattr(module, attr, replacement)


def install() -> SpanLog:
    """Wrap every entry point in TARGETS; returns the process's SpanLog.

    An entry point that no longer exists is skipped and listed in
    ``SpanLog.missing``, so a later PR that removes a twin does not
    break the traced run.
    """
    log = SpanLog()
    for package in _PACKAGES:
        importlib.import_module(package)
    for module_name, path, layer, extras in TARGETS:
        try:
            module = importlib.import_module(module_name)
            owner = module
            *holders, attr = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            log.missing.append(f"{module_name}.{path}")
            continue
        package = module_name.split(".")[1]
        if path == "Executor.submit":
            original = _wrap_submit(log, original)
        wrapped = log.wrap(original, f"{package}.{path}", layer, **extras)
        if holders:
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(original, wrapped)
    for module_name, cls in (("repro.transport.endpoint", "Endpoint"),
                             ("repro.transport.aioendpoint", "AsyncEndpoint")):
        try:
            owner = getattr(importlib.import_module(module_name), cls)
            register = owner.register_handler
        except (ImportError, AttributeError):
            log.missing.append(f"{module_name}.{cls}.register_handler")
            continue
        owner.register_handler = _wrap_register_handler(log, register)
    return log


# -- reading spans ------------------------------------------------------------

# Row layout once the pid is prepended (SpanLog.dump).
(PID, ID, PARENT, NAME, LAYER, START, END, CPU_START, CPU_END, THREAD, CALL,
 VALUE) = range(12)
FIELDS = ("pid", "id", "parent", "name", "layer", "start_ns", "end_ns",
          "cpu_start_ns", "cpu_end_ns", "thread", "call_id", "value")


def span_self_ns(spans: list) -> dict:
    """Busy self time in ns of every span, keyed ``(pid, id)``.

    Per thread, spans are intervals on that thread's CPU clock; whatever
    else ran on the thread during a span occupies part of its interval.
    One sweep in CPU-start order over a stack of open intervals charges
    each piece of a span to the innermost open span that covers it (a
    coroutine's span may outlast the one it started in).
    """
    by_thread: dict = {}
    for span in spans:
        by_thread.setdefault((span[PID], span[THREAD]), []).append(span)
    result = {}
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s[CPU_START], s[START], -s[END]))
        open_spans: list = []       # [span, covered_ns]
        for span in thread_spans:
            while open_spans and open_spans[-1][0][CPU_END] <= span[CPU_START]:
                done, covered = open_spans.pop()
                result[(done[PID], done[ID])] = max(
                    0, done[CPU_END] - done[CPU_START] - covered)
            at = span[CPU_START]
            for outer in reversed(open_spans):
                upto = min(span[CPU_END], outer[0][CPU_END])
                if upto > at:
                    outer[1] += upto - at
                    at = upto
            open_spans.append([span, 0])
        for done, covered in open_spans:
            result[(done[PID], done[ID])] = max(
                0, done[CPU_END] - done[CPU_START] - covered)
    return result


def layer_self_ns(spans: list) -> dict:
    """Total busy self time per layer, in ns."""
    own = span_self_ns(spans)
    totals = {layer: 0 for layer in LAYERS}
    for span in spans:
        totals[span[LAYER]] = (totals.get(span[LAYER], 0)
                               + own[(span[PID], span[ID])])
    return totals


def budget_us_per_call(spans: list, calls: int,
                       mean_latency_us: float) -> dict:
    """``<layer>.self_us_per_call`` for every layer plus the residual:
    what of the mean call latency no wrapped entry point was busy for
    (kernel and scheduler waits, thread hops, unwrapped code).  Never
    folded into a layer."""
    budget = {f"{layer}.self_us_per_call": ns / 1e3 / calls
              for layer, ns in layer_self_ns(spans).items()}
    budget["residual.us_per_call"] = mean_latency_us - sum(budget.values())
    return budget
