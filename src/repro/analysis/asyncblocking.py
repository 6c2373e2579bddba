"""``async-blocking-reachability``: no blocking call on the reactor.

An endpoint's reactor thread reads every TCP connection and runs each
handler inline (DESIGN.md §3.6), so one ``time.sleep`` -- or one sync
``Channel.request`` -- buried three calls below a handler stalls every
connection of the process for the blocked interval.  The
intraprocedural rules (PR 4) can only flag what they can see inside one
function; this rule walks the project call graph from every function an
endpoint's ``register_handler`` map names and flags any *path* to a
blocking primitive.

The registry has three layers:

- **project primitives** (:data:`BLOCKING_PROJECT`): the sync
  transport surface (``Channel``, the pool's checkout, sync framing,
  shm ring waits) and the lock-taking ``MetricsRegistry`` lookup
  methods.  Instrument *micro-ops* (``Counter.inc``, ``Gauge.set``,
  ``Histogram.observe``) are deliberately absent: they hold their lock
  for nanoseconds and are how a handler records metrics -- the rule
  forces the registry *lookups* out of handlers, after which the bound
  instruments are cheap.
- **external primitives** (:data:`BLOCKING_EXTERNAL` exact names,
  :data:`BLOCKING_EXTERNAL_PREFIXES` for module families like
  ``subprocess.*``): ``time.sleep``, sync socket constructors,
  ``select.select``, the ``open`` builtin.
- **syntactic patterns**, for receivers the type inference cannot
  name: an ``.acquire()``, ``.get()``/``.put()`` (without the
  ``_nowait`` suffix) on a receiver whose name contains ``queue``,
  ``pathlib``-style ``.read_text``/``.write_bytes`` file I/O, and a
  ``.result()`` on a receiver named like a future.

Work a handler hands to another thread (a PE, a writer) is passed as a
callable *argument*, which never creates a call edge, so it is
invisible to reachability -- which is precisely the fix this rule
pushes you toward.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.core import Finding, Project, ProjectChecker

__all__ = [
    "AsyncBlockingReachabilityChecker",
    "BLOCKING_EXTERNAL",
    "BLOCKING_EXTERNAL_PREFIXES",
    "BLOCKING_PROJECT",
]

#: Project-internal blocking primitives: qualname -> what it blocks on.
BLOCKING_PROJECT: dict[str, str] = {
    "repro.transport.channel.Channel.send": "sync socket send",
    "repro.transport.channel.Channel.recv": "sync socket recv",
    "repro.transport.channel.Channel.request": "sync socket round-trip",
    "repro.transport.channel.Channel.send_error": "sync socket send",
    "repro.transport.channel.connect": "sync TCP connect",
    "repro.transport.endpoint.EndpointCore.stop":
        "reactor and ring thread joins",
    # The pool's bookkeeping (checkin/discard/evict_idle/close) only
    # ever closes channels; what blocks is the dial.
    "repro.transport.pool.ConnectionPool.checkout": "sync pool checkout",
    "repro.transport.pool.ConnectionPool.lease": "sync pool lease",
    "repro.protocol.framing.send_frame": "sync frame write",
    "repro.protocol.framing.recv_frame": "sync frame read",
    "repro.transport.shm.ShmRing.write": "shm ring spin-wait",
    "repro.transport.shm.ShmRing.read_into": "shm ring spin-wait",
    "repro.transport.shm.ShmRing.read_exact": "shm ring spin-wait",
    "repro.transport.shm.ShmRing.write_array": "shm ring spin-wait",
    "repro.transport.shm.ShmRing.read_array": "shm ring spin-wait",
    "repro.transport.shm.ShmRing._wait": "shm ring spin-wait",
    "repro.transport.shm.ShmTransport.send_frame": "shm frame write",
    "repro.transport.shm.ShmTransport.recv_frame": "shm frame read",
    "repro.transport.shm.ShmTransport.sendall": "shm ring spin-wait",
    "repro.transport.shm.negotiate": "sync shm handshake",
    "repro.obs.registry.MetricsRegistry.counter":
        "registry lock + instrument lookup",
    "repro.obs.registry.MetricsRegistry.gauge":
        "registry lock + instrument lookup",
    "repro.obs.registry.MetricsRegistry.histogram":
        "registry lock + instrument lookup",
    "repro.obs.registry.MetricsRegistry.snapshot":
        "registry-wide lock + full scrape",
    "repro.obs.registry.MetricsRegistry.render_prometheus":
        "registry-wide lock + full scrape",
}

#: Blocking stdlib/builtin calls by exact dotted name.
BLOCKING_EXTERNAL: frozenset[str] = frozenset({
    "time.sleep",
    "open",
    "os.system",
    "os.popen",
    "os.waitpid",
    "select.select",
    "socket.create_connection",
    "socket.getaddrinfo",
    "socket.gethostbyname",
    "socket.socket",
})

#: Blocking stdlib families: any call under these module prefixes.
BLOCKING_EXTERNAL_PREFIXES: tuple[str, ...] = ("subprocess.",)

_FILE_IO_ATTRS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})


class AsyncBlockingReachabilityChecker(ProjectChecker):
    """Flag every path from an endpoint handler to a blocking primitive."""

    rule = "async-blocking-reachability"
    description = ("no blocking primitive (sync transport, registry "
                   "lookup, time.sleep, sync queue/file I/O) may be "
                   "reachable from an endpoint handler")

    def check_project(self, project: Project) -> Iterator[Finding]:
        """BFS the call graph from every handler; flag each blocking
        primitive whose shortest path is reachable, naming the path in
        the finding."""
        graph = project.callgraph
        kinds = _handler_roots(graph)
        pred: dict[str, Optional[str]] = {}
        origin: dict[str, str] = {}
        queue: list[str] = []
        for root in sorted(kinds):
            if root not in pred:
                pred[root] = None
                origin[root] = root
                queue.append(root)
        while queue:
            current = queue.pop(0)
            if current in BLOCKING_PROJECT:
                continue  # report at the edge, not inside the primitive
            for site in sorted(graph.callees(current),
                               key=lambda s: s.target):
                if site.target not in pred:
                    pred[site.target] = current
                    origin[site.target] = origin[current]
                    queue.append(site.target)

        for qualname in sorted(pred):
            if qualname in BLOCKING_PROJECT:
                continue
            info = graph.functions[qualname]
            chain = self._chain(graph, pred, qualname)
            root = graph.functions[origin[qualname]]
            yield from self._check_function(graph, info, chain, root,
                                            kinds[root.qualname])

    def _chain(self, graph: CallGraph, pred: dict[str, Optional[str]],
               qualname: str) -> str:
        names = []
        current: Optional[str] = qualname
        while current is not None:
            names.append(graph.functions[current].short)
            current = pred[current]
        return " -> ".join(reversed(names))

    def _check_function(self, graph: CallGraph, info: FunctionInfo,
                        chain: str, root: FunctionInfo, kind: str
                        ) -> Iterator[Finding]:
        via = (f"reachable from {kind} {root.short}() "
               f"via {chain}") if chain != root.short else \
              f"called directly inside {kind} {root.short}()"

        for site in graph.callees(info.qualname):
            desc = BLOCKING_PROJECT.get(site.target)
            if desc is None:
                continue
            target_short = graph.functions[site.target].short
            yield self.finding(
                info.module, site.node,
                f"blocking call {target_short}() ({desc}) {via}; hand "
                f"it to another thread")

        for call in graph.external_calls(info.qualname):
            if not self._external_blocks(call.name):
                continue
            yield self.finding(
                info.module, call.node,
                f"blocking call {call.name}() {via}; hand it to "
                f"another thread")

        yield from self._syntactic(info, via)

    @staticmethod
    def _external_blocks(name: str) -> bool:
        if name in BLOCKING_EXTERNAL:
            return True
        return any(name.startswith(prefix)
                   for prefix in BLOCKING_EXTERNAL_PREFIXES)

    def _syntactic(self, info: FunctionInfo, via: str) -> Iterator[Finding]:
        """Pattern heuristics for receivers type inference cannot name."""
        module = info.module
        for node in ast.walk(info.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            receiver = _receiver_name(node.func.value).lower()
            if attr == "acquire":
                yield self.finding(
                    module, node,
                    f"lock .acquire() {via}; a contended lock stalls the "
                    f"reactor -- take it on another thread")
            elif attr in ("get", "put") and "queue" in receiver:
                yield self.finding(
                    module, node,
                    f"blocking queue .{attr}() {via}; use .{attr}_nowait()")
            elif attr in _FILE_IO_ATTRS:
                yield self.finding(
                    module, node,
                    f"blocking file I/O .{attr}() {via}; hand it to "
                    f"another thread")
            elif attr == "result" and ("fut" in receiver
                                       or "promise" in receiver):
                yield self.finding(
                    module, node,
                    f"blocking Future.result() {via}; complete the reply "
                    f"from the future's callback instead")


def _handler_roots(graph: CallGraph) -> dict[str, str]:
    """Every function an endpoint's ``register_handler`` map names:
    qualname -> what kind of root it is."""
    kinds: dict[str, str] = {}
    for registration in graph.handler_registrations():
        registrar = graph.functions[registration.caller].short
        for handler in registration.handlers:
            kinds.setdefault(
                handler, f"endpoint handler (register_handler map of "
                         f"{registrar}())")
    return kinds


def _receiver_name(node: ast.expr) -> str:
    """The rightmost name of a receiver expression (for heuristics)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""
