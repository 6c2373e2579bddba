"""``async-blocking-reachability``: no blocking call on the event loop.

One ``time.sleep`` -- or one sync ``Channel.request`` -- buried three
calls below a coroutine stalls the whole event loop: every pending
connection's latency inflates by the blocked interval, which corrupts
exactly the loop-lag and saturation measurements the bench harness
exists to take.  The intraprocedural rules (PR 4) can only flag what
they can see inside one function; this rule walks the project call
graph from every ``async def`` and flags any *path* to a blocking
primitive.  Two more kinds of function run on a loop without being
coroutines, and are roots too: the generators of
:data:`LOOP_STEPPED_MODULES` (the sans-IO client core, which the
asyncio driver steps on its loop), and every endpoint handler -- the
endpoint's reactor thread runs them inline for every connection, so a
handler that blocks stalls them all (DESIGN.md §3.6: a handler never
blocks).

The registry has three layers:

- **project primitives** (:data:`BLOCKING_PROJECT`): the sync
  transport surface (``Channel``, the dialing half of
  ``ConnectionPool``, sync framing, shm ring waits) and the
  lock-taking
  ``MetricsRegistry`` lookup methods.  Instrument *micro-ops*
  (``Counter.inc``, ``Gauge.set``, ``Histogram.observe``) are
  deliberately absent: they hold their lock for nanoseconds and are the
  sanctioned way to record metrics from a coroutine -- the rule forces
  the registry *lookups* off-loop, after which the cached instruments
  are cheap.
- **external primitives** (:data:`BLOCKING_EXTERNAL` exact names,
  :data:`BLOCKING_EXTERNAL_PREFIXES` for module families like
  ``subprocess.*``): ``time.sleep``, sync socket constructors,
  ``select.select``, the ``open`` builtin.
- **syntactic patterns**, for receivers the type inference cannot
  name: a non-awaited ``.acquire()``, ``.get()``/``.put()`` (without
  the ``_nowait`` suffix) on a receiver whose name contains ``queue``,
  ``pathlib``-style ``.read_text``/``.write_bytes`` file I/O, and a
  non-awaited ``.result()`` on a receiver named like a future.

Sanctioned bridges (:data:`SANCTIONED_BRIDGES` --
``loop.run_in_executor``, ``asyncio.to_thread`` and
``asyncio.run_coroutine_threadsafe``) need no special-casing in the
traversal: a callable
*passed as an argument* never creates a call edge, so handing blocking
work to an executor is invisible to reachability -- which is precisely
the fix this rule pushes you toward.  The bridge names are still
exported so the docs and tests can pin the allowlist.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.callgraph import CallGraph, FunctionInfo, _local_nodes
from repro.analysis.core import Finding, Project, ProjectChecker

__all__ = [
    "AsyncBlockingReachabilityChecker",
    "BLOCKING_EXTERNAL",
    "BLOCKING_EXTERNAL_PREFIXES",
    "BLOCKING_PROJECT",
    "LOOP_STEPPED_MODULES",
    "SANCTIONED_BRIDGES",
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
    # The pool's bookkeeping (checkin/discard/evict_idle/close) is
    # shared with AsyncConnectionPool and only ever closes channels;
    # what blocks is the sync dial.
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

#: Modules of sans-IO generators that an asyncio driver steps on its
#: event loop (``AsyncNinfClient._drive`` over ``repro.client.core``):
#: their code runs between two awaits, so every generator function in
#: them is a root exactly like an ``async def``.
LOOP_STEPPED_MODULES: frozenset[str] = frozenset({"repro.client.core"})

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

#: The sanctioned sync/async bridges.  Callables handed to these run
#: off-loop; because arguments never become call edges, the graph
#: already treats them as safe -- the set is exported for docs/tests.
SANCTIONED_BRIDGES: frozenset[str] = frozenset({
    "asyncio.to_thread",
    "asyncio.run_coroutine_threadsafe",
    "run_in_executor",
})

_FILE_IO_ATTRS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})


class AsyncBlockingReachabilityChecker(ProjectChecker):
    """Flag every path from a loop root to a blocking primitive."""

    rule = "async-blocking-reachability"
    description = ("no blocking primitive (sync transport, registry "
                   "lookup, time.sleep, sync queue/file I/O) may be "
                   "reachable from an async def or an endpoint handler")

    def check_project(self, project: Project) -> Iterator[Finding]:
        """BFS the call graph from every loop root; flag each blocking
        primitive whose shortest path is reachable, naming the path in
        the finding."""
        graph = project.callgraph
        kinds = _loop_roots(graph)
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
                f"blocking call {target_short}() ({desc}) {via}; move "
                f"it behind run_in_executor/to_thread or use the async "
                f"equivalent")

        for call in graph.external_calls(info.qualname):
            if not self._external_blocks(call.name):
                continue
            yield self.finding(
                info.module, call.node,
                f"blocking call {call.name}() {via}; use the asyncio "
                f"equivalent or a sanctioned bridge")

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
            awaited = isinstance(module.parents.get(node), ast.Await)
            receiver = _receiver_name(node.func.value)
            if attr == "acquire" and not awaited:
                yield self.finding(
                    module, node,
                    f"non-awaited .acquire() {via}; a sync lock "
                    f"acquire stalls the event loop -- use asyncio "
                    f"primitives or run it off-loop")
            elif (attr in ("get", "put") and not awaited
                    and "queue" in receiver.lower()):
                yield self.finding(
                    module, node,
                    f"blocking queue .{attr}() {via}; use "
                    f".{attr}_nowait(), an asyncio queue, or a "
                    f"to_thread bridge")
            elif attr in _FILE_IO_ATTRS:
                yield self.finding(
                    module, node,
                    f"blocking file I/O .{attr}() {via}; wrap it in "
                    f"run_in_executor/to_thread")
            elif (attr == "result" and not awaited
                    and ("fut" in receiver.lower()
                         or "promise" in receiver.lower())):
                yield self.finding(
                    module, node,
                    f"blocking Future.result() {via}; await the "
                    f"future instead")


def _loop_roots(graph: CallGraph) -> dict[str, str]:
    """Every function that runs on an event loop without being called
    by one that does: qualname -> what kind of root it is."""
    kinds: dict[str, str] = {}
    for registration in graph.handler_registrations():
        registrar = graph.functions[registration.caller].short
        for handler in registration.handlers:
            kinds.setdefault(
                handler, f"endpoint handler (register_handler map of "
                         f"{registrar}())")
    for qualname, info in graph.functions.items():
        if info.is_async:
            kinds[qualname] = "async def"
        elif _is_loop_stepped(info):
            kinds[qualname] = "loop-stepped generator"
    return kinds


def _is_loop_stepped(info: FunctionInfo) -> bool:
    return info.module_prefix in LOOP_STEPPED_MODULES and any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in _local_nodes(info.node))


def _receiver_name(node: ast.expr) -> str:
    """The rightmost name of a receiver expression (for heuristics)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""
