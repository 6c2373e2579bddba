"""Goldens for the project call graph, plus the mutation acceptance
tests the interprocedural rules are gated on: deleting one encoder
``pack_*`` call from a real ``protocol/messages.py`` handler, or
inserting ``time.sleep`` into a real handler-reachable helper, must
make ``ninf-lint`` exit 1.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis.callgraph import CallGraph, module_name
from repro.analysis.cli import main
from repro.analysis.core import SourceModule, iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[2]


def _module(display_path: str, source: str) -> SourceModule:
    source = textwrap.dedent(source)
    return SourceModule(Path(display_path), display_path, source,
                        ast.parse(source))


def _edges(graph: CallGraph, caller: str) -> set[str]:
    return {site.target for site in graph.callees(caller)}


# -- module naming ------------------------------------------------------------

@pytest.mark.parametrize("display,expected", [
    ("src/repro/transport/channel.py", "repro.transport.channel"),
    ("src/repro/obs/__init__.py", "repro.obs"),
    ("fixtures/thing.py", "fixtures.thing"),
])
def test_module_name_strips_src_and_init(display, expected):
    assert module_name(display) == expected


# -- resolution goldens -------------------------------------------------------

def test_cross_module_import_edge():
    graph = CallGraph.build([
        _module("pkg/util.py", """
            def helper():
                return 1
        """),
        _module("pkg/app.py", """
            from pkg.util import helper

            def run():
                return helper()
        """),
    ])
    assert _edges(graph, "pkg.app.run") == {"pkg.util.helper"}


def test_self_method_resolves_through_parent_class():
    graph = CallGraph.build([_module("pkg/mod.py", """
        class Base:
            def ping(self):
                return "pong"

        class Child(Base):
            def call(self):
                return self.ping()
    """)])
    assert _edges(graph, "pkg.mod.Child.call") == {"pkg.mod.Base.ping"}
    assert graph.mro("pkg.mod.Child") == ["pkg.mod.Child", "pkg.mod.Base"]


def test_mixin_method_resolves_via_subclass_mros():
    """A mixin calling a method it does not define resolves through the
    MROs of the classes that mix it in -- the NinfRpcServices shape."""
    graph = CallGraph.build([_module("pkg/mod.py", """
        class Services:
            def install(self):
                self.register("call")

        class SyncHost:
            def register(self, name):
                return name

        class AsyncHost:
            def register(self, name):
                return name

        class SyncServer(Services, SyncHost):
            pass

        class AsyncServer(Services, AsyncHost):
            pass
    """)])
    assert _edges(graph, "pkg.mod.Services.install") == {
        "pkg.mod.SyncHost.register", "pkg.mod.AsyncHost.register"}


def test_package_reexport_canonicalises():
    """``from pkg import Thing`` resolves through the package
    ``__init__`` to the defining module."""
    graph = CallGraph.build([
        _module("pkg/impl.py", """
            class Thing:
                def __init__(self):
                    self.x = 1
        """),
        _module("pkg/__init__.py", """
            from pkg.impl import Thing
        """),
        _module("app.py", """
            from pkg import Thing

            def build():
                return Thing()
        """),
    ])
    assert _edges(graph, "app.build") == {"pkg.impl.Thing.__init__"}


def test_known_unresolved_set_is_explicit():
    """Dynamic dispatch is refused with a reason, never guessed at --
    and a callable passed as an argument creates no edge at all."""
    graph = CallGraph.build([_module("pkg/mod.py", """
        def indirect(fn, bridge, worker):
            fn()
            bridge.submit(worker)
            return worker
    """)])
    assert _edges(graph, "pkg.mod.indirect") == set()
    reasons = {u.reason for u in graph.unresolved["pkg.mod.indirect"]}
    assert "dynamic-callable" in reasons
    assert "unknown-receiver" in reasons


# -- real-repo goldens --------------------------------------------------------

@pytest.fixture(scope="module")
def src_graph():
    modules = []
    for path in iter_python_files([REPO_ROOT / "src"]):
        module, _finding = SourceModule.load(path, str(path))
        if module is not None:
            modules.append(module)
    return CallGraph.build(modules)


def test_ninf_rpc_services_mixin_resolves_both_hosts(src_graph):
    """``NinfRpcServices.__init__`` registers handlers on the endpoint
    driver it is mixed into: ``register_handler`` lives once, on the
    core the driver extends, and must appear as an edge -- and the
    handler-map resolves the references it was given."""
    targets = _edges(src_graph,
                     "repro.server.services.NinfRpcServices.__init__")
    assert ("repro.transport.endpoint.EndpointCore.register_handler"
            in targets)
    assert "repro.transport.endpoint.EndpointCore" \
        in src_graph.mro("repro.transport.endpoint.Endpoint")
    registered = {handler
                  for registration in src_graph.handler_registrations()
                  for handler in registration.handlers}
    assert {"repro.server.services.NinfRpcServices._handle_call",
            "repro.transport.endpoint.EndpointCore._handle_stats",
            "repro.transport.endpoint.Endpoint._handle_shm_hello"} \
        <= registered


def test_src_graph_carries_no_silent_failures(src_graph):
    """Every call is an edge, an external, or a *reasoned* unresolved."""
    allowed = {"dynamic-callable", "unknown-receiver",
               "unknown-method", "unknown-member"}
    reasons = {u.reason for us in src_graph.unresolved.values() for u in us}
    assert reasons <= allowed
    assert src_graph.functions  # the graph actually built something


# -- mutation acceptance ------------------------------------------------------

def _copy_sources(tmp_path, monkeypatch, *relative):
    """Copies of ``src/repro/<relative>`` under ``./repro`` of a fresh
    working directory (module names derive from the relative path)."""
    monkeypatch.chdir(tmp_path)
    for rel in relative:
        target = Path("repro", rel)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text((REPO_ROOT / "src" / "repro" / rel).read_text(
            encoding="utf-8"), encoding="utf-8")
    return Path("repro")


def test_inserting_sleep_into_reachable_helper_fails_lint(
        tmp_path, monkeypatch, capsys):
    """Acceptance: ``time.sleep`` planted in a sync helper a handler
    calls (``NinfRpcServices.load_snapshot``, behind the LOAD_QUERY
    handler) must exit 1, reported with the reachability chain."""
    root = _copy_sources(tmp_path, monkeypatch, "server/services.py",
                         "transport/endpoint.py")
    rule = ["--rules", "async-blocking-reachability"]
    assert main([str(root), *rule]) == 0

    services = root / "server" / "services.py"
    needle = "    def load_snapshot(self) -> LoadReply:"
    source = services.read_text(encoding="utf-8")
    assert needle in source
    services.write_text(source.replace(
        needle, needle + "\n        time.sleep(0.001)"), encoding="utf-8")
    assert main([str(root), *rule]) == 1
    out = capsys.readouterr().out
    assert "time.sleep" in out
    assert ("via NinfRpcServices._handle_load_query -> "
            "NinfRpcServices.load_snapshot") in out


def test_sleep_planted_in_an_endpoint_handler_fails_lint(
        tmp_path, monkeypatch, capsys):
    """Handlers run inline on the endpoint's reactor thread, so every
    function in an endpoint's ``register_handler`` map is a root, the
    core's STATS handler included."""
    root = _copy_sources(tmp_path, monkeypatch, "server/services.py",
                         "transport/endpoint.py")
    rule = ["--rules", "async-blocking-reachability"]
    assert main([str(root), *rule]) == 0

    def plant(relative, needle):
        path = root / relative
        source = path.read_text(encoding="utf-8")
        assert needle in source
        path.write_text(source.replace(
            needle, needle + "\n        time.sleep(0.001)"),
            encoding="utf-8")
        return path, source

    plant("transport/endpoint.py",
          "    def _handle_stats(self, conn: Connection, payload: bytes)"
          " -> None:")
    assert main([str(root), *rule]) == 1
    assert ("endpoint handler (register_handler map of "
            "EndpointCore.__init__()) EndpointCore._handle_stats()"
            ) in capsys.readouterr().out

    plant("server/services.py",
          "    def _handle_load_query(self, conn: Connection, payload: bytes)"
          " -> None:")
    assert main([str(root), *rule]) == 1
    out = capsys.readouterr().out
    assert "time.sleep" in out
    assert ("endpoint handler (register_handler map of "
            "NinfRpcServices.__init__()) "
            "NinfRpcServices._handle_load_query()") in out
