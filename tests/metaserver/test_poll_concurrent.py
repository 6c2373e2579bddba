"""Satellite regression: poll_now must not serialize on stalled servers.

A server that accepts TCP but never answers LOAD_QUERY holds its probe
until ``poll_timeout``.  Polled serially, N such servers cost
N * poll_timeout and starve the healthy ones; on the probe worker pool
they cost ~one timeout total and the healthy entry still refreshes.
"""

import socket
import threading
import time

from repro.metaserver import Metaserver
from repro.protocol.messages import ServerInfo
from repro.server import NinfServer, Registry

IDL = 'Define noop(mode_in int n) "does nothing";'


class StalledServer:
    """Accepts connections and reads forever without ever replying."""

    def __init__(self):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.address = self._sock.getsockname()
        self._conns = []
        self._running = True
        self._thread = threading.Thread(target=self._accept_loop,
                                        daemon=True)
        self._thread.start()

    def _accept_loop(self):
        while self._running:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            self._conns.append(conn)  # hold it open, never respond

    def close(self):
        self._running = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes the accept()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._thread.join(timeout=2.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _registry():
    registry = Registry()
    registry.register(IDL, lambda n: None)
    return registry


def _register(ms, address, name):
    host, port = address
    ms.directory.register(ServerInfo(name=name, host=host, port=port,
                                     num_pes=1, functions=("noop",)))


def test_poll_now_concurrent_with_stalled_servers():
    timeout = 1.0
    stalled = [StalledServer() for _ in range(3)]
    try:
        with NinfServer(_registry(), num_pes=1) as healthy:
            healthy_addr = healthy.address
            ms = Metaserver(poll_interval=3600.0, poll_timeout=timeout)
            with ms:
                for i, stall in enumerate(stalled):
                    _register(ms, stall.address, f"stalled-{i}")
                _register(ms, healthy_addr, "healthy")
                started = time.monotonic()
                ms.poll_now()
                elapsed = time.monotonic() - started
    finally:
        for stall in stalled:
            stall.close()
    # Serial polling would cost >= 3 * timeout; concurrent costs ~one
    # timeout.  2x leaves slack for slow CI without masking a regression.
    assert elapsed < 2.0 * timeout, (
        f"poll_now took {elapsed:.2f}s against 3 stalled servers "
        f"(timeout={timeout}s): probes are serializing")
    # The healthy server's load refreshed despite its stalled peers...
    entry = ms.directory.get(*healthy_addr)
    assert entry.alive
    assert entry.load is not None
    # ...and the stalled ones were marked dead, not left in limbo.
    for stall in stalled:
        assert not ms.directory.get(*stall.address).alive


def test_poll_now_single_target_runs_inline():
    """One candidate avoids pool dispatch entirely (no thread churn)."""
    with NinfServer(_registry(), num_pes=1) as healthy:
        ms = Metaserver(poll_interval=3600.0, poll_timeout=2.0)
        with ms:
            _register(ms, healthy.address, "healthy")
            ms.poll_now()
            assert ms._poll_pool is None  # never lazily created
            assert ms.directory.get(*healthy.address).load is not None
