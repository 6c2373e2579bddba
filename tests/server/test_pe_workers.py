"""An executable that declares a ``CalcOrder`` runs in a PE worker
process (``repro.server.peworkers``), unless it is a BLAS kernel, which
runs capped on its PE thread; the rest run on the PE thread."""

import glob
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.client import NinfClient
from repro.client.core import _CallPayload
from repro.idl import Signature
from repro.libs.linpack import linpack_matgen, linpack_residual, linpack_solve
from repro.libs.openblas import blas_kernel, blas_threads
from repro.obs import names
from repro.protocol import RemoteError
from repro.protocol.messages import MessageType, unpack
from repro.server import NinfServer, Registry, services
from repro.transport import connect
from tests.rpc.conftest import DMMUL_IDL, LINPACK_IDL, _dmmul, _linpack
from tests.rpc.test_async_close import wait_until

PID_IDL = ('Define whoami(mode_in double nap, mode_out long pid) '
           '"the pid it ran in" CalcOrder "1" Calls "C" whoami(nap, pid);')
BLAS_IDL = ('Define blas(mode_in int n, mode_out int threads) '
            '"its BLAS pool" CalcOrder "n" Calls "C" blas(n, threads);')
FAIL_IDL = 'Define {name}(mode_in int n) "fails" {order} Calls "C" f(n);'
NOOP_IDL = 'Define noop(mode_in int x, mode_out int y) "y = x + 1";'
WHERE_IDL = ('Define linpack_where(mode_in int n, mode_inout double A[n][n], '
             'mode_inout double b[n], mode_out long pid, mode_out int threads)'
             ' "linpack, and where it ran" CalcOrder "2*n*n*n/3" '
             'Calls "C" linpack_where(n, A, b, pid, threads);')
HERE_IDL = ('Define threads_here(mode_out int threads) "the BLAS count of '
            'a PE thread";')
RAISES_IDL = 'Define raises(mode_in int n) "a kernel that fails";'
# One server class; its id stays as the suite's pass-floor lists it.
SERVERS = pytest.mark.parametrize("server_cls", [NinfServer],
                                  ids=["NinfServer"])


def whoami(nap, pid, ninf_callback):
    ninf_callback(0.0, "started")
    time.sleep(float(nap))
    return os.getpid()


def fails(n):
    return 1 // int(n)


def _can_cap():
    """NumPy's BLAS can cap a PE thread, so BLAS kernels run on one."""
    binding = services.openblas()
    return binding is not None and binding.set_num_threads_local is not None


def linpack_where(meet=None):
    """A BLAS kernel that solves as ``linpack`` does, then reports the
    pid it ran in and the BLAS count it ran under; with ``meet``, it
    waits there until every call it is made for is inside."""
    @blas_kernel
    def kernel(n, a, b, pid, threads):
        if meet is not None:
            meet.wait()
        _linpack(n, a, b)
        return a, b, os.getpid(), blas_threads()
    return kernel


def build_registry(ran_on=None):
    registry = Registry()
    registry.register(PID_IDL, whoami)
    registry.register(BLAS_IDL, lambda n, threads: blas_threads())
    registry.register(FAIL_IDL.format(name="in_worker", order='CalcOrder "n"'),
                      fails)
    registry.register(FAIL_IDL.format(name="on_thread", order=""), fails)

    def noop(x, y):
        if ran_on is not None:
            ran_on.append(threading.current_thread().name)
        return int(x) + 1

    registry.register(NOOP_IDL, noop)
    registry.register(LINPACK_IDL, _linpack)
    registry.register(WHERE_IDL, linpack_where())
    return registry


def deaths(server):
    metric = server.metrics.snapshot()[names.SERVER_PE_WORKER_DEATHS]
    return sum(value["value"] for value in metric["values"])


def test_calc_order_calls_run_in_processes_the_rest_on_pe_threads():
    ran_on = []
    with NinfServer(build_registry(ran_on), num_pes=2) as server:
        with NinfClient(*server.address) as client:
            both = [client.call_async("whoami", 0.2, None) for _ in range(2)]
            pids = {future.result(timeout=30.0)[0] for future in both}
            assert client.call("noop", 41, None) == [42]
    assert len(pids) == 2 and os.getpid() not in pids
    assert len(ran_on) == 1 and ran_on[0].startswith("ninf-pe-")


def test_many_callers_share_num_pes_workers():
    """More callers than PEs, thread switches forced often: every call
    succeeds, and no more workers exist than PEs (a worker handed to two
    PEs at once would garble its socket; a lost check-in would fork a
    third)."""
    pids, errors = [], []

    def caller(client):
        try:
            for _ in range(15):
                pids.extend(client.call("whoami", 0.0, None))
        except Exception as exc:  # reported below
            errors.append(exc)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with NinfServer(build_registry(), num_pes=2) as server:
            clients = [NinfClient(*server.address) for _ in range(4)]
            threads = [threading.Thread(target=caller, args=(client,))
                       for client in clients]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            for client in clients:
                client.close()
            assert not [t for t in threads if t.is_alive()]
            assert deaths(server) == 0
    finally:
        sys.setswitchinterval(switch_interval)
    assert errors == []
    assert len(pids) == 60 and len(set(pids)) <= 2


@SERVERS
def test_a_worker_killed_mid_call_costs_one_reply(server_cls):
    call = _CallPayload("whoami", Signature.from_idl(PID_IDL), 7, (0.2, None),
                        logical_id="logical-whoami")
    with server_cls(build_registry(), num_pes=1) as server:
        host, port = server.address
        with NinfClient(host, port) as client:
            (first,) = client.call("whoami", 0.0, None)
        with connect(host, port, timeout=10.0) as channel:
            channel.send(MessageType.CALL, bytes(call.stamp(None,
                                                            time.monotonic)))
            assert channel.recv()[0] == MessageType.CALLBACK  # it is inside
            os.kill(first, signal.SIGKILL)
            reply_type, reply = channel.recv()
        assert reply_type == MessageType.ERROR
        (error,) = unpack(MessageType.ERROR, reply)
        assert error.code == "execution-failed"
        assert f"PE worker {first} died mid-call" in error.message
        # Not cached: the same logical call executes when retried ...
        with connect(host, port, timeout=10.0) as channel:
            channel.send(MessageType.CALL, bytes(call.stamp(None,
                                                            time.monotonic)))
            kinds = [channel.recv()[0] for _ in range(2)]
        assert kinds == [MessageType.CALLBACK, MessageType.RESULT]
        assert server.executor.completed == 2 and server.executor.failed == 1
        # ... and the next call runs in the worker forked in its place.
        with NinfClient(host, port) as client:
            (second,) = client.call("whoami", 0.0, None)
        assert second not in (first, os.getpid())
        assert deaths(server) == 1


@SERVERS
def test_a_worker_killed_between_calls_costs_nothing(server_cls):
    with server_cls(build_registry(), num_pes=1) as server:
        with NinfClient(*server.address) as client:
            (first,) = client.call("whoami", 0.0, None)
            os.kill(first, signal.SIGKILL)
            assert wait_until(lambda: _exited(first))
            (second,) = client.call("whoami", 0.0, None)
        assert second != first
        assert deaths(server) == 1


def _exited(pid):
    """Every thread of ``pid`` has exited, so its sockets are closed (a
    worker has an idle OpenBLAS thread; its leader is a zombie first)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
        return state == "Z" and os.listdir(f"/proc/{pid}/task") == [str(pid)]
    except FileNotFoundError:
        return True  # reaped


@pytest.mark.parametrize("mode, expected", [("task", 1), ("data", 2)])
def test_a_worker_caps_blas_to_the_pes_its_call_claimed(mode, expected):
    if blas_threads() is None:
        pytest.skip("NumPy's BLAS is not OpenBLAS here")
    with NinfServer(build_registry(), num_pes=2, mode=mode) as server:
        with NinfClient(*server.address) as client:
            assert client.call("blas", 1, None) == [expected]


@SERVERS
@pytest.mark.parametrize("mode, threads", [("task", 1), ("data", 2)])
def test_linpack_round_trips_on_its_pe_thread(server_cls, mode, threads):
    """A BLAS kernel runs in the server's own process under the call's
    BLAS cap, read from inside the kernel, and returns what a local
    solve returns."""
    a, b = linpack_matgen(200)
    local_a = a.copy()
    linpack_solve(local_a, b.copy())
    with server_cls(build_registry(), num_pes=2, mode=mode) as server:
        with NinfClient(*server.address) as client:
            lu, x, pid, cap = client.call("linpack_where", 200, a.copy(),
                                          b.copy(), None, None)
            registered_lu, _ = client.call("linpack", 200, a.copy(),
                                           b.copy())
        assert deaths(server) == 0
    assert (pid == os.getpid()) is _can_cap()
    assert linpack_residual(a, x, b) < 16
    np.testing.assert_allclose(lu, local_a, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(registered_lu, lu)
    assert cap == (None if blas_threads() is None else threads)


def test_two_overlapping_kernels_compute_at_once_in_the_server():
    """Two task-mode calls on two PEs are inside the kernel together,
    in the server's pid, each capped at one BLAS thread; the count the
    first replaced is back once both are out, whichever leaves last
    (four rounds, so both orders are likely to be seen)."""
    if not _can_cap():
        pytest.skip("NumPy's BLAS cannot cap a PE thread here")
    default = blas_threads()
    a, b = linpack_matgen(200)
    local_a = a.copy()
    linpack_solve(local_a, b.copy())
    registry = Registry()
    registry.register(WHERE_IDL.replace("linpack_where", "linpack"),
                      linpack_where(threading.Barrier(2, timeout=30.0)))
    with NinfServer(registry, num_pes=2) as server:
        with NinfClient(*server.address) as client:
            both = [client.call_async("linpack", 200, a.copy(), b.copy(),
                                      None, None) for _ in range(8)]
            results = [future.result(timeout=60.0) for future in both]
    for lu, x, pid, cap in results:
        assert (pid, cap) == (os.getpid(), 1)
        assert linpack_residual(a, x, b) < 16
        np.testing.assert_allclose(lu, local_a, rtol=0, atol=1e-10)
    assert blas_threads() == default


def test_the_next_call_on_a_pe_thread_reads_the_default_count():
    """The cap ends with the kernel's call, also when the kernel raised:
    an unmarked executable on the same (only) PE thread reads the
    process default."""
    if not _can_cap():
        pytest.skip("NumPy's BLAS cannot cap a PE thread here")
    default = blas_threads()
    registry = build_registry()
    registry.register(HERE_IDL, lambda threads: blas_threads())
    registry.register(RAISES_IDL, blas_kernel(lambda n: fails(n)))
    with NinfServer(registry, num_pes=1) as server:
        with NinfClient(*server.address) as client:
            (_, _, _, cap) = client.call("linpack_where", 50,
                                         *linpack_matgen(50), None, None)
            assert client.call("threads_here", None) == [default]
            with pytest.raises(RemoteError):
                client.call("raises", 0)
            assert client.call("threads_here", None) == [default]
    assert cap == 1


def test_a_kernel_without_a_local_setter_runs_in_a_worker(monkeypatch):
    binding = services.openblas()
    if binding is not None:
        monkeypatch.setattr(services, "openblas", lambda: binding._replace(
            set_num_threads_local=None))
    with NinfServer(build_registry(), num_pes=1) as server:
        with NinfClient(*server.address) as client:
            a, b = linpack_matgen(50)
            _, x, pid, _ = client.call("linpack_where", 50, a.copy(),
                                       b.copy(), None, None)
    assert pid != os.getpid()
    assert linpack_residual(a, x, b) < 16


def test_a_registry_of_blas_kernels_forks_no_helper():
    if not _can_cap():
        pytest.skip("NumPy's BLAS cannot cap a PE thread here")
    registry = Registry()
    registry.register(LINPACK_IDL, _linpack)
    registry.register(DMMUL_IDL, _dmmul)
    before = _children()
    with NinfServer(registry, num_pes=2) as server:
        with NinfClient(*server.address) as client:
            (c,) = client.call("dmmul", 4, np.eye(4), np.eye(4), None)
            assert _children() == before
    np.testing.assert_array_equal(c, np.eye(4))


def test_an_executables_exception_reads_as_it_does_on_a_pe_thread():
    with NinfServer(build_registry(), num_pes=1) as server:
        with NinfClient(*server.address) as client:
            errors = []
            for name in ("in_worker", "on_thread"):
                with pytest.raises(RemoteError) as caught:
                    client.call(name, 0)
                errors.append((caught.value.code,
                               caught.value.message.replace(name, "f")))
        assert deaths(server) == 0
    assert errors[0] == errors[1]
    assert errors[0] == ("execution-failed", "executable 'f' failed: "
                         "ZeroDivisionError('integer division or modulo "
                         "by zero')")


def test_an_executable_registered_after_start_runs_on_its_pe_thread():
    registry = build_registry()
    with NinfServer(registry, num_pes=1) as server:
        registry.register(PID_IDL.replace("whoami", "late"), whoami)
        with NinfClient(*server.address) as client:
            assert client.call("late", 0.0, None) == [os.getpid()]
            assert client.call("whoami", 0.0, None) != [os.getpid()]


def _children():
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path, encoding="ascii") as handle:
            pids.update(handle.read().split())
    return pids


def test_start_stop_cycles_leave_no_process_and_no_descriptor():
    registry = build_registry()

    def cycle():
        with NinfServer(registry, num_pes=2) as server:
            with NinfClient(*server.address) as client:
                both = [client.call_async("whoami", 0.0, None)
                        for _ in range(2)]
                assert all(f.result(timeout=30.0) for f in both)

    cycle()  # whatever is created once per process
    children, descriptors = _children(), len(os.listdir("/proc/self/fd"))
    for _ in range(20):
        cycle()
    assert _children() == children
    assert len(os.listdir("/proc/self/fd")) <= descriptors
