"""PE worker processes: where an executable with a ``CalcOrder`` runs,
unless it is a BLAS kernel.

The Ninf server fork/execs each registered executable (paper §2.1), so
a call that claims one PE gets one processor.  Two PE *threads* of one
interpreter do not when the kernel is Python: ``ep``, ``dos`` and
``mandel`` serialize on the GIL.  So a server whose registry holds an
executable with a ``CalcOrder`` clause runs that executable's
``invoke`` in a long-lived worker process, at most one call per worker
and one worker per running call.  Two kinds stay on the PE thread
(DESIGN.md §3.6): executables without a ``CalcOrder`` (a null call, an
echo), which never pay the process hop, and BLAS kernels
(:func:`~repro.libs.openblas.blas_kernel`: ``linpack``, ``dmmul``),
which release the GIL and are capped there -- unless NumPy's BLAS
cannot cap them, when they come here too.

- *Who forks.*  :class:`WorkerPool` forks one small helper when the
  server starts, before the server starts a thread of its own (forking
  from a process with busy threads can leave the child blocked on a
  lock another thread held).  The helper closes every descriptor it
  inherited except its socket, and forks the workers: on the first
  ``CalcOrder`` call, and again after a worker dies.  It holds the
  registry as it was then; an executable registered later runs on its
  PE thread.  Plain ``os.fork``, not a ``multiprocessing`` spawn: an
  executable is any callable, closures included, which a fresh
  interpreter could not import; a fork hands the registry over as is.
- *What crosses.*  Each worker has a memfd both processes map: array
  arguments are copied in, results that are views of it (the in-place
  outputs of a ``mode_inout`` / ``mode_out`` argument) are read back
  from it, and a result that is a new array is written after the
  arguments.  Only a small pickled control message goes over the
  worker's socket, with ``ninf_callback`` progress relayed on it in
  order.  An executable's exception comes back as the same
  :class:`~repro.server.registry.ExecutionError`.
- *BLAS.*  Before each call the worker caps NumPy's OpenBLAS pool to
  the PEs the call claimed: 1 in task mode, ``num_pes`` in data mode.
- *Death.*  A worker killed mid-call costs that call an error reply
  (:class:`WorkerLost`, which the server does not cache, so a retried
  ``logical_id`` executes) and nothing else: the helper forks a
  replacement, counted in ``ninf_server_pe_worker_deaths_total``.
  :meth:`WorkerPool.close` ends the workers and the helper.
"""

from __future__ import annotations

import gc
import mmap
import os
import pickle
import signal
import socket
import struct
import threading
import traceback
from typing import Any, Callable, NamedTuple, NoReturn, Optional, Sequence

import numpy as np

from repro.libs.openblas import openblas, set_blas_threads
from repro.server.registry import ExecutionError, NinfExecutable

__all__ = ["WorkerExecutable", "WorkerLost", "WorkerPool"]

_LENGTH = struct.Struct("=I")
_ALIGN = 64


class WorkerLost(ExecutionError):
    """The worker running a call died, or none could be started: the
    call's outcome is unknown, so its reply must not be cached."""

    def __init__(self, name: str, detail: str):
        super().__init__(name, RuntimeError(detail))


class _Repr(Exception):
    """A worker's exception that could not be pickled, by its repr."""

    def __repr__(self) -> str:
        return str(self.args[0])


# -- the wire between the processes -------------------------------------------

def _send(sock: socket.socket, message: Any, fds: Sequence[int] = ()) -> None:
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    if fds:
        socket.send_fds(sock, [_LENGTH.pack(len(data))], fds)
        sock.sendall(data)
    else:
        sock.sendall(_LENGTH.pack(len(data)) + data)


def _recv(sock: socket.socket) -> tuple[Any, list[int]]:
    """One message and the descriptors that came with it; ``EOFError``
    once the peer has gone."""
    head, fds, _flags, _addr = socket.recv_fds(sock, _LENGTH.size, 1)
    if not head:
        raise EOFError
    (size,) = _LENGTH.unpack(head + _exact(sock, _LENGTH.size - len(head)))
    return pickle.loads(_exact(sock, size)), fds


def _exact(sock: socket.socket, size: int) -> bytearray:
    data = bytearray(size)
    view, got = memoryview(data), 0
    while got < size:
        count = sock.recv_into(view[got:])
        if not count:
            raise EOFError
        got += count
    return data


class _Shared(NamedTuple):
    """An array argument or result that lives in a worker's region."""

    offset: int
    dtype: str
    shape: tuple


def _shareable(value: Any) -> bool:
    return isinstance(value, np.ndarray) and not value.dtype.hasobject


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


class _Region:
    """A worker's argument memory: one memfd, mapped by the server and
    the worker, only ever grown.  Offsets are file offsets, so they
    survive either side remapping after the other grew it."""

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self.size = 0
        self._map: Optional[mmap.mmap] = None
        self._base = 0

    def follow(self, size: int) -> None:
        """Map ``size`` bytes if the other side grew the file."""
        if size > self.size:
            self._map = mmap.mmap(self.fd, size)
            self._base = np.frombuffer(self._map, np.uint8).ctypes.data
            self.size = size

    def grow(self, size: int) -> None:
        if size > self.size:
            size = max(size, 2 * self.size, mmap.PAGESIZE)
            size = -(-size // mmap.PAGESIZE) * mmap.PAGESIZE
            os.ftruncate(self.fd, size)
            self.follow(size)

    def view(self, item: _Shared) -> np.ndarray:
        return np.ndarray(item.shape, np.dtype(item.dtype),
                          buffer=self._map, offset=item.offset)

    def put(self, array: np.ndarray, offset: int) -> _Shared:
        """Copy ``array`` in at ``offset`` (aligned up), growing as needed."""
        item = _Shared(_aligned(offset), array.dtype.str, array.shape)
        self.grow(item.offset + array.nbytes)
        np.copyto(self.view(item), array)
        return item

    def find(self, array: np.ndarray) -> Optional[_Shared]:
        """``array`` as an item, if it is a contiguous view of the region."""
        offset = array.__array_interface__["data"][0] - self._base
        if (array.flags.c_contiguous and offset >= 0
                and offset + array.nbytes <= self.size):
            return _Shared(offset, array.dtype.str, array.shape)
        return None

    def close(self) -> None:
        if self._map is not None:
            try:
                self._map.close()
            except BufferError:
                pass  # a view still holds it; it goes with the view
            self._map = None
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1


# -- the two child processes ----------------------------------------------------

def _in_child(keep: socket.socket, body: Callable[[], None]) -> NoReturn:
    """Run ``body`` in a just-forked child that keeps only ``keep`` (and
    stdio) of the descriptors it inherited, then exit without running
    anything of its parent's (atexit, finalizers)."""
    status = 1
    try:
        # Inherited objects are never collected here: one finalized
        # after closerange would close a descriptor by a reused number.
        gc.freeze()
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the server decides
        os.closerange(3, keep.fileno())
        os.closerange(keep.fileno() + 1, os.sysconf("SC_OPEN_MAX"))
        body()
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)


def _helper(sock: socket.socket,
            executables: dict[str, NinfExecutable]) -> None:
    """Fork a worker per request until the server hangs up, collecting
    the ones that died meanwhile; then end the rest (the server has
    drained its executor, so they are idle, or stuck) and wait for them."""
    openblas()  # bound once, here: every worker inherits the binding
    children: set[int] = set()
    try:
        while True:
            try:
                _recv(sock)
            except (EOFError, OSError):
                return
            for pid in list(children):
                if os.waitpid(pid, os.WNOHANG)[0]:
                    children.discard(pid)
            ours, theirs = socket.socketpair()
            pid = os.fork()
            if pid == 0:
                _in_child(theirs, lambda: _serve(theirs, executables))
            theirs.close()
            children.add(pid)
            _send(sock, pid, fds=[ours.fileno()])
            ours.close()
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        for pid in children:
            os.waitpid(pid, 0)


def _serve(sock: socket.socket,
           executables: dict[str, NinfExecutable]) -> None:
    """A worker: one call at a time, until the server hangs up."""
    _, (fd,) = _recv(sock)
    region = _Region(fd)
    threads = None
    sending = threading.Lock()  # an executable may report from its threads

    def reply(message: Any) -> None:
        with sending:
            _send(sock, message)

    def relay(progress: float, message: str) -> None:
        reply(("progress", (progress, message), 0))

    while True:
        try:
            (name, layout, end, size, want), _ = _recv(sock)
        except (EOFError, OSError):
            return  # the server has gone
        region.follow(size)
        if want != threads:
            set_blas_threads(want)
            threads = want
        values = [region.view(v) if isinstance(v, _Shared) else v
                  for v in layout]
        try:
            outputs = executables[name].invoke(values, callback=relay)
            result = ("ok", _export(region, outputs, end), region.size)
        except ExecutionError as exc:
            result = ("error", exc, 0)
        try:
            reply(result)
        except OSError:
            return  # the server has gone
        except Exception as exc:  # the result or the error did not pickle
            cause = result[1].cause if result[0] == "error" else exc
            reply(("error", ExecutionError(name, _Repr(repr(cause))), 0))


def _export(region: _Region, outputs: list, end: int) -> list:
    """The outputs as they go back: region items for arrays (in place
    where they already are, copied in after the arguments otherwise)."""
    # Every lookup before the first copy: a copy may remap the region.
    found = [region.find(out) if _shareable(out) else None for out in outputs]
    for index, out in enumerate(outputs):
        if found[index] is None and _shareable(out):
            found[index] = region.put(out, end)
            end = found[index].offset + out.nbytes
    return [out if item is None else item for out, item in zip(outputs, found)]


# -- the server side ------------------------------------------------------------

class _Worker:
    """The server's handle on one worker process."""

    def __init__(self, pid: int, sock: socket.socket) -> None:
        self.pid, self.sock = pid, sock
        self.region = _Region(os.memfd_create(f"ninf-pe-worker-{pid}"))
        try:
            _send(sock, None, fds=[self.region.fd])
        except OSError:
            self.close()
            raise

    def alive(self) -> bool:
        """False once the worker has hung up (does not block)."""
        try:
            return self.sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT) != b""
        except BlockingIOError:
            return True
        except OSError:
            return False

    def call(self, name: str, values: list, callback, threads: int,
             out_indices: list[int]) -> list:
        layout, end = [], 0
        for value in values:
            if _shareable(value):
                item = self.region.put(value, end)
                end = item.offset + value.nbytes
                value = item
            layout.append(value)
        _send(self.sock, (name, layout, end, self.region.size, threads))
        while True:
            (kind, body, size), _ = _recv(self.sock)
            if kind == "progress":
                if callback is not None:
                    callback(*body)
            elif kind == "error":
                raise body
            else:
                self.region.follow(size)
                return [self._take(item, values[index])
                        for item, index in zip(body, out_indices)]

    def _take(self, item: Any, target: Any) -> Any:
        """A result as the PE thread would have had it: array results
        are copied into the argument buffer they belong to, if it fits."""
        if not isinstance(item, _Shared):
            return item
        view = self.region.view(item)
        if (isinstance(target, np.ndarray) and target.shape == view.shape
                and target.dtype == view.dtype and target.flags.writeable):
            np.copyto(target, view)
            return target
        return view.copy()

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)  # wakes a PE in recv
        except OSError:
            pass
        self.sock.close()
        self.region.close()


class WorkerPool:
    """The helper process, forked here, and the workers it forks on
    demand; :meth:`run` takes an idle worker (or a new one) per call.
    ``deaths`` counts workers found dead."""

    def __init__(self, executables: dict[str, NinfExecutable],
                 deaths) -> None:
        self._deaths = deaths
        self._lock = threading.Lock()
        self._idle: list[_Worker] = []      # GUARDED_BY(_lock)
        self._workers: set[_Worker] = set()  # GUARDED_BY(_lock)
        self._fork_lock = threading.Lock()  # one request to the helper at once
        ours, theirs = socket.socketpair()
        try:
            pid = os.fork()
        except OSError:
            ours.close()
            theirs.close()
            raise
        if pid == 0:
            _in_child(theirs, lambda: _helper(theirs, executables))
        theirs.close()
        self._helper, self._helper_pid = ours, pid

    def run(self, name: str, values: list, callback, threads: int,
            out_indices: list[int]) -> list:
        """``invoke`` of executable ``name`` in a worker; raises the
        executable's :class:`ExecutionError`, or :class:`WorkerLost`."""
        worker = self._checkout(name)
        try:
            outputs = worker.call(name, values, callback, threads,
                                  out_indices)
        except ExecutionError:
            self._checkin(worker)
            raise
        except (EOFError, OSError):
            self._discard(worker, died=True)
            raise WorkerLost(name, f"PE worker {worker.pid} died "
                                   f"mid-call") from None
        except BaseException:
            self._discard(worker, died=False)  # mid-exchange: unusable
            raise
        self._checkin(worker)
        return outputs

    def _checkout(self, name: str) -> _Worker:
        while True:
            with self._lock:
                worker = self._idle.pop() if self._idle else None
            if worker is None:
                return self._fork(name)
            if worker.alive():
                return worker
            self._discard(worker, died=True)

    def _checkin(self, worker: _Worker) -> None:
        with self._lock:
            self._idle.append(worker)

    def _discard(self, worker: _Worker, died: bool) -> None:
        with self._lock:
            self._workers.discard(worker)
        worker.close()
        if died:
            self._deaths.inc()

    def _fork(self, name: str) -> _Worker:
        try:
            with self._fork_lock:
                _send(self._helper, None)
                pid, (fd,) = _recv(self._helper)
        except (EOFError, OSError, ValueError):
            raise WorkerLost(name, "the PE worker helper is gone") from None
        try:
            sock = socket.fromfd(fd, socket.AF_UNIX, socket.SOCK_STREAM)
        finally:
            os.close(fd)
        try:
            worker = _Worker(pid, sock)
        except OSError:
            raise WorkerLost(name, f"PE worker {pid} died at start") from None
        with self._lock:
            self._workers.add(worker)
        return worker

    def close(self) -> None:
        """End every worker and the helper, and wait for the helper."""
        with self._lock:
            workers, self._workers, self._idle = self._workers, set(), []
        for worker in workers:
            worker.close()
        # The helper reads EOF, ends its workers and exits; its end of
        # the socket closing is the signal that it has.
        self._helper.shutdown(socket.SHUT_WR)
        self._helper.settimeout(10.0)
        try:
            self._helper.recv(1)
        except OSError:
            os.kill(self._helper_pid, signal.SIGKILL)
        finally:
            self._helper.close()
        try:
            os.waitpid(self._helper_pid, 0)
        except ChildProcessError:
            pass  # reaped by someone else


class WorkerExecutable(NinfExecutable):
    """``executable`` as the executor sees it when it runs in a worker:
    the same signature and name, with :meth:`invoke` run by ``pool``
    under a BLAS cap of ``threads``."""

    def __init__(self, executable: NinfExecutable, pool: WorkerPool,
                 threads: int) -> None:
        super().__init__(executable.signature, executable.func,
                         pes_required=executable.pes_required)
        self._pool, self._threads = pool, threads
        self._outputs = executable.signature.output_indices()

    def invoke(self, values: Sequence[Any],
               callback: Optional[Callable[[float, str], None]] = None
               ) -> list[Any]:
        """:meth:`NinfExecutable.invoke`, run in a free PE worker."""
        return self._pool.run(self.name, list(values), callback,
                              self._threads, self._outputs)
