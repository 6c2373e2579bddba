"""Parent-side plumbing: the child process, CPU clocks, the environment."""

from __future__ import annotations

import glob
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from typing import Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(PERF_DIR)
SERVERPROC = os.path.join(PERF_DIR, "serverproc.py")
OUT_DIR = os.path.join(PERF_DIR, "out")
# What the children write to stderr (shutdown tracebacks of the program,
# resource_tracker warnings) is kept here, not shown on every run.
CHILD_STDERR = os.path.join(OUT_DIR, "serverproc.stderr.log")
_TRACKER_LEAK = re.compile(rb"appear to be (\d+) leaked shared_memory")

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_LIVE_CHILDREN: list["ServerProc"] = []


class ServerProc:
    """One ``perf/serverproc.py`` child: spawn, ports, CPU clock, report.

    Construction returns once the child has printed its ports, so the
    caller's clock around ``ServerProc(...)`` covers interpreter start,
    imports, registry build and bind.
    """

    def __init__(self, stack: str, trace: bool = False, seed: int = 1997,
                 cpus: str = "all"):
        self.stack = stack
        os.makedirs(OUT_DIR, exist_ok=True)
        self._stderr = tempfile.TemporaryFile(dir=OUT_DIR)
        self._proc = subprocess.Popen(
            [sys.executable, SERVERPROC, "--stack", stack,
             "--trace", "1" if trace else "0", "--seed", str(seed),
             "--cpus", cpus],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, cwd=ROOT_DIR)
        _LIVE_CHILDREN.append(self)
        line = self._proc.stdout.readline()
        if not line:
            self._proc.wait()
            raise RuntimeError(
                f"serverproc --stack {stack} exited with code "
                f"{self._proc.returncode} before printing its ports")
        hello = json.loads(line)
        self.ports: dict = hello["ports"]
        self.pid: int = hello["pid"]
        self.report: Optional[dict] = None

    def cpu_seconds(self) -> float:
        """User + system CPU time of the child so far (``/proc``; 10 ms
        ticks, so read it across seconds of work, not single calls)."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def rss_kb(self) -> int:
        """Resident set size of the child right now (``VmRSS``)."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
        raise RuntimeError(f"no VmRSS for pid {self.pid}")

    def shutdown(self, timeout: float = 30.0) -> dict:
        """Close the child's stdin, wait for it, return its exit report
        (plus ``tracker_leaks``: shared-memory segments the child's
        resource tracker had to clean up, read off its stderr)."""
        if self.report is None:
            try:
                out, _ = self._proc.communicate(input="", timeout=timeout)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.communicate()
                raise
            finally:
                _LIVE_CHILDREN.remove(self)
                errors = self._drain_stderr()
            if self._proc.returncode != 0:
                raise RuntimeError(f"serverproc --stack {self.stack} exited "
                                   f"with code {self._proc.returncode}")
            self.report = json.loads(out.strip().splitlines()[-1])
            self.report["tracker_leaks"] = sum(
                int(count) for count in _TRACKER_LEAK.findall(errors))
        return self.report

    def _drain_stderr(self) -> bytes:
        self._stderr.seek(0)
        errors = self._stderr.read()
        self._stderr.close()
        with open(CHILD_STDERR, "ab") as log:
            log.write(errors)
        return errors


def pin(cpus: str) -> None:
    """Apply a CPU policy of ``catalog.py`` to this process: ``"one"``
    pins it (and every thread or child it starts later) to the
    highest-numbered CPU it may use, ``"all"`` changes nothing.  Call it
    before importing NumPy, whose BLAS sizes its thread pool from the
    affinity mask."""
    if cpus == "one":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def kill_stragglers() -> int:
    """Kill any child still alive (error paths); returns how many."""
    survivors = list(_LIVE_CHILDREN)
    for child in survivors:
        child._proc.kill()
        child._proc.communicate()
        child._drain_stderr()
        _LIVE_CHILDREN.remove(child)
    return len(survivors)


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker and wait
    for it.  ``shared_memory`` starts one helper process per user process
    (here: the shm client in the parent, the shm server in the child, the
    ring measurement of ``micro.py``); left alone it ends only some time
    after its owner, so it outlives the run.  Stopping it also makes it
    print its leak warning before the owner exits, where ``shutdown``
    reads it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    dies (``PR_SET_CHILD_SUBREAPER``), so that ``reap_descendants`` can
    wait for a killed child's helpers too.  Linux only; elsewhere a no-op."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_descendants(timeout: float = 10.0) -> int:
    """Wait until no child process is left, killing whatever is still
    there after ``timeout``; returns how many had to be killed.  Call it
    last, after ``adopt_orphans`` at the start."""
    deadline = time.monotonic() + timeout
    killed = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.01)
            continue
        if killed:
            return killed      # killed and still there: give up
        for child in _child_pids():
            try:
                os.kill(child, 9)
                killed += 1
            except ProcessLookupError:
                pass
        if not killed:
            return 0           # /proc names no child to kill
        deadline = time.monotonic() + timeout


def _child_pids() -> list[int]:
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path, encoding="ascii") as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:
            pass
    return sorted(pids)


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments Python has created."""
    return set(glob.glob("/dev/shm/psm_*"))


def counter_total(snapshot: dict, name: str, **labels) -> float:
    """Sum of a STATS counter's values whose labels include ``labels``."""
    metric = snapshot.get(name)
    if metric is None:
        return 0.0
    return sum(value["value"] for value in metric["values"]
               if all(value["labels"].get(k) == v for k, v in labels.items()))


def shm_counts(child_report: dict) -> tuple[int, int]:
    """``(upgrades, fallbacks)`` summed over a child's servers, from the
    metrics snapshots in its exit report."""
    snapshots = child_report["stats"].values()
    return (int(sum(counter_total(s, "ninf_shm_upgrades_total")
                    for s in snapshots)),
            int(sum(counter_total(s, "ninf_shm_fallbacks_total")
                    for s in snapshots)))


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT_DIR, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, seconds: float, quick: bool) -> dict:
    """The environment block stored with every output."""
    import numpy

    from catalog import TRIALS

    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "loadavg_1min_start": load1,
        "noisy_host": load1 > nproc / 2,
        "seed": seed,
        "seconds": seconds,
        "trials": TRIALS,
        "quick": quick,
        "network": "loopback TCP",
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
