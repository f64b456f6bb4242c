"""Starting, talking to, measuring and ending the runner's children.

The runner has three kinds of child — the server (the program), the
yardstick (a fixed reference server) and the idler (an idle-priority
spin) — and none of them ever has a child of its own.  Each is started
with plain ``subprocess.Popen``: no shell, no new session or process
group (a group kill of the runner takes it too).  Each dies with the
runner by construction — ``prctl(PR_SET_PDEATHSIG, SIGKILL)`` is set
between fork and exec, it notices the runner going (EOF on its stdin,
or a changed parent pid), and it arms a hard lifetime cap itself — so
even a SIGKILLed runner leaves nothing behind.
"""

from __future__ import annotations

import ctypes
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
PR_SET_PDEATHSIG = 1
_LIBC = ctypes.CDLL(None, use_errno=True)      # loaded before any fork

#: Hard cap on a child's life, whatever the runner does (seconds); a run
#: is far shorter.
LIFETIME = 170


class ServerError(RuntimeError):
    pass


def cpu_seconds(pid: int) -> float:
    """User + system CPU of a process, all threads.

    Read from the process's CPU-time clock (the clock id
    ``clock_getcpuclockid(3)`` returns): the same quantity as
    utime + stime in ``/proc/<pid>/stat``, in nanoseconds instead of
    10 ms ticks, which matters for a round a tenth of a second long.
    """
    return time.clock_gettime(((~pid) << 3) | 2)


def cores() -> Tuple[int, int]:
    """(generator core, program core): one each, as far as there are two.

    The generator spins while it waits, so an unpinned program thread
    that the scheduler wakes on the generator's core would queue behind
    the spinning for a time slice; pinning keeps each on its own.
    """
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def _before_exec(core: int) -> None:
    _LIBC.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    os.sched_setaffinity(0, {core})


class Server:
    """One running ``bench/server.py`` and its control channel."""

    def __init__(self, config: Dict[str, object], core: int) -> None:
        env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNEL"}
        env["PYTHONHASHSEED"] = "0"
        self._buffer = b""
        self._next_id = 1
        self.spawned_ns = perf_counter_ns()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH / "server.py"),
             "--config", json.dumps(config, separators=(",", ":")),
             "--parent", str(os.getpid()),
             "--lifetime", str(LIFETIME)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, cwd=str(BENCH.parent),
            preexec_fn=lambda: _before_exec(core),
        )
        self.pid = self.process.pid

    # -- control channel ------------------------------------------------------
    def fileno(self) -> int:
        return self.process.stdout.fileno()

    def send(self, command: Dict[str, object]) -> int:
        command = dict(command, id=self._next_id)
        self._next_id += 1
        line = json.dumps(command, separators=(",", ":")) + "\n"
        os.write(self.process.stdin.fileno(), line.encode())
        return command["id"]

    def receive(self) -> List[dict]:
        """Every complete message the pipe holds right now."""
        data = os.read(self.fileno(), 1 << 16)
        if not data:
            raise ServerError(
                f"the server closed its control pipe (exit status "
                f"{self.process.poll()})")
        pieces = (self._buffer + data).split(b"\n")
        self._buffer = pieces.pop()
        return [json.loads(piece) for piece in pieces]

    def _messages(self, timeout: float) -> Iterator[dict]:
        deadline = perf_counter_ns() + int(timeout * 1e9)
        while True:
            left = (deadline - perf_counter_ns()) / 1e9
            if left <= 0 or not select.select([self.fileno()], [], [], left)[0]:
                raise ServerError(f"no answer from the server in {timeout} s")
            yield from self.receive()

    def call(self, command: Dict[str, object], timeout: float = 60.0) -> dict:
        """Send one command and wait for its answer."""
        wanted = self.send(command)
        for message in self._messages(timeout):
            if message.get("id") == wanted:
                if "error" in message:
                    raise ServerError(message["error"])
                return message
        raise AssertionError("unreachable")

    def wait_ready(self, timeout: float = 120.0) -> dict:
        for message in self._messages(timeout):
            if message.get("ready"):
                return message
        raise AssertionError("unreachable")

    # -- per-process accounting (/proc) ----------------------------------------
    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    # -- the end ------------------------------------------------------------------
    def stop(self) -> Optional[int]:
        """Ask, then make sure: returns the exit status once it is gone."""
        process = self.process
        if process.poll() is None:
            try:
                process.stdin.close()          # EOF on the control pipe
            except OSError:
                pass
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
        process.wait()
        process.stdout.close()
        return process.returncode


class Idler:
    """A spin at idle priority on the program's core.

    The program's core would otherwise halt whenever the program waits
    (between two requests at window 1, in the batching window, between
    open-loop arrivals), and on a virtual machine leaving the halt
    costs 50 us in a calm moment and milliseconds in a busy one — more
    than the request being timed.  A ``SCHED_IDLE`` task runs only when
    nothing else wants the core and is preempted the instant the
    program wakes, so it takes nothing from the program; it is
    ``idle=poll`` for one core, from user space.  Same life insurance
    as the server: parent-death signal, lifetime cap, and it watches
    its parent pid itself.
    """

    SOURCE = (
        "import os, signal, sys, time\n"
        "signal.alarm(int(sys.argv[2]))\n"
        "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
        "parent = int(sys.argv[1])\n"
        "while os.getppid() == parent:\n"
        "    until = time.perf_counter() + 0.05\n"
        "    while time.perf_counter() < until: pass\n"
    )

    def __init__(self, core: int) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-c", self.SOURCE, str(os.getpid()), str(LIFETIME)],
            stdin=subprocess.DEVNULL, preexec_fn=lambda: _before_exec(core),
        )

    def stop(self) -> None:
        self.process.kill()
        self.process.wait()


class Yardstick:
    """One running ``bench/yardstick.py`` (see there), on the program's
    core, with its port; ends at EOF on its stdin like the server."""

    def __init__(self, core: int) -> None:
        spawned_ns = perf_counter_ns()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH / "yardstick.py"),
             str(os.getpid()), str(LIFETIME)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            preexec_fn=lambda: _before_exec(core),
        )
        self.pid = self.process.pid
        ready = select.select([self.process.stdout], [], [], 60)[0]
        line = self.process.stdout.readline() if ready else b""
        if not line:
            self.process.kill()
            self.process.wait()
            raise ServerError("the yardstick did not start")
        #: its own set-up time: interpreter start, imports, fixed work
        self.setup_seconds = (perf_counter_ns() - spawned_ns) / 1e9
        self.port = json.loads(line)["port"]

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def stop(self) -> None:
        process = self.process
        process.stdin.close()
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()


def children_of(pid: int) -> List[int]:
    """Pids of every process whose parent is ``pid`` (``/proc`` scan)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue                           # gone while we looked
        if int(stat[stat.rindex(")") + 2:].split()[1]) == pid:
            found.append(int(entry))
    return found
