"""Single-thread, single-connection load generator over host loopback.

One process, one thread, one TCP connection: the machine has two cores,
one for this generator and one for the program.  Request lines are
built before the clock starts; responses are stored raw and checked
after it stops (``bench/check.py``), so the timed loop only moves bytes
and reads the clock.

Two loops:

* :func:`closed_loop` keeps ``window`` requests outstanding and sends
  the next one when an answer arrives (callers that wait for a reply).
  ``window=1`` measures the unloaded round trip.
* :func:`open_loop` sends on a precomputed schedule whatever the
  program does (independent users) and times each request from when it
  was *due*, so a stall shows in the requests behind it.  How late the
  generator itself ran is reported as lag.

Both can flap the workload's link through the control channel every
``flap_every`` lookups while the lookups keep flowing.
"""

from __future__ import annotations

import select
import socket
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

#: A phase that makes no progress for this long is a failed run.
STALL_NS = 30 * 10**9


class LoadgenError(RuntimeError):
    pass


@dataclass
class Phase:
    """What one loop sent and got back, indexed by position in ``lines``."""

    first_id: int
    count: int
    sent_ns: List[int]
    recv_ns: List[int]
    #: index into ``bodies`` of each answer, -1 while unanswered
    answer: List[int]
    #: open loop only: when each request was due
    due_ns: Optional[List[int]] = None
    #: distinct response bodies (the ``id`` member stripped), first-seen order
    bodies: List[bytes] = field(default_factory=list)
    #: (sent_ns, acked_ns, state after) of every flap, in order
    flaps: List[Tuple[int, int, str]] = field(default_factory=list)
    #: flaps sent while no lookup was outstanding (the closing restore)
    quiet_flaps: int = 0
    start_ns: int = 0
    end_ns: int = 0               # later than the last answer if a flap closed the phase
    blocked_ns: int = 0           # time spent waiting for something to do
    bytes_out: int = 0
    bytes_in: int = 0
    cpu_seconds: float = 0.0      # set by the runner: server CPU over the phase

    @property
    def rate(self) -> float:
        """Answers per second over the steady part of the round: from
        the answer that completes the first fifth to the last one.  A
        round starts on an idle connection, and the ramp (first wake-up,
        the window filling) is not throughput."""
        arrived = sorted(self.recv_ns)
        skip = self.count // 5
        return (self.count - skip) / ((arrived[-1] - arrived[skip - 1]) / 1e9)

    @property
    def busy_share(self) -> float:
        total = self.end_ns - self.start_ns
        return 1.0 - self.blocked_ns / total if total else 0.0

    def latencies_ns(self) -> List[int]:
        origin = self.due_ns if self.due_ns is not None else self.sent_ns
        return [r - o for r, o in zip(self.recv_ns, origin)]

    def lags_ns(self) -> List[int]:
        return [s - d for s, d in zip(self.sent_ns, self.due_ns or ())]

    def flap_ms(self) -> List[float]:
        loaded = self.flaps[: len(self.flaps) - self.quiet_flaps]
        return [(acked - sent) / 1e6 for sent, acked, _ in loaded]


class Connection:
    """The one TCP connection of a run."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.pending = b""                # received bytes of an unfinished line

    def close(self) -> None:
        self.sock.close()


def _run(
    conn: Connection,
    lines: List[bytes],
    first_id: int,
    window: Optional[int],
    due: Optional[List[int]],
    control,
    flap_every: int,
) -> Phase:
    count = len(lines)
    phase = Phase(
        first_id=first_id, count=count,
        sent_ns=[0] * count, recv_ns=[0] * count, answer=[-1] * count,
        due_ns=due,
    )
    sock = conn.sock
    control_fd = control.fileno() if flap_every else None
    body_index: Dict[bytes, int] = {}
    sent = received = 0
    outbox = b""
    flap_sent_ns = 0                      # non-zero while a flap is unacked
    flaps_due = 0
    link_down = False
    readers = [sock] if control_fd is None else [sock, control_fd]
    writers = [sock]

    phase.start_ns = last_progress = perf_counter_ns()
    if due is not None:
        base = phase.start_ns + 1_000_000
        due[:] = [base + offset for offset in due]

    # a closed loop refills half a window at a time, so the program
    # always has work queued and reads requests in chunks of one size
    refill = max(1, (window or 1) // 2)

    while received < count or flap_sent_ns or link_down:
        now = perf_counter_ns()
        # ---- what may be sent now --------------------------------------
        upto = sent
        if due is None:
            if received + window - sent >= refill or received == sent:
                upto = min(count, received + window)
        else:
            while upto < count and due[upto] <= now:
                upto += 1
        if upto > sent:
            chunk = b"".join(lines[sent:upto])
            phase.bytes_out += len(chunk)
            outbox += chunk
            for index in range(sent, upto):
                phase.sent_ns[index] = now
            if flap_every:
                flaps_due += upto // flap_every - sent // flap_every
            sent = upto
        if flap_every and not flap_sent_ns:
            quiet = received == count
            if flaps_due or (quiet and link_down):
                flaps_due = max(0, flaps_due - 1)
                flap_sent_ns = perf_counter_ns()
                control.send({"cmd": "flap"})
                phase.quiet_flaps += quiet
        if outbox:
            try:
                done = sock.send(outbox)
                outbox = outbox[done:]
            except BlockingIOError:
                pass

        # ---- wait for an answer, an ack, or the next due time -----------
        # Spinning, not sleeping: a generator that blocks lets its core
        # halt, and on a virtual machine the wake-up then costs more,
        # and varies more, than the request being timed.
        wake_ns = due[sent] if due is not None and sent < count else 0
        before = perf_counter_ns()
        while True:
            readable, _, _ = select.select(readers, writers if outbox else (), (), 0)
            now = perf_counter_ns()
            if readable or outbox or (wake_ns and now >= wake_ns):
                break
            if now - last_progress > STALL_NS:
                raise LoadgenError(
                    f"no progress for {STALL_NS / 1e9:.0f} s "
                    f"({received}/{count} answered)")
        phase.blocked_ns += now - before

        if control_fd in readable:
            for message in control.receive():
                phase.flaps.append((flap_sent_ns, now, message["state"]))
                link_down = message["state"] == "down"
                flap_sent_ns = 0
                last_progress = now
        if sock in readable:
            try:
                data = sock.recv(1 << 20)
            except BlockingIOError:
                data = None
            if data == b"":
                raise LoadgenError("the server closed the connection")
            if data:
                phase.bytes_in += len(data)
                pieces = (conn.pending + data).split(b"\n")
                conn.pending = pieces.pop()
                for line in pieces:
                    # the server appends the id last: ...,"id":123}
                    cut = line.rfind(b',"id":')
                    if cut < 0:
                        raise LoadgenError(f"answer without an id: {line[:200]!r}")
                    index = int(line[cut + 6:-1]) - first_id
                    if not 0 <= index < count or phase.answer[index] >= 0:
                        raise LoadgenError(f"unexpected answer id: {line[cut:]!r}")
                    body = line[:cut]
                    slot = body_index.get(body)
                    if slot is None:
                        slot = body_index[body] = len(phase.bodies)
                        phase.bodies.append(body)
                    phase.answer[index] = slot
                    phase.recv_ns[index] = now
                received += len(pieces)
                last_progress = now

    phase.end_ns = perf_counter_ns()
    return phase


def closed_loop(conn, lines, first_id, window, control=None, flap_every=0) -> Phase:
    return _run(conn, lines, first_id, window, None, control, flap_every)


def open_loop(conn, lines, first_id, offsets_ns, control=None, flap_every=0) -> Phase:
    return _run(conn, lines, first_id, None, list(offsets_ns), control, flap_every)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
