#!/usr/bin/env python3
"""The latency ledger: one command that measures the serving path.

    python3 bench/run.py --workload warm_path --seed 1 --seconds 10 --trace 0

starts the program (``bench/server.py``) as one child process, drives
it over host loopback from this one process, one thread and one TCP
connection, checks every answer against ``compute_routes_reference``
after the clock stops, and prints every metric by name and unit — the
last line of standard output is one JSON object.

``--trace 0`` is the run that yields the end-to-end numbers.
``--trace 1`` is the separate traced run that yields the per-layer
numbers: counters read from the program at phase boundaries, an
open-loop phase, then spans recorded around each layer boundary and
rolled up by ``bench/ledger.py``.  See ``bench/README.md`` for the
metric and workload tables.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import ledger  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402
from check import Checker  # noqa: E402

#: name -> unit, as in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s", "rps": "1/s", "cpu_ms_per_req": "ms", "rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.self_us": "us" for layer in ledger.LAYERS},
    "service.daemon.admission_wait_us": "us",
    "ledger.gap_share": "ratio",
    "trace.overhead_share": "ratio",
    **{f"setup.{part}_s": "s" for part in (
        "spawn", "generate", "snapshot", "prefill", "originate", "listen",
        "first_answer")},
    "session.core.hit_share": "ratio",
    "session.core.fills_per_kreq": "1/kreq",
    "session.core.derived_share": "ratio",
    "session.core.coalesced_per_kreq": "1/kreq",
    "session.core.affected_mean": "count",
    "session.cache.evictions_per_kreq": "1/kreq",
    "session.cache.pruned_per_kreq": "1/kreq",
    "session.cache.tables": "count",
    "service.daemon.batches_per_kreq": "1/kreq",
    "service.daemon.batch_mean": "count",
    "service.daemon.coalesced_per_kreq": "1/kreq",
    "service.daemon.shed_per_kreq": "1/kreq",
    "service.server.bytes_per_req": "B",
    "service.server.bytes_per_resp": "B",
    "bgp.kernels.calls_per_kreq": "1/kreq",
    "bgp.kernels.tables_per_call": "count",
    "topology.delta.flaps_per_kreq": "1/kreq",
    "topology.snapshot.builds_per_kreq": "1/kreq",
    "miro.runtime.established_share": "ratio",
    "miro.runtime.live_tunnels": "count",
    "session.pool.alive": "count",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "flap_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.busy_share": "ratio",
    "loadgen.open_p99_ms": "ms",
    "loadgen.samples": "count",
    "error_share": "ratio",
    "leaked_processes": "count",
}

#: A round whose generator ran later or busier than this is invalid.
MAX_LAG_P99_MS = 1.0
MAX_BUSY_SHARE = 0.9
MAX_GAP_SHARE = 0.05
#: Rounds of each kind per run, however short ``--seconds`` is.
MIN_ROUNDS = 4


def relative(program, yardstick, natural: float) -> float:
    """An end-to-end reading relative to the yardstick's.

    This machine's speed is not constant: a neighbour slows the virtual
    CPU by up to 1.7x for seconds or minutes, so a time measured on the
    program alone says as much about the neighbour as about the program
    (ten runs of one commit spread over 20 to 40% of their median).
    Every program round therefore has a yardstick round right before it
    — the same loop against ``bench/yardstick.py``, a fixed server on
    the same core — and the metric is the median, over the rounds, of
    the program's reading divided by its yardstick's.  The machine's
    speed cancels pair by pair; the program's does not.  ``natural``
    (the yardstick's reading on this machine at rest, a constant in
    ``workloads.py``) only gives the ratio back its unit and size.
    """
    return statistics.median(
        ours / theirs for ours, theirs in zip(program, yardstick)) * natural


def _raw(name: str, unit: float, program, yardstick) -> str:
    return (f"{name}: program {statistics.median(program) * unit:.6g}, "
            f"yardstick {statistics.median(yardstick) * unit:.6g} "
            f"(medians of {len(program)} rounds each)")


def _p50_ms(rounds) -> float:
    """Median round trip of the round the machine's neighbours disturbed
    least (the traced run's latencies have no yardstick beside them)."""
    return min(
        statistics.median(phase.latencies_ns()) / 1e6 for phase in rounds)


@dataclass
class Taken:
    """The rounds of a run, by kind."""

    rps: List[loadgen.Phase] = field(default_factory=list)
    p50: List[loadgen.Phase] = field(default_factory=list)
    open: List[loadgen.Phase] = field(default_factory=list)
    #: the yardstick round taken right before each rps round
    yard_rps: List[loadgen.Phase] = field(default_factory=list)
    #: the program's counters (before, after) around each stretch of rounds
    infos: List[Tuple[dict, dict]] = field(default_factory=list)

    @property
    def counted(self) -> List[loadgen.Phase]:
        return self.rps + self.p50 + self.open


class RunFailed(RuntimeError):
    pass


class Interrupted(BaseException):
    """SIGTERM / SIGINT / SIGHUP: unwind through every ``finally``."""


def _interrupt(signum, frame) -> None:
    raise Interrupted(signal.Signals(signum).name)


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
class Run:
    def __init__(self, name: str, seed: int, seconds: float, quick: bool,
                 corrupt_one: bool = False) -> None:
        from repro.topology.generator import generate_named

        spec = workloads.WORKLOADS[name]
        self.workload = workloads.quick(spec) if quick else spec
        self.name = name
        self.seed = seed
        self.seconds = 0.0 if quick else seconds
        self.quick = quick
        self.corrupt_one = corrupt_one
        self.graph = generate_named(
            self.workload.profile, seed=workloads.TOPOLOGY_SEED)
        self.checker = Checker(self.workload, self.graph)
        self.inputs = workloads.Inputs(
            self.workload, seed, self.graph, self.checker.reference_path)
        self.checker.expect(self.inputs)
        self.config = self.inputs.server_config()
        self.cores = child.cores()
        self.server: Optional[child.Server] = None
        self.conn: Optional[loadgen.Connection] = None
        self.paired = False            # every reading next to a yardstick's
        self.yardstick: Optional[child.Yardstick] = None
        self.yard_conn: Optional[loadgen.Connection] = None
        self.yard_id = 1
        self.phases: List[Tuple[loadgen.Phase, list]] = []
        self.metrics: Dict[str, float] = {}
        self.invalid_rounds = 0
        self.raw: List[str] = []       # readings before they are made relative

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> Dict[str, float]:
        """Start the server; returns the parts of its set-up time, which
        ends at the first correct answer on the socket."""
        lines, keys = self.probe
        yard_setup = 0.0
        if self.paired:
            # the yardstick's own start, right before ours, is what our
            # set-up time is read against; the first one stays for the run
            fresh = child.Yardstick(self.cores[1])
            yard_setup = fresh.setup_seconds
            if self.yardstick is None:
                self.yardstick = fresh
                self.yard_conn = loadgen.Connection(fresh.port)
            else:
                fresh.stop()
        self.server = server = child.Server(self.config, self.cores[1])
        ready = server.wait_ready()
        self.conn = loadgen.Connection(ready["port"])
        first = loadgen.closed_loop(self.conn, lines, self.probe_id, 1)
        failed_before = self.checker.failed
        self.checker.check(first, keys)
        if self.checker.failed != failed_before:
            raise RunFailed(
                f"set-up: first answer wrong: {self.checker.first_failure}")
        parts = {
            "spawn": (ready["imported_ns"] - server.spawned_ns) / 1e9,
            **{part: ready[f"{part}_s"] for part in (
                "generate", "snapshot", "prefill", "originate", "listen")},
        }
        total = (first.recv_ns[0] - server.spawned_ns) / 1e9
        parts["first_answer"] = total - sum(parts.values())
        parts["total"] = total
        parts["yardstick"] = yard_setup
        return parts

    def stop(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- rounds ----------------------------------------------------------------
    def _send(self, count: int, window: Optional[int],
              rate: Optional[float] = None,
              before: Optional[Callable[[], None]] = None) -> loadgen.Phase:
        """Generate ``count`` requests off the clock, then send them in a
        closed loop at ``window`` or an open loop at ``rate``.  ``before``
        runs between the two, right before the first request goes out."""
        first_id = self.inputs._next_id
        lines, keys = self.inputs.requests(count)
        flaps = (self.server, self.workload.flap_every)
        if before is not None:
            before()
        if rate is None:
            phase = loadgen.closed_loop(self.conn, lines, first_id, window, *flaps)
        else:
            offsets = self.inputs.poisson_offsets_ns(count, rate)
            phase = loadgen.open_loop(self.conn, lines, first_id, offsets, *flaps)
        self.phases.append((phase, keys))
        return phase

    def _send_yardstick(self, count: int, window: int) -> loadgen.Phase:
        yard = self.workload.yard
        first_id = self.yard_id
        self.yard_id += count
        lines = [
            b'{"work":%d,"size":%d,"id":%d}\n' % (yard.work, yard.size, rid)
            for rid in range(first_id, first_id + count)
        ]
        used = self.yardstick.cpu_seconds()
        phase = loadgen.closed_loop(self.yard_conn, lines, first_id, window)
        phase.cpu_seconds = self.yardstick.cpu_seconds() - used
        return phase

    def warm_up(self) -> None:
        w = self.workload
        self._send(w.warmup, w.window)
        if self.paired:
            self._send_yardstick(w.rps_round, w.window)

    def round(self, kind: str, taken: Taken) -> None:
        """One round of fixed work: closed loop at the workload's window
        (``rps``; in the untraced run with the same round on the
        yardstick right before), closed loop at window 1 (``p50``), or
        open loop."""
        w = self.workload
        if kind == "open":
            taken.open.append(self._send(w.open_round, None, w.open_rate))
        elif kind == "p50":
            taken.p50.append(self._send(w.p50_round, 1))
        else:
            pair = None
            if self.paired:
                def pair():
                    taken.yard_rps.append(
                        self._send_yardstick(w.rps_round, w.window))
            used = self.server.cpu_seconds()      # idle while the yardstick runs
            phase = self._send(w.rps_round, w.window, before=pair)
            phase.cpu_seconds = self.server.cpu_seconds() - used
            taken.rps.append(phase)

    def rounds(self, kind: str, seconds: float, taken: Taken,
               at_least: int = MIN_ROUNDS) -> None:
        """Rounds of one kind for ``seconds`` (and ``at_least`` that
        many), with the program's counters read before and after."""
        before = self.server.call({"cmd": "info"})
        deadline = perf_counter() + seconds
        done = 0
        while done < at_least or perf_counter() < deadline:
            self.round(kind, taken)
            done += 1
        taken.infos.append((before, self.server.call({"cmd": "info"})))

    def _is_valid(self, phase: loadgen.Phase) -> bool:
        """Invalidate, rather than report, a round the generator spoiled."""
        late = phase.due_ns is not None and loadgen.percentile(
            phase.lags_ns(), 0.99) / 1e6 > MAX_LAG_P99_MS
        spoiled = late or phase.busy_share > MAX_BUSY_SHARE
        self.invalid_rounds += spoiled
        return not spoiled

    def _valid(self, rounds: List[loadgen.Phase], strict: bool = True):
        good = [phase for phase in rounds if self._is_valid(phase)]
        if not good and strict:
            raise RunFailed(
                "every round was invalid: the load generator ran late "
                f"(lag p99 > {MAX_LAG_P99_MS} ms) or busy "
                f"(share > {MAX_BUSY_SHARE})")
        return good or rounds

    def _valid_pairs(self, ours, theirs):
        """(program rounds, their yardstick rounds) where both are valid."""
        good = [(a, b) for a, b in zip(ours, theirs)
                if self._is_valid(a) and self._is_valid(b)]
        if not good:
            self._valid([])
        return list(zip(*good))

    # -- the untraced run ----------------------------------------------------------
    def measure_end_to_end(self) -> None:
        w, m = self.workload, self.metrics
        yard = w.yard
        taken = Taken()
        setups: List[Dict[str, float]] = []
        deadline = perf_counter() + self.seconds
        while not setups or (w.fresh_state and (
                len(setups) < MIN_ROUNDS or perf_counter() < deadline)):
            # one life of the server; several where every round has to
            # start from the same fresh state
            setups.append(self.start())
            self.warm_up()
            if w.fresh_state:
                self.rounds("rps", 0.0, taken, at_least=1)
            else:
                self.rounds("rps", self.seconds, taken)
            m["rss_mb"] = self.server.peak_rss_mb()
            self.stop()
        # set-up is paid once per start: start again for a median of >= 3
        while len(setups) < 3:
            setups.append(self.start())
            self.stop()
        pairs = self._valid_pairs(taken.rps, taken.yard_rps)
        cpu = [[p.cpu_seconds / p.count for p in side] for side in pairs]
        rps = [[p.rate for p in side] for side in pairs]
        setup = [[s["total"] for s in setups], [s["yardstick"] for s in setups]]
        m["setup_s"] = relative(*setup, yard.setup_s)
        m["cpu_ms_per_req"] = relative(*cpu, yard.cpu_ms_per_req)
        m["rps"] = relative(*rps, yard.rps)
        self.raw = [_raw("setup_s", 1, *setup),
                    _raw("cpu_ms_per_req", 1e3, *cpu), _raw("rps", 1, *rps)]
        self.assert_signature(self.counts(taken))

    # -- the traced run --------------------------------------------------------------
    def measure_per_layer(self) -> None:
        w, m = self.workload, self.metrics
        for part, value in self.start().items():
            if part not in ("total", "yardstick"):
                m[f"setup.{part}_s"] = value
        self.warm_up()
        # where cost grows with the requests served, every phase is a
        # fixed number of rounds, so that counts repeat exactly for a seed
        budget = 0.0 if w.fresh_state else self.seconds
        taken, untraced, traced = Taken(), Taken(), Taken()
        self.rounds("p50", 0.15 * budget, untraced)
        self.rounds("rps", 0.20 * budget, taken)
        counts = self.counts(taken)
        self.assert_signature(counts)
        m.update(counts)
        flaps = [ms for phase in taken.rps for ms in phase.flap_ms()]
        m["flap_ms"] = statistics.median(flaps) if flaps else 0.0

        self.rounds("open", 0.25 * budget, taken)
        opened = self._valid(taken.open, strict=False)
        m["p95_ms"] = min(
            loadgen.percentile(phase.latencies_ns(), 0.95) / 1e6
            for phase in opened)
        lags = [lag for phase in taken.open for lag in phase.lags_ns()]
        latencies = [ns for phase in taken.open for ns in phase.latencies_ns()]
        m["loadgen.lag_p99_ms"] = loadgen.percentile(lags, 0.99) / 1e6
        m["loadgen.open_p99_ms"] = loadgen.percentile(latencies, 0.99) / 1e6
        m["loadgen.busy_share"] = max(
            phase.busy_share for phase in taken.rps + taken.open)
        m["loadgen.samples"] = len(latencies)
        final = self.server.call({"cmd": "info"})
        m["session.pool.alive"] = int(bool(final["service"]["pool"]["alive"]))
        m["session.cache.tables"] = final["tables"]
        m["miro.runtime.live_tunnels"] = final["live_tunnels"]

        if w.fresh_state:
            # the traced rounds retrace the untraced ones from the same
            # fresh state, or tracing would be charged with the growth
            self.stop()
            self.start()
            self.warm_up()
        self.server.call({"cmd": "trace_on"})
        self.rounds("p50", 0.30 * budget, traced)
        before = m["p50_ms"] = _p50_ms(self._valid(untraced.p50))
        m["trace.overhead_share"] = (
            _p50_ms(self._valid(traced.p50)) - before) / before
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace_{self.name}.json"
        self.server.call({"cmd": "trace_dump", "path": str(path)})
        self.stop()
        self.roll_up(path, traced.p50)

    def roll_up(self, path: Path, traced: List[loadgen.Phase]) -> None:
        """Join the server's spans with the client's view; fill the ledger."""
        m = self.metrics
        spans = json.loads(path.read_text())
        begin = min(phase.start_ns for phase in traced)
        end = max(phase.end_ns for phase in traced)
        spans = [s for s in spans if s[ledger.START] >= begin
                 and s[ledger.END] <= end]
        next_id = max((s[ledger.ID] for s in spans), default=0) + 1
        roots = []
        for phase in traced:
            for index in range(phase.count):
                roots.append([
                    next_id, "request", "loopback", phase.sent_ns[index],
                    phase.recv_ns[index], 0, phase.first_id + index])
                next_id += 1
        book = ledger.build(spans, roots)
        for layer in ledger.LAYERS:
            m[f"{layer}.self_us"] = book["layers_us"].get(layer, 0.0)
        m["service.daemon.admission_wait_us"] = book["layers_us"].get(
            "admission_wait", 0.0)
        m["ledger.gap_share"] = book["gap_share"]
        path.write_text(json.dumps({
            "workload": self.name, "seed": self.seed, "quick": self.quick,
            "span_fields": ["id", "name", "layer", "start_ns", "end_ns",
                            "parent", "request"],
            "ledger": book, "spans": spans + roots,
        }))
        if book["gap_share"] > MAX_GAP_SHARE:
            raise RunFailed(
                f"ledger: parts {book['band_parts_us']:.1f} us do not add up "
                f"to the traced p50 {book['p50_us']:.1f} us "
                f"(gap {book['gap_share']:.3f} > {MAX_GAP_SHARE})")

    # -- counters --------------------------------------------------------------------
    def counts(self, taken: Taken) -> Dict[str, float]:
        """Per-layer counts over the rounds taken so far, from the
        program's own counters read before and after them."""
        rounds = taken.counted
        requests = sum(phase.count for phase in rounds)
        kreq = requests / 1000.0
        last = taken.infos[-1][1]

        def family(info, name, field="value", **labels) -> float:
            return sum(
                sample.get(field, 0.0) for sample in info["families"][name]
                if all(sample["labels"].get(k) == v for k, v in labels.items()))

        def moved(read: Callable[[dict], float]) -> float:
            return sum(read(after) - read(before)
                       for before, after in taken.infos)

        def session(name):
            return moved(lambda info: info["service"]["session"][name])

        def event(name):
            return moved(lambda info: family(
                info, "repro_session_cache_events_total", event=name))

        hits, misses = session("hits"), session("misses")
        computed, derived = session("tables_computed"), session("tables_derived")
        affected = moved(lambda info: (
            info["service"]["session"]["mean_affected_size"]
            * info["service"]["session"]["tables_derived"]))
        calls = moved(lambda info: family(
            info, "repro_routing_settle_seconds", "count"))
        batches = moved(lambda info: family(
            info, "repro_service_batch_destinations", "count"))
        batched = moved(lambda info: family(
            info, "repro_service_batch_destinations", "sum"))
        established = moved(lambda info: family(
            info, "repro_miro_tunnels_established_total"))
        negotiated = moved(lambda info: family(
            info, "repro_service_requests_total", op="negotiate"))
        return {
            "session.core.hit_share":
                hits / (hits + misses) if hits + misses else 0.0,
            "session.core.fills_per_kreq": event("fill") / kreq,
            "session.core.derived_share":
                derived / (derived + computed) if derived + computed else 0.0,
            "session.core.coalesced_per_kreq": session("coalesced") / kreq,
            "session.core.affected_mean": affected / derived if derived else 0.0,
            "session.cache.evictions_per_kreq": session("evictions") / kreq,
            "session.cache.pruned_per_kreq": session("auto_pruned") / kreq,
            "service.daemon.batches_per_kreq": batches / kreq,
            "service.daemon.batch_mean": batched / batches if batches else 0.0,
            "service.daemon.coalesced_per_kreq": moved(
                lambda info: info["service"]["coalesced_total"]) / kreq,
            "service.daemon.shed_per_kreq": moved(
                lambda info: info["service"]["shed_total"]) / kreq,
            "service.server.bytes_per_req":
                sum(phase.bytes_out for phase in rounds) / requests,
            "service.server.bytes_per_resp":
                sum(phase.bytes_in for phase in rounds) / requests,
            "bgp.kernels.calls_per_kreq": calls / kreq,
            "bgp.kernels.tables_per_call": computed / calls if calls else 0.0,
            "topology.delta.flaps_per_kreq":
                moved(lambda info: info["flaps"]) / kreq,
            "topology.snapshot.builds_per_kreq": moved(lambda info: family(
                info, "repro_topology_snapshot_builds_total")) / kreq,
            "miro.runtime.established_share":
                established / negotiated if negotiated else 0.0,
            "session.pool.alive": int(bool(last["service"]["pool"]["alive"])),
        }

    def assert_signature(self, counts: Dict[str, float]) -> None:
        """The counts that make the workload what it claims to be: a
        change that stops a workload exercising its layer must fail
        loudly, not read as a speed-up."""
        name = self.name
        expect = {
            "session.pool.alive": lambda v: v == 0,
            "service.daemon.shed_per_kreq": lambda v: v == 0,
        }
        if name in ("warm_path", "warm_table"):
            expect["session.core.hit_share"] = lambda v: v == 1
            expect["bgp.kernels.calls_per_kreq"] = lambda v: v == 0
        elif name == "cold_scan":
            expect["session.core.hit_share"] = lambda v: v == 0
            expect["session.core.fills_per_kreq"] = lambda v: round(v, 6) == 1000
        elif name == "churn":
            expect["session.core.derived_share"] = lambda v: v > 0
            expect["topology.delta.flaps_per_kreq"] = lambda v: v > 0
        elif name == "negotiate":
            expect["bgp.kernels.calls_per_kreq"] = lambda v: v == 0
        broken = {k: counts[k] for k, ok in expect.items() if not ok(counts[k])}
        if broken:
            raise RunFailed(f"{name} lost its signature: {broken}")

    # -- the whole run -----------------------------------------------------------------
    def execute(self, trace: bool) -> dict:
        # the probe is generated, and its reference answer computed,
        # before the set-up clock starts
        self.probe_id = self.inputs._next_id
        self.probe = self.inputs.requests(1)
        key = self.probe[1][0]
        if key[0] != "negotiate":
            self.checker.reference_path(key[1], key[-1])
        gc.disable()       # no collector pause inside a timed loop
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cores[0]})
        idler = None
        try:
            if self.cores[0] != self.cores[1]:
                idler = child.Idler(self.cores[1])
            self.paired = not trace
            if trace:
                self.measure_per_layer()
            else:
                self.measure_end_to_end()
        finally:
            self.stop()
            if self.yard_conn is not None:
                self.yard_conn.close()
            if self.yardstick is not None:
                self.yardstick.stop()
                self.yardstick = None
            if idler is not None:
                idler.stop()
            os.sched_setaffinity(0, affinity)
            gc.enable()
        if self.corrupt_one:
            _corrupt_one(self.phases)
        for phase, keys in self.phases:
            self.checker.check(phase, keys)
        checker = self.checker
        leaked = child.children_of(os.getpid())
        for pid in leaked:
            os.kill(pid, signal.SIGKILL)
        if trace:
            self.metrics["error_share"] = checker.failed / checker.attempted
            self.metrics["leaked_processes"] = len(leaked)
        names = PER_LAYER if trace else END_TO_END
        return {
            "correct": checker.failed == 0 and not leaked,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in names.items()
            },
            "first_failure": checker.first_failure,
            "leaked_processes": len(leaked),
            "invalid_rounds": self.invalid_rounds,
            "raw": self.raw,
        }


def _corrupt_one(phases) -> None:
    """Self-test: damage one stored response body, so that the checker
    has to notice (``--corrupt-one``; the run must then exit 1)."""
    for phase, _ in reversed(phases):
        for slot, body in enumerate(phase.bodies):
            if b"[" in body:
                phase.bodies[slot] = body.replace(b"[", b"[0,", 1)
                return
    raise RunFailed("--corrupt-one found no path to corrupt")


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def run_once(args, name: str, seed: int, trace: bool) -> dict:
    run = Run(name, seed, args.seconds, args.quick, args.corrupt_one)
    report = run.execute(trace)
    for metric, entry in report["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    for line in report["raw"]:
        print(f"{name} as measured, {line}")
    print(f"{name} error_share: {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']} requests failed)")
    if report["first_failure"]:
        print(f"{name} first failure: {report['first_failure']}")
    print(f"{name} invalid_rounds: {report['invalid_rounds']}")
    print(f"{name} leaked_processes: {report['leaked_processes']}")
    return report


def check_repeat(args) -> int:
    """Two full sets of untraced runs of the same code: each end-to-end
    metric of the second must be within its bound of the first."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    sets = [
        {name: run_once(args, name, args.seed, False) for name in names}
        for _ in range(2)
    ]
    breaches = 0
    for name in names:
        for metric in spec["end_to_end"]:
            first, second = (
                s[name]["metrics"][metric["name"]]["value"] for s in sets)
            worse = (second - first) / first
            if metric["better"] == "higher":
                worse = -worse
            breach = worse > metric["bound"]
            breaches += breach
            print(f"repeat {name} {metric['name']}: {first:.6g} -> "
                  f"{second:.6g} {metric['unit']}, {worse:+.3%} worse "
                  f"(bound {metric['bound']:.0%})"
                  f"{'  BREACH' if breach else ''}")
        if not all(s[name]["correct"] for s in sets):
            breaches += 1
            print(f"repeat {name}: incorrect answers")
    return 1 if breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="drives every generated input (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long one run measures (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny profile, ~2 s, same metric names")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets and compare them with the bounds")
    parser.add_argument("--corrupt-one", action="store_true",
                        help="self-test: corrupt one answer; must exit 1")
    args = parser.parse_args(argv)
    if not args.workload and not args.check_repeat:
        parser.error("--workload is required")

    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(signum, _interrupt)
    try:
        if args.check_repeat:
            return check_repeat(args)
        report = run_once(args, args.workload, args.seed, bool(args.trace))
    except (RunFailed, child.ServerError, loadgen.LoadgenError) as exc:
        print(f"bench: run failed: {exc}", file=sys.stderr)
        return 1
    except Interrupted as exc:
        print(f"bench: interrupted by {exc}", file=sys.stderr)
        return 1
    result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
