"""Tests of the benchmark itself: contract, answer checking, hygiene.

Run with ``python -m pytest bench -q`` from the repository root.  Every
run here is ``--quick`` (tiny topology, a few seconds) except the two
that kill a full run in the middle of a phase.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from check import Checker, _epochs, _states_during  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def bench(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170, **kwargs)


def started_by(pid: int) -> dict:
    """``{pid: command line}`` of the processes ``pid`` has started."""
    found = {}
    for kid in child.children_of(pid):
        try:
            raw = Path(f"/proc/{kid}/cmdline").read_bytes()
        except OSError:
            continue
        found[kid] = raw.replace(b"\0", b" ").decode()
    return found


def alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def gone_within(pids, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if not any(alive(pid) for pid in pids):
            return True
        time.sleep(0.02)
    return False


# ----------------------------------------------------------------------
# the contract
# ----------------------------------------------------------------------
def test_benchmark_json_names_what_the_runner_prints():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for listed, printed in (("end_to_end", run.END_TO_END),
                            ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[listed]} == printed
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert "setup_s" in bounds and bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.25 for bound in bounds.values())


@pytest.mark.parametrize("name", NAMES)
def test_quick_run_meets_the_output_contract(name):
    done = bench("--workload", name, "--seed", "3", "--quick", "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert f"{name} leaked_processes: 0" in done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_fills_the_ledger(name):
    done = bench("--workload", name, "--seed", "3", "--quick", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert value["ledger.gap_share"] <= run.MAX_GAP_SHARE
    assert value["leaked_processes"] == 0
    assert value["session.pool.alive"] == 0
    assert value["error_share"] == 0
    assert value["loopback.self_us"] > 0 and value["service.server.self_us"] > 0
    assert value["p50_ms"] > 0 and value["p95_ms"] > 0
    trace = json.loads((BENCH / "out" / f"trace_{name}.json").read_text())
    assert trace["workload"] == name and trace["spans"]
    # the layer each workload exists to exercise does the work there
    if name == "cold_scan":
        assert value["bgp.kernels.self_us"] > 0
        assert value["service.daemon.admission_wait_us"] > 0
    if name == "negotiate":
        assert value["miro.runtime.self_us"] > 0
        assert value["miro.runtime.established_share"] > 0
    if name == "churn":
        assert value["topology.delta.self_us"] > 0
        assert value["bgp.routing.self_us"] > 0
        assert value["flap_ms"] > 0
    if name.startswith("warm"):
        assert value["bgp.kernels.self_us"] == 0


def test_same_seed_same_inputs_other_seed_other_inputs():
    from repro.topology.generator import generate_named

    def lines(seed):
        spec = workloads.quick(workloads.WORKLOADS["churn"])
        graph = generate_named(spec.profile, seed=workloads.TOPOLOGY_SEED)
        reference = Checker(spec, graph).reference_path
        inputs = workloads.Inputs(spec, seed, graph, reference)
        return inputs.requests(50)[0], inputs.poisson_offsets_ns(5, 100.0)

    assert lines(5) == lines(5)
    assert lines(5) != lines(6)


def test_fails_without_a_result_where_the_program_is_missing():
    """In a directory holding only BENCHMARK.json and bench/ there is no
    program to measure: non-zero exit, no result line."""
    bare = BENCH / "out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for source in BENCH.glob("*.py"):
            shutil.copy(source, bare / "bench")
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "warm_path",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


# ----------------------------------------------------------------------
# the answer checker
# ----------------------------------------------------------------------
def test_a_corrupted_answer_fails_the_run():
    done = bench("--workload", "warm_path", "--quick", "--corrupt-one")
    assert done.returncode == 1
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1          # error_share > 0
    assert "warm_path leaked_processes: 0" in done.stdout


def test_churn_answers_may_match_either_state_only_across_a_flap():
    # link goes down between 100 and 110, back up between 200 and 210
    epochs = _epochs([(100, 110, "down"), (200, 210, "up")])
    assert _states_during(epochs, 10, 50) == ["up"]
    assert _states_during(epochs, 90, 105) == ["down", "up"]
    assert _states_during(epochs, 105, 120) == ["down", "up"]
    assert _states_during(epochs, 120, 190) == ["down"]
    assert _states_during(epochs, 195, 230) == ["down", "up"]
    assert _states_during(epochs, 215, 300) == ["up"]


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
def test_ledger_parts_add_up_and_thread_spans_are_adopted():
    # one request: client 0..100; server decode 10..20, handle 20..80
    # holding lookup 25..75; a batch fill on a worker thread 40..70 that
    # names the request but has no recorded parent
    spans = [
        [1, "decode", "service.server", 10, 20, 0, 7],
        [2, "handle_request", "service.server", 20, 80, 0, 7],
        [3, "lookup", "service.daemon", 25, 75, 2, 7],
        [4, "peek", "session.core", 26, 30, 3, 7],
        [5, "compute_many", "session.core", 40, 70, 0, [7]],
        [6, "settle_many", "bgp.kernels", 45, 65, 5, [7]],
    ]
    roots = [[100, "request", "loopback", 0, 100, 0, 7]]
    book = ledger.build(spans, roots)
    us = {k: v * 1e3 for k, v in book["layers_us"].items()}   # back to ns
    assert us["loopback"] == pytest.approx(30)
    assert us["service.server"] == pytest.approx(20)
    assert us["admission_wait"] == pytest.approx(10)          # 30..40
    assert us["service.daemon"] == pytest.approx(6)
    assert us["session.core"] == pytest.approx(14)
    assert us["bgp.kernels"] == pytest.approx(20)
    assert sum(us.values()) == pytest.approx(100)
    assert book["gap_share"] == pytest.approx(0)


# ----------------------------------------------------------------------
# no process left behind
# ----------------------------------------------------------------------
def _start_full_run():
    runner = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "warm_path",
         "--seconds", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 30
    started = {}
    while time.monotonic() < deadline:
        started = started_by(runner.pid)
        if any("server.py" in cmd for cmd in started.values()):
            break
        time.sleep(0.05)
    assert any("server.py" in cmd for cmd in started.values()), started
    time.sleep(2.5)                      # past set-up, into the rounds
    assert runner.poll() is None
    return runner, list(started_by(runner.pid))


@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM])
def test_killing_the_runner_mid_phase_takes_its_children_along(signum):
    runner, kids = _start_full_run()
    try:
        assert kids
        runner.send_signal(signum)
        assert gone_within(kids, 2.0), started_by(runner.pid)
        stdout, _ = runner.communicate(timeout=10)
        assert runner.returncode != 0
        assert '"correct"' not in stdout
    finally:
        runner.kill()
        runner.wait()


def test_main_leaves_no_thread_no_child_and_its_affinity_behind():
    threads = set(threading.enumerate())
    affinity = os.sched_getaffinity(0)
    caught = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)
    handlers = [signal.getsignal(s) for s in caught]
    try:
        status = run.main(["--workload", "negotiate", "--quick"])
    finally:
        for signum, handler in zip(caught, handlers):
            signal.signal(signum, handler)
    assert status == 0
    assert not [t for t in set(threading.enumerate()) - threads
                if not t.daemon]
    assert os.sched_getaffinity(0) == affinity
    assert child.children_of(os.getpid()) == []
