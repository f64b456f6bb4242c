"""Snapshot kernel vs legacy dict walk: speed and pool-ship payload.

The tentpole claims of the int-indexed hot path, measured on the
verify-500 profile the differential campaigns use:

* the index-space kernel computes a stable state decisively faster than
  the legacy dict walk it byte-for-byte reproduces.  The kernel returns
  a parent-pointer tree, so its cost is recorded in two parts — settle,
  and materialize (``RoutingTable.items()`` over the tree, every
  ``(asn, Route)``) — and gated twice: settle plus materialize, the
  like-for-like comparison with the dict walk's finished table, stays
  at least 1.5x faster (measured 3.6–5x); settle
  alone, what a path lookup pays, at least 4x (measured 9–10x) — the
  gate that protects settling from growing per-route work back; and
* the frozen snapshot the session ships to pool workers pickles smaller
  than the mutable graph it replaced.
"""

import pickle
import time

import pytest

from repro.bgp.kernels.scalar import compute_routes_snapshot
from repro.bgp.routing import RoutingTable, compute_routes_reference
from repro.topology import generate_named


@pytest.fixture(scope="module")
def verify_graph():
    return generate_named("verify-500", seed=0)


def _per_destination(fn, target, destinations):
    start = time.perf_counter()
    for destination in destinations:
        fn(target, destination)
    return (time.perf_counter() - start) / len(destinations)


def test_snapshot_kernel_speedup_and_ship_size(
    benchmark, verify_graph, bench_report
):
    graph = verify_graph
    destinations = graph.ases[:: max(1, len(graph) // 12)]
    snapshot = graph.snapshot()

    def sweep():
        settle = _per_destination(
            compute_routes_snapshot, snapshot, destinations
        )
        table = _per_destination(
            lambda snap, d: list(RoutingTable(
                graph, d, compute_routes_snapshot(snap, d)).items()),
            snapshot, destinations,
        )
        reference = _per_destination(
            compute_routes_reference, graph, destinations
        )
        return settle, table, reference

    def run():
        # fastest of three sweeps, as test_batched_kernel.py takes them:
        # a timed window here is ~8 ms, and one full collection of the
        # suite's heap inside it (~20 ms) used to decide the ratio
        return tuple(map(min, zip(*(sweep() for _ in range(3)))))

    settle_s, kernel_s, reference_s = benchmark.pedantic(
        run, rounds=1, iterations=1)

    graph_bytes = len(pickle.dumps(graph))
    snapshot_bytes = len(pickle.dumps(snapshot))
    speedup = reference_s / kernel_s if kernel_s else float("inf")
    settle_speedup = reference_s / settle_s if settle_s else float("inf")

    bench_report.record("kernel_seconds_per_destination", kernel_s,
                        "seconds", gate=True,
                        topology="verify-500", topology_size=len(graph))
    bench_report.record("settle_seconds_per_destination", settle_s,
                        "seconds", gate=True,
                        topology="verify-500", topology_size=len(graph))
    bench_report.record("settle_speedup", settle_speedup, "x",
                        better="higher")
    bench_report.record("reference_seconds_per_destination", reference_s,
                        "seconds",
                        topology="verify-500", topology_size=len(graph))
    bench_report.record("speedup", speedup, "x", better="higher")
    bench_report.record("snapshot_pickle_bytes", snapshot_bytes, "bytes",
                        gate=True,
                        topology="verify-500", topology_size=len(graph))
    bench_report.record("ship_ratio", snapshot_bytes / graph_bytes, "ratio")

    # the acceptance bar: the kernel replaces the dict walk only if it is
    # decisively faster and the pool payload got smaller, not larger
    assert speedup >= 1.5
    assert settle_speedup >= 4.0
    assert snapshot_bytes < graph_bytes


def test_kernel_output_matches_reference_here(verify_graph):
    """The speed claim is only meaningful if the outputs are identical;
    re-check on the exact graph and destinations the benchmark timed."""
    graph = verify_graph
    snapshot = graph.snapshot()
    for destination in graph.ases[:: max(1, len(graph) // 6)]:
        kernel = compute_routes_snapshot(snapshot, destination)
        reference = compute_routes_reference(graph, destination)
        assert {a: r.path for a, r in kernel.expand()} == {
            a: r.path for a, r in reference.items()
        }
