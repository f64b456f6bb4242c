"""A cold table read once: the scalar fill plus one path, against a fill
read whole.

The scalar kernel's fill settles the climb and the peer phase; the
descent, which adopts nearly every AS of gao-2005, is pulled per AS by
the first read and completed by the second or by a whole-tree read.  A
request that misses the cache and reads one path — the ``cold_scan``
shape — pays the fill and one pull.  Gated: that costs at most a third
of a completed fill (``order``, a whole-tree read) on the same
(destination, source) pairs.  A kernel that settles everything up front
reads ~1.
"""

import random
import time

from repro.bgp.kernels.scalar import compute_routes_snapshot

#: (destination, source) pairs per timed sweep
PAIRS = 80


def test_fill_plus_one_path_against_a_completed_fill(
    benchmark, gao_2005, bench_report
):
    graph = gao_2005
    snapshot = graph.snapshot()
    rng = random.Random(0)
    pairs = [
        (rng.choice(graph.ases), rng.choice(graph.ases)) for _ in range(PAIRS)
    ]

    def sweep():
        start = time.perf_counter()
        for destination, source in pairs:
            compute_routes_snapshot(snapshot, destination).path(source)
        middle = time.perf_counter()
        for destination, _ in pairs:
            compute_routes_snapshot(snapshot, destination).order
        stop = time.perf_counter()
        return (middle - start) / PAIRS, (stop - middle) / PAIRS

    def run():
        # fastest of three sweeps, as the other kernel benchmarks take them
        return tuple(map(min, zip(*(sweep() for _ in range(3)))))

    one_path_s, completed_s = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = one_path_s / completed_s

    bench_report.record("fill_one_path_seconds", one_path_s, "seconds",
                        gate=True, topology="gao-2005",
                        topology_size=len(graph))
    bench_report.record("completed_fill_seconds", completed_s, "seconds",
                        topology="gao-2005", topology_size=len(graph))
    bench_report.record("fill_one_path_ratio", ratio, "ratio", gate=True,
                        topology="gao-2005", topology_size=len(graph))

    assert ratio <= 1 / 3
