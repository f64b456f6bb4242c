"""Disabled-instrumentation overhead of the ``repro.obs`` layer.

The routing hot path carries permanent instrumentation: one
``compute_routes`` span, three phase spans, three phase-timer histogram
observations and one tables-total increment per table.  With the tracer
disabled (the default), each span is the shared no-op singleton, so all
of that must be noise next to the actual three-phase settling.  This
benchmark replays the exact per-table instrumentation sequence against a
500-AS topology's measured ``compute_routes`` time and asserts the no-op
cost stays under 5% of it.  The two are timed in interleaved rounds and
each side's fastest round is compared, so one collection or scheduler
stall on either side cannot decide the gate.  The graph's snapshot is
made before any clock starts, so the compute side times settling alone
— what a warm session lookup's instrumentation rides on.
"""

import time

from repro.bgp import routing
from repro.bgp.kernels import scalar
from repro.obs import get_tracer
from repro.topology import TopologyProfile, generate_topology

#: ~500-AS profile between the built-in gao-2000 (450) and gao-2003 (800).
PROFILE = TopologyProfile("obs-bench", n_ases=500, n_tier1=10)
N_TABLES = 20
#: Replay multiplier so the tiny no-op sequence is timed accurately.
REPLAY = 200
#: Interleaved compute/replay rounds; each side keeps its fastest.
ROUNDS = 5
SEED = 7


def _instrumentation_replay(n_tables: int) -> None:
    """The exact disabled-path instrumentation one compute_routes runs."""
    tracer = get_tracer()
    for _ in range(n_tables):
        with tracer.span("compute_routes", destination=0, pinned=0):
            for index in range(3):
                with scalar.phase_span(index, "full", 0):
                    pass
        routing.TABLES_TOTAL.labels(mode="full").inc()


def test_disabled_instrumentation_under_5_percent(benchmark, bench_report):
    graph = generate_topology(PROFILE, seed=SEED)
    assert len(graph.ases) == 500
    destinations = graph.ases[:N_TABLES]
    graph.snapshot()  # every settle below reads this memo
    tracer = get_tracer()
    tracer.disable()

    def measure():
        compute, replay = [], []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            for destination in destinations:
                routing.compute_routes(graph, destination)
            compute.append(time.perf_counter() - start)

            start = time.perf_counter()
            _instrumentation_replay(N_TABLES * REPLAY)
            replay.append((time.perf_counter() - start) / REPLAY)
        return min(compute), min(replay)

    compute_seconds, replay_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    overhead_fraction = replay_seconds / compute_seconds
    bench_report.record("compute_seconds", compute_seconds, "seconds",
                        topology="obs-bench", topology_size=len(graph.ases))
    bench_report.record("instrumentation_seconds", replay_seconds, "seconds")
    bench_report.record("overhead_fraction", overhead_fraction, "ratio")
    assert overhead_fraction < 0.05, (
        f"disabled instrumentation costs {overhead_fraction:.1%} of "
        f"compute_routes; the no-op path must stay under 5%"
    )
