"""Full vs. incremental route recomputation under single-link failures.

A link failure invalidates only the routes that traversed it, so
``recompute_routes`` re-settles the subtrees under the cut tree edges
instead of the whole table.  This benchmark samples single-link failures
on the Gao 2005 data set and times both strategies per event.
Events/second and the mean affected-set fraction land in the unified
bench trajectory.

The gate protects the session's derive path: deriving a post-failure
table must stay decisively cheaper than settling it afresh, or the
derivation index, ``affected_ases`` and the restart of the wave loop are
not worth their code.  Both sides are timed the way
``SessionCore._fill_batch`` runs them — on the post-event snapshot,
built once per event *before* either clock starts (it is memoized per
graph version, so whichever side ran first used to be charged for it) —
and the incremental side is the whole derivation, ``affected_ases`` plus
``recompute_routes``.  Both are the same wave loop, so the ratio is what
the restart saves: a full settle walks every routed AS's neighbours,
one depth level at a time (~0.5 ms at 1,050 ASes); a restart copies
the parent's columns, walks the old order once for depths, and offers
from the cleared region's border (~0.2 ms at a mean of a few affected
ASes).  Measured 2.4–2.8x in aggregate on a shared 2-CPU VM (3.3–4.1x
before the level-by-level loop halved the full settle; the restart's
flat passes did not shrink with it); gated at 2x.
"""

import random
import time

from repro.bgp import compute_routes, recompute_routes
from repro.bgp.routing import affected_ases
from repro.session import SimulationSession
from repro.topology import TopologyDelta

N_EVENTS = 25
SEED = 42


def test_incremental_beats_full_on_single_link_failures(
    benchmark, gao_2005, bench_report
):
    graph = gao_2005
    destination = graph.ases[0]
    before = compute_routes(graph, destination)
    rng = random.Random(SEED)
    candidates = [
        (a, b) for a, b, _ in sorted(graph.iter_links())
        if destination not in (a, b)
    ]
    events = rng.sample(candidates, N_EVENTS)

    def sweep():
        full_seconds = incremental_seconds = 0.0
        affected_total = 0
        for a, b in events:
            applied = TopologyDelta.link_down(a, b).apply(graph)
            graph.snapshot()  # both sides settle on it; neither pays
            start = time.perf_counter()
            affected = affected_ases(graph, before, applied.changed_links)
            incremental = recompute_routes(
                graph, before, applied, affected=affected
            )
            incremental_seconds += time.perf_counter() - start
            affected_total += len(affected)
            start = time.perf_counter()
            full = compute_routes(graph, destination)
            full_seconds += time.perf_counter() - start
            assert {n: r.path for n, r in incremental.items()} == (
                {n: r.path for n, r in full.items()}
            )
            applied.revert()
        return full_seconds, incremental_seconds, affected_total

    full_seconds, incremental_seconds, affected_total = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )

    mean_affected_fraction = affected_total / (N_EVENTS * len(graph.ases))
    size = len(graph)
    bench_report.record("full_seconds", full_seconds, "seconds",
                        topology="gao-2005", topology_size=size)
    bench_report.record("incremental_seconds", incremental_seconds,
                        "seconds", gate=True,
                        topology="gao-2005", topology_size=size)
    bench_report.record(
        "speedup",
        full_seconds / incremental_seconds if incremental_seconds else 0.0,
        "x", better="higher",
    )
    bench_report.record("mean_affected_fraction", mean_affected_fraction,
                        "ratio")

    assert incremental_seconds * 2 <= full_seconds


def test_session_derives_after_failure(benchmark, gao_2005):
    """Post-failure cache misses are served by derivation, not full
    computation, and the derived tables come out at cache-like cost."""
    destinations = gao_2005.ases[:10]
    session = SimulationSession(gao_2005, parallel=False)
    session.compute_many(destinations)  # warm the pre-failure tables
    links = sorted(gao_2005.iter_links())
    a, b = next(
        (x, y) for x, y, _ in links
        if not set(destinations) & {x, y}
    )

    def fail_and_refresh():
        applied = TopologyDelta.link_down(a, b).apply(gao_2005)
        session.compute_many(destinations)
        applied.revert()

    benchmark(fail_and_refresh)
    stats = session.stats
    assert stats["tables_derived"] > 0
    assert stats["tables_computed"] == len(destinations)
