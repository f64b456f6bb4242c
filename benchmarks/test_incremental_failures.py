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
the parent's columns at C speed and walks only the cleared region, its
border and a few bisect probes.  Measured 6–7x in aggregate on a shared
2-CPU VM (2.4–2.8x while the restart still walked the whole old order
three times); gated at 2x.

Two more gates hold a link event's cost to what it changed.  A restart
whose region is one AS must cost about the same at internet-10k as at
verify-500: no pass over every node (gated at 5x, reads ~3x; with
three Python passes over the whole order it read ~10x).  And a
link-down's snapshot, derived from the parent version's, must beat a
full build of the same graph by 4x at gao-2005 (reads ~8x; a build
reads 1x).
"""

import random
import time

from repro.bgp import compute_routes, recompute_routes
from repro.bgp.kernels import scalar
from repro.bgp.routing import affected_ases
from repro.session import SimulationSession
from repro.topology import TopologyDelta, TopologySnapshot, generate_named

N_EVENTS = 25
SEED = 42
#: Timed rounds of the two cost-of-the-change gates; each keeps its fastest.
ROUNDS = 5


def test_incremental_beats_full_on_single_link_failures(
    benchmark, gao_2005, bench_report
):
    graph = gao_2005
    destination = graph.ases[0]
    before = compute_routes(graph, destination)
    before._tree.complete()  # the derivations' shared parent, settled once
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
            full._tree.complete()  # all three phases, as a derivation has
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


def test_one_as_resettle_costs_the_region(bench_report):
    """A multi-homed stub loses the provider link its route used: the
    region is the stub alone, at 500 and at 10,000 ASes."""
    seconds = {}
    for name in ("verify-500", "internet-10k"):
        graph = generate_named(name, seed=0)
        destination = graph.ases[0]
        table = compute_routes(graph, destination)
        stub = next(
            asn for asn in graph.ases
            if asn != destination and graph.is_multihomed_stub(asn)
        )
        applied = TopologyDelta.link_down(
            stub, table.default_path(stub)[1]).apply(graph)
        assert affected_ases(graph, table, applied.changed_links) == {stub}
        snapshot = graph.snapshot()
        tree = table._tree
        tree._slice_column()  # built by the first per-AS read, then kept
        rounds = []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            derived = scalar.resettle(snapshot, tree, destination, {stub})
            rounds.append(time.perf_counter() - start)
        assert derived is not None
        assert list(derived.expand()) == list(
            compute_routes(graph, destination).items())
        seconds[name] = min(rounds)
        bench_report.record(
            "one_as_resettle_seconds", seconds[name], "seconds",
            topology=name, topology_size=len(graph),
        )
    ratio = seconds["internet-10k"] / seconds["verify-500"]
    bench_report.record("one_as_resettle_scaling", ratio, "x",
                        better="lower", gate=True)
    assert ratio <= 5, (
        f"a one-AS restart costs {ratio:.1f}x more at internet-10k than at "
        f"verify-500: something walks every node"
    )


def test_link_down_snapshot_is_derived(gao_2005, bench_report):
    """Each sampled link-down's snapshot, made by ``graph.snapshot()``
    from the warm parent memo, against a full build of the same graph."""
    graph = gao_2005
    rng = random.Random(SEED)
    events = rng.sample(sorted(graph.iter_links()), ROUNDS)
    derived, built = [], []
    for a, b, _ in events:
        graph.snapshot()  # the parent version's memo
        applied = TopologyDelta.link_down(a, b).apply(graph)
        start = time.perf_counter()
        graph.snapshot()
        derived.append(time.perf_counter() - start)
        start = time.perf_counter()
        TopologySnapshot.build(graph)
        built.append(time.perf_counter() - start)
        applied.revert()
    speedup = min(built) / min(derived)
    bench_report.record("link_down_snapshot_seconds", min(derived),
                        "seconds", topology="gao-2005",
                        topology_size=len(graph))
    bench_report.record("link_down_snapshot_speedup", speedup, "x",
                        better="higher", gate=True)
    assert speedup >= 4, (
        f"a link-down's snapshot is only {speedup:.1f}x cheaper than a "
        f"full build"
    )
