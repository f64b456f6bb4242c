"""Cold vs. warm fan-out through the session cache.

The SimulationSession exists so repeated experiments on one topology pay
for route computation once.  This benchmark quantifies that: a cold
``compute_many`` over 200 destinations on the Gao 2005 data set computes
every table; the warm repeat serves all 200 from cache and must be at
least 1.5x faster (in practice it is orders of magnitude faster).  The
timings land in the unified bench trajectory via ``bench_report``.
"""

import time

from repro.session import SimulationSession

N_DESTINATIONS = 200


def test_warm_fanout_beats_cold(benchmark, gao_2005, bench_report):
    destinations = gao_2005.ases[:N_DESTINATIONS]
    session = SimulationSession(gao_2005, max_cached_tables=N_DESTINATIONS)

    def cold_then_warm():
        session.clear_cache()
        start = time.perf_counter()
        session.compute_many(destinations)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        session.compute_many(destinations)
        warm = time.perf_counter() - start
        return cold, warm

    cold, warm = benchmark.pedantic(cold_then_warm, rounds=1, iterations=1)

    stats = session.stats
    size = len(gao_2005)
    bench_report.record("cold_seconds", cold, "seconds",
                        topology="gao-2005", topology_size=size)
    bench_report.record("warm_seconds", warm, "seconds", gate=True,
                        topology="gao-2005", topology_size=size)
    bench_report.record("speedup", cold / warm if warm else 0.0, "x",
                        better="higher")
    bench_report.record("hit_rate", stats["hit_rate"], "ratio",
                        better="higher")

    # every destination computed exactly once, then served from cache
    assert stats["tables_computed"] == len(destinations)
    assert stats["hits"] >= len(destinations)
    # the acceptance bar is 1.5x; cache lookups beat recomputation by far
    assert warm * 1.5 <= cold


def test_warm_single_lookups_are_cheap(benchmark, gao_2005):
    destinations = gao_2005.ases[:20]
    session = SimulationSession(gao_2005)
    session.compute_many(destinations)  # warm up

    def warm_sweep():
        for destination in destinations:
            session.compute(destination)

    benchmark(warm_sweep)
    assert session.stats["tables_computed"] == len(destinations)
