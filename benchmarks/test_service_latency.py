"""Serving-plane load benchmark: warm throughput, coalescing, shedding.

The asyncio query daemon's acceptance bar is concrete: on the warm
``verify-500`` topology it must sustain at least 10k route lookups per
second through the full admission path (peek fast path included), with
tail latency reported, not just the mean.  Two mechanism proofs ride
along — N concurrent cold lookups of one destination cost exactly one
cache fill (the per-destination future coalesces the rest), and an
offered load beyond ``max_pending`` is shed with ``Retry-After`` rather
than queued unboundedly.
"""

from __future__ import annotations

import asyncio
import time

from repro.errors import ServiceOverloadError
from repro.service import MiroService, ServiceConfig
from repro.service.daemon import _COALESCED, _SHED
from repro.session import SimulationSession
from repro.session.cache import _CACHE_EVENTS
from repro.topology import generate_named

PROFILE = "verify-500"
SEED = 0
WARM_DESTINATIONS = 16
LOOKUPS = 20_000
TARGET_QPS = 10_000


def _fills() -> float:
    return _CACHE_EVENTS.labels(event="fill").value


def _quantile(sorted_values, q):
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def test_warm_lookup_throughput_and_tail(benchmark, bench_report):
    """>=10k lookups/s on warm verify-500, p50/p99 reported."""
    graph = generate_named(PROFILE, seed=SEED)
    destinations = graph.ases[:WARM_DESTINATIONS]

    async def run():
        latencies = []
        with SimulationSession(
            graph, parallel=False,
            max_cached_tables=max(WARM_DESTINATIONS, 16),
        ) as session:
            async with MiroService(session, ServiceConfig()) as service:
                await asyncio.gather(
                    *[service.lookup(d) for d in destinations]
                )  # warm every destination: the timed loop is all hits
                start = time.perf_counter()
                for i in range(LOOKUPS):
                    t0 = time.perf_counter()
                    await service.lookup(destinations[i % len(destinations)])
                    latencies.append(time.perf_counter() - t0)
                elapsed = time.perf_counter() - start
        return elapsed, latencies

    elapsed, latencies = benchmark.pedantic(
        lambda: asyncio.run(run()), rounds=1, iterations=1
    )
    qps = LOOKUPS / elapsed
    latencies.sort()
    p50_ms = _quantile(latencies, 0.50) * 1e3
    p99_ms = _quantile(latencies, 0.99) * 1e3
    bench_report.record(
        "warm_lookup_qps", qps, "lookups/s", better="higher",
        topology=PROFILE, topology_size=len(graph),
    )
    bench_report.record("warm_lookup_p50_ms", p50_ms, "ms")
    bench_report.record("warm_lookup_p99_ms", p99_ms, "ms")
    assert qps >= TARGET_QPS, (
        f"warm service path sustained {qps:,.0f} lookups/s; "
        f"the acceptance bar is {TARGET_QPS:,}"
    )


def test_concurrent_cold_lookups_cost_one_fill(bench_report):
    """64 racing lookups of one cold destination -> exactly one fill."""
    graph = generate_named(PROFILE, seed=SEED)
    destination = graph.ases[0]
    n_requests = 64

    async def run():
        with SimulationSession(graph, parallel=False) as session:
            async with MiroService(
                session, ServiceConfig(max_delay=0.005)
            ) as service:
                fills_before = _fills()
                coalesced_before = _COALESCED.value
                tables = await asyncio.gather(
                    *[service.lookup(destination) for _ in range(n_requests)]
                )
                return (
                    tables,
                    _fills() - fills_before,
                    _COALESCED.value - coalesced_before,
                )

    tables, fill_delta, coalesced = asyncio.run(run())
    assert len(tables) == n_requests
    assert all(t is tables[0] for t in tables)
    assert fill_delta == 1, (
        f"{n_requests} concurrent misses caused {fill_delta} fills; "
        "the per-destination future must coalesce them into one"
    )
    assert coalesced == n_requests - 1
    bench_report.record(
        "coalesced_joins_per_fill", coalesced, "requests", better="higher",
        topology=PROFILE, topology_size=len(graph),
    )


def test_overload_sheds_instead_of_queueing(bench_report):
    """Offered load beyond max_pending is shed with Retry-After."""
    graph = generate_named(PROFILE, seed=SEED)
    offered = graph.ases[:64]
    config = ServiceConfig(
        max_batch=2, max_delay=0.05, max_pending=4,
        retry_after=0.01, settle_threads=1,
    )

    async def run():
        with SimulationSession(graph, parallel=False) as session:
            async with MiroService(session, config) as service:
                shed_before = _SHED.value
                results = await asyncio.gather(
                    *[service.lookup(d) for d in offered],
                    return_exceptions=True,
                )
                return results, _SHED.value - shed_before

    results, shed_delta = asyncio.run(run())
    shed = [r for r in results if isinstance(r, ServiceOverloadError)]
    ok = [r for r in results if not isinstance(r, BaseException)]
    assert shed, "expected sheds beyond max_pending=4"
    assert ok, "accepted requests must still complete under overload"
    assert len(shed) + len(ok) == len(offered)
    assert shed_delta == len(shed)
    assert all(s.retry_after == config.retry_after for s in shed)
    bench_report.record(
        "overload_shed_requests", len(shed), "requests",
        topology=PROFILE, topology_size=len(graph),
    )
    bench_report.record(
        "overload_completed_requests", len(ok), "requests",
        topology=PROFILE, topology_size=len(graph),
    )
