"""How topology generation scales: internet-10k against gao-2005.

Every served process and every experiment starts by generating its
profile, and the full-size Table 5.1 profiles are 8-20x gao-2005's AS
count.  The preferential provider draw is O(log n) per pick, so ~10x the
ASes should cost ~12x the time; the list-rebuilding draw it replaced
cost O(n) per pick and read ~68x here.  The ratio is gated, and the
absolute times are recorded beside it.
"""

import time

from repro.topology.generator import PROFILES, generate_named

#: internet-10k / gao-2005 generation time, min of ROUNDS each.
MAX_RATIO = 20.0
ROUNDS = 3


def _min_seconds(name: str) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        generate_named(name, seed=0)
        best = min(best, time.perf_counter() - start)
    return best


def test_generation_scales_near_linearly(benchmark, bench_report):
    small = _min_seconds("gao-2005")
    large = benchmark.pedantic(
        _min_seconds, args=("internet-10k",), rounds=1, iterations=1)
    ratio = large / small

    for name, seconds in (("gao-2005", small), ("internet-10k", large)):
        bench_report.record(
            f"{name.replace('-', '_')}_generate_seconds", seconds, "seconds",
            topology=name, topology_size=PROFILES[name].n_ases,
        )
    bench_report.record("internet_10k_over_gao_2005", ratio, "x",
                        better="lower", gate=True)
    assert ratio <= MAX_RATIO
