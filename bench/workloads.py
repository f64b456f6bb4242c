"""The five workloads of the latency ledger, and their seeded inputs.

A workload is a topology (a named ``repro.topology.generator`` profile
with a fixed generator seed), a server configuration, and a traffic
shape.  ``--seed`` drives everything that is *sent*: the destination
population and its popularity ranks, sources, the scan order, the
flapped link, the negotiating parties and the Poisson schedule.  The
program only ever sees the generated inputs.

Request counts per round and open-loop rates are constants committed
here, never computed at run time: both commits of a comparison do the
same work.  Open-loop rates sit a little under 40% of what the program
serves one request at a time on this machine.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

#: Generator seed of every benchmark topology (part of the workload).
TOPOLOGY_SEED = 2006

#: One request's identity for the answer checker:
#: ("path", destination, source) | ("table", destination) |
#: ("negotiate", requester, responder, destination)
Key = Tuple


@dataclass(frozen=True)
class Yard:
    """What the yardstick reads on this machine while its neighbours are
    quiet, for one workload's request mix.  The constants only give the
    reported numbers their natural size: every end-to-end time is the
    program's reading relative to the yardstick's, times these."""

    work: int                     # turns of the yardstick's loop per request
    size: int                     # paths in the yardstick's answer
    rps: float
    cpu_ms_per_req: float
    setup_s: float = 0.45         # its own start: interpreter, imports, work


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profile: str
    kind: str                     # "path" | "table" | "scan" | "negotiate"
    prefill: int                  # destinations computed at set-up
    window: int                   # pipelined requests in the rps phase
    rps_round: int                # requests per closed-loop rps round
    p50_round: int                # requests per window-1 round
    open_rate: float              # open-loop arrivals per second
    open_round: int               # requests per open-loop round
    warmup: int                   # requests sent before any clock starts
    yard: Yard                    # the yardstick request that resembles ours
    max_cached_tables: Optional[int] = None   # None = the program's default
    flap_every: int = 0           # flap the seeded link every N lookups
    origins: int = 0              # destinations originated at set-up
    #: True where the program's cost per request grows with the requests
    #: it has served: every round then starts from a fresh server, so
    #: that rounds are comparable, and a run is several short lives.
    fresh_state: bool = False
    zipf_s: float = 1.1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="warm_path",
            why="smallest message, every request a cache hit: per-request "
                "cost of service.server, service.daemon and SessionCore.peek",
            profile="verify-500", kind="path", prefill=256, window=16,
            rps_round=4000, p50_round=1200, open_rate=3000.0,
            open_round=750, warmup=6000,
            yard=Yard(work=0, size=1, rps=38000.0, cpu_ms_per_req=0.0255),
        ),
        Workload(
            name="warm_table",
            why="same warm path, largest message (~1050 paths per answer): "
                "RoutingTable.items materialization and json.dumps dominate",
            profile="gao-2005", kind="table", prefill=64, window=4,
            rps_round=150, p50_round=120, open_rate=300.0,
            open_round=200, warmup=200,
            yard=Yard(work=0, size=1050, rps=650.0, cpu_ms_per_req=0.77),
        ),
        Workload(
            name="cold_scan",
            why="every request misses a 64-table cache: admission batching, "
                "compute_many, kernels.settle_many, table build, LRU eviction",
            profile="gao-2005", kind="scan", prefill=0, window=16,
            rps_round=48, p50_round=16, open_rate=52.0,
            open_round=100, warmup=64, max_cached_tables=64,
            yard=Yard(work=5000, size=1, rps=143.0, cpu_ms_per_req=3.5),
        ),
        Workload(
            name="churn",
            why="Zipf lookups while one multi-homed stub's provider link "
                "flaps: writer gate, auto-prune, incremental recompute_routes",
            profile="verify-500", kind="path", prefill=128, window=16,
            rps_round=1600, p50_round=1200, open_rate=2200.0,
            open_round=550, warmup=3000, flap_every=400,
            yard=Yard(work=0, size=1, rps=19500.0, cpu_ms_per_req=0.0255),
        ),
        Workload(
            name="negotiate",
            why="the paper's own mechanism: miro.runtime.establish per "
                "request, bgp.engine origination at set-up, kernels idle",
            profile="verify-500", kind="negotiate", prefill=0, window=8,
            rps_round=400, p50_round=200, open_rate=500.0,
            open_round=300, warmup=1500, origins=8, fresh_state=True,
            yard=Yard(work=150, size=1, rps=4400.0, cpu_ms_per_req=0.112),
        ),
    )
}


def quick(workload: Workload) -> Workload:
    """The ~2 s variant used by the tests: tiny topology, same code path."""
    return replace(
        workload,
        profile="tiny",
        prefill=min(workload.prefill, 16),
        rps_round=120, p50_round=80, open_round=90,
        open_rate=300.0, warmup=30,
        max_cached_tables=4 if workload.max_cached_tables else None,
        flap_every=40 if workload.flap_every else 0,
        origins=min(workload.origins, 2),
    )


class Inputs:
    """Everything one run sends, generated from ``--seed`` alone."""

    def __init__(self, workload: Workload, seed: int, graph, reference) -> None:
        """``reference(destination, source)`` is the checker's reference
        path: inputs that depend on routes use it, never the program."""
        self.workload = workload
        self.reference = reference
        self.rng = random.Random(f"{workload.name}/{seed}")
        rng = self.rng
        self.ases: List[int] = sorted(graph.ases)
        self.population: List[int] = []
        self.flap_link: Optional[Tuple[int, int]] = None
        self.origin_triples: List[Tuple[int, int, int]] = []
        self._scan_at = 0
        self._next_id = 1

        if workload.kind == "scan":
            # a permutation of every AS: with more ASes than cache slots
            # a cyclic walk over it never finds its table still cached
            self.population = rng.sample(self.ases, len(self.ases))
        elif workload.kind == "negotiate":
            stubs = sorted(graph.multihomed_stubs())
            self.population = rng.sample(stubs, workload.origins)
        else:
            # sample order is the popularity rank, independent of AS number
            self.population = rng.sample(self.ases, workload.prefill)
        self._cdf = _zipf_cdf(len(self.population), workload.zipf_s)
        if workload.kind == "negotiate":
            # one negotiation per destination at set-up: the service
            # originates a prefix into the runtime's engine on first use
            self.origin_triples = [self._triple(d) for d in self.population]

        if workload.flap_every:
            # the link between a multi-homed stub that nobody looks up
            # and the provider it sends most of its traffic through, so
            # that every flap reroutes about the same share of the
            # tables whichever stub the seed picks
            stubs = set(graph.multihomed_stubs()) - set(self.population)
            stub = rng.choice(sorted(stubs))
            via = Counter(reference(d, stub)[1] for d in self.population)
            self.flap_link = (stub, min(via, key=lambda p: (-via[p], p)))

    # -- what the server is told at set-up ------------------------------
    def server_config(self) -> Dict[str, object]:
        w = self.workload
        return {
            "profile": w.profile,
            "topology_seed": TOPOLOGY_SEED,
            "prefill": self.population if w.prefill else [],
            "max_cached_tables": w.max_cached_tables,
            "originate": self.origin_triples,
            "flap_link": self.flap_link,
        }

    # -- request streams -------------------------------------------------
    def _zipf(self) -> int:
        return self.population[bisect_left(self._cdf, self.rng.random())]

    def _triple(self, destination: int) -> Tuple[int, int, int]:
        """(requester, its first hop toward destination, destination)."""
        while True:
            requester = self.rng.choice(self.ases)
            path = self.reference(destination, requester)
            # the responder must be a transit hop, not the destination
            if path is not None and len(path) >= 3:
                return (requester, path[1], destination)

    def requests(self, count: int) -> Tuple[List[bytes], List[Key]]:
        """``count`` request lines (ids continue across calls) + their keys."""
        w = self.workload
        rng = self.rng
        lines: List[bytes] = []
        keys: List[Key] = []
        for _ in range(count):
            rid = self._next_id
            self._next_id += 1
            if w.kind == "table":
                d = self._zipf()
                keys.append(("table", d))
                text = f'{{"op":"lookup","destination":{d},"id":{rid}}}\n'
            elif w.kind == "negotiate":
                r, via, d = self._triple(self._zipf())
                keys.append(("negotiate", r, via, d))
                text = (
                    f'{{"op":"negotiate","requester":{r},"responder":{via},'
                    f'"destination":{d},"policy":"flexible","id":{rid}}}\n'
                )
            else:
                if w.kind == "scan":
                    d = self.population[self._scan_at % len(self.population)]
                    self._scan_at += 1
                else:
                    d = self._zipf()
                # on churn one source in 16 is the flapped stub itself,
                # whose answer differs between the two link states
                if self.flap_link and rng.random() < 1 / 16:
                    s = self.flap_link[0]
                else:
                    s = rng.choice(self.ases)
                keys.append(("path", d, s))
                text = (
                    f'{{"op":"lookup","destination":{d},"source":{s},'
                    f'"id":{rid}}}\n'
                )
            lines.append(text.encode("ascii"))
        return lines, keys

    def poisson_offsets_ns(self, count: int, rate: float) -> List[int]:
        """Seeded open-loop schedule: cumulative exponential gaps, in ns."""
        at = 0.0
        offsets = []
        for _ in range(count):
            at += self.rng.expovariate(rate)
            offsets.append(int(at * 1e9))
        return offsets


def _zipf_cdf(n: int, s: float) -> Sequence[float]:
    weights = [(rank + 1) ** -s for rank in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    if cdf:
        cdf[-1] = 1.0
    return cdf
