"""Synthetic Internet-like AS topology generator.

Substitute for the RouteViews-derived topologies of Table 5.1 (see
DESIGN.md §1).  The generator builds a *hierarchical* (acyclic
customer–provider) graph with the properties the paper identifies as the
load-bearing ones (§5.1):

* a small, fully-peered tier-1 clique at the core,
* heavy-tailed node degrees via preferential provider attachment,
* short AS paths (mean ≈ 4 under valley-free routing),
* a large population of stub ASes, the majority multi-homed,
* peering and sibling links in the proportions of Table 5.1.

Profiles scale the paper's four data sets down to sizes a laptop-class
simulation handles exhaustively; ratios between link classes are preserved.

Providers are drawn from a :class:`_WeightedPool` per candidate list
(tier-1; tier-2 and tier-1 + tier-2; tier-2 + tier-3), built once when
its tier's loop starts.  Each pick consumes one ``rng.random()`` and
lands where ``rng.choices`` over the remaining candidates would, so
the rng stream, and with it every (profile, seed)'s graph, is that of
``choices``.  A pick costs O(log n), and generation O(n log n).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import TopologyError
from .graph import ASGraph
from .relationships import LinkType, Relationship


@dataclass(frozen=True, slots=True)
class TopologyProfile:
    """Parameters controlling :func:`generate_topology`.

    The tier sizes are fractions of ``n_ases`` (stubs get the remainder).
    ``peer_fraction`` / ``sibling_fraction`` are expressed relative to the
    number of customer–provider links, matching how Table 5.1 reports them.
    """

    name: str
    n_ases: int
    n_tier1: int = 10
    tier2_fraction: float = 0.10
    tier3_fraction: float = 0.25
    peer_fraction: float = 0.08
    sibling_fraction: float = 0.015
    #: distribution of provider counts for stubs: P(1), P(2), P(3), P(4)
    stub_provider_weights: Tuple[float, ...] = (0.40, 0.40, 0.15, 0.05)
    #: distribution of provider counts for transit (tier-2/3) ASes
    transit_provider_weights: Tuple[float, ...] = (0.30, 0.45, 0.20, 0.05)

    def __post_init__(self) -> None:
        if self.n_ases < self.n_tier1 + 2:
            raise TopologyError(
                f"profile {self.name!r}: n_ases={self.n_ases} too small "
                f"for n_tier1={self.n_tier1}"
            )
        if not 0 <= self.tier2_fraction + self.tier3_fraction < 1:
            raise TopologyError(
                f"profile {self.name!r}: tier fractions must leave room for stubs"
            )


# Scaled-down stand-ins for the paper's data sets (Table 5.1).  The paper's
# peering:P/C ratios are Gao2000 1031/16531≈0.062, Gao2003 3062/30649≈0.100,
# Gao2005 3753/40558≈0.093, Agarwal2004 3553/34552≈0.103; sibling ratios
# 0.014/0.017/0.017/0.005.
GAO_2000 = TopologyProfile(
    "gao-2000", n_ases=450, n_tier1=8, tier2_fraction=0.09,
    tier3_fraction=0.22, peer_fraction=0.062, sibling_fraction=0.014,
)
GAO_2003 = TopologyProfile(
    "gao-2003", n_ases=800, n_tier1=10, tier2_fraction=0.10,
    tier3_fraction=0.24, peer_fraction=0.100, sibling_fraction=0.017,
)
GAO_2005 = TopologyProfile(
    "gao-2005", n_ases=1050, n_tier1=12, tier2_fraction=0.10,
    tier3_fraction=0.25, peer_fraction=0.093, sibling_fraction=0.017,
)
AGARWAL_2004 = TopologyProfile(
    "agarwal-2004", n_ases=850, n_tier1=10, tier2_fraction=0.10,
    tier3_fraction=0.24, peer_fraction=0.103, sibling_fraction=0.005,
)
#: The April 2009 snapshot quoted in §7.4 (31,311 ASes, 12,468 stubs —
#: ≈ 40% pure leaves), scaled like the other profiles.
APRIL_2009 = TopologyProfile(
    "april-2009", n_ases=1550, n_tier1=13, tier2_fraction=0.10,
    tier3_fraction=0.24, peer_fraction=0.095, sibling_fraction=0.016,
    stub_provider_weights=(0.42, 0.40, 0.13, 0.05),
)
#: Small profile for unit tests and quick examples.
SMALL = TopologyProfile(
    "small", n_ases=120, n_tier1=5, tier2_fraction=0.12,
    tier3_fraction=0.25, peer_fraction=0.09, sibling_fraction=0.015,
)
#: Tiny profile for property-based tests.
TINY = TopologyProfile(
    "tiny", n_ases=40, n_tier1=4, tier2_fraction=0.15,
    tier3_fraction=0.25, peer_fraction=0.10, sibling_fraction=0.02,
)
#: 500-AS profile sized for the ``repro verify`` campaign default: big
#: enough for tier structure and multi-phase routes, small enough to
#: re-verify whole tables after every injected fault.
VERIFY_500 = TopologyProfile(
    "verify-500", n_ases=500, n_tier1=8, tier2_fraction=0.09,
    tier3_fraction=0.22, peer_fraction=0.08, sibling_fraction=0.014,
)

#: Scaling profile for the kernel benchmarks: an internet-sized AS count
#: (between the 2005/2009 measured snapshots) where the per-table cost of
#: the settling kernels separates cleanly from fixed overheads.
INTERNET_10K = TopologyProfile(
    "internet-10k", n_ases=10_000, n_tier1=14, tier2_fraction=0.10,
    tier3_fraction=0.24, peer_fraction=0.095, sibling_fraction=0.016,
)

PROFILES: Dict[str, TopologyProfile] = {
    p.name: p
    for p in (
        GAO_2000, GAO_2003, GAO_2005, AGARWAL_2004, APRIL_2009, SMALL, TINY,
        VERIFY_500, INTERNET_10K,
    )
}


def _weighted_count(rng: random.Random, weights: Sequence[float]) -> int:
    """Draw a provider count (1-based) from a weight vector."""
    return rng.choices(range(1, len(weights) + 1), weights=weights, k=1)[0]


class _WeightedPool:
    """Candidates drawn with weight ``degree + 1``, over a Fenwick tree.

    Makes exactly the draws ``rng.choices(pool, weights, k=1)`` makes in
    CPython over the members in list order, with each member picked
    earlier in the same :meth:`pick` removed from ``pool``: one
    ``rng.random()`` per pick, ``target = u * float(total)``, and the
    first member whose integer prefix sum exceeds ``target`` (what
    ``bisect_right`` over the cumulative weights returns).  A member
    already picked weighs 0 until the call returns, which skips it as
    its removal did.

    Building costs O(n); a pick, a weight change and a restore each
    O(log n).
    """

    __slots__ = ("_members", "_slot", "_weight", "_tree", "_total")

    def __init__(self, members: Sequence[int], weights: Sequence[int]) -> None:
        self._members = list(members)
        self._slot = {member: i for i, member in enumerate(self._members)}
        self._weight = list(weights)
        n = len(self._weight)
        tree = [0, *self._weight]
        for i in range(1, n + 1):
            parent = i + (i & -i)
            if parent <= n:
                tree[parent] += tree[i]
        self._tree = tree
        self._total = sum(self._weight)

    def _add(self, slot: int, delta: int) -> None:
        self._weight[slot] += delta
        self._total += delta
        tree = self._tree
        n = len(tree) - 1
        i = slot + 1
        while i <= n:
            tree[i] += delta
            i += i & -i

    def grow(self, member: int) -> None:
        """Add 1 to ``member``'s weight (a new customer link); a no-op
        for a non-member."""
        slot = self._slot.get(member)
        if slot is not None:
            self._add(slot, 1)

    def _find(self, target: float) -> int:
        """The slot of the first member whose prefix sum is > ``target``.

        The accumulator stays an integer and each comparison is int
        against float, both exact, so no rounding enters the descent.
        ``choices`` clamps its bisect to the last member; that clamp
        cannot fire here, because for an integer total T < 2**53 and
        u <= 1 - 2**-53, u * T rounds to a float below T, so the last
        prefix sum, T, always exceeds the target.
        """
        tree = self._tree
        n = len(tree) - 1
        pos = acc = 0
        step = (1 << n.bit_length()) >> 1  # the largest power of 2 <= n
        while step:
            nxt = pos + step
            if nxt <= n and acc + tree[nxt] <= target:
                pos = nxt
                acc += tree[nxt]
            step >>= 1
        return pos

    def pick(self, rng: random.Random, count: int) -> List[int]:
        """Draw ``min(count, len(members))`` distinct members.

        Preferential attachment is what produces the heavy-tailed
        degree distribution of Fig. 5.1.
        """
        chosen: List[int] = []
        taken: List[Tuple[int, int]] = []
        for _ in range(min(count, len(self._members))):
            slot = self._find(rng.random() * float(self._total))
            chosen.append(self._members[slot])
            weight = self._weight[slot]
            taken.append((slot, weight))
            self._add(slot, -weight)
        for slot, weight in taken:
            self._add(slot, weight)
        return chosen


def generate_topology(
    profile: TopologyProfile = GAO_2005, seed: int = 0
) -> ASGraph:
    """Generate a hierarchical Internet-like AS topology.

    Deterministic for a given (profile, seed).  AS numbers are assigned
    1..n, tier-1 first, so low AS numbers are the core.
    """
    rng = random.Random(seed)
    graph = ASGraph()

    n = profile.n_ases
    n_t1 = profile.n_tier1
    n_t2 = max(1, int(n * profile.tier2_fraction))
    n_t3 = max(1, int(n * profile.tier3_fraction))
    n_stub = n - n_t1 - n_t2 - n_t3
    if n_stub <= 0:
        raise TopologyError(f"profile {profile.name!r} leaves no stub ASes")

    tier1 = list(range(1, n_t1 + 1))
    tier2 = list(range(n_t1 + 1, n_t1 + n_t2 + 1))
    tier3 = list(range(n_t1 + n_t2 + 1, n_t1 + n_t2 + n_t3 + 1))
    stubs = list(range(n_t1 + n_t2 + n_t3 + 1, n + 1))

    for asn in range(1, n + 1):
        graph.add_as(asn)

    def draw_pool(members: List[int]) -> _WeightedPool:
        """The tier's draw pool, weighted by each member's degree now."""
        return _WeightedPool(members, [graph.degree(m) + 1 for m in members])

    def connect(
        customer: int, providers: List[int], live: Sequence[_WeightedPool]
    ) -> None:
        """Link ``customer`` below each provider, whose weight grows in
        every ``live`` pool holding it (the customer is in none)."""
        for provider in providers:
            graph.add_link(provider, customer, Relationship.CUSTOMER)
            for held in live:
                held.grow(provider)

    # 1. Tier-1 clique: full peer mesh (the Internet's default-free core).
    for i, a in enumerate(tier1):
        for b in tier1[i + 1:]:
            graph.add_link(a, b, Relationship.PEER)

    # 2. Tier-2: providers drawn preferentially from tier-1.
    core = draw_pool(tier1)
    for asn in tier2:
        count = _weighted_count(rng, profile.transit_provider_weights)
        connect(asn, core.pick(rng, count), (core,))

    # 3. Tier-3: providers drawn preferentially from tier-2 (occasionally
    #    tier-1, modelling regional ISPs buying direct transit from the core).
    regional, direct = draw_pool(tier2), draw_pool(tier1 + tier2)
    for asn in tier3:
        count = _weighted_count(rng, profile.transit_provider_weights)
        source = regional if rng.random() > 0.15 else direct
        connect(asn, source.pick(rng, count), (regional, direct))

    # 4. Stubs: customers of tier-2/tier-3 transit ASes.
    transit = draw_pool(tier2 + tier3)
    for asn in stubs:
        count = _weighted_count(rng, profile.stub_provider_weights)
        connect(asn, transit.pick(rng, count), (transit,))

    # 5. Peering links among same-tier transit ASes, scaled to the profile's
    #    peer:P/C ratio.  (The tier-1 mesh already contributes some.)
    n_pc = graph.link_counts()[LinkType.CUSTOMER_PROVIDER]
    target_peers = int(n_pc * profile.peer_fraction)
    existing_peers = n_t1 * (n_t1 - 1) // 2
    attempts = 0
    added = 0
    while added < max(0, target_peers - existing_peers) and attempts < 50 * n:
        attempts += 1
        pool = tier2 if rng.random() < 0.6 else tier3
        if len(pool) < 2:
            continue
        a, b = rng.sample(pool, 2)
        if graph.has_link(a, b):
            continue
        graph.add_link(a, b, Relationship.PEER)
        added += 1

    # 6. Sibling links: pairs within the same tier (same organisation).
    target_siblings = int(n_pc * profile.sibling_fraction)
    attempts = 0
    added = 0
    while added < target_siblings and attempts < 50 * n:
        attempts += 1
        pool = rng.choice([tier2, tier3, stubs])
        if len(pool) < 2:
            continue
        a, b = rng.sample(pool, 2)
        if graph.has_link(a, b):
            continue
        graph.add_link(a, b, Relationship.SIBLING)
        added += 1

    return graph


def generate_named(name: str, seed: int = 0) -> ASGraph:
    """Generate a topology by profile name (see :data:`PROFILES`)."""
    if name not in PROFILES:
        raise TopologyError(
            f"unknown profile {name!r}; choose from {sorted(PROFILES)}"
        )
    return generate_topology(PROFILES[name], seed=seed)
