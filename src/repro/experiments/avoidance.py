"""Tables 5.2 and 5.3 — the avoid-an-AS evaluation (§5.3).

Table 5.2 compares, over sampled (source, destination, avoid) triples, the
success rate of single-path BGP, MIRO under the three export policies, and
source routing.  Table 5.3 isolates the triples single-path routing cannot
satisfy and reports MIRO's negotiation state: success rate, average number
of ASes contacted, and average number of candidate paths received.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..miro.avoidance import (
    ContactOrder,
    NegotiationScope,
    miro_attempt,
    single_path_attempt,
)
from ..miro.policies import ExportPolicy, all_policies
from ..sourcerouting import (
    reachable_set_avoiding,
    valley_free_reachable_avoiding,
)
from ..topology.graph import ASGraph
from .sampling import sample_triples


@dataclass(frozen=True)
class SuccessRates:
    """One Table 5.2 row."""

    name: str
    n_triples: int
    single_path: float
    multi_strict: float
    multi_export: float
    multi_flexible: float
    source_routing: float

    def as_row(self) -> Tuple:
        return (
            self.name,
            f"{self.single_path:.1%}",
            f"{self.multi_strict:.1%}",
            f"{self.multi_export:.1%}",
            f"{self.multi_flexible:.1%}",
            f"{self.source_routing:.1%}",
        )


@dataclass(frozen=True)
class NegotiationCost:
    """One Table 5.3 row: negotiation cost under one export policy."""

    policy: ExportPolicy
    success_rate: float
    ases_per_tuple: float
    paths_per_tuple: float

    def as_row(self) -> Tuple:
        return (
            self.policy.label,
            f"{self.success_rate:.1%}",
            f"{self.ases_per_tuple:.2f}",
            f"{self.paths_per_tuple:.1f}",
        )


def run_success_rates(
    graph: ASGraph,
    name: str = "topology",
    n_destinations: int = 12,
    sources_per_destination: int = 20,
    seed: int = 0,
    scope: NegotiationScope = NegotiationScope.ON_PATH,
    session=None,
) -> SuccessRates:
    """Compute a Table 5.2 row over sampled triples."""
    triples = list(
        sample_triples(graph, n_destinations, sources_per_destination, seed=seed,
                       session=session)
    )
    n = len(triples)
    if n == 0:
        return SuccessRates(name, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    single = 0
    multi = {policy: 0 for policy in all_policies()}
    source_ok = 0
    reachability_cache: Dict[Tuple[int, int], Set[int]] = {}
    for triple in triples:
        if single_path_attempt(triple.table, triple.source, triple.avoid).success:
            single += 1
        for policy in all_policies():
            attempt = miro_attempt(
                triple.table, triple.source, triple.avoid, policy, scope=scope
            )
            if attempt.success:
                multi[policy] += 1
        key = (triple.destination, triple.avoid)
        if key not in reachability_cache:
            reachability_cache[key] = reachable_set_avoiding(
                graph, triple.destination, triple.avoid
            )
        if triple.source in reachability_cache[key]:
            source_ok += 1
    return SuccessRates(
        name=name,
        n_triples=n,
        single_path=single / n,
        multi_strict=multi[ExportPolicy.STRICT] / n,
        multi_export=multi[ExportPolicy.EXPORT] / n,
        multi_flexible=multi[ExportPolicy.FLEXIBLE] / n,
        source_routing=source_ok / n,
    )


def run_negotiation_state(
    graph: ASGraph,
    n_destinations: int = 12,
    sources_per_destination: int = 20,
    seed: int = 0,
    scope: NegotiationScope = NegotiationScope.ON_PATH,
    order: ContactOrder = ContactOrder.NEAR_FIRST,
    session=None,
) -> List[NegotiationCost]:
    """Compute the Table 5.3 rows.

    As in the paper, triples that today's single-path routing already
    satisfies are excluded — MIRO establishes no tunnel there.
    """
    triples = [
        t
        for t in sample_triples(
            graph, n_destinations, sources_per_destination, seed=seed,
            session=session,
        )
        if not single_path_attempt(t.table, t.source, t.avoid).success
    ]
    rows: List[NegotiationCost] = []
    for policy in all_policies():
        successes = 0
        total_ases = 0
        total_paths = 0
        for triple in triples:
            attempt = miro_attempt(
                triple.table, triple.source, triple.avoid, policy,
                scope=scope, order=order, include_single_path=False,
            )
            if attempt.success:
                successes += 1
            total_ases += attempt.negotiations
            total_paths += attempt.paths_received
        n = len(triples) or 1
        rows.append(
            NegotiationCost(
                policy=policy,
                success_rate=successes / n,
                ases_per_tuple=total_ases / n,
                paths_per_tuple=total_paths / n,
            )
        )
    return rows


@dataclass(frozen=True)
class MultiHopGain:
    """Success rates with and without the §3.3 responder recursion."""

    policy: ExportPolicy
    depth1_rate: float
    depth2_rate: float
    depth1_negotiations: float
    depth2_negotiations: float

    @property
    def gain(self) -> float:
        return self.depth2_rate - self.depth1_rate


def run_multihop_gain(
    graph: ASGraph,
    n_destinations: int = 10,
    sources_per_destination: int = 15,
    seed: int = 0,
    policies: Sequence[ExportPolicy] = (
        ExportPolicy.STRICT, ExportPolicy.FLEXIBLE
    ),
    session=None,
) -> List[MultiHopGain]:
    """How much does letting responders recurse (§3.3) add?

    The paper predicts little: "most paths in today's Internet are short"
    and "negotiations are allowed between non-adjacent ASes, so instead of
    establishing a chain of tunnels, the source AS can directly contact
    the other end of the chain".
    """
    triples = [
        t for t in sample_triples(
            graph, n_destinations, sources_per_destination, seed=seed,
            session=session,
        )
        if not single_path_attempt(t.table, t.source, t.avoid).success
    ]
    rows: List[MultiHopGain] = []
    n = len(triples) or 1
    for policy in policies:
        stats = {1: [0, 0], 2: [0, 0]}  # depth -> [successes, negotiations]
        for triple in triples:
            for depth in (1, 2):
                attempt = miro_attempt(
                    triple.table, triple.source, triple.avoid, policy,
                    include_single_path=False, max_depth=depth,
                )
                if attempt.success:
                    stats[depth][0] += 1
                stats[depth][1] += attempt.negotiations
        rows.append(
            MultiHopGain(
                policy=policy,
                depth1_rate=stats[1][0] / n,
                depth2_rate=stats[2][0] / n,
                depth1_negotiations=stats[1][1] / n,
                depth2_negotiations=stats[2][1] / n,
            )
        )
    return rows


def valley_free_source_routing_rate(
    graph: ASGraph,
    n_destinations: int = 10,
    sources_per_destination: int = 15,
    seed: int = 0,
    session=None,
) -> float:
    """Success rate of source routing restricted to valley-free paths.

    The ceiling for any policy-compliant scheme: strictly between MIRO's
    flexible policy and unrestricted source routing, because Table 5.2
    notes unrestricted source routing "achieves most of [its] gain by
    selecting paths that conflict with the business objectives of
    intermediate ASes".
    """
    triples = list(
        sample_triples(graph, n_destinations, sources_per_destination, seed=seed,
                       session=session)
    )
    if not triples:
        return 0.0
    wins = sum(
        1 for t in triples
        if valley_free_reachable_avoiding(graph, t.source, t.destination, t.avoid)
    )
    return wins / len(triples)
