"""Topology statistics: degree distributions, tiers, Table 5.1 attributes.

These back Fig. 5.1 (node-degree distribution) and the data-set attribute
summary of Table 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .graph import ASGraph
from .relationships import LinkType


@dataclass(frozen=True, slots=True)
class TopologySummary:
    """The Table 5.1 attribute row for one topology."""

    name: str
    n_ases: int
    n_links: int
    n_customer_provider: int
    n_peering: int
    n_sibling: int
    n_stubs: int
    n_multihomed: int

    def as_row(self) -> Tuple:
        return (
            self.name, self.n_ases, self.n_links,
            self.n_customer_provider, self.n_peering, self.n_sibling,
        )


def summarize(graph: ASGraph, name: str = "topology") -> TopologySummary:
    """Compute the Table 5.1 attributes plus stub/multi-homing counts."""
    counts = graph.link_counts()
    multihomed = sum(1 for a in graph.iter_ases() if graph.degree(a) >= 2)
    return TopologySummary(
        name=name,
        n_ases=len(graph),
        n_links=graph.num_links,
        n_customer_provider=counts[LinkType.CUSTOMER_PROVIDER],
        n_peering=counts[LinkType.PEER_PEER],
        n_sibling=counts[LinkType.SIBLING_SIBLING],
        n_stubs=len(graph.stubs()),
        n_multihomed=multihomed,
    )


def degree_sequence(graph: ASGraph) -> List[int]:
    """Node degrees, descending."""
    return sorted((graph.degree(a) for a in graph.iter_ases()), reverse=True)


def degree_ccdf(graph: ASGraph) -> List[Tuple[int, float]]:
    """Complementary CDF of node degree: (d, fraction of ASes with degree >= d).

    This is the Fig. 5.1 curve.
    """
    degrees = degree_sequence(graph)
    n = len(degrees)
    if n == 0:
        return []
    points: List[Tuple[int, float]] = []
    seen = set()
    for i, d in enumerate(degrees):
        if d not in seen:
            seen.add(d)
            points.append((d, (i + 1) / n))
    # re-express as >= d: fraction with degree >= d is count(deg >= d)/n
    ccdf: List[Tuple[int, float]] = []
    for d in sorted(seen):
        frac = sum(1 for x in degrees if x >= d) / n
        ccdf.append((d, frac))
    return ccdf


def top_degree_ases(graph: ASGraph, fraction: float) -> List[int]:
    """The highest-degree ``fraction`` of ASes (at least one), degree-sorted.

    Used by the incremental-deployment experiment (§5.3.3), which deploys
    MIRO "in order of decreasing node degree".
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ranked = sorted(
        graph.iter_ases(), key=lambda a: (-graph.degree(a), a)
    )
    count = max(1, int(round(len(ranked) * fraction)))
    return ranked[:count]


def bottom_degree_ases(graph: ASGraph, fraction: float) -> List[int]:
    """The lowest-degree ``fraction`` of ASes (the §5.3.3 control)."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ranked = sorted(
        graph.iter_ases(), key=lambda a: (graph.degree(a), a)
    )
    count = max(1, int(round(len(ranked) * fraction)))
    return ranked[:count]


def mean_degree(graph: ASGraph) -> float:
    if len(graph) == 0:
        return 0.0
    return 2.0 * graph.num_links / len(graph)
