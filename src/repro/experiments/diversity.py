"""Figs. 5.2 / 5.3 — number of available routes per (source, destination).

For sampled pairs, count the distinct AS paths available under the two
negotiation scenarios ("1-hop", "path") and three export policies
(strict/export/flexible), and report the sorted distribution the paper
plots, plus the headline statistics: the fraction of pairs with no
alternate at all, the median, and the upper-quartile counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..miro.avoidance import NegotiationScope
from ..miro.diversity import count_available_paths
from ..miro.policies import ExportPolicy, all_policies
from ..topology.graph import ASGraph
from .sampling import sample_pairs


@dataclass(frozen=True)
class DiversitySeries:
    """One curve of Fig. 5.2: counts per pair under (scope, policy)."""

    scope: NegotiationScope
    policy: ExportPolicy
    counts: Tuple[int, ...]

    @property
    def label(self) -> str:
        return f"{self.scope.value}{self.policy.value}"

    @property
    def fraction_no_alternate(self) -> float:
        """Pairs whose only available route is the default (count <= 1)."""
        if not self.counts:
            return 0.0
        return sum(1 for c in self.counts if c <= 1) / len(self.counts)

    def fraction_with_at_least(self, n: int) -> float:
        if not self.counts:
            return 0.0
        return sum(1 for c in self.counts if c >= n) / len(self.counts)

    @property
    def median(self) -> float:
        if not self.counts:
            return 0.0
        ordered = sorted(self.counts)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return float(ordered[mid])
        return (ordered[mid - 1] + ordered[mid]) / 2

    def quantile(self, q: float) -> float:
        if not self.counts:
            return 0.0
        ordered = sorted(self.counts)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return float(ordered[index])

def run_diversity(
    graph: ASGraph,
    n_destinations: int = 12,
    sources_per_destination: int = 25,
    seed: int = 0,
    session=None,
) -> Dict[str, DiversitySeries]:
    """All six Fig. 5.2 curves for one topology."""
    pairs = list(
        sample_pairs(graph, n_destinations, sources_per_destination, seed=seed,
                     session=session)
    )
    series: Dict[str, DiversitySeries] = {}
    for scope in (NegotiationScope.ONE_HOP, NegotiationScope.ON_PATH):
        for policy in all_policies():
            counts = tuple(
                count_available_paths(
                    pair.table, pair.source, policy, scope
                )
                for pair in pairs
            )
            curve = DiversitySeries(scope, policy, counts)
            series[curve.label] = curve
    return series
