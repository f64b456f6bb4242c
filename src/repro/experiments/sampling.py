"""Deterministic sampling of experiment populations.

The paper evaluates all ~300 M (source, destination) pairs; we sample with
a seeded RNG instead (see DESIGN.md §1).  Samples are grouped by
destination, and routing tables come from a
:class:`~repro.session.SimulationSession` — pass the run's shared session
so tables sampled here are reused by every other experiment on the same
graph (repeated sweeps then cost cache lookups, not recomputation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..bgp.routing import RoutingTable
from ..session import SimulationSession, ensure_session
from ..topology.graph import ASGraph

#: Sample sizes of the evaluation's sections
#: (:data:`~repro.experiments.SECTIONS`, through
#: :class:`~repro.experiments.suite.Inputs`): ``repro experiment``,
#: :func:`~repro.experiments.full_report` and
#: :func:`~repro.experiments.export_results` all run at these, so one
#: graph and seed show the same numbers in each.
DEFAULT_N_DESTINATIONS = 8
DEFAULT_SOURCES_PER_DESTINATION = 10
DEFAULT_N_STUBS = 12


@dataclass(frozen=True)
class PairSample:
    """A (source, destination) pair with the destination's routing table."""

    source: int
    destination: int
    table: RoutingTable


@dataclass(frozen=True)
class TripleSample:
    """A (source, destination, AS-to-avoid) triple for §5.3.

    ``avoid`` is an intermediate AS on the source's default path, and never
    an immediate neighbour of the source (the paper deliberately excludes
    those cases).
    """

    source: int
    destination: int
    avoid: int
    table: RoutingTable


def sample_pairs(
    graph: ASGraph,
    n_destinations: int,
    sources_per_destination: int,
    seed: int = 0,
    session: Optional[SimulationSession] = None,
) -> Iterator[PairSample]:
    """Sample reachable (source, destination) pairs, grouped by destination."""
    session = ensure_session(graph, session)
    rng = random.Random(seed)
    ases = graph.ases
    destinations = rng.sample(ases, min(n_destinations, len(ases)))
    tables = session.compute_many(destinations)
    for destination in destinations:
        table = tables[destination]
        routed = [a for a in table.routed_ases() if a != destination]
        if not routed:
            continue
        count = min(sources_per_destination, len(routed))
        for source in rng.sample(routed, count):
            yield PairSample(source, destination, table)


def sample_triples(
    graph: ASGraph,
    n_destinations: int,
    sources_per_destination: int,
    seed: int = 0,
    avoids_per_pair: int = 1,
    session: Optional[SimulationSession] = None,
) -> Iterator[TripleSample]:
    """Sample (source, destination, avoid) triples for the §5.3 experiments.

    For each sampled pair, up to ``avoids_per_pair`` eligible intermediate
    ASes on the default path are drawn: interior hops that are not
    immediate neighbours of the source.
    """
    rng = random.Random(seed)
    for pair in sample_pairs(
        graph, n_destinations, sources_per_destination, seed=seed + 1,
        session=session,
    ):
        path = pair.table.default_path(pair.source)
        if path is None or len(path) < 3:
            continue
        eligible = [
            asn for asn in path[1:-1] if not graph.has_link(pair.source, asn)
        ]
        if not eligible:
            continue
        count = min(avoids_per_pair, len(eligible))
        for avoid in rng.sample(eligible, count):
            yield TripleSample(pair.source, pair.destination, avoid, pair.table)


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Cumulative distribution: (value, fraction of population <= value)."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    points: List[Tuple[float, float]] = []
    for i, value in enumerate(ordered, start=1):
        if points and points[-1][0] == value:
            points[-1] = (value, i / n)
        else:
            points.append((value, i / n))
    return points


def ccdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Complementary CDF: (value, fraction of population >= value)."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    points: List[Tuple[float, float]] = []
    for i, value in enumerate(ordered):
        frac = (n - i) / n
        if points and points[-1][0] == value:
            continue
        points.append((value, frac))
    return points


def fraction_at_least(values: Sequence[float], threshold: float) -> float:
    """Fraction of values >= threshold (the Fig. 5.6 reading)."""
    if not values:
        return 0.0
    return sum(1 for v in values if v >= threshold) / len(values)
