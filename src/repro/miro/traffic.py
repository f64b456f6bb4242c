"""Controlling incoming traffic with MIRO (§5.4, Figs. 5.6/5.7).

A multi-homed stub AS wants to shift inbound load from one of its ingress
links to another.  Lacking traffic data, the paper assumes every source AS
sends equal traffic, so link load is the number of sources entering through
it.  The destination finds a **power node** — a transit AS on many sources'
default paths — and asks it (a MIRO negotiation) to switch its selected
route to an alternate that enters the destination on a different link.

Two models bound the effect of the switch:

* ``convert_all`` — every source routing through the power node follows it
  to the new ingress link (the upper bound);
* ``independent_selection`` — the power node's choice is pinned and every
  other AS re-selects independently (the lower bound; some sources leave
  the power node, others newly adopt its path).

Base tables come from the shared session; pinned what-if tables are
one-off :func:`~repro.bgp.routing.compute_routes` calls, never cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..bgp.policy import make_route
from ..bgp.route import Route
from ..bgp.routing import RoutingTable, compute_routes
from ..session import SimulationSession, ensure_session
from ..topology.graph import ASGraph
from .policies import ExportPolicy, alternate_routes


@dataclass(frozen=True)
class IngressProfile:
    """Inbound load per ingress neighbour of the destination AS."""

    destination: int
    counts: Dict[int, int]
    total: int

    def share(self, ingress: int) -> float:
        return self.counts.get(ingress, 0) / self.total if self.total else 0.0


def ingress_of(path: Tuple[int, ...]) -> Optional[int]:
    """The neighbour through which a path enters its destination."""
    return path[-2] if len(path) >= 2 else None


def ingress_profile(
    table: RoutingTable, sources: Optional[Iterable[int]] = None
) -> IngressProfile:
    """Count sources entering per ingress link under default routing."""
    destination = table.destination
    counts: Dict[int, int] = {}
    total = 0
    if sources is None:
        sources = (a for a in table.graph.iter_ases() if a != destination)
    for source in sources:
        route = table.best(source)
        if route is None:
            continue
        entry = ingress_of(route.path)
        if entry is None:
            continue
        total += 1
        counts[entry] = counts.get(entry, 0) + 1
    return IngressProfile(destination, counts, total)


def switchable_routes(
    table: RoutingTable, asn: int, policy: ExportPolicy
) -> List[Route]:
    """Alternate routes ``asn`` could switch its default to, per policy.

    Here the negotiation asks the responder to *switch its own selected
    route* (§3.3's downstream-initiated case), so the filter is purely the
    class rule: STRICT allows only same-local-pref alternates (what §7.3.3
    calls "same-class routes"); EXPORT and FLEXIBLE allow any alternate —
    whatever it then advertises still follows its normal export rules.
    """
    best = table.best(asn)
    pool = alternate_routes(table, asn)
    if policy is ExportPolicy.STRICT:
        if best is None:
            return []
        return [r for r in pool if r.route_class is best.route_class]
    return pool


@dataclass(frozen=True)
class PowerNodeOption:
    """One candidate (power node, alternate route) switch for a stub."""

    power_node: int
    alternate: Route
    old_ingress: int
    new_ingress: int
    #: number of sources whose default path traverses the power node
    coverage: int
    #: AS hops from the power node to the destination on its default route
    distance: int


def power_node_options(
    table: RoutingTable,
    policy: ExportPolicy,
    sources: Optional[Sequence[int]] = None,
    max_nodes: Optional[int] = None,
) -> List[PowerNodeOption]:
    """Candidate power-node switches for the destination, best-covered first.

    ``max_nodes`` limits how many transit ASes (by descending coverage) are
    examined — the destination negotiates with a handful of candidates, not
    the whole Internet.
    """
    destination = table.destination
    if sources is None:
        sources = [a for a in table.graph.iter_ases() if a != destination]

    coverage: Dict[int, int] = {}
    for source in sources:
        route = table.best(source)
        if route is None:
            continue
        for transit in route.path[:-1]:
            if transit == source:
                continue
            coverage[transit] = coverage.get(transit, 0) + 1

    ranked = sorted(coverage, key=lambda a: (-coverage[a], a))
    if max_nodes is not None:
        ranked = ranked[:max_nodes]

    options: List[PowerNodeOption] = []
    for node in ranked:
        best = table.best(node)
        if best is None or len(best.path) < 2:
            continue
        old_ingress = ingress_of(best.path)
        for alternate in switchable_routes(table, node, policy):
            new_ingress = ingress_of(alternate.path)
            if new_ingress is None or new_ingress == old_ingress:
                continue
            options.append(
                PowerNodeOption(
                    power_node=node,
                    alternate=alternate,
                    old_ingress=old_ingress,
                    new_ingress=new_ingress,
                    coverage=coverage[node],
                    distance=best.length,
                )
            )
    return options


def convert_all_moved_fraction(
    table: RoutingTable,
    option: PowerNodeOption,
    sources: Optional[Sequence[int]] = None,
) -> float:
    """Fraction of sources moved to the new ingress if *everyone* routing
    through the power node follows it (the §5.4 upper-bound model)."""
    destination = table.destination
    if sources is None:
        sources = [a for a in table.graph.iter_ases() if a != destination]
    moved = 0
    total = 0
    for source in sources:
        route = table.best(source)
        if route is None:
            continue
        total += 1
        if option.power_node not in route.path[:-1] or source == option.power_node:
            continue
        if ingress_of(route.path) != option.new_ingress:
            moved += 1
    # the power node itself moves too
    node_route = table.best(option.power_node)
    if (
        option.power_node in sources
        and node_route is not None
        and ingress_of(node_route.path) != option.new_ingress
    ):
        moved += 1
    return moved / total if total else 0.0


def community_forced_moved_fraction(
    graph: ASGraph,
    table: RoutingTable,
    option: PowerNodeOption,
    sources: Optional[Sequence[int]] = None,
) -> float:
    """Fraction moved when the power node also *forces its customers*.

    §5.4: "it is possible the intermediate AS forces its clients to prefer
    a longer path over a shorter path using BGP community values."  Here
    the power node pins the alternate route AND each direct customer that
    previously routed through it is pinned onto the corresponding path via
    the power node; everyone else re-selects independently.  Sits between
    the convert_all upper bound and the independent_selection lower bound.
    """
    destination = table.destination
    if sources is None:
        sources = [a for a in graph.iter_ases() if a != destination]
    before = ingress_profile(table, sources)

    pinned: Dict[int, Route] = {option.power_node: option.alternate}
    for customer in graph.customers(option.power_node):
        if customer == destination or customer in option.alternate.path:
            continue
        old = table.best(customer)
        if old is None or old.next_hop != option.power_node:
            continue
        pinned[customer] = make_route(
            graph, (customer,) + option.alternate.path
        )
    pinned_table = compute_routes(graph, destination, pinned)
    after = ingress_profile(pinned_table, sources)
    gained = after.counts.get(option.new_ingress, 0) - before.counts.get(
        option.new_ingress, 0
    )
    total = before.total
    return max(0, gained) / total if total else 0.0


def independent_selection_moved_fraction(
    graph: ASGraph,
    table: RoutingTable,
    option: PowerNodeOption,
    sources: Optional[Sequence[int]] = None,
) -> float:
    """Fraction of sources moved when every AS re-selects independently
    after the power node pins the alternate route (the lower-bound model).

    Measured as the growth of the new ingress link's load relative to the
    total, so sources that independently abandon the shifted path are
    netted out.
    """
    destination = table.destination
    if sources is None:
        sources = [a for a in graph.iter_ases() if a != destination]
    before = ingress_profile(table, sources)
    pinned_table = compute_routes(
        graph, destination, {option.power_node: option.alternate}
    )
    after = ingress_profile(pinned_table, sources)
    gained = after.counts.get(option.new_ingress, 0) - before.counts.get(
        option.new_ingress, 0
    )
    total = before.total
    return max(0, gained) / total if total else 0.0


@dataclass(frozen=True)
class StubControlResult:
    """Best achievable inbound shift for one multi-homed stub.

    ``forced`` is the §5.4 community-value model (computed only when
    requested; 0.0 otherwise).
    """

    destination: int
    convert_all: float
    independent: float
    best_option: Optional[PowerNodeOption]
    forced: float = 0.0


def best_control_for_stub(
    graph: ASGraph,
    destination: int,
    policy: ExportPolicy,
    max_nodes: int = 8,
    sources: Optional[Sequence[int]] = None,
    include_forced: bool = False,
    session: Optional[SimulationSession] = None,
) -> StubControlResult:
    """Evaluate the strongest power-node switch available to one stub.

    Tries the ``max_nodes`` best-covered power nodes, takes the option with
    the largest convert_all shift, and evaluates it under both bounding
    models (plus the community-forced model with ``include_forced``).
    Thread a shared session so the base table is cached across stubs and
    repeated runs.
    """
    session = ensure_session(graph, session)
    table = session.compute(destination)
    options = power_node_options(
        table, policy, sources=sources, max_nodes=max_nodes
    )
    best_option: Optional[PowerNodeOption] = None
    best_convert = 0.0
    for option in options:
        moved = convert_all_moved_fraction(table, option, sources=sources)
        if moved > best_convert:
            best_convert = moved
            best_option = option
    if best_option is None:
        return StubControlResult(destination, 0.0, 0.0, None)
    independent = independent_selection_moved_fraction(
        graph, table, best_option, sources=sources
    )
    forced = 0.0
    if include_forced:
        forced = community_forced_moved_fraction(
            graph, table, best_option, sources=sources
        )
    return StubControlResult(
        destination, best_convert, independent, best_option, forced
    )
