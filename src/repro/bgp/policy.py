"""Gao–Rexford export and preference policies (§2.2.1).

Export rules:
* customer routes are advertised to every neighbour;
* peer or provider routes are advertised to customers only;
* all routes are advertised to siblings.

Preference rule: customer routes > peer routes > provider routes.

Sibling routes are classified by the first non-sibling link on the path
(§2.2.1): e.g. a path whose links read sibling, sibling, peer, ... is a peer
route; an all-sibling path is a customer route.

Valley-free rule: read from the holder toward the destination, a legal
path is (customer→provider)* (peer→peer)? (provider→customer)*, sibling
links being transparent.

This module is the one statement of these rules: the convergence model,
the source-routing ceiling and the invariant checkers call it.  The
settling kernels alone re-encode them in index space
(``snapshot.PHASE_CLASSES``, ``routing._LINK_CLASS``), held byte-equal
to the reference walk that calls this module.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..errors import RoutingError
from ..topology.graph import ASGraph
from ..topology.relationships import Relationship
from .route import Route, RouteClass

_REL_TO_CLASS = {
    Relationship.CUSTOMER: RouteClass.CUSTOMER,
    Relationship.PEER: RouteClass.PEER,
    Relationship.PROVIDER: RouteClass.PROVIDER,
}


def classify_path(graph: ASGraph, path: Tuple[int, ...]) -> RouteClass:
    """Business class of an AS path held by ``path[0]``, sibling-resolved."""
    if len(path) < 1:
        raise RoutingError("cannot classify an empty path")
    if len(path) == 1:
        return RouteClass.ORIGIN
    for here, nxt in zip(path, path[1:]):
        rel = graph.relationship(here, nxt)
        if rel is not Relationship.SIBLING:
            return _REL_TO_CLASS[rel]
    # all links are sibling links: treated as a customer route (§2.2.1)
    return RouteClass.CUSTOMER


def valley_free_step(phase: int, rel: Relationship) -> Optional[int]:
    """The valley-free phase after one hop toward a neighbour that is
    ``rel`` to the current AS, or None if the hop makes a valley.

    Phases: 0 still climbing (customer→provider), 1 crossed a peering
    link, 2 descending (provider→customer).  A sibling hop keeps the phase.
    """
    if rel is Relationship.SIBLING:
        return phase
    if rel is Relationship.PROVIDER:  # climbing to a provider
        return 0 if phase == 0 else None
    if rel is Relationship.PEER:
        return 1 if phase == 0 else None
    return 2  # descending to a customer is always allowed


def is_valley_free(graph: ASGraph, path: Tuple[int, ...]) -> bool:
    """Does ``path``, read from its holder, obey the valley-free rule?"""
    phase: Optional[int] = 0
    for here, nxt in zip(path, path[1:]):
        phase = valley_free_step(phase, graph.relationship(here, nxt))
        if phase is None:
            return False
    return True


def make_route(graph: ASGraph, path: Tuple[int, ...]) -> Route:
    """Build a :class:`Route` for ``path``, classifying it on the fly."""
    return Route(path=tuple(path), route_class=classify_path(graph, tuple(path)))


def may_export(
    graph: ASGraph, holder: int, neighbor: int, route_class: RouteClass
) -> bool:
    """May ``holder`` advertise a route of ``route_class`` to ``neighbor``?

    Implements the export rules above.  The origin's null route counts as a
    customer route (the origin advertises its own prefix to everyone).
    """
    rel = graph.relationship(holder, neighbor)
    if rel is Relationship.SIBLING:
        return True  # all routes are advertised to siblings
    if rel is Relationship.CUSTOMER:
        return True  # any route is advertised to a customer
    # neighbour is a peer or provider: only customer (or origin) routes
    return route_class in (RouteClass.CUSTOMER, RouteClass.ORIGIN)


def exportable_route(
    graph: ASGraph, route: Route, neighbor: int
) -> Optional[Route]:
    """The route ``neighbor`` would learn from ``route.holder``, or None.

    Returns None if the export rules forbid it or if ``neighbor`` already
    appears on the path (the receiver's implicit loop check, §2.1.1).
    """
    if not may_export(graph, route.holder, neighbor, route.route_class):
        return None
    if route.contains(neighbor):
        return None
    new_path = (neighbor,) + route.path
    return make_route(graph, new_path)


def select_best(routes: Iterable[Route]) -> Optional[Route]:
    """The Gao–Rexford best route, or None if no candidates."""
    best: Optional[Route] = None
    for route in routes:
        if best is None or route.preference_key() > best.preference_key():
            best = route
    return best
